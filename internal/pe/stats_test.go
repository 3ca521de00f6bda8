package pe

import (
	"testing"
	"time"
)

// TestWithDefaultsClampsReconnectMax pins how the redial backoff cap
// defaults: unset takes the 500ms default, a cap below the base is raised
// to the base rather than replaced by the default, and a cap above the base
// stays.
func TestWithDefaultsClampsReconnectMax(t *testing.T) {
	for _, tc := range []struct {
		name      string
		max, want time.Duration
	}{
		{"zero takes the default", 0, 500 * time.Millisecond},
		{"below the base clamps to it", 5 * time.Millisecond, 10 * time.Millisecond},
		{"above the base stays", 2 * time.Second, 2 * time.Second},
	} {
		c := TransportConfig{ReconnectMaxDelay: tc.max}.withDefaults()
		if c.ReconnectMaxDelay != tc.want {
			t.Errorf("%s: ReconnectMaxDelay %v became %v, want %v", tc.name, tc.max, c.ReconnectMaxDelay, tc.want)
		}
	}
}
