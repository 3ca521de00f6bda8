package exec

import (
	"testing"
	"time"
)

func newTestSupervision(budget int, base, max, decay time.Duration) *supervision {
	return newSupervision(4, Options{
		PanicBudget:    budget,
		QuarantineBase: base,
		QuarantineMax:  max,
		PanicDecay:     decay,
	})
}

func TestSupervisionBudgetTripsQuarantine(t *testing.T) {
	s := newTestSupervision(3, 100*time.Millisecond, time.Second, time.Hour)
	base := time.Unix(0, 0)
	s.notePanic(1, base)
	s.notePanic(1, base.Add(time.Millisecond))
	if s.quarantines.Load() != 0 {
		t.Fatal("quarantine engaged below budget")
	}
	if s.quarantined(1, base.Add(2*time.Millisecond).UnixNano()) {
		t.Fatal("operator quarantined below budget")
	}
	s.notePanic(1, base.Add(2*time.Millisecond))
	if s.quarantines.Load() != 1 {
		t.Fatalf("quarantines = %d after budget exhausted, want 1", s.quarantines.Load())
	}
	if !s.quarantined(1, base.Add(3*time.Millisecond).UnixNano()) {
		t.Fatal("operator not quarantined after budget exhausted")
	}
	// Other operators are unaffected.
	if s.quarantined(0, base.Add(3*time.Millisecond).UnixNano()) {
		t.Fatal("unrelated operator quarantined")
	}
}

func TestSupervisionExponentialBackoffCapped(t *testing.T) {
	base := 10 * time.Millisecond
	max := 35 * time.Millisecond
	s := newTestSupervision(1, base, max, time.Hour)
	now := time.Unix(0, 0)
	wants := []time.Duration{
		10 * time.Millisecond, // round 0
		20 * time.Millisecond, // round 1
		35 * time.Millisecond, // round 2 would be 40ms: capped
		35 * time.Millisecond, // stays at the cap
	}
	for i, want := range wants {
		s.notePanic(2, now)
		until := s.nodes[2].until.Load()
		if got := time.Duration(until - now.UnixNano()); got != want {
			t.Fatalf("quarantine %d lasts %v, want %v", i, got, want)
		}
		// Release by observing the expiry, then advance past it.
		now = time.Unix(0, until).Add(time.Millisecond)
		if s.quarantined(2, now.UnixNano()) {
			t.Fatalf("quarantine %d still active after expiry", i)
		}
	}
}

func TestSupervisionSingleReleasePerEngagement(t *testing.T) {
	s := newTestSupervision(1, 10*time.Millisecond, time.Second, time.Hour)
	now := time.Unix(0, 0)
	s.notePanic(0, now)
	after := now.Add(20 * time.Millisecond).UnixNano()
	// Every post-expiry check agrees the operator is free, but exactly one
	// of them is counted as the release probe.
	for i := 0; i < 5; i++ {
		if s.quarantined(0, after) {
			t.Fatal("operator still quarantined after expiry")
		}
	}
	if got := s.releases.Load(); got != 1 {
		t.Fatalf("releases = %d, want exactly 1 per engagement", got)
	}
}

func TestSupervisionDecayForgivesStrikesThenRounds(t *testing.T) {
	decay := 100 * time.Millisecond
	s := newTestSupervision(2, 10*time.Millisecond, time.Second, decay)
	now := time.Unix(0, 0)
	// Two quick panics: quarantine, round goes to 1.
	s.notePanic(3, now)
	s.notePanic(3, now.Add(time.Millisecond))
	if s.quarantines.Load() != 1 || s.nodes[3].round != 1 {
		t.Fatalf("quarantines=%d round=%d, want 1/1", s.quarantines.Load(), s.nodes[3].round)
	}
	// A long quiet spell forgives the (zero) strikes and then the round,
	// so the next burst starts from a clean slate at the base duration.
	quiet := now.Add(time.Millisecond).Add(3 * decay)
	s.notePanic(3, quiet)
	if s.nodes[3].round != 0 {
		t.Fatalf("round = %d after quiet spell, want 0", s.nodes[3].round)
	}
	if s.nodes[3].strikes != 1 {
		t.Fatalf("strikes = %d after one post-quiet panic, want 1", s.nodes[3].strikes)
	}
	s.notePanic(3, quiet.Add(time.Millisecond))
	until := s.nodes[3].until.Load()
	if got := time.Duration(until - quiet.Add(time.Millisecond).UnixNano()); got != 10*time.Millisecond {
		t.Fatalf("post-decay quarantine lasts %v, want the base 10ms", got)
	}
}

func TestSupervisionActiveCount(t *testing.T) {
	s := newTestSupervision(1, 50*time.Millisecond, time.Second, time.Hour)
	now := time.Unix(0, 0)
	s.notePanic(0, now)
	s.notePanic(2, now)
	if got := s.active(now.Add(time.Millisecond).UnixNano()); got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}
	if got := s.active(now.Add(time.Minute).UnixNano()); got != 0 {
		t.Fatalf("active = %d after expiry, want 0", got)
	}
}

// TestSetDefaultsClampsQuarantineMax pins how the quarantine cap defaults:
// unset takes the 5s default, a cap below the base is raised to the base
// rather than replaced by the default, and a cap above the base stays.
func TestSetDefaultsClampsQuarantineMax(t *testing.T) {
	for _, tc := range []struct {
		name      string
		max, want time.Duration
	}{
		{"zero takes the default", 0, 5 * time.Second},
		{"below the base clamps to it", 50 * time.Millisecond, 100 * time.Millisecond},
		{"above the base stays", 2 * time.Second, 2 * time.Second},
	} {
		o := Options{QuarantineMax: tc.max}
		o.setDefaults()
		if o.QuarantineMax != tc.want {
			t.Errorf("%s: QuarantineMax %v became %v, want %v", tc.name, tc.max, o.QuarantineMax, tc.want)
		}
	}
}
