package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"streamelastic/internal/fault"
	"streamelastic/internal/monitor"
)

const (
	chaosClusterTuples = 60000
	chaosClusterRate   = 40000
	chaosClusterSeed   = 7
	// Operator panics exhaust well before the grow is requested, so the
	// three dropped tuples are identical in both runs regardless of where
	// regions later live.
	chaosPanicEveryN = 1200
	chaosPanicFires  = 3
)

// armChaos arms the shared fault plan for one run. Panics target w1
// (global node 1), resolved through the initial width-2 partition — both
// runs start from the identical partition, so the site matches. ConnKill
// is armed across every stream id the run can mint (the initial cross
// edge plus edges created by splits): connection kills are
// output-transparent by construction (retransmit ring + seq dedup), so
// arming them everywhere — including streams that only exist
// mid-migration — is safe in both runs.
func armChaos(m *Manager, inj *fault.Injector) int {
	m.mu.Lock()
	site := fault.OpSite(m.members[0].plan.PE, int(m.members[0].plan.LocalOf[1]))
	m.mu.Unlock()
	inj.Arm(fault.OpPanic, site, fault.Plan{EveryN: chaosPanicEveryN, MaxFires: chaosPanicFires})
	for sid := 0; sid < 8; sid++ {
		inj.Arm(fault.ConnKill, sid, fault.Plan{EveryN: 1750, MaxFires: 6})
	}
	return site
}

// streamResumes sums resume handshakes across the live fleet's imports.
func streamResumes(m *Manager) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, st := range m.streams {
		if st.imp != nil {
			n += st.imp.Resumes()
		}
	}
	return n
}

// TestChaosClusterMigration is the headline exactly-once claim for region
// migration: a stateful pipeline is grown 2 -> 4 and shrunk 4 -> 2 while
// streaming, with connections killed mid-migration and operator panics
// dropping tuples, and the sink's rendered output is byte-identical to a
// same-seed run that never migrates. Migration must add nothing, lose
// nothing, and duplicate nothing.
func TestChaosClusterMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes a few seconds")
	}

	// Baseline: same graph, same seed, same fault plan, fixed width 2.
	baseline := func() []byte {
		g, sink := chainJob(t, chaosClusterTuples, chaosClusterRate)
		inj := fault.New(chaosClusterSeed)
		m, err := New(g, Options{
			Spec: WidthSpec{Min: 2, Max: 2, Step: 1, Desired: 2},
			PE:   testPEOpts(inj),
		})
		if err != nil {
			t.Fatal(err)
		}
		armChaos(m, inj)
		if err := m.Start(context.Background()); err != nil {
			m.Stop()
			t.Fatal(err)
		}
		defer m.Stop()
		waitSinkCount(t, sink, chaosClusterTuples-chaosPanicFires, 60*time.Second)
		if !m.DrainAndStop(30 * time.Second) {
			t.Fatal("baseline fleet did not drain")
		}
		if d := sink.dups.Load(); d != 0 {
			t.Fatalf("baseline sink saw %d duplicates", d)
		}
		return sink.output()
	}()

	// Migrated run: identical except the fleet is resized mid-stream.
	g, sink := chainJob(t, chaosClusterTuples, chaosClusterRate)
	inj := fault.New(chaosClusterSeed)
	m, err := New(g, Options{
		Spec: WidthSpec{Min: 2, Max: 4, Step: 1, Desired: 2},
		PE:   testPEOpts(inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	site := armChaos(m, inj)
	if err := m.Start(context.Background()); err != nil {
		m.Stop()
		t.Fatal(err)
	}
	defer m.Stop()

	srv := httptest.NewServer(monitor.ObservabilityHandler(m))
	defer srv.Close()

	// Let the panics burn out before moving anything, so the dropped
	// tuples match the baseline exactly.
	waitFor(t, "operator panics to exhaust", 30*time.Second, func() bool {
		return inj.Fires(fault.OpPanic, site) == chaosPanicFires
	})

	// Grow 2 -> 4 while streaming, watching /statusz for the pending
	// transition. Each migration holds pending for at least two quiesce
	// passes, so a 2ms poll observes it.
	pendingSeen := false
	m.SetDesired(4)
	waitFor(t, "grow to 4", 60*time.Second, func() bool {
		sts := scrapeStatus(t, srv.URL)
		if w := sts[0].Width; w != nil && w.Pending != "" {
			pendingSeen = true
		}
		st := m.Status()
		return st.Allocated == 4 && st.Pending == ""
	})
	if !pendingSeen {
		t.Error("/statusz never reported a pending width transition during grow")
	}

	// Shrink 4 -> 2, still streaming.
	m.SetDesired(2)
	waitFor(t, "shrink to 2", 60*time.Second, func() bool {
		st := m.Status()
		return st.Allocated == 2 && st.Pending == ""
	})

	waitSinkCount(t, sink, chaosClusterTuples-chaosPanicFires, 60*time.Second)
	resumes := streamResumes(m)
	if !m.DrainAndStop(30 * time.Second) {
		t.Fatal("migrated fleet did not drain")
	}

	if d := sink.dups.Load(); d != 0 {
		t.Fatalf("migrated sink saw %d duplicate sequences", d)
	}
	migrated := sink.output()
	if !bytes.Equal(baseline, migrated) {
		t.Fatalf("migrated output differs from unmigrated baseline: %d vs %d bytes (exactly-once broken by migration)",
			len(migrated), len(baseline))
	}

	st := m.Status()
	if st.MigrationsCompleted != 4 {
		t.Errorf("migrations completed = %d, want 4", st.MigrationsCompleted)
	}
	if st.MigrationsAborted != 0 {
		t.Errorf("migrations aborted = %d, want 0", st.MigrationsAborted)
	}

	// The run must actually have exercised the fault paths: connections
	// were killed (and recovered via resume handshakes).
	var kills uint64
	for sid := 0; sid < 8; sid++ {
		kills += inj.Fires(fault.ConnKill, sid)
	}
	if kills == 0 {
		t.Error("no connections were killed: chaos plan never fired")
	}
	if resumes == 0 {
		t.Error("no resume handshakes observed despite connection kills")
	}
}
