package check

import (
	"testing"
	"time"

	"counterlight/internal/figures"
	"counterlight/internal/obs"
)

// A chaos-free cluster replay of generated programs is a superset of
// the concurrent differential check: everything acknowledged, nothing
// rejected, all five oracle layers clean.
func TestClusterReplayClean(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		prog := Generate(seed, ConcurrentGenConfig())
		res, err := ClusterReplay(prog, ClusterConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Div != nil {
			t.Fatalf("seed %d: %s", seed, res.Div)
		}
		if res.Rejected != 0 || res.Acked != res.Ops {
			t.Fatalf("seed %d: %d acked + %d rejected of %d ops without chaos", seed, res.Acked, res.Rejected, res.Ops)
		}
	}
}

// Chaos mode: a node dies and recovers mid-traffic. Ops routed into
// the dark window shed; everything acknowledged must still verify and
// read back bit-identically.
func TestClusterReplayChaos(t *testing.T) {
	var sawRejects bool
	for seed := int64(11); seed <= 13; seed++ {
		prog := Generate(seed, ConcurrentGenConfig())
		res, err := ClusterReplay(prog, ClusterConfig{Chaos: true, Downtime: 3 * time.Millisecond})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Div != nil {
			t.Fatalf("seed %d: %s", seed, res.Div)
		}
		if res.Kills != 1 || res.Restarts != 1 {
			t.Fatalf("seed %d: kills %d restarts %d", seed, res.Kills, res.Restarts)
		}
		if res.Acked+res.Rejected != res.Ops {
			t.Fatalf("seed %d: %d acked + %d rejected != %d ops", seed, res.Acked, res.Rejected, res.Ops)
		}
		sawRejects = sawRejects || res.Rejected > 0
	}
	if !sawRejects {
		t.Log("no ops landed in any dark window (kill raced ahead of traffic); chaos still exercised kill/restart")
	}
}

// The oracle's teeth: BreakRecovery drops each shard's newest durable
// record before recovery, so a restart silently loses state. The
// harness must flag it — via seq reuse, stale read-back, or a verify
// mismatch. An undetected broken recovery means the whole chaos
// campaign proves nothing.
func TestClusterReplayBreakRecoveryDetected(t *testing.T) {
	detected := 0
	for seed := int64(21); seed <= 23; seed++ {
		prog := Generate(seed, ConcurrentGenConfig())
		res, err := ClusterReplay(prog, ClusterConfig{Chaos: true, BreakRecovery: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Div != nil {
			t.Logf("seed %d detected: %s", seed, res.Div)
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("broken recovery slipped past every oracle layer — the chaos campaign has no teeth")
	}
}

// The campaign driver aggregates across seeds and lands metrics.
func TestRunClusterCampaign(t *testing.T) {
	runner := figures.NewRunner(true)
	runner.Workers = 2
	reg := obs.NewRegistry()
	report, err := RunCampaign(CampaignSpec{Seeds: 4, SeedStart: 100}, ClusterKind(ClusterConfig{Chaos: true}), runner, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		for _, f := range report.Failures {
			t.Errorf("seed %d: %s", f.Seed, &f.Div)
		}
	}
	if report.Programs != 4 || report.Counts["kills"] != 4 || report.Counts["restarts"] != 4 {
		t.Fatalf("report %+v", report)
	}
	labels := []obs.Label{{Key: "campaign", Value: "cluster"}}
	if got := reg.Counter("check_cluster_programs_total", labels...).Value(); got != 4 {
		t.Fatalf("programs metric %d, want 4", got)
	}
}
