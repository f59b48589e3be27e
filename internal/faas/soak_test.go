package faas

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestSoakLongMixedWorkload drives two virtual hours of mixed traffic
// through every policy with tight memory, verifying conservation
// invariants hold throughout (no leaked bytes, no lost invocations, no
// negative anything). Skipped with -short.
func TestSoakLongMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(11))
	cfgW2 := workload.DefaultW2(fnNames())
	cfgW2.Duration = 2 * time.Hour
	tr := workload.W2Diurnal(rng, cfgW2)

	for _, pol := range []Policy{PolicyCRIU, PolicyREAPPlus, PolicyTrEnvCXL, PolicyTrEnvRDMA} {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			cfg := DefaultConfig(pol)
			cfg.SoftMemCap = 3 << 30
			cfg.MaxPerFunction = 32
			pl := New(cfg)
			for _, p := range workload.Table4() {
				if err := pl.Register(p); err != nil {
					t.Fatal(err)
				}
			}
			pl.RunTrace(tr)
			m := pl.Metrics()
			if m.Errors.Value() != 0 {
				t.Fatalf("errors = %d", m.Errors.Value())
			}
			if m.Invocations() == 0 {
				t.Fatal("nothing recorded")
			}
			// Conservation: after the run drains (keep-alive expiries
			// included), all node DRAM is back.
			if pl.Node().Used() != 0 {
				t.Fatalf("leaked %d bytes of node DRAM", pl.Node().Used())
			}
			if pl.WarmCount() != 0 {
				t.Fatalf("warm instances survived drain: %d", pl.WarmCount())
			}
			// Latencies are sane: p50 <= p99 <= something finite.
			e2e := &m.All.E2E
			if e2e.Percentile(50) > e2e.Percentile(99) {
				t.Fatal("percentiles inverted")
			}
			if e2e.Max() > 10*60*1000 {
				t.Fatalf("pathological e2e max: %.0fms", e2e.Max())
			}
		})
	}
}

// TestSoakDeterminism runs a medium soak twice and demands bit-identical
// metrics.
func TestSoakDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	run := func() (int, float64, int64) {
		rng := rand.New(rand.NewSource(5))
		cfgW1 := workload.DefaultW1(fnNames())
		cfgW1.Duration = 40 * time.Minute
		tr := workload.W1Bursty(rng, cfgW1)
		cfg := DefaultConfig(PolicyTrEnvCXL)
		cfg.SoftMemCap = 4 << 30
		pl := New(cfg)
		for _, p := range workload.Table4() {
			pl.Register(p)
		}
		pl.RunTrace(tr)
		return pl.Metrics().Invocations(), pl.Metrics().All.E2E.Percentile(99), pl.PeakMemory()
	}
	n1, p1, m1 := run()
	n2, p2, m2 := run()
	if n1 != n2 || p1 != p2 || m1 != m2 {
		t.Fatalf("soak not deterministic: (%d,%f,%d) vs (%d,%f,%d)", n1, p1, m1, n2, p2, m2)
	}
}
