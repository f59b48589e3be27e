package faas

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/workload"
)

func fnNames() []string {
	var out []string
	for _, p := range workload.Table4() {
		out = append(out, p.Name)
	}
	return out
}

func newPlatform(t *testing.T, policy Policy) *Platform {
	t.Helper()
	pl := New(DefaultConfig(policy))
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatalf("register %s: %v", p.Name, err)
		}
	}
	return pl
}

// smallTrace builds a light bursty trace for fast tests.
func smallTrace(seed int64) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.W1Config{
		Functions: fnNames(),
		Duration:  3 * time.Minute,
		BurstGap:  90 * time.Second,
		BurstSize: 3,
		BurstSpan: 2 * time.Second,
	}
	return workload.W1Bursty(rng, cfg)
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	pl := newPlatform(t, PolicyTrEnvCXL)
	if err := pl.Register(workload.Table4()[0]); err == nil {
		t.Fatal("duplicate register accepted")
	}
}

func TestInvokeUnknownFunctionCountsError(t *testing.T) {
	pl := New(DefaultConfig(PolicyFaasd))
	pl.Invoke(0, "nope")
	pl.Engine().Run()
	if pl.Metrics().Errors.Value() != 1 {
		t.Fatal("unknown function not flagged")
	}
}

func TestWarmReuseWithinKeepAlive(t *testing.T) {
	pl := newPlatform(t, PolicyTrEnvCXL)
	pl.Invoke(0, "JS")
	pl.Invoke(30*time.Second, "JS") // within keep-alive
	pl.Engine().Run()
	m := pl.Metrics()
	if m.Invocations() != 2 {
		t.Fatalf("invocations = %d (errors=%d)", m.Invocations(), m.Errors.Value())
	}
	if m.WarmHits.Value() != 1 {
		t.Fatalf("warm hits = %d, want 1", m.WarmHits.Value())
	}
	// Warm hit is far faster than any start.
	fm := m.Fn("JS")
	if fm.Startup.Max() > 1.0 && fm.Startup.Min() > 1.0 {
		t.Fatalf("warm startup should be sub-ms: %s", fm.Startup.Summary())
	}
}

func TestKeepAliveExpiryFeedsUniversalPool(t *testing.T) {
	pl := newPlatform(t, PolicyTrEnvCXL)
	pl.Invoke(0, "JS")
	// Past keep-alive: instance expires, sandbox recycled; a different
	// function should then repurpose it.
	pl.Invoke(11*time.Minute, "CR")
	pl.Engine().Run()
	m := pl.Metrics()
	if m.Repurposes.Value() != 1 {
		t.Fatalf("repurposes = %d, want 1 (CR should reuse JS's sandbox)", m.Repurposes.Value())
	}
	if m.WarmHits.Value() != 0 {
		t.Fatalf("warm hits = %d", m.WarmHits.Value())
	}
	if pl.Node().Used() != 0 && pl.WarmCount() == 0 {
		// All instances eventually released after final expiry.
		t.Fatalf("node memory leaked: %d", pl.Node().Used())
	}
}

func TestCRIUExpiryDiscardsSandbox(t *testing.T) {
	pl := newPlatform(t, PolicyCRIU)
	pl.Invoke(0, "JS")
	pl.Invoke(11*time.Minute, "CR")
	pl.Engine().Run()
	if pl.Metrics().Repurposes.Value() != 0 {
		t.Fatal("CRIU policy should never repurpose")
	}
	if pl.Metrics().Restores.Value() != 2 {
		t.Fatalf("restores = %d", pl.Metrics().Restores.Value())
	}
}

func TestTrEnvBeatsBaselinesOnBurstyP99(t *testing.T) {
	// W1 semantics: burst gaps exceed keep-alive, so every burst after
	// the first finds no warm instance. The first burst (inside the
	// warm-up window, excluded from metrics) populates the pools.
	rng := rand.New(rand.NewSource(42))
	tr := workload.W1Bursty(rng, workload.W1Config{
		Functions: fnNames(),
		Duration:  5 * time.Minute,
		BurstGap:  80 * time.Second,
		BurstSize: 3,
		BurstSpan: 2 * time.Second,
	})
	policies := []Policy{PolicyCRIU, PolicyREAPPlus, PolicyFaaSnapPlus, PolicyTrEnvCXL}
	p99 := make(map[Policy]float64)
	for _, pol := range policies {
		cfg := DefaultConfig(pol)
		cfg.KeepAlive = 45 * time.Second
		cfg.Warmup = 10 * time.Second
		pl := New(cfg)
		for _, p := range workload.Table4() {
			if err := pl.Register(p); err != nil {
				t.Fatal(err)
			}
		}
		pl.RunTrace(tr)
		if pl.Metrics().Errors.Value() != 0 {
			t.Fatalf("%s: errors = %d", pol, pl.Metrics().Errors.Value())
		}
		p99[pol] = pl.Metrics().All.E2E.Percentile(99)
	}
	if p99[PolicyTrEnvCXL] >= p99[PolicyREAPPlus] {
		t.Fatalf("T-CXL P99 (%.1fms) not better than REAP+ (%.1fms)", p99[PolicyTrEnvCXL], p99[PolicyREAPPlus])
	}
	if p99[PolicyTrEnvCXL] >= p99[PolicyCRIU] {
		t.Fatalf("T-CXL P99 (%.1fms) not better than CRIU (%.1fms)", p99[PolicyTrEnvCXL], p99[PolicyCRIU])
	}
}

func TestTrEnvUsesLessMemoryThanLazyVMs(t *testing.T) {
	tr := smallTrace(7)
	plT := newPlatform(t, PolicyTrEnvCXL)
	plT.RunTrace(tr)
	plR := newPlatform(t, PolicyREAPPlus)
	plR.RunTrace(tr)
	if plT.PeakMemory() >= plR.PeakMemory() {
		t.Fatalf("T-CXL peak %d >= REAP+ peak %d", plT.PeakMemory(), plR.PeakMemory())
	}
}

func TestSoftCapTriggersEviction(t *testing.T) {
	cfg := DefaultConfig(PolicyCRIU)
	cfg.SoftMemCap = 2 << 30 // tight: CRIU instances hold full images
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	// Invoke every function once, sequentially spaced so instances idle.
	for i, name := range fnNames() {
		pl.Invoke(time.Duration(i)*20*time.Second, name)
	}
	pl.Engine().Run()
	if pl.Metrics().Evictions.Value() == 0 {
		t.Fatal("no evictions under a 2 GiB cap with ~2 GiB of images")
	}
	if pl.Metrics().Errors.Value() != 0 {
		t.Fatalf("errors = %d", pl.Metrics().Errors.Value())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, int64) {
		pl := newPlatform(t, PolicyTrEnvCXL)
		pl.RunTrace(smallTrace(99))
		return pl.Metrics().All.E2E.Percentile(99), pl.PeakMemory()
	}
	p99a, peakA := run()
	p99b, peakB := run()
	if p99a != p99b || peakA != peakB {
		t.Fatalf("non-deterministic: p99 %v vs %v, peak %d vs %d", p99a, p99b, peakA, peakB)
	}
}

func TestPoolUsageReflectsPolicy(t *testing.T) {
	plC := newPlatform(t, PolicyTrEnvCXL)
	cxl, rdma, _ := plC.PoolUsage()
	if cxl == 0 || rdma != 0 {
		t.Fatalf("T-CXL pools: cxl=%d rdma=%d", cxl, rdma)
	}
	plR := newPlatform(t, PolicyTrEnvRDMA)
	cxl, rdma, _ = plR.PoolUsage()
	if rdma == 0 || cxl != 0 {
		t.Fatalf("T-RDMA pools: cxl=%d rdma=%d", cxl, rdma)
	}
	plReap := newPlatform(t, PolicyREAPPlus)
	_, _, tmpfs := plReap.PoolUsage()
	if tmpfs == 0 {
		t.Fatal("REAP+ should hold snapshot files in tmpfs")
	}
	// Dedup: CXL pool holds less than the sum of images.
	var sum int64
	for _, p := range workload.Table4() {
		sum += p.Snapshot().MemBytes()
	}
	cxl, _, _ = plC.PoolUsage()
	if cxl >= sum {
		t.Fatalf("no dedup in pool: %d >= %d", cxl, sum)
	}
}

func TestAblationPoliciesRun(t *testing.T) {
	for _, pol := range []Policy{PolicyReconfig, PolicyCgroup, PolicyFaasd, PolicyTrEnvRDMA} {
		pl := newPlatform(t, pol)
		pl.Invoke(0, "JS")
		pl.Invoke(time.Second, "JS")
		pl.Engine().Run()
		if pl.Metrics().Errors.Value() != 0 {
			t.Fatalf("%s: errors", pol)
		}
		if pl.Metrics().Invocations() != 2 {
			t.Fatalf("%s: invocations = %d", pol, pl.Metrics().Invocations())
		}
	}
}

func TestMetricsSummaryRenders(t *testing.T) {
	pl := newPlatform(t, PolicyTrEnvCXL)
	pl.Invoke(0, "JS")
	pl.Engine().Run()
	s := pl.Metrics().Summary()
	if len(s) == 0 {
		t.Fatal("empty summary")
	}
	if got := pl.Metrics().Functions(); len(got) != 1 || got[0] != "JS" {
		t.Fatalf("functions = %v", got)
	}
}
