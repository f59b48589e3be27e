package cluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// chaosTrace is a scaled-down Azure-like trace: long enough to exercise
// cold starts, keep-alive reuse, and the lazy rdma fetch path.
func chaosTrace(seed int64) workload.Trace {
	var fns []string
	for _, p := range workload.Table4() {
		fns = append(fns, p.Name)
	}
	cfg := workload.AzureConfig(fns)
	cfg.Duration = 8 * time.Minute
	return workload.Industrial(rand.New(rand.NewSource(seed+2)), cfg)
}

// chaosCluster mirrors the availability experiment's sizing: a low hot
// fraction keeps a cold tail in the rdma pool so injected fetch faults
// actually land on the critical path.
func chaosCluster(t *testing.T, seed int64, tracer *obs.Tracer) *Cluster {
	t.Helper()
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = seed
	cfg.SoftMemCap = 64 << 30
	cfg.HotFraction = 0.4
	cfg.Tracer = tracer
	c, err := New(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range workload.Table4() {
		if err := c.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestKillNodeReleasesAccounting(t *testing.T) {
	c := newCluster(t, 2)
	for i := 0; i < 4; i++ {
		c.Invoke(time.Duration(i)*time.Millisecond, "JS")
	}
	// Kill while the warm instances still hold memory (keep-alive has not
	// expired yet at t=1s): the crash must release their accounting.
	c.Engine().At(time.Second, "kill", func(p *sim.Proc) {
		victim := -1
		for i, node := range c.Nodes() {
			if node.UsedMemory() > 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Error("no node holds warm-instance memory during keep-alive")
			return
		}
		if err := c.KillNode(victim); err != nil {
			t.Error(err)
			return
		}
		if used := c.Nodes()[victim].UsedMemory(); used != 0 {
			t.Errorf("dead node still accounts %d bytes", used)
		}
		if !c.Nodes()[victim].Crashed() {
			t.Error("killed node not marked crashed")
		}
	})
	c.Engine().Run()
	if c.Wedged() != 0 {
		t.Fatalf("wedged = %d", c.Wedged())
	}
}

// TestCrashMidRunRedispatches: a node dies with invocations in flight;
// every aborted invocation is re-dispatched to a survivor and reaches a
// terminal outcome — none complete silently, none wedge.
func TestCrashMidRunRedispatches(t *testing.T) {
	c := newCluster(t, 3)
	fns := []string{"JS", "DH", "CR", "IR", "JS", "DH", "CR", "IR", "JS", "DH", "CR", "IR"}
	for i, fn := range fns {
		c.Invoke(time.Duration(i)*100*time.Microsecond, fn)
	}
	// Kill n0 while the burst is mid-flight (cold starts run for
	// milliseconds, so 2ms lands inside the first wave).
	c.Engine().At(2*time.Millisecond, "kill/n0", func(p *sim.Proc) {
		if err := c.KillNode(0); err != nil {
			t.Errorf("mid-run kill: %v", err)
		}
	})
	c.Engine().Run()

	if c.Wedged() != 0 {
		t.Fatalf("wedged invocations = %d (dispatched=%d redispatched=%d results=%d)",
			c.Wedged(), c.Dispatched(), c.Redispatched(), c.Results())
	}
	aborts := c.Nodes()[0].Metrics().CrashAborts.Value()
	if aborts == 0 {
		t.Fatal("kill landed with nothing in flight; burst timing is off")
	}
	if c.Redispatched() != aborts {
		t.Fatalf("redispatched %d != crash aborts %d: aborted work was lost", c.Redispatched(), aborts)
	}
	// Every dispatch (original + redispatch) reached a terminal outcome.
	if c.Results() != c.Dispatched()+c.Redispatched() {
		t.Fatalf("results %d != dispatched %d + redispatched %d", c.Results(), c.Dispatched(), c.Redispatched())
	}
	// The dead node served nothing after the crash: its invocation count
	// stays at what completed (or aborted) before/at the kill.
	served := 0
	for _, node := range c.AliveNodes() {
		served += node.Metrics().Invocations()
	}
	if served == 0 {
		t.Fatal("survivors served no traffic")
	}
}

// runChaos drives one full chaos run and returns its externally visible
// byte streams: Prometheus metrics, the trace-analytics report, and the
// injector status. Two same-seed calls must match byte for byte.
func runChaos(t *testing.T, seed int64) (prom, analysis, status []byte, c *Cluster) {
	t.Helper()
	tracer := obs.NewTracer(0)
	c = chaosCluster(t, seed, tracer)
	inj := fault.NewInjector(c.Engine(), seed, fault.Scenario{
		FlakyFetches: []fault.FlakyFetch{{Pool: "rdma", Prob: 0.2, Burst: 2}},
		NodeCrashes:  []fault.NodeCrash{{Node: "n2", At: 5 * time.Minute}},
	})
	inj.SetTracer(tracer)
	c.AttachChaos(inj)
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	c.RunTrace(chaosTrace(seed))

	if c.Wedged() != 0 {
		t.Fatalf("wedged invocations = %d", c.Wedged())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := json.Marshal(obs.Analyze(tracer.Spans(), 0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := json.Marshal(inj.Status())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep, st, c
}

// TestChaosRunSameSeedDeterminism is the PR's acceptance check: with
// FlakyFetch{rdma, p=0.2} plus a node crash injected, a full cluster run
// completes with zero wedged invocations, the faults demonstrably fire,
// and two same-seed runs produce byte-identical metrics, analysis, and
// chaos status.
func TestChaosRunSameSeedDeterminism(t *testing.T) {
	prom1, rep1, st1, c := runChaos(t, 11)

	var retries, fallbacks, errors int64
	for _, node := range c.Nodes() {
		m := node.Metrics()
		retries += m.Retries.Value()
		fallbacks += m.Fallbacks.Value()
		errors += m.Errors.Value()
	}
	if retries == 0 {
		t.Fatal("flaky rdma fetches caused no retries; the fault path was not exercised")
	}
	counts := c.Chaos().Counts()
	if counts["flaky-fetch"] == 0 || counts["node-crash"] != 1 {
		t.Fatalf("injected counts = %v, want flaky fetches and exactly one crash", counts)
	}
	if c.Redispatched() == 0 && c.Nodes()[2].Metrics().CrashAborts.Value() > 0 {
		t.Fatal("crash aborts observed but nothing re-dispatched")
	}

	prom2, rep2, st2, _ := runChaos(t, 11)
	if !bytes.Equal(prom1, prom2) {
		t.Fatal("same-seed chaos runs: Prometheus output differs")
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("same-seed chaos runs: analysis report differs")
	}
	if !bytes.Equal(st1, st2) {
		t.Fatal("same-seed chaos runs: chaos status differs")
	}

	// A different seed must actually change the run (the rng is live).
	prom3, _, _, _ := runChaos(t, 12)
	if bytes.Equal(prom1, prom3) {
		t.Fatal("different seeds produced identical metrics")
	}
}

// TestBreakerOpensUnderOutage: a long pool outage drives fault-tainted
// outcomes through the breakers; at least one opens, and pick keeps
// routing (availability beats breaker hygiene when all are open).
func TestBreakerOpensUnderOutage(t *testing.T) {
	c := chaosCluster(t, 3, nil)
	inj := fault.NewInjector(c.Engine(), 3, fault.Scenario{
		PoolOutages: []fault.PoolOutage{{Pool: "cxl", From: 0, To: time.Hour}},
	})
	c.AttachChaos(inj)
	c.RunTrace(chaosTrace(3))
	if c.Wedged() != 0 {
		t.Fatalf("wedged = %d", c.Wedged())
	}
	var opens int64
	for _, b := range c.Breakers() {
		opens += b.Opens()
	}
	if opens == 0 {
		t.Fatal("no breaker opened under a full-run pool outage")
	}
	var fallbacks int64
	for _, node := range c.Nodes() {
		fallbacks += node.Metrics().Fallbacks.Value()
	}
	if fallbacks == 0 {
		t.Fatal("outage produced no local-cold-start fallbacks")
	}
}
