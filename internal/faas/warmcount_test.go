package faas

import (
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// walkWarm counts the kept-alive instances by walking the warm map: the
// brute-force reference for WarmCount's running count.
func walkWarm(pl *Platform) int {
	n := 0
	for _, list := range pl.warm {
		n += len(list)
	}
	return n
}

// TestWarmCountMatchesWalk runs a traced bursty trace through a TrEnv-CXL
// node with a 30 s keep-alive (expiries), a tight soft memory cap
// (evictions), a redeploy that drains a function's warm instances, and a
// crash before the last bursts. WarmCount must equal a walk of the warm
// map at every flight-recorder tick and after the run.
func TestWarmCountMatchesWalk(t *testing.T) {
	cfg := DefaultConfig(PolicyTrEnvCXL)
	cfg.Seed = 1
	cfg.KeepAlive = 30 * time.Second
	cfg.SoftMemCap = 512 << 20
	cfg.Tracer = obs.NewTracer(0)
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	rec := obs.NewRecorder(reg, 0)
	pl.AttachRecorder(rec, 0)
	ticks, most := 0, 0
	rec.SetOnSample(func(now time.Duration) {
		got, want := pl.WarmCount(), walkWarm(pl)
		if got != want {
			t.Fatalf("at %v: WarmCount = %d, walk %d", now, got, want)
		}
		ticks, most = ticks+1, max(most, got)
	})
	drained := 0
	pl.Engine().At(100*time.Second, "redeploy", func(*sim.Proc) {
		var fns []string
		for fn, list := range pl.warm {
			if len(list) > 0 {
				fns = append(fns, fn)
			}
		}
		if len(fns) == 0 {
			return
		}
		sort.Strings(fns)
		drained = len(pl.warm[fns[0]])
		if err := pl.Redeploy(pl.fns[fns[0]].Profile); err != nil {
			t.Error(err)
		}
	})
	pl.Engine().At(150*time.Second, "crash", func(*sim.Proc) { pl.Crash() })
	pl.RunTrace(smallTrace(1))

	if got, want := pl.WarmCount(), walkWarm(pl); got != want || got != 0 {
		t.Fatalf("after the crash: WarmCount = %d, walk %d, want 0", got, want)
	}
	if ticks < 100 || most == 0 || drained == 0 || pl.Metrics().Evictions.Value() == 0 {
		t.Fatalf("run missed a path: %d ticks, at most %d warm, %d drained by the redeploy, %d evictions",
			ticks, most, drained, pl.Metrics().Evictions.Value())
	}
}
