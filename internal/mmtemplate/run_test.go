package mmtemplate_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/mmtemplate"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSharingFactorMatchesWalkOverTracedRun runs a traced bursty trace
// on a TrEnv-CXL node and redeploys one function between bursts, which
// destroys its old templates while instances attached to them drain. At
// every flight-recorder tick and after the run, SharingFactor must equal
// a walk of the live templates.
func TestSharingFactorMatchesWalkOverTracedRun(t *testing.T) {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = 1
	cfg.Tracer = obs.NewTracer(0)
	pl := faas.New(cfg)
	var names []string
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
		names = append(names, p.Name)
	}
	tr := workload.W1Bursty(rand.New(rand.NewSource(1)), workload.W1Config{
		Functions: names, Duration: 3 * time.Minute, BurstGap: 90 * time.Second,
		BurstSize: 3, BurstSpan: 2 * time.Second,
	})
	reg := pl.Store().Registry()
	obsReg := obs.NewRegistry()
	pl.RegisterMetrics(obsReg)
	rec := obs.NewRecorder(obsReg, 0)
	pl.AttachRecorder(rec, 0)
	ticks := 0
	rec.SetOnSample(func(now time.Duration) {
		if got, want := reg.SharingFactor(), mmtemplate.WalkSharingFactor(reg); got != want {
			t.Fatalf("at %v: SharingFactor = %v, walk %v", now, got, want)
		}
		ticks++
	})
	prof := workload.Table4()[0]
	created := 0
	pl.Engine().At(100*time.Second, "redeploy", func(*sim.Proc) {
		created = reg.Len()
		prof.MemBytes += 32 << 20
		if err := pl.Redeploy(prof); err != nil {
			t.Error(err)
		}
	})
	pl.RunTrace(tr)

	if ticks < 100 || created == 0 || reg.TotalAttaches() == 0 {
		t.Fatalf("run too small: %d ticks, %d templates before the redeploy, %d attaches", ticks, created, reg.TotalAttaches())
	}
	if live := reg.SharingFactor() * float64(reg.Len()); live >= float64(reg.TotalAttaches()) {
		t.Fatalf("%v of %d attaches are to live templates: the redeploy destroyed no attached template", live, reg.TotalAttaches())
	}
	if got, want := reg.SharingFactor(), mmtemplate.WalkSharingFactor(reg); got != want {
		t.Fatalf("after the run: SharingFactor = %v, walk %v", got, want)
	}
}
