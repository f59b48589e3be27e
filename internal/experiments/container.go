package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/workload"
)

func fnNames() []string {
	var out []string
	for _, p := range workload.Table4() {
		out = append(out, p.Name)
	}
	return out
}

// containerPlatform builds a registered platform for a policy.
func containerPlatform(o Options, pol faas.Policy, softCap int64) *faas.Platform {
	cfg := faas.DefaultConfig(pol)
	cfg.Seed = o.Seed
	cfg.KeepAlive = o.dur(10 * time.Minute)
	cfg.Warmup = o.dur(5 * time.Minute)
	cfg.SoftMemCap = softCap
	cfg.Tracer = o.Tracer
	cfg.Prefetch = o.Prefetch
	pl := faas.New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			panic(fmt.Sprintf("experiments: register %s: %v", p.Name, err))
		}
	}
	if inj := o.chaosInjector(pl.Engine()); inj != nil {
		pl.AttachChaos(inj)
	}
	return pl
}

func w1Trace(o Options) workload.Trace {
	cfg := workload.DefaultW1(fnNames())
	cfg.Duration = o.dur(cfg.Duration)
	cfg.BurstGap = o.dur(cfg.BurstGap)
	return workload.W1Bursty(rand.New(rand.NewSource(o.Seed)), cfg)
}

func w2Trace(o Options) workload.Trace {
	cfg := workload.DefaultW2(fnNames())
	cfg.Duration = o.dur(cfg.Duration)
	cfg.Period = o.dur(cfg.Period)
	return workload.W2Diurnal(rand.New(rand.NewSource(o.Seed+1)), cfg)
}

func azureTrace(o Options) workload.Trace {
	cfg := workload.AzureConfig(fnNames())
	cfg.Duration = o.dur(cfg.Duration)
	return workload.Industrial(rand.New(rand.NewSource(o.Seed+2)), cfg)
}

func huaweiTrace(o Options) workload.Trace {
	cfg := workload.HuaweiConfig(fnNames())
	cfg.Duration = o.dur(cfg.Duration)
	return workload.Industrial(rand.New(rand.NewSource(o.Seed+3)), cfg)
}

// fig17Policies are the systems compared on the container platform.
func fig17Policies() []faas.Policy {
	return []faas.Policy{
		faas.PolicyFaasd, faas.PolicyCRIU,
		faas.PolicyREAPPlus, faas.PolicyFaaSnapPlus,
		faas.PolicyTrEnvRDMA, faas.PolicyTrEnvCXL,
	}
}

// Table1 reproduces the component-cost table: creation cost of each
// sandbox unit at 1 and 15 concurrent cold starts versus TrEnv's
// reuse/reconfigure path.
func Table1(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "table1", Title: "container component overheads vs TrEnv's solution"}

	measure := func(concurrent int) (net, rootfs, cgCreate, cgMigrate, other time.Duration) {
		f := sandbox.NewFactory(sandbox.DefaultCostModel())
		e := sim.NewEngine(o.Seed)
		for i := 0; i < concurrent; i++ {
			last := i == concurrent-1
			e.Go("create", func(p *sim.Proc) {
				_, b := f.Create(p, "fn")
				if last {
					net, rootfs, cgCreate, cgMigrate, other = b.NetNS, b.Rootfs, b.CgroupCreate, b.CgroupMigrate, b.Other
				}
			})
		}
		e.Run()
		return
	}
	n1, rf1, cc1, cm1, ot1 := measure(1)
	n15, rf15, cc15, cm15, ot15 := measure(15)

	// TrEnv's side: clean + repurpose cost on a pooled sandbox.
	f := sandbox.NewFactory(sandbox.DefaultCostModel())
	e := sim.NewEngine(o.Seed)
	var repurpose time.Duration
	e.Go("repurpose", func(p *sim.Proc) {
		sb, _ := f.Create(p, "fnA")
		f.Clean(p, sb)
		p.Sleep(5 * time.Millisecond)
		d, err := f.Repurpose(p, sb, "fnB")
		if err != nil {
			panic(err)
		}
		repurpose = d
	})
	e.Run()

	r.Addf("%-14s %14s %14s   %s", "unit", "create @1", "create @15", "TrEnv solution")
	r.Addf("%-14s %14s %14s   %s", "network", n1.Round(time.Millisecond), n15.Round(time.Millisecond), "direct reuse (0 ms)")
	r.Addf("%-14s %14s %14s   reuse+reconfig (%s)", "rootfs", rf1.Round(time.Millisecond), rf15.Round(time.Millisecond), repurpose.Round(100*time.Microsecond))
	r.Addf("%-14s %14s %14s   CLONE_INTO_CGROUP (100-300 us)", "cgroup-create", cc1.Round(time.Millisecond), cc15.Round(time.Millisecond))
	r.Addf("%-14s %14s %14s   (bypassed at spawn)", "cgroup-migrate", cm1.Round(time.Millisecond), cm15.Round(time.Millisecond))
	r.Addf("%-14s %14s %14s   create (cheap)", "other-ns", ot1.Round(100*time.Microsecond), ot15.Round(100*time.Microsecond))
	return r
}

// Fig4 reproduces the startup-latency breakdown for a Python function
// (JS): cold start vs CRIU restore vs TrEnv, at 1 and 15 concurrent
// starts.
func Fig4(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "fig4", Title: "startup breakdown for a Python function (JS)",
		Notes: "sandbox = isolation env, restore = bootstrap/memory restore"}

	for _, concurrent := range []int{1, 15} {
		for _, pol := range []faas.Policy{faas.PolicyFaasd, faas.PolicyCRIU, faas.PolicyTrEnvCXL} {
			sb, rest := startupSplit(o, pol, concurrent)
			r.Addf("@%-2d %-10s sandbox=%8.1fms  restore=%8.1fms  total=%8.1fms",
				concurrent, pol, sb, rest, sb+rest)
		}
	}
	return r
}

// startupSplit measures one startup's sandbox/restore split directly via
// the runtime paths.
func startupSplit(o Options, pol faas.Policy, concurrent int) (sbMs, restMs float64) {
	cfg := faas.DefaultConfig(pol)
	cfg.Seed = o.Seed
	cfg.Tracer = o.Tracer
	pl := faas.New(cfg)
	js, _ := workload.ProfileByName("JS")
	pl.Register(js)
	if pol.IsTrEnv() {
		// Seed the universal pool with cleaned sandboxes so the measured
		// path is repurposing (the steady state).
		eng := pl.Engine()
		for i := 0; i < concurrent; i++ {
			eng.Go("seed", func(p *sim.Proc) {
				in, _, err := pl.Runtime().StartCold(p, js)
				if err != nil {
					panic(err)
				}
				pl.Runtime().Release(p, in, true)
			})
		}
		eng.Run()
	}
	eng := pl.Engine()
	var last struct{ sb, rest time.Duration }
	for i := 0; i < concurrent; i++ {
		isLast := i == concurrent-1
		eng.Go("measure", func(p *sim.Proc) {
			t0 := p.Now()
			var st core.Startup
			var err error
			switch pol {
			case faas.PolicyFaasd:
				_, st, err = pl.Runtime().StartCold(p, js)
			case faas.PolicyCRIU:
				_, st, err = pl.Runtime().StartCRIU(p, js, js.Snapshot())
			default:
				_, st, err = pl.Runtime().StartTrEnv(p, js, pl.Store().Image(js.Name))
			}
			if err != nil {
				panic(err)
			}
			if o.Tracer != nil {
				root := obs.NewSpan("startup-split/"+js.Name, t0, t0+st.Total())
				root.SetAttr("policy", string(pol))
				root.Children = append(root.Children, core.StartupSpan(st, t0))
				o.Tracer.Record(root)
			}
			if isLast {
				last.sb, last.rest = st.Sandbox, st.Restore
			}
		})
	}
	eng.Run()
	return ms(last.sb), ms(last.rest)
}

// Fig10 reproduces the read-only vs written page ratios per function.
func Fig10(o Options) *Result {
	r := &Result{ID: "fig10", Title: "read-only vs written page ratio per function",
		Notes: "paper span: 24%-90% read-only"}
	for _, p := range workload.Table4() {
		touched := p.TouchedPages()
		written := int(float64(p.ImagePages()) * p.WriteFrac)
		ro := p.ReadOnlyRatio()
		r.Addf("%-4s touched=%7d pages  written=%7d  read-only=%5.1f%%",
			p.Name, touched, written, ro*100)
	}
	return r
}

type wlRun struct {
	name  string
	trace func(Options) workload.Trace
	cap   int64
}

func fig17Workloads() []wlRun {
	return []wlRun{
		{"W1", w1Trace, 64 << 30},
		{"W2", w2Trace, 3 << 30},
	}
}

// Fig17 reproduces the E2E latency distributions under W1 (bursty) and
// W2 (diurnal, 32 GB soft cap) for all six systems.
func Fig17(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "fig17", Title: "E2E latency under W1 (bursty) and W2 (diurnal, tight memory cap)"}
	for _, wl := range fig17Workloads() {
		tr := wl.trace(o)
		r.Addf("-- %s: %d invocations over %v --", wl.name, tr.Len(), tr.Duration().Round(time.Second))
		p99 := map[faas.Policy]float64{}
		perFnP99 := map[faas.Policy]map[string]float64{}
		for _, pol := range fig17Policies() {
			pl := containerPlatform(o, pol, wl.cap)
			o.observe(fmt.Sprintf("fig17/%s/%s", wl.name, pol), pl)
			pl.RunTrace(tr)
			m := pl.Metrics()
			p99[pol] = m.All.E2E.Percentile(99)
			perFnP99[pol] = map[string]float64{}
			for _, fn := range fnNames() {
				if fm := m.Fn(fn); fm.E2E.N() > 0 {
					perFnP99[pol][fn] = fm.E2E.Percentile(99)
				}
			}
			r.Addf("%-11s p50=%8.1fms p75=%8.1fms p99=%9.1fms (n=%d, warm=%d, evict=%d)",
				pol, m.All.E2E.Percentile(50), m.All.E2E.Percentile(75), p99[pol],
				m.Invocations(), m.WarmHits.Value(), m.Evictions.Value())
		}
		r.Addf("T-CXL aggregate p99 speedup: %.2fx vs REAP+, %.2fx vs FaaSnap+, %.2fx vs CRIU",
			p99[faas.PolicyREAPPlus]/p99[faas.PolicyTrEnvCXL],
			p99[faas.PolicyFaaSnapPlus]/p99[faas.PolicyTrEnvCXL],
			p99[faas.PolicyCRIU]/p99[faas.PolicyTrEnvCXL])
		loR, hiR := speedupRange(perFnP99[faas.PolicyREAPPlus], perFnP99[faas.PolicyTrEnvCXL])
		loF, hiF := speedupRange(perFnP99[faas.PolicyFaaSnapPlus], perFnP99[faas.PolicyTrEnvCXL])
		r.Addf("T-CXL per-function p99 speedup: %.2fx-%.2fx vs REAP+, %.2fx-%.2fx vs FaaSnap+ (paper: 1.11-5.69x / 1.17-18x)",
			loR, hiR, loF, hiF)
	}
	return r
}

// Fig18 reproduces (a) peak memory across the four workloads and (b)
// memory when starting 50 instances of IR and IFR.
func Fig18(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "fig18", Title: "peak memory usage (a: workloads, b: 50-instance start)"}
	workloads := []wlRun{
		{"W1", w1Trace, 64 << 30},
		{"W2", w2Trace, 3 << 30},
		{"Azure", azureTrace, 64 << 30},
		{"Huawei", huaweiTrace, 64 << 30},
	}
	for _, wl := range workloads {
		tr := wl.trace(o)
		peaks := map[faas.Policy]int64{}
		for _, pol := range fig17Policies() {
			pl := containerPlatform(o, pol, wl.cap)
			o.observe(fmt.Sprintf("fig18/%s/%s", wl.name, pol), pl)
			pl.RunTrace(tr)
			peaks[pol] = pl.PeakMemory()
		}
		tcxl := peaks[faas.PolicyTrEnvCXL]
		r.Addf("(a) %-7s faasd=%6.2fGB criu=%6.2fGB reap+=%6.2fGB faasnap+=%6.2fGB t-rdma=%6.2fGB t-cxl=%6.2fGB",
			wl.name, gb(peaks[faas.PolicyFaasd]), gb(peaks[faas.PolicyCRIU]),
			gb(peaks[faas.PolicyREAPPlus]), gb(peaks[faas.PolicyFaaSnapPlus]),
			gb(peaks[faas.PolicyTrEnvRDMA]), gb(tcxl))
		r.Addf("    %-7s t-cxl saves %4.1f%% vs faasd, %4.1f%% vs criu, %4.1f%% vs reap+, %4.1f%% vs faasnap+",
			wl.name,
			100*(1-float64(tcxl)/float64(peaks[faas.PolicyFaasd])),
			100*(1-float64(tcxl)/float64(peaks[faas.PolicyCRIU])),
			100*(1-float64(tcxl)/float64(peaks[faas.PolicyREAPPlus])),
			100*(1-float64(tcxl)/float64(peaks[faas.PolicyFaaSnapPlus])))
	}
	// (b) 50 concurrent instance starts.
	for _, fn := range []string{"IR", "IFR"} {
		for _, pol := range []faas.Policy{faas.PolicyREAPPlus, faas.PolicyFaaSnapPlus, faas.PolicyTrEnvRDMA, faas.PolicyTrEnvCXL} {
			pl := containerPlatform(o, pol, 0)
			for i := 0; i < 50; i++ {
				pl.Invoke(time.Duration(i)*10*time.Millisecond, fn)
			}
			pl.Engine().Run()
			cxl, rdma, tmpfs := pl.PoolUsage()
			r.Addf("(b) %-3s x50 %-11s node=%7.2fGB pools(cxl/rdma/tmpfs)=%.2f/%.2f/%.2fGB",
				fn, pol, gb(pl.PeakMemory()), gb(cxl), gb(rdma), gb(tmpfs))
		}
	}
	return r
}

// Fig19 reproduces the no-concurrency normalized E2E latency with its
// startup component.
func Fig19(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "fig19", Title: "E2E latency without concurrency (startup | exec)",
		Notes: "each start is fresh (keep-alive expired); normalized to REAP+"}
	type cell struct{ startup, e2e float64 }
	rows := map[string]map[faas.Policy]cell{}
	policies := []faas.Policy{faas.PolicyCRIU, faas.PolicyREAPPlus, faas.PolicyFaaSnapPlus, faas.PolicyTrEnvRDMA, faas.PolicyTrEnvCXL}
	for _, pol := range policies {
		cfg := faas.DefaultConfig(pol)
		cfg.Seed = o.Seed
		cfg.KeepAlive = 5 * time.Second // expire between invocations
		cfg.Warmup = 105 * time.Second  // exclude the whole first round
		cfg.Tracer = o.Tracer
		pl := faas.New(cfg)
		for _, p := range workload.Table4() {
			pl.Register(p)
		}
		// Three sequential rounds per function, spaced past keep-alive.
		at := time.Duration(0)
		for round := 0; round < 3; round++ {
			for _, fn := range fnNames() {
				pl.Invoke(at, fn)
				at += 10 * time.Second
			}
		}
		pl.Engine().Run()
		for _, fn := range fnNames() {
			m := pl.Metrics().Fn(fn)
			if rows[fn] == nil {
				rows[fn] = map[faas.Policy]cell{}
			}
			rows[fn][pol] = cell{m.Startup.Mean(), m.E2E.Mean()}
		}
	}
	for _, fn := range fnNames() {
		base := rows[fn][faas.PolicyREAPPlus].e2e
		line := fmt.Sprintf("%-4s", fn)
		for _, pol := range policies {
			c := rows[fn][pol]
			line += fmt.Sprintf("  %s=%.2f(st %.2f)", pol, c.e2e/base, c.startup/base)
		}
		r.Lines = append(r.Lines, line)
	}
	return r
}

// Fig20 reproduces the industrial-trace P99 comparison normalized to
// REAP+.
func Fig20(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "fig20", Title: "P99 E2E on Azure-like and Huawei-like traces (normalized to REAP+)"}
	for _, wl := range []wlRun{{"Azure", azureTrace, 64 << 30}, {"Huawei", huaweiTrace, 64 << 30}} {
		tr := wl.trace(o)
		perFn := map[faas.Policy]map[string]float64{}
		for _, pol := range []faas.Policy{faas.PolicyREAPPlus, faas.PolicyFaaSnapPlus, faas.PolicyTrEnvRDMA, faas.PolicyTrEnvCXL} {
			pl := containerPlatform(o, pol, wl.cap)
			o.observe(fmt.Sprintf("fig20/%s/%s", wl.name, pol), pl)
			pl.RunTrace(tr)
			perFn[pol] = map[string]float64{}
			for _, fn := range fnNames() {
				perFn[pol][fn] = pl.Metrics().Fn(fn).E2E.Percentile(99)
			}
		}
		r.Addf("-- %s (%d invocations) --", wl.name, tr.Len())
		for _, fn := range fnNames() {
			base := perFn[faas.PolicyREAPPlus][fn]
			if base == 0 {
				continue
			}
			r.Addf("%-4s reap+=1.00 faasnap+=%.2f t-rdma=%.2f t-cxl=%.2f (t-cxl speedup %.2fx)",
				fn,
				perFn[faas.PolicyFaaSnapPlus][fn]/base,
				perFn[faas.PolicyTrEnvRDMA][fn]/base,
				perFn[faas.PolicyTrEnvCXL][fn]/base,
				base/perFn[faas.PolicyTrEnvCXL][fn])
		}
	}
	return r
}

// Fig21 reproduces the optimization-step ablation on IR and JS.
func Fig21(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "fig21", Title: "ablation: +Reconfig, +Cgroup, +mm-template (E2E, fresh starts)",
		Notes: "FaaSnap+ shown as the reference line"}
	policies := []faas.Policy{faas.PolicyCRIU, faas.PolicyReconfig, faas.PolicyCgroup, faas.PolicyTrEnvCXL, faas.PolicyFaaSnapPlus}
	labels := map[faas.Policy]string{
		faas.PolicyCRIU: "criu-base", faas.PolicyReconfig: "+reconfig",
		faas.PolicyCgroup: "+cgroup", faas.PolicyTrEnvCXL: "+mm-template",
		faas.PolicyFaaSnapPlus: "faasnap+",
	}
	for _, fn := range []string{"IR", "JS"} {
		for _, pol := range policies {
			cfg := faas.DefaultConfig(pol)
			cfg.Seed = o.Seed
			cfg.KeepAlive = 5 * time.Second
			cfg.Warmup = 10 * time.Second // exclude only the pool-seeding start
			cfg.Tracer = o.Tracer
			pl := faas.New(cfg)
			prof, _ := workload.ProfileByName(fn)
			pl.Register(prof)
			at := time.Duration(0)
			for i := 0; i < 4; i++ {
				pl.Invoke(at, fn)
				at += 15 * time.Second
			}
			pl.Engine().Run()
			m := pl.Metrics().Fn(fn)
			r.Addf("%-3s %-13s startup=%8.1fms e2e=%8.1fms", fn, labels[pol], m.Startup.Mean(), m.E2E.Mean())
		}
	}
	return r
}

// Fig22 reproduces the T-CXL vs T-RDMA execution-latency comparison.
func Fig22(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "fig22", Title: "execution latency: T-CXL vs T-RDMA (P75/P99)",
		Notes: "W1 bursty workload: executions follow fresh template attaches"}
	tr := w1Trace(o)
	exec := map[faas.Policy]map[string]*sim.Histogram{}
	for _, pol := range []faas.Policy{faas.PolicyTrEnvCXL, faas.PolicyTrEnvRDMA} {
		pl := containerPlatform(o, pol, 64<<30)
		o.observe(fmt.Sprintf("fig22/%s", pol), pl)
		pl.RunTrace(tr)
		exec[pol] = map[string]*sim.Histogram{}
		for _, fn := range fnNames() {
			exec[pol][fn] = &pl.Metrics().Fn(fn).Exec
		}
	}
	for _, fn := range fnNames() {
		c := exec[faas.PolicyTrEnvCXL][fn]
		d := exec[faas.PolicyTrEnvRDMA][fn]
		if c.N() == 0 || d.N() == 0 {
			continue
		}
		r.Addf("%-4s p75: cxl=%8.1fms rdma=%8.1fms (%.2fx)   p99: cxl=%8.1fms rdma=%8.1fms (%.2fx)",
			fn, c.Percentile(75), d.Percentile(75), d.Percentile(75)/c.Percentile(75),
			c.Percentile(99), d.Percentile(99), d.Percentile(99)/c.Percentile(99))
	}
	return r
}

// speedupRange returns the min and max per-function p99 speedup of
// reference over target.
func speedupRange(ref, target map[string]float64) (lo, hi float64) {
	lo, hi = 0, 0
	for fn, r := range ref {
		t, ok := target[fn]
		if !ok || t == 0 {
			continue
		}
		s := r / t
		if lo == 0 || s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return lo, hi
}
