package core

import (
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

type fixture struct {
	rt    *Runtime
	node  *mem.Tracker
	cxl   *mem.Pool
	rdma  *mem.Pool
	tmpfs *mem.Pool
	store *snapshot.Store
}

func newFixture() *fixture {
	lat := mem.DefaultLatencyModel()
	node := mem.NewTracker("node", 0)
	cxl := mem.NewPool(mem.CXL, 0, lat)
	return &fixture{
		rt:    DefaultRuntime(node),
		node:  node,
		cxl:   cxl,
		rdma:  mem.NewPool(mem.RDMA, 0, lat),
		tmpfs: mem.NewPool(mem.Tmpfs, 0, lat),
		store: snapshot.NewStore(mem.NewBlockStore(cxl), mmtemplate.NewRegistry()),
	}
}

func prof(t *testing.T, name string) workload.FunctionProfile {
	t.Helper()
	p, err := workload.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// run executes fn as one simulated process to completion.
func run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	e := sim.NewEngine(1)
	e.Go("test", fn)
	e.Run()
}

func TestStartColdPaysBootstrapAndSandbox(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	run(t, func(p *sim.Proc) {
		in, st, err := f.rt.StartCold(p, js)
		if err != nil {
			t.Error(err)
			return
		}
		if st.Path != PathCold {
			t.Errorf("path = %s", st.Path)
		}
		if st.Restore != js.ColdInit {
			t.Errorf("restore = %v, want ColdInit %v", st.Restore, js.ColdInit)
		}
		if st.Sandbox < 100*time.Millisecond {
			t.Errorf("sandbox = %v, want full creation cost", st.Sandbox)
		}
		if in.RSS() <= js.MemBytes {
			t.Errorf("rss = %d, want image + overhead", in.RSS())
		}
		// Execution after cold start takes no restore faults.
		es, err := f.rt.Execute(p, in, ExecOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		if es.MemOverhead != 0 {
			t.Errorf("cold-started exec mem overhead = %v", es.MemOverhead)
		}
		if es.Total < js.BaseExec {
			t.Errorf("exec %v < base %v", es.Total, js.BaseExec)
		}
	})
}

func TestStartCRIUChargesCopy(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	run(t, func(p *sim.Proc) {
		t0 := p.Now()
		in, st, err := f.rt.StartCRIU(p, js, js.Snapshot())
		if err != nil {
			t.Error(err)
			return
		}
		elapsed := p.Now() - t0
		// ~95MB at ~1GiB/s: restore alone approaches 100ms.
		if st.Restore < 60*time.Millisecond {
			t.Errorf("criu restore = %v, want >60ms for ~95MB", st.Restore)
		}
		if elapsed < st.Total() {
			t.Errorf("elapsed %v < startup %v (sleep not charged)", elapsed, st.Total())
		}
		if in.Restored.RSS() != js.Snapshot().MemBytes() {
			t.Errorf("criu rss = %d", in.Restored.RSS())
		}
	})
}

func TestStartTrEnvRepurposeFastPath(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	img, err := f.store.Preprocess(js.Snapshot(), snapshot.Placement{Hot: f.cxl, HotFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	run(t, func(p *sim.Proc) {
		// First start: pool empty => sandbox creation (PathCold).
		in1, st1, err := f.rt.StartTrEnv(p, js, img)
		if err != nil {
			t.Error(err)
			return
		}
		if st1.Path != PathCold {
			t.Errorf("first start path = %s, want cold (pool miss)", st1.Path)
		}
		f.rt.Release(p, in1, true)
		p.Sleep(5 * time.Millisecond)
		if f.rt.SBPool.Len() != 1 {
			t.Errorf("sandbox not recycled")
		}
		// Second start: repurposed, startup in the ~10ms class.
		in2, st2, err := f.rt.StartTrEnv(p, js, img)
		if err != nil {
			t.Error(err)
			return
		}
		if st2.Path != PathRepurpose {
			t.Errorf("second start path = %s", st2.Path)
		}
		// Paper: JS launches in ~8ms via mm-template.
		if st2.Total() > 12*time.Millisecond {
			t.Errorf("repurposed JS startup = %v, want <~12ms", st2.Total())
		}
		if in2.Restored.RSS() != 0 {
			t.Errorf("template start allocated %d bytes", in2.Restored.RSS())
		}
	})
}

func TestTrEnvCrossFunctionRepurpose(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	cr := prof(t, "CR") // different language entirely
	place := snapshot.Placement{Hot: f.cxl, HotFraction: 1}
	jsImg, _ := f.store.Preprocess(js.Snapshot(), place)
	crImg, _ := f.store.Preprocess(cr.Snapshot(), place)
	run(t, func(p *sim.Proc) {
		in, _, err := f.rt.StartTrEnv(p, js, jsImg)
		if err != nil {
			t.Error(err)
			return
		}
		sbID := in.Sandbox.ID
		f.rt.Release(p, in, true)
		p.Sleep(5 * time.Millisecond)
		in2, st2, err := f.rt.StartTrEnv(p, cr, crImg)
		if err != nil {
			t.Error(err)
			return
		}
		if in2.Sandbox.ID != sbID {
			t.Error("sandbox not reused across function types")
		}
		if in2.Sandbox.Function != "CR" {
			t.Error("sandbox not reconfigured for CR")
		}
		if st2.Path != PathRepurpose {
			t.Errorf("path = %s", st2.Path)
		}
	})
}

func TestStartLazyVMUsesNetNSPool(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	snap := js.Snapshot()
	ws := js.WorkingSet()
	run(t, func(p *sim.Proc) {
		in1, st1, err := f.rt.StartLazyVM(p, js, snap, f.tmpfs, snapshot.ReapConfig(ws))
		if err != nil {
			t.Error(err)
			return
		}
		if st1.Sandbox < 80*time.Millisecond {
			t.Errorf("first lazy start sandbox = %v, want netns creation cost", st1.Sandbox)
		}
		if in1.OverheadBytes != f.rt.VMOverhead {
			t.Errorf("vm overhead = %d", in1.OverheadBytes)
		}
		f.rt.Release(p, in1, false)
		in2, st2, err := f.rt.StartLazyVM(p, js, snap, f.tmpfs, snapshot.ReapConfig(ws))
		if err != nil {
			t.Error(err)
			return
		}
		if st2.Sandbox >= 80*time.Millisecond {
			t.Errorf("second lazy start sandbox = %v, netns pool unused", st2.Sandbox)
		}
		_ = in2
	})
}

func TestExecCXLInflationAndRDMAFaults(t *testing.T) {
	f := newFixture()
	dh := prof(t, "DH") // CXLExecFactor 0.8: execution nearly doubles
	cxlImg, _ := f.store.Preprocess(dh.Snapshot(), snapshot.Placement{Hot: f.cxl, HotFraction: 1})
	rdmaStore := snapshot.NewStore(mem.NewBlockStore(f.rdma), mmtemplate.NewRegistry())
	rdmaImg, _ := rdmaStore.Preprocess(dh.Snapshot(), snapshot.Placement{Hot: f.rdma, HotFraction: 1})
	run(t, func(p *sim.Proc) {
		inC, _, err := f.rt.StartTrEnv(p, dh, cxlImg)
		if err != nil {
			t.Error(err)
			return
		}
		esC, err := f.rt.Execute(p, inC, ExecOptions{ContentionPools: []*mem.Pool{f.cxl}})
		if err != nil {
			t.Error(err)
			return
		}
		// DH on CXL: total exec should approach 2x base.
		if esC.Total < time.Duration(float64(dh.BaseExec)*1.4) {
			t.Errorf("DH on CXL exec %v, want >= 1.4x base %v", esC.Total, dh.BaseExec)
		}
		inR, _, err := f.rt.StartTrEnv(p, dh, rdmaImg)
		if err != nil {
			t.Error(err)
			return
		}
		esR, err := f.rt.Execute(p, inR, ExecOptions{ContentionPools: []*mem.Pool{f.rdma}})
		if err != nil {
			t.Error(err)
			return
		}
		if esR.MemOverhead == 0 {
			t.Error("RDMA exec took no fetch overhead")
		}
		// RDMA allocates local pages for everything touched; CXL only for writes.
		if inR.Restored.RSS() <= inC.Restored.RSS() {
			t.Errorf("RDMA rss %d should exceed CXL rss %d", inR.Restored.RSS(), inC.Restored.RSS())
		}
	})
}

func TestExecSecondInvocationWarm(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	img, _ := f.store.Preprocess(js.Snapshot(), snapshot.Placement{Hot: f.cxl, HotFraction: 1})
	run(t, func(p *sim.Proc) {
		in, _, err := f.rt.StartTrEnv(p, js, img)
		if err != nil {
			t.Error(err)
			return
		}
		es1, _ := f.rt.Execute(p, in, ExecOptions{})
		es2, _ := f.rt.Execute(p, in, ExecOptions{})
		// Warm run: CoW already done, only direct-access overhead remains.
		if es2.MemOverhead >= es1.MemOverhead {
			t.Errorf("warm exec overhead %v >= first %v", es2.MemOverhead, es1.MemOverhead)
		}
		if in.Uses != 2 {
			t.Errorf("uses = %d", in.Uses)
		}
	})
}

func TestExecCPUQueueing(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	img, _ := f.store.Preprocess(js.Snapshot(), snapshot.Placement{Hot: f.cxl, HotFraction: 1})
	e := sim.NewEngine(1)
	cpu := sim.NewResource("cores", 1)
	waits := make([]time.Duration, 0, 2)
	for i := 0; i < 2; i++ {
		e.Go("inv", func(p *sim.Proc) {
			in, _, err := f.rt.StartTrEnv(p, js, img)
			if err != nil {
				t.Error(err)
				return
			}
			es, err := f.rt.Execute(p, in, ExecOptions{CPU: cpu})
			if err != nil {
				t.Error(err)
				return
			}
			waits = append(waits, es.CPUWait)
		})
	}
	e.Run()
	if len(waits) != 2 {
		t.Fatalf("invocations = %d", len(waits))
	}
	if waits[0] == 0 && waits[1] == 0 {
		t.Fatal("no CPU queueing with 1 core and 2 invocations")
	}
}

func TestReleaseReturnsAllMemory(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	img, _ := f.store.Preprocess(js.Snapshot(), snapshot.Placement{Hot: f.cxl, HotFraction: 1})
	run(t, func(p *sim.Proc) {
		before := f.node.Used()
		in, _, err := f.rt.StartTrEnv(p, js, img)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.rt.Execute(p, in, ExecOptions{}); err != nil {
			t.Error(err)
			return
		}
		f.rt.Release(p, in, true)
		if f.node.Used() != before {
			t.Errorf("node leaked %d bytes", f.node.Used()-before)
		}
	})
}

func TestReconfigAblationOrdering(t *testing.T) {
	// Fig 21: legacy migration > CLONE_INTO_CGROUP; both >> mm-template.
	f := newFixture()
	js := prof(t, "JS")
	snap := js.Snapshot()
	img, _ := f.store.Preprocess(snap, snapshot.Placement{Hot: f.cxl, HotFraction: 1})
	var reconfig, cgroup, tmpl time.Duration
	run(t, func(p *sim.Proc) {
		seed := func() { // ensure pool has a cleaned sandbox
			in, _, err := f.rt.StartCold(p, js)
			if err != nil {
				t.Error(err)
				return
			}
			f.rt.Release(p, in, true)
			p.Sleep(5 * time.Millisecond)
		}
		seed()
		in, st, err := f.rt.StartReconfig(p, js, snap, false)
		if err != nil {
			t.Error(err)
			return
		}
		reconfig = st.Total()
		f.rt.Release(p, in, true)
		p.Sleep(5 * time.Millisecond)
		in, st, err = f.rt.StartReconfig(p, js, snap, true)
		if err != nil {
			t.Error(err)
			return
		}
		cgroup = st.Total()
		f.rt.Release(p, in, true)
		p.Sleep(5 * time.Millisecond)
		in, st, err = f.rt.StartTrEnv(p, js, img)
		if err != nil {
			t.Error(err)
			return
		}
		tmpl = st.Total()
		f.rt.Release(p, in, true)
	})
	if !(reconfig > cgroup && cgroup > tmpl) {
		t.Fatalf("ablation ordering broken: reconfig=%v cgroup=%v template=%v", reconfig, cgroup, tmpl)
	}
}

// TestStartPathItemization pins what every start path charges and builds,
// on an empty sandbox and netns pool (miss) and on pools that each hold one
// (hit): the whole Startup, the instance's path, overhead and isolation,
// the node's usage and the clock after the start, and both pools and the
// clock after Release.
func TestStartPathItemization(t *testing.T) {
	type startFn func(f *fixture, p *sim.Proc, js workload.FunctionProfile, img *snapshot.Image) (*Instance, Startup, error)
	cold := func(f *fixture, p *sim.Proc, js workload.FunctionProfile, _ *snapshot.Image) (*Instance, Startup, error) {
		return f.rt.StartCold(p, js)
	}
	criu := func(f *fixture, p *sim.Proc, js workload.FunctionProfile, _ *snapshot.Image) (*Instance, Startup, error) {
		return f.rt.StartCRIU(p, js, js.Snapshot())
	}
	lazy := func(f *fixture, p *sim.Proc, js workload.FunctionProfile, _ *snapshot.Image) (*Instance, Startup, error) {
		return f.rt.StartLazyVM(p, js, js.Snapshot(), f.tmpfs, snapshot.ReapConfig(js.WorkingSet()))
	}
	trenv := func(f *fixture, p *sim.Proc, js workload.FunctionProfile, img *snapshot.Image) (*Instance, Startup, error) {
		return f.rt.StartTrEnv(p, js, img)
	}
	reconfig := func(clone bool) startFn {
		return func(f *fixture, p *sim.Proc, js workload.FunctionProfile, _ *snapshot.Image) (*Instance, Startup, error) {
			return f.rt.StartReconfig(p, js, js.Snapshot(), clone)
		}
	}
	// The steps' itemizations at seed 1: a sandbox built from scratch, a
	// pooled one repurposed (with and without the legacy cgroup
	// migration), a microVM's netns and resume, and JS's full-copy, lazy
	// and template restores.
	created := sandbox.Breakdown{NetNS: 80000000, Rootfs: 10000000, CgroupCreate: 27779410, CgroupMigrate: 12153551, Other: 800000}
	const repurposed, migrated = 779410, 779410 + 12153551
	resumed := sandbox.Breakdown{NetNS: 80000000, Other: 12000000}
	copied := snapshot.Breakdown{Orchestration: 3000000, Mmap: 12000, Copy: 92678070, Procs: 888000}
	fetched := snapshot.Breakdown{Orchestration: 3250000, Mmap: 12000, Copy: 20385742, Procs: 888000}
	attached := snapshot.Breakdown{Orchestration: 1200000, Attach: 262980, Procs: 888000}
	const image = 107900928 - 8388608 // JS's full image on the node
	const clean = 500000              // Release's Factory.Clean of a recycled sandbox
	coldStart := Startup{Path: PathCold, Sandbox: 130732961, Restore: 500000000, SandboxBD: created}
	criuStart := Startup{Path: PathCRIU, Sandbox: 130732961, Restore: 96578070, SandboxBD: created,
		RestoreBD: copied, RestorePool: "local", RestorePages: 24295}
	lazyMiss := Startup{Path: PathLazyVM, Sandbox: 92000000, Restore: 24535742, SandboxBD: resumed,
		RestoreBD: fetched, RestorePool: "tmpfs", RestorePages: 10688}
	lazyHit := lazyMiss
	lazyHit.Sandbox, lazyHit.SandboxBD = 12000000, sandbox.Breakdown{Other: 12000000}
	trenvMiss := Startup{Path: PathCold, Sandbox: 130732961, Restore: 2350980, SandboxBD: created, RestoreBD: attached}
	trenvHit := Startup{Path: PathRepurpose, Sandbox: repurposed, Restore: 2350980, RestoreBD: attached}
	reconfigMiss := criuStart
	reconfigMiss.Path = PathCold
	cloneHit := Startup{Path: PathRepurpose, Sandbox: repurposed, Restore: 96578070,
		RestoreBD: copied, RestorePool: "local", RestorePages: 24295}
	migrateHit := cloneHit
	migrateHit.Sandbox, migrateHit.SandboxBD = migrated, sandbox.Breakdown{CgroupMigrate: 12153551}

	cases := []struct {
		name    string
		start   startFn
		hit     bool // both pools hold one entry before the start
		recycle bool // Release's recycleSandbox
		want    Startup
		vm      bool          // the instance holds a netns, not a sandbox
		used    int64         // node bytes in use after the start
		now     time.Duration // clock after the start
		sbPool  int           // sandbox pool length after Release
		nsPool  int           // netns pool length after Release
	}{
		{name: "cold/miss", start: cold, want: coldStart, used: image + 8388608, now: 630732961, sbPool: 0, nsPool: 0},
		{name: "cold/hit", start: cold, hit: true, want: coldStart, used: image + 8388608, now: 630732961, sbPool: 1, nsPool: 1},
		{name: "criu/miss", start: criu, want: criuStart, used: image + 8388608, now: 227311031, sbPool: 0, nsPool: 0},
		{name: "criu/hit", start: criu, hit: true, want: criuStart, used: image + 8388608, now: 227311031, sbPool: 1, nsPool: 1},
		{name: "lazy-vm/miss", start: lazy, want: lazyMiss, vm: true, used: 110886912, now: 116535742, sbPool: 0, nsPool: 1},
		{name: "lazy-vm/hit", start: lazy, hit: true, want: lazyHit, vm: true, used: 110886912, now: 36535742, sbPool: 1, nsPool: 1},
		{name: "trenv/miss", start: trenv, recycle: true, want: trenvMiss, used: 8388608, now: 133083941, sbPool: 1, nsPool: 0},
		{name: "trenv/hit", start: trenv, hit: true, recycle: true, want: trenvHit, used: 8388608, now: 3130390, sbPool: 1, nsPool: 1},
		{name: "reconfig-clone/miss", start: reconfig(true), recycle: true, want: reconfigMiss, used: image + 8388608, now: 227311031, sbPool: 1, nsPool: 0},
		{name: "reconfig-clone/hit", start: reconfig(true), hit: true, recycle: true, want: cloneHit, used: image + 8388608, now: 97357480, sbPool: 1, nsPool: 1},
		{name: "reconfig-migrate/miss", start: reconfig(false), recycle: true, want: reconfigMiss, used: image + 8388608, now: 227311031, sbPool: 1, nsPool: 0},
		{name: "reconfig-migrate/hit", start: reconfig(false), hit: true, recycle: true, want: migrateHit, used: image + 8388608, now: 109511031, sbPool: 1, nsPool: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture()
			js := prof(t, "JS")
			img, err := f.store.Preprocess(js.Snapshot(), snapshot.Placement{Hot: f.cxl, HotFraction: 1})
			if err != nil {
				t.Fatal(err)
			}
			if c.hit {
				f.rt.SBPool.Put(f.rt.Factory.CreateWarm())
				f.rt.NetPool.Put(&sandbox.NetNS{})
			}
			run(t, func(p *sim.Proc) {
				in, st, err := c.start(f, p, js, img)
				if err != nil {
					t.Error(err)
					return
				}
				if st != c.want {
					t.Errorf("startup = %#v\nwant %#v", st, c.want)
				}
				overhead := f.rt.ContainerOverhead
				if c.vm {
					overhead = f.rt.VMOverhead
				}
				if in.Path != c.want.Path || in.OverheadBytes != overhead {
					t.Errorf("instance path %s overhead %d, want %s %d", in.Path, in.OverheadBytes, c.want.Path, overhead)
				}
				if (in.NetNS != nil) != c.vm || (in.Sandbox != nil) == c.vm {
					t.Errorf("instance netns %v sandbox %v, want vm=%v", in.NetNS, in.Sandbox, c.vm)
				}
				if f.node.Used() != c.used || p.Now() != c.now {
					t.Errorf("used %d at %d, want %d at %d", f.node.Used(), p.Now(), c.used, c.now)
				}
				end := c.now
				if c.recycle {
					end += clean
				}
				f.rt.Release(p, in, c.recycle)
				if f.node.Used() != 0 || f.rt.SBPool.Len() != c.sbPool || f.rt.NetPool.Len() != c.nsPool || p.Now() != end {
					t.Errorf("after release: used %d, pools %d/%d at %d, want 0, %d/%d at %d",
						f.node.Used(), f.rt.SBPool.Len(), f.rt.NetPool.Len(), p.Now(), c.sbPool, c.nsPool, end)
				}
			})
		})
	}
}

// TestFullCopySharesTheMedium pins the concurrent-restore surcharge: a
// full copy that starts while another is in flight pays one more copy of
// its image, in Restore and in RestoreBD.Copy, whichever start path
// (CRIU or the Figure 21 reconfig) it comes from.
func TestFullCopySharesTheMedium(t *testing.T) {
	f := newFixture()
	js := prof(t, "JS")
	e := sim.NewEngine(1)
	var criu, reconfig Startup
	e.Go("criu", func(p *sim.Proc) {
		in, st, err := f.rt.StartCRIU(p, js, js.Snapshot())
		if err != nil {
			t.Error(err)
			return
		}
		criu = st
		f.rt.Release(p, in, false)
	})
	e.Go("reconfig", func(p *sim.Proc) {
		in, st, err := f.rt.StartReconfig(p, js, js.Snapshot(), false)
		if err != nil {
			t.Error(err)
			return
		}
		reconfig = st
		f.rt.Release(p, in, true)
	})
	e.Run()
	// The CRIU start builds its sandbox first, so its copy runs alone;
	// the reconfig start's copy begins while it is in flight.
	extra := f.rt.Lat.CopyCost(js.Snapshot().MemBytes())
	if criu.Restore != 96578070 || criu.RestoreBD.Copy != 92678070 {
		t.Errorf("lone copy: restore %d copy %d, want 96578070 92678070", criu.Restore, criu.RestoreBD.Copy)
	}
	if reconfig.Restore != criu.Restore+extra || reconfig.RestoreBD.Copy != criu.RestoreBD.Copy+extra {
		t.Errorf("shared copy: restore %d copy %d, want one more copy (%d) than %d %d",
			reconfig.Restore, reconfig.RestoreBD.Copy, extra, criu.Restore, criu.RestoreBD.Copy)
	}
	// Both copies ended, so the next one runs alone again.
	run(t, func(p *sim.Proc) {
		_, st, err := f.rt.StartCRIU(p, js, js.Snapshot())
		if err != nil || st.Restore != criu.Restore {
			t.Errorf("copy after the burst: restore %d, err %v; want %d", st.Restore, err, criu.Restore)
		}
	})
}
