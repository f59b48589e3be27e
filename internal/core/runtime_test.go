package core

import (
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/mmtemplate"
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
