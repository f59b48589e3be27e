// Package core is TrEnv's container runtime: it assembles the substrate
// pieces — repurposable sandboxes, CRIU-style restore engines, and
// mm-templates — into the instance start paths the evaluation compares
// (§4, Figure 6), and models function execution over whichever memory
// tier the start path left the instance on.
//
// Start paths:
//
//   - StartCold: faasd's cold start — full sandbox creation plus the
//     function's bootstrap (interpreter launch, imports).
//   - StartCRIU: full sandbox creation plus a vanilla CRIU restore
//     (mmap storm + full memory copy).
//   - StartLazyVM: the REAP+/FaaSnap+ baselines — recycled netns, a
//     Firecracker-style microVM resume, and a lazy uffd-backed restore.
//   - StartTrEnv: repurpose a pooled sandbox (or create one on miss) and
//     attach the preprocessed mm-templates.
//   - StartReconfig: the Figure 21 ablations — repurposable sandbox but
//     full-copy memory restore, with or without CLONE_INTO_CGROUP.
package core

import (
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/pagetable"
	"repro/internal/prefetch"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// StartPath labels how an instance came to life.
type StartPath string

// Start paths.
const (
	PathWarm      StartPath = "warm"
	PathCold      StartPath = "cold"
	PathCRIU      StartPath = "criu"
	PathLazyVM    StartPath = "lazy-vm"
	PathRepurpose StartPath = "repurpose"
	// PathFallback is a local cold start taken because the remote-memory
	// restore path was unavailable (graceful degradation).
	PathFallback StartPath = "fallback"
)

// Instance is one live (running or kept-warm) function instance.
type Instance struct {
	Function string
	Profile  workload.FunctionProfile
	Sandbox  *sandbox.Sandbox // container paths
	NetNS    *sandbox.NetNS   // microVM baselines
	Restored *snapshot.Restored
	Path     StartPath
	// OverheadBytes is the fixed isolation overhead charged to the node
	// (container scaffolding, or guest kernel + hypervisor for VMs).
	OverheadBytes int64
	// IdleSince is set by the platform when the instance enters the
	// keep-alive pool.
	IdleSince time.Duration
	// LastTraceID is the trace of the most recent invocation this
	// instance served — what a later keep-alive expiry span links back
	// to ("this environment died idle after trace X").
	LastTraceID string
	// Uses counts invocations served.
	Uses int
}

// RSS returns the instance's node-DRAM footprint.
func (in *Instance) RSS() int64 {
	var n int64 = in.OverheadBytes
	if in.Restored != nil {
		n += in.Restored.RSS()
	}
	return n
}

// Startup itemizes where an instance's startup latency went.
type Startup struct {
	Path    StartPath
	Sandbox time.Duration // isolation environment work
	Restore time.Duration // memory/process state restore or bootstrap

	// SandboxBD decomposes Sandbox into netns/rootfs/cgroup components.
	// Sandbox minus SandboxBD.Total() is repurposing work (or zero).
	SandboxBD sandbox.Breakdown
	// RestoreBD decomposes Restore into copy/attach/mmap/proc phases.
	// Restore minus RestoreBD.Total() is bootstrap/dispatch work.
	RestoreBD snapshot.Breakdown
	// RestorePool/RestorePages describe where the restore's copy phase
	// read memory from ("" when the path copied nothing) — stamped onto
	// the restore span so tail analysis can blame the medium.
	RestorePool  string
	RestorePages int64
	// Prefetch summarizes the working-set prefetch pass the restore
	// kicked off (nil when no prefetcher is attached or there was
	// nothing to do). The batches race the invocation: their latency is
	// NOT part of Total(), only of the faults they absorb.
	Prefetch *prefetch.Summary
}

// Total returns the startup latency.
func (s Startup) Total() time.Duration { return s.Sandbox + s.Restore }

// Runtime builds instances. All fields must be set.
type Runtime struct {
	Tracker      *mem.Tracker // node DRAM
	Lat          mem.LatencyModel
	Factory      *sandbox.Factory
	SBPool       *sandbox.Pool
	NetPool      *sandbox.NetNSPool
	RestoreCosts snapshot.Costs
	AttachCosts  mmtemplate.CostModel

	// ContainerOverhead is the fixed per-container scaffolding footprint.
	ContainerOverhead int64
	// VMOverhead is the per-microVM footprint (hypervisor + guest kernel)
	// for the Firecracker-based baselines.
	VMOverhead int64
	// VMResume is the Firecracker snapshot-load cost (device state, not
	// memory).
	VMResume time.Duration

	// restoring counts in-flight full-copy restores: concurrent copies
	// share the snapshot medium's bandwidth, so each runs ~N times
	// slower during an N-way burst.
	restoring int

	// PageStats aggregates fault/CoW/traffic accounting across every
	// address space this runtime restored — the node-level series the
	// metrics registry exports.
	PageStats pagetable.Stats

	// Prefetcher, when non-nil, runs the working-set prefetch pass on
	// every TrEnv restore: the image's first run records its fault
	// order, later restores replay it as batched fetches racing the
	// invocation (see internal/prefetch).
	Prefetcher *prefetch.Prefetcher
}

// adopt mirrors the restored spaces' fault accounting into the
// runtime's node-wide aggregate.
func (rt *Runtime) adopt(res *snapshot.Restored) {
	res.SetStatsSink(&rt.PageStats)
}

// sleepFullRestore sleeps through a full-copy restore, inflating the copy
// component by the number of concurrent full restores, and returns the
// total charged latency.
func (rt *Runtime) sleepFullRestore(p *sim.Proc, base time.Duration, copyBytes int64) time.Duration {
	rt.restoring++
	slowdown := rt.restoring - 1
	if slowdown > maxRestoreSharing {
		slowdown = maxRestoreSharing
	}
	extra := time.Duration(float64(rt.Lat.CopyCost(copyBytes)) * float64(slowdown))
	d := base + extra
	p.Sleep(d)
	rt.restoring--
	return d
}

// maxRestoreSharing caps the concurrent-restore slowdown: the snapshot
// medium has parallelism, so N-way bursts do not degrade without bound.
const maxRestoreSharing = 7

// DefaultRuntime wires a runtime over the given node tracker with default
// cost models.
func DefaultRuntime(tracker *mem.Tracker) *Runtime {
	return &Runtime{
		Tracker:           tracker,
		Lat:               mem.DefaultLatencyModel(),
		Factory:           sandbox.NewFactory(sandbox.DefaultCostModel()),
		SBPool:            &sandbox.Pool{},
		NetPool:           &sandbox.NetNSPool{},
		RestoreCosts:      snapshot.DefaultCosts(),
		AttachCosts:       mmtemplate.DefaultCostModel(),
		ContainerOverhead: 8 << 20,
		VMOverhead:        64 << 20,
		VMResume:          12 * time.Millisecond,
	}
}

func (rt *Runtime) chargeOverhead(n int64) error { return rt.Tracker.Alloc(n) }

// StartCold performs faasd's cold start: full sandbox creation plus the
// bootstrap phase; the process ends up with the whole image resident.
func (rt *Runtime) StartCold(p *sim.Proc, prof workload.FunctionProfile) (*Instance, Startup, error) {
	sb, bd := rt.Factory.Create(p, prof.Name)
	// Bootstrapping allocates the image as it initializes.
	res, err := snapshot.RestoreFullCopy(prof.Snapshot(), rt.Tracker, rt.Lat, rt.RestoreCosts)
	if err != nil {
		return nil, Startup{}, fmt.Errorf("core: cold start %s: %w", prof.Name, err)
	}
	rt.adopt(res)
	res.Latency = 0 // materialization cost is part of ColdInit below
	p.Sleep(prof.ColdInit)
	if err := rt.chargeOverhead(rt.ContainerOverhead); err != nil {
		res.ReleaseAll()
		return nil, Startup{}, err
	}
	st := Startup{Path: PathCold, Sandbox: bd.Total(), Restore: prof.ColdInit, SandboxBD: bd}
	return &Instance{Function: prof.Name, Profile: prof, Sandbox: sb, Restored: res,
		Path: PathCold, OverheadBytes: rt.ContainerOverhead}, st, nil
}

// StartCRIU creates a fresh sandbox and restores the process with a
// vanilla CRIU full-copy restore.
func (rt *Runtime) StartCRIU(p *sim.Proc, prof workload.FunctionProfile, snap *snapshot.Snapshot) (*Instance, Startup, error) {
	sb, bd := rt.Factory.Create(p, prof.Name)
	res, err := snapshot.RestoreFullCopy(snap, rt.Tracker, rt.Lat, rt.RestoreCosts)
	if err != nil {
		return nil, Startup{}, fmt.Errorf("core: criu start %s: %w", prof.Name, err)
	}
	rt.adopt(res)
	restore := rt.sleepFullRestore(p, res.Latency, snap.MemBytes())
	if err := rt.chargeOverhead(rt.ContainerOverhead); err != nil {
		res.ReleaseAll()
		return nil, Startup{}, err
	}
	rbd := res.BD
	rbd.Copy += restore - res.Latency // concurrent-restore sharing surcharge
	st := Startup{Path: PathCRIU, Sandbox: bd.Total(), Restore: restore, SandboxBD: bd, RestoreBD: rbd,
		RestorePool: res.CopyPool, RestorePages: res.CopyPages}
	return &Instance{Function: prof.Name, Profile: prof, Sandbox: sb, Restored: res,
		Path: PathCRIU, OverheadBytes: rt.ContainerOverhead}, st, nil
}

// StartLazyVM starts a REAP+/FaaSnap+-style microVM: netns from the
// recycling pool (created on miss), a Firecracker snapshot resume, and a
// lazy memory restore from the tmpfs snapshot.
func (rt *Runtime) StartLazyVM(p *sim.Proc, prof workload.FunctionProfile, snap *snapshot.Snapshot, tmpfs *mem.Pool, cfg snapshot.LazyConfig) (*Instance, Startup, error) {
	var sbd sandbox.Breakdown
	ns := rt.NetPool.Get()
	if ns == nil {
		var d time.Duration
		ns, d = rt.Factory.CreateNetNS(p)
		sbd.NetNS = d
	}
	p.Sleep(rt.VMResume)
	sbd.Other = rt.VMResume // Firecracker device-state resume
	sandboxCost := sbd.Total()
	tmpfs.BeginFetch()
	res, err := snapshot.RestoreLazy(snap, rt.Tracker, tmpfs, cfg, rt.Lat, rt.RestoreCosts)
	if err != nil {
		tmpfs.EndFetch()
		rt.NetPool.Put(ns)
		return nil, Startup{}, fmt.Errorf("core: lazy start %s: %w", prof.Name, err)
	}
	rt.adopt(res)
	p.Sleep(res.Latency)
	tmpfs.EndFetch()
	if err := rt.chargeOverhead(rt.VMOverhead); err != nil {
		res.ReleaseAll()
		rt.NetPool.Put(ns)
		return nil, Startup{}, err
	}
	st := Startup{Path: PathLazyVM, Sandbox: sandboxCost, Restore: res.Latency,
		SandboxBD: sbd, RestoreBD: res.BD,
		RestorePool: res.CopyPool, RestorePages: res.CopyPages}
	return &Instance{Function: prof.Name, Profile: prof, NetNS: ns, Restored: res,
		Path: PathLazyVM, OverheadBytes: rt.VMOverhead}, st, nil
}

// StartTrEnv starts an instance the TrEnv way: repurpose a pooled sandbox
// (creating one only on pool miss) and attach the mm-templates.
func (rt *Runtime) StartTrEnv(p *sim.Proc, prof workload.FunctionProfile, img *snapshot.Image) (*Instance, Startup, error) {
	var sandboxCost time.Duration
	var sbd sandbox.Breakdown
	path := PathRepurpose
	sb := rt.SBPool.Get()
	if sb == nil {
		var bd sandbox.Breakdown
		sb, bd = rt.Factory.Create(p, prof.Name)
		sandboxCost = bd.Total()
		sbd = bd
		path = PathCold // pool miss: sandbox had to be built
	} else {
		d, err := rt.Factory.Repurpose(p, sb, prof.Name)
		if err != nil {
			return nil, Startup{}, err
		}
		sandboxCost = d
	}
	res, err := snapshot.RestoreTemplate(img, rt.Tracker, rt.Lat, rt.AttachCosts, rt.RestoreCosts)
	if err != nil {
		// Don't leak the sandbox on a failed restore (e.g. an injected
		// pool outage): scrub it back into the universal pool so the
		// fallback cold start — or the next invocation — can reuse it.
		rt.Factory.Clean(p, sb)
		rt.SBPool.Put(sb)
		return nil, Startup{}, fmt.Errorf("core: trenv start %s: %w", prof.Name, err)
	}
	rt.adopt(res)
	p.Sleep(res.Latency)
	if err := rt.chargeOverhead(rt.ContainerOverhead); err != nil {
		res.ReleaseAll()
		return nil, Startup{}, err
	}
	st := Startup{Path: path, Sandbox: sandboxCost, Restore: res.Latency,
		SandboxBD: sbd, RestoreBD: res.BD}
	if rt.Prefetcher != nil {
		// Restore is done; replay (or start recording) the image's
		// working set. Batches race the invocation from here — their
		// latency never blocks the start path.
		st.Prefetch = rt.Prefetcher.OnRestore(p, img.WSLog, res)
	}
	return &Instance{Function: prof.Name, Profile: prof, Sandbox: sb, Restored: res,
		Path: path, OverheadBytes: rt.ContainerOverhead}, st, nil
}

// StartReconfig is the Figure 21 ablation: sandbox repurposing is on, but
// memory still restores via full copy. With cloneIntoCgroup false the
// legacy cgroup-migration cost is paid on top (the "Reconfig" bar); with
// it true only the fast spawn path is used (the "Cgroup" bar).
func (rt *Runtime) StartReconfig(p *sim.Proc, prof workload.FunctionProfile, snap *snapshot.Snapshot, cloneIntoCgroup bool) (*Instance, Startup, error) {
	var sandboxCost time.Duration
	var sbd sandbox.Breakdown
	path := PathRepurpose
	sb := rt.SBPool.Get()
	if sb == nil {
		var bd sandbox.Breakdown
		sb, bd = rt.Factory.Create(p, prof.Name)
		sandboxCost = bd.Total()
		sbd = bd
		path = PathCold
	} else {
		d, err := rt.Factory.Repurpose(p, sb, prof.Name)
		if err != nil {
			return nil, Startup{}, err
		}
		sandboxCost = d
		if !cloneIntoCgroup {
			sbd.CgroupMigrate = rt.Factory.MigrateCgroup(p)
			sandboxCost += sbd.CgroupMigrate
		}
	}
	res, err := snapshot.RestoreFullCopy(snap, rt.Tracker, rt.Lat, rt.RestoreCosts)
	if err != nil {
		return nil, Startup{}, fmt.Errorf("core: reconfig start %s: %w", prof.Name, err)
	}
	rt.adopt(res)
	restore := rt.sleepFullRestore(p, res.Latency, snap.MemBytes())
	if err := rt.chargeOverhead(rt.ContainerOverhead); err != nil {
		res.ReleaseAll()
		return nil, Startup{}, err
	}
	rbd := res.BD
	rbd.Copy += restore - res.Latency
	st := Startup{Path: path, Sandbox: sandboxCost, Restore: restore,
		SandboxBD: sbd, RestoreBD: rbd,
		RestorePool: res.CopyPool, RestorePages: res.CopyPages}
	return &Instance{Function: prof.Name, Profile: prof, Sandbox: sb, Restored: res,
		Path: path, OverheadBytes: rt.ContainerOverhead}, st, nil
}

// Release tears an instance down, returning memory to the node and
// recycling reusable isolation components: TrEnv sandboxes are cleaned
// into the universal pool, baseline netns into the netns pool; CRIU/cold
// sandboxes are discarded.
func (rt *Runtime) Release(p *sim.Proc, in *Instance, recycleSandbox bool) {
	if in.Restored != nil {
		in.Restored.ReleaseAll()
	}
	if in.OverheadBytes > 0 {
		rt.Tracker.Free(in.OverheadBytes)
	}
	if in.NetNS != nil {
		rt.NetPool.Put(in.NetNS)
		in.NetNS = nil
	}
	if in.Sandbox != nil {
		if recycleSandbox {
			rt.Factory.Clean(p, in.Sandbox)
			rt.SBPool.Put(in.Sandbox)
		}
		in.Sandbox = nil
	}
}

// ReleaseCrashed tears an instance down after its node crashed: memory
// accounting is unwound so trackers stay consistent, but nothing is
// recycled and no simulated time is charged — there is no node left to
// run cleanup on. Safe to call without a live sim.Proc.
func (rt *Runtime) ReleaseCrashed(in *Instance) {
	if in.Restored != nil {
		in.Restored.ReleaseAll()
	}
	if in.OverheadBytes > 0 {
		rt.Tracker.Free(in.OverheadBytes)
	}
	in.NetNS = nil
	in.Sandbox = nil
}
