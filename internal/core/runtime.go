// Package core is TrEnv's container runtime: it assembles the substrate
// pieces — repurposable sandboxes, CRIU-style restore engines, and
// mm-templates — into the instance start paths the evaluation compares
// (§4, Figure 6), and models function execution over whichever memory
// tier the start path left the instance on.
//
// Each start path is an isolation step then a memory step, and one
// finisher charges the isolation overhead and builds the instance:
//
//   - StartCold: faasd's cold start — full sandbox creation, then the
//     function's bootstrap (interpreter launch, imports).
//   - StartCRIU: full sandbox creation, then a vanilla CRIU restore
//     (mmap storm + full memory copy).
//   - StartLazyVM: the REAP+/FaaSnap+ baselines — a recycled netns and a
//     Firecracker-style microVM resume, then a lazy uffd-backed restore.
//   - StartTrEnv: repurpose a pooled sandbox (or create one on miss),
//     then attach the preprocessed mm-templates.
//   - StartReconfig: the Figure 21 ablations — TrEnv's repurposing step,
//     with or without CLONE_INTO_CGROUP, then CRIU's full copy.
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

// create builds a sandbox from scratch at the full Table 1 cost.
func (rt *Runtime) create(p *sim.Proc, fn string, path StartPath) (*sandbox.Sandbox, Startup) {
	sb, bd := rt.Factory.Create(p, fn)
	return sb, Startup{Path: path, Sandbox: bd.Total(), SandboxBD: bd}
}

// repurpose reconfigures a pooled sandbox for fn (§4.1), plus the legacy
// cgroup migration unless the path spawns with CLONE_INTO_CGROUP. A pool
// miss creates one instead and makes the start cold.
func (rt *Runtime) repurpose(p *sim.Proc, fn string, cloneIntoCgroup bool) (*sandbox.Sandbox, Startup, error) {
	sb := rt.SBPool.Get()
	if sb == nil {
		sb, st := rt.create(p, fn, PathCold)
		return sb, st, nil
	}
	d, err := rt.Factory.Repurpose(p, sb, fn)
	if err != nil {
		return nil, Startup{}, err
	}
	st := Startup{Path: PathRepurpose, Sandbox: d}
	if !cloneIntoCgroup {
		st.SandboxBD.CgroupMigrate = rt.Factory.MigrateCgroup(p)
		st.Sandbox += st.SandboxBD.CgroupMigrate
	}
	return sb, st, nil
}

// fullCopy restores snap with a full copy and sleeps through it; the copy
// phase pays one more copy per full restore already in flight.
func (rt *Runtime) fullCopy(p *sim.Proc, snap *snapshot.Snapshot) (*snapshot.Restored, error) {
	res, err := snapshot.RestoreFullCopy(snap, rt.Tracker, rt.Lat, rt.RestoreCosts)
	if err != nil {
		return nil, err
	}
	res.SetStatsSink(&rt.PageStats)
	rt.restoring++
	sharing := min(rt.restoring-1, maxRestoreSharing)
	extra := time.Duration(float64(rt.Lat.CopyCost(snap.MemBytes())) * float64(sharing))
	res.Latency += extra
	res.BD.Copy += extra
	p.Sleep(res.Latency)
	rt.restoring--
	return res, nil
}

// maxRestoreSharing caps the concurrent-restore slowdown: the snapshot
// medium has parallelism, so N-way bursts do not degrade without bound.
const maxRestoreSharing = 7

// finish charges the isolation overhead, a microVM's for a netns and a
// container's otherwise, fills in the restore half of st and builds the
// instance. If the node cannot hold the overhead, the restored memory is
// freed and a netns recycled; a sandbox is dropped.
func (rt *Runtime) finish(prof workload.FunctionProfile, sb *sandbox.Sandbox, ns *sandbox.NetNS, st Startup, res *snapshot.Restored) (*Instance, Startup, error) {
	overhead := rt.ContainerOverhead
	if ns != nil {
		overhead = rt.VMOverhead
	}
	if err := rt.Tracker.Alloc(overhead); err != nil {
		res.ReleaseAll()
		if ns != nil {
			rt.NetPool.Put(ns)
		}
		return nil, Startup{}, err
	}
	st.Restore, st.RestoreBD, st.RestorePool, st.RestorePages = res.Latency, res.BD, res.CopyPool, res.CopyPages
	return &Instance{Function: prof.Name, Profile: prof, Sandbox: sb, NetNS: ns, Restored: res,
		Path: st.Path, OverheadBytes: overhead}, st, nil
}

// StartCold performs faasd's cold start: full sandbox creation plus the
// bootstrap phase; the process ends up with the whole image resident.
func (rt *Runtime) StartCold(p *sim.Proc, prof workload.FunctionProfile) (*Instance, Startup, error) {
	sb, st := rt.create(p, prof.Name, PathCold)
	// Bootstrapping allocates the image as it initializes; it copies
	// nothing from a snapshot, and its whole cost is ColdInit.
	res, err := snapshot.RestoreFullCopy(prof.Snapshot(), rt.Tracker, rt.Lat, rt.RestoreCosts)
	if err != nil {
		return nil, Startup{}, fmt.Errorf("core: cold start %s: %w", prof.Name, err)
	}
	res.SetStatsSink(&rt.PageStats)
	*res = snapshot.Restored{Snapshot: res.Snapshot, Spaces: res.Spaces, Latency: prof.ColdInit}
	p.Sleep(prof.ColdInit)
	return rt.finish(prof, sb, nil, st, res)
}

// StartCRIU creates a fresh sandbox and restores the process with a
// vanilla CRIU full-copy restore.
func (rt *Runtime) StartCRIU(p *sim.Proc, prof workload.FunctionProfile, snap *snapshot.Snapshot) (*Instance, Startup, error) {
	sb, st := rt.create(p, prof.Name, PathCRIU)
	res, err := rt.fullCopy(p, snap)
	if err != nil {
		return nil, Startup{}, fmt.Errorf("core: criu start %s: %w", prof.Name, err)
	}
	return rt.finish(prof, sb, nil, st, res)
}

// StartLazyVM starts a REAP+/FaaSnap+-style microVM: netns from the
// recycling pool (created on miss), a Firecracker snapshot resume, and a
// lazy memory restore from the tmpfs snapshot.
func (rt *Runtime) StartLazyVM(p *sim.Proc, prof workload.FunctionProfile, snap *snapshot.Snapshot, tmpfs *mem.Pool, cfg snapshot.LazyConfig) (*Instance, Startup, error) {
	st := Startup{Path: PathLazyVM}
	ns := rt.NetPool.Get()
	if ns == nil {
		ns, st.SandboxBD.NetNS = rt.Factory.CreateNetNS(p)
	}
	p.Sleep(rt.VMResume)
	st.SandboxBD.Other = rt.VMResume // Firecracker device-state resume
	st.Sandbox = st.SandboxBD.Total()
	tmpfs.BeginFetch()
	res, err := snapshot.RestoreLazy(snap, rt.Tracker, tmpfs, cfg, rt.Lat, rt.RestoreCosts)
	if err != nil {
		tmpfs.EndFetch()
		rt.NetPool.Put(ns)
		return nil, Startup{}, fmt.Errorf("core: lazy start %s: %w", prof.Name, err)
	}
	res.SetStatsSink(&rt.PageStats)
	p.Sleep(res.Latency)
	tmpfs.EndFetch()
	return rt.finish(prof, nil, ns, st, res)
}

// StartTrEnv starts an instance the TrEnv way: repurpose a pooled sandbox
// (creating one only on pool miss) and attach the mm-templates.
func (rt *Runtime) StartTrEnv(p *sim.Proc, prof workload.FunctionProfile, img *snapshot.Image) (*Instance, Startup, error) {
	sb, st, err := rt.repurpose(p, prof.Name, true)
	if err != nil {
		return nil, Startup{}, err
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
	res.SetStatsSink(&rt.PageStats)
	p.Sleep(res.Latency)
	in, st, err := rt.finish(prof, sb, nil, st, res)
	if err == nil && rt.Prefetcher != nil {
		// Restore is done; replay (or start recording) the image's
		// working set. Batches race the invocation from here — their
		// latency never blocks the start path.
		st.Prefetch = rt.Prefetcher.OnRestore(p, img.WSLog, res)
	}
	return in, st, err
}

// StartReconfig is the Figure 21 ablation: sandbox repurposing is on, but
// memory still restores via full copy. With cloneIntoCgroup false the
// legacy cgroup-migration cost is paid on top (the "Reconfig" bar); with
// it true only the fast spawn path is used (the "Cgroup" bar).
func (rt *Runtime) StartReconfig(p *sim.Proc, prof workload.FunctionProfile, snap *snapshot.Snapshot, cloneIntoCgroup bool) (*Instance, Startup, error) {
	sb, st, err := rt.repurpose(p, prof.Name, cloneIntoCgroup)
	if err != nil {
		return nil, Startup{}, err
	}
	res, err := rt.fullCopy(p, snap)
	if err != nil {
		return nil, Startup{}, fmt.Errorf("core: reconfig start %s: %w", prof.Name, err)
	}
	return rt.finish(prof, sb, nil, st, res)
}

// Release tears an instance down, returning memory to the node and
// recycling reusable isolation components: TrEnv sandboxes are cleaned
// into the universal pool, baseline netns into the netns pool; CRIU/cold
// sandboxes are discarded.
func (rt *Runtime) Release(p *sim.Proc, in *Instance, recycleSandbox bool) {
	ns, sb := in.NetNS, in.Sandbox
	rt.ReleaseCrashed(in)
	if ns != nil {
		rt.NetPool.Put(ns)
	}
	if sb != nil && recycleSandbox {
		rt.Factory.Clean(p, sb)
		rt.SBPool.Put(sb)
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
