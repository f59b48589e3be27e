// Package sandbox prices the isolation components of a container sandbox
// — network namespace, root filesystem, cgroup, and the miscellaneous
// namespaces — with the creation/reuse cost structure of the paper's
// Table 1, plus TrEnv's repurposable sandbox pool (§4, §5.2). The
// components are priced, not built: a Sandbox records only its identity,
// its occupant, and whether its upper dir still awaits a purge.
//
// The key asymmetry the paper exploits: creating these components is
// expensive (and gets worse under concurrent cold starts: the kernel
// serializes on global locks, e.g. ~400 ms of netns setup at 15
// concurrent creations), while cleansing and reconfiguring an existing
// sandbox costs around a millisecond:
//
//   - netns: reused verbatim after terminating connections — it leaks no
//     data produced during processing (§8.1.1).
//   - rootfs: overlayfs upper dir purged (asynchronously), the function-
//     specific overlay swapped with 2 mount syscalls (§5.2.1).
//   - cgroup: reconfigured and entered via CLONE_INTO_CGROUP at spawn
//     time, bypassing the RCU-heavy migration path (§5.2.2).
package sandbox

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// CostModel prices sandbox operations. Ranges follow Table 1; the Per-
// Concurrent terms model the kernel-lock serialization observed under
// concurrent cold starts.
type CostModel struct {
	// NetNSBase..NetNSMax: creating a network namespace plus veth pair.
	NetNSBase          time.Duration
	NetNSPerConcurrent time.Duration
	NetNSMax           time.Duration

	// Rootfs creation: >9 mounts, 6 mknod, pivot_root, ...
	RootfsBase          time.Duration
	RootfsPerConcurrent time.Duration
	RootfsMax           time.Duration

	// Cgroup creation and migration (the RCU-synchronized path).
	CgroupCreateMin  time.Duration
	CgroupCreateMax  time.Duration
	CgroupMigrateMin time.Duration
	CgroupMigrateMax time.Duration

	// CloneIntoCgroup is the CLONE_INTO_CGROUP fast path used when
	// spawning into a repurposed sandbox.
	CloneIntoCgroupMin time.Duration
	CloneIntoCgroupMax time.Duration

	// OtherNS covers pid/time/uts/ipc namespaces (< 1 ms).
	OtherNS time.Duration

	// OverlayMount is one mount syscall for a function-specific overlay;
	// repurposing needs two (unmount old + mount new).
	OverlayMount time.Duration

	// KillProcesses is terminating the previous instance's process tree.
	KillProcesses time.Duration

	// TeardownConns is forcibly closing the previous instance's network
	// connections during repurposing.
	TeardownConns time.Duration
}

// DefaultCostModel returns Table 1's cost structure.
func DefaultCostModel() CostModel {
	return CostModel{
		NetNSBase:           80 * time.Millisecond,
		NetNSPerConcurrent:  22 * time.Millisecond, // 15 concurrent => ~400 ms
		NetNSMax:            10 * time.Second,
		RootfsBase:          10 * time.Millisecond,
		RootfsPerConcurrent: 8 * time.Millisecond,
		RootfsMax:           800 * time.Millisecond,
		CgroupCreateMin:     16 * time.Millisecond,
		CgroupCreateMax:     32 * time.Millisecond,
		CgroupMigrateMin:    10 * time.Millisecond,
		CgroupMigrateMax:    50 * time.Millisecond,
		CloneIntoCgroupMin:  100 * time.Microsecond,
		CloneIntoCgroupMax:  300 * time.Microsecond,
		OtherNS:             800 * time.Microsecond,
		OverlayMount:        250 * time.Microsecond,
		KillProcesses:       300 * time.Microsecond,
		TeardownConns:       200 * time.Microsecond,
	}
}

func uniform(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)))
}

func scaled(base, per, max time.Duration, concurrent int) time.Duration {
	d := base + time.Duration(concurrent)*per
	if d > max {
		d = max
	}
	return d
}

// NetNS is an isolated network environment (namespace + veth).
type NetNS struct {
	ID int
}

// Sandbox is one container or VM jailer's set of isolation components.
type Sandbox struct {
	ID       int
	Function string // current occupant ("" when clean in the pool)
	// DirtyUpper marks an overlayfs upper dir that still holds the
	// previous occupant's writes: Clean starts an asynchronous purge, and
	// a Repurpose that arrives before it finishes pays for it.
	DirtyUpper bool
}

// Breakdown itemizes where sandbox-path latency went (Figure 4, Table 1).
type Breakdown struct {
	NetNS         time.Duration
	Rootfs        time.Duration
	CgroupCreate  time.Duration
	CgroupMigrate time.Duration
	Other         time.Duration
}

// Total sums the components.
func (b Breakdown) Total() time.Duration {
	return b.NetNS + b.Rootfs + b.CgroupCreate + b.CgroupMigrate + b.Other
}

// Factory creates and repurposes sandboxes, tracking in-flight creations
// for the concurrency-dependent cost terms.
type Factory struct {
	cm       CostModel
	nextID   int
	creating int // concurrent creations in flight
	created  sim.Counter
	reused   sim.Counter
}

// NewFactory returns a factory with the given cost model.
func NewFactory(cm CostModel) *Factory {
	return &Factory{cm: cm}
}

// Created returns how many sandboxes were created from scratch.
func (f *Factory) Created() int64 { return f.created.Value() }

// Repurposed returns how many sandbox handoffs were served by reuse.
func (f *Factory) Repurposed() int64 { return f.reused.Value() }

// Create builds a sandbox from scratch for function fn, sleeping through
// the full Table 1 cost. The concurrency surcharge reflects other
// creations in flight at the same time.
func (f *Factory) Create(p *sim.Proc, fn string) (*Sandbox, Breakdown) {
	f.creating++
	defer func() { f.creating-- }()
	rng := p.Rand()
	b := Breakdown{
		NetNS:         scaled(f.cm.NetNSBase, f.cm.NetNSPerConcurrent, f.cm.NetNSMax, f.creating-1),
		Rootfs:        scaled(f.cm.RootfsBase, f.cm.RootfsPerConcurrent, f.cm.RootfsMax, f.creating-1),
		CgroupCreate:  uniform(rng, f.cm.CgroupCreateMin, f.cm.CgroupCreateMax),
		CgroupMigrate: uniform(rng, f.cm.CgroupMigrateMin, f.cm.CgroupMigrateMax),
		Other:         f.cm.OtherNS,
	}
	p.Sleep(b.Total())
	f.nextID++
	f.created.Inc()
	return &Sandbox{ID: f.nextID, Function: fn}, b
}

// CreateWarm builds a cleaned, pool-ready sandbox without charging
// simulated time — pre-provisioning that happened before the measured
// window. The sandbox has no occupant.
func (f *Factory) CreateWarm() *Sandbox {
	f.nextID++
	f.created.Inc()
	return &Sandbox{ID: f.nextID}
}

// CreateNetNS builds a bare network namespace (for microVM baselines
// whose other isolation lives in the hypervisor). It pays the same
// concurrency-sensitive netns cost as a full sandbox creation.
func (f *Factory) CreateNetNS(p *sim.Proc) (*NetNS, time.Duration) {
	f.creating++
	defer func() { f.creating-- }()
	d := scaled(f.cm.NetNSBase, f.cm.NetNSPerConcurrent, f.cm.NetNSMax, f.creating-1)
	p.Sleep(d)
	f.nextID++
	return &NetNS{ID: f.nextID}, d
}

// Clean terminates the previous occupant and cleanses the sandbox for
// pooling (step B1 of Figure 6): processes killed, connections torn down,
// upper-dir purge started asynchronously. It returns the (small) critical-
// path cost, which the caller has already slept through.
func (f *Factory) Clean(p *sim.Proc, sb *Sandbox) time.Duration {
	d := f.cm.KillProcesses + f.cm.TeardownConns
	p.Sleep(d)
	sb.Function = ""
	// The occupant's writes live in the upper dir until the purge
	// completes. Purge is asynchronous (§5.2.1); schedule completion off
	// the critical path.
	sb.DirtyUpper = true
	p.Engine().After(2*time.Millisecond, func() { sb.DirtyUpper = false })
	return d
}

// Repurpose converts a cleaned sandbox to function fn (step B2): swap the
// function-specific overlay (2 mounts) and apply cgroup limits via
// CLONE_INTO_CGROUP at spawn. It returns the critical-path cost.
func (f *Factory) Repurpose(p *sim.Proc, sb *Sandbox, fn string) (time.Duration, error) {
	if sb.Function != "" {
		return 0, fmt.Errorf("sandbox: repurposing %d while occupied by %q", sb.ID, sb.Function)
	}
	rng := p.Rand()
	d := 2*f.cm.OverlayMount + uniform(rng, f.cm.CloneIntoCgroupMin, f.cm.CloneIntoCgroupMax)
	if sb.DirtyUpper {
		// Async purge has not finished; it completes synchronously now.
		d += 2 * time.Millisecond
		sb.DirtyUpper = false
	}
	p.Sleep(d)
	sb.Function = fn
	f.reused.Inc()
	return d, nil
}

// MigrateCgroup performs the legacy cgroup migration (create + move task),
// used by baselines that lack CLONE_INTO_CGROUP. Returns the slept cost.
func (f *Factory) MigrateCgroup(p *sim.Proc) time.Duration {
	d := uniform(p.Rand(), f.cm.CgroupMigrateMin, f.cm.CgroupMigrateMax)
	p.Sleep(d)
	return d
}

// Pool is a LIFO pool of cleaned sandboxes (the universal, function-type-
// agnostic pool at the heart of TrEnv's repurposing).
type Pool struct {
	idle []*Sandbox
}

// Get pops the most recently returned sandbox, or nil if empty.
func (p *Pool) Get() *Sandbox {
	if len(p.idle) == 0 {
		return nil
	}
	sb := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	return sb
}

// Put returns a cleaned sandbox to the pool. Putting an occupied sandbox
// is a bug.
func (p *Pool) Put(sb *Sandbox) {
	if sb.Function != "" {
		panic(fmt.Sprintf("sandbox: pooling occupied sandbox %d (%s)", sb.ID, sb.Function))
	}
	p.idle = append(p.idle, sb)
}

// Len returns the number of pooled sandboxes.
func (p *Pool) Len() int { return len(p.idle) }

// NetNSPool recycles bare network namespaces; this is the enhancement the
// paper grants the REAP+ and FaaSnap+ baselines so the comparison focuses
// on memory restoration rather than network setup.
type NetNSPool struct {
	idle []*NetNS
}

// Get pops a namespace, or nil.
func (p *NetNSPool) Get() *NetNS {
	if len(p.idle) == 0 {
		return nil
	}
	ns := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	return ns
}

// Put recycles a namespace after teardown.
func (p *NetNSPool) Put(ns *NetNS) {
	p.idle = append(p.idle, ns)
}

// Len returns the pooled count.
func (p *NetNSPool) Len() int { return len(p.idle) }
