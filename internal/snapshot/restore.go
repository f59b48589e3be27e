package snapshot

import (
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/pagetable"
)

// Breakdown itemizes where a restore path's latency went, the memory
// half of the paper's Fig. 4 startup decomposition. Components the path
// did not exercise stay zero (e.g. Attach for full-copy restores).
type Breakdown struct {
	// Orchestration is restore-engine setup: CRIU fork + image parsing,
	// TrEnv's repurpose request, or userfaultfd registration.
	Orchestration time.Duration
	// Mmap is recreating the VMAs.
	Mmap time.Duration
	// Copy is moving memory contents (full image or eager working set),
	// including any concurrent-restore sharing surcharge.
	Copy time.Duration
	// Attach is the mm-template metadata copy.
	Attach time.Duration
	// Procs is rebuilding the process tree (thread clones, fd reopens).
	Procs time.Duration
}

// Total sums the components.
func (b Breakdown) Total() time.Duration {
	return b.Orchestration + b.Mmap + b.Copy + b.Attach + b.Procs
}

// Restored is the outcome of a restore: one address space per process and
// the startup latency the restore path incurred.
type Restored struct {
	Snapshot *Snapshot
	Spaces   []*pagetable.AddressSpace
	Latency  time.Duration
	// BD decomposes Latency by phase; BD.Total() == Latency.
	BD Breakdown
	// CopyPool names the pool the Copy phase read from ("" when the
	// path copied nothing), and CopyPages counts the pages it moved —
	// what a restore-side remote-fetch span reports.
	CopyPool  string
	CopyPages int64
}

// Region finds a region by name across the restored processes.
func (r *Restored) Region(name string) (*pagetable.AddressSpace, *pagetable.VMA) {
	for _, as := range r.Spaces {
		if v := as.Region(name); v != nil {
			return as, v
		}
	}
	return nil, nil
}

// RSS returns the restored processes' total local memory.
func (r *Restored) RSS() int64 {
	var n int64
	for _, as := range r.Spaces {
		n += as.RSS()
	}
	return n
}

// ReleaseAll frees all local memory held by the restored processes.
func (r *Restored) ReleaseAll() {
	for _, as := range r.Spaces {
		as.ReleaseAll()
	}
}

// SetStatsSink mirrors fault accounting from every restored address
// space into s (see pagetable.AddressSpace.SetStatsSink).
func (r *Restored) SetStatsSink(s *pagetable.Stats) {
	for _, as := range r.Spaces {
		as.SetStatsSink(s)
	}
}

// SetClock supplies virtual time to every restored address space, so
// demand faults on in-flight prefetch batches charge their residual
// wait (see pagetable.AddressSpace.SetClock).
func (r *Restored) SetClock(clock func() time.Duration) {
	for _, as := range r.Spaces {
		as.SetClock(clock)
	}
}

// SetWorkingSetLog attaches a first-run working-set recorder to every
// restored address space (see pagetable.AddressSpace.SetWorkingSetLog).
func (r *Restored) SetWorkingSetLog(l *pagetable.WorkingSetLog) {
	for _, as := range r.Spaces {
		as.SetWorkingSetLog(l)
	}
}

// layout rebuilds a snapshot's VMAs into fresh address spaces using the
// same deterministic layout as Store.Preprocess. backing, if non-nil, is
// applied to every region.
func layout(snap *Snapshot, tracker *mem.Tracker, lat mem.LatencyModel, pool *mem.Pool, state pagetable.State) ([]*pagetable.AddressSpace, int, error) {
	var spaces []*pagetable.AddressSpace
	regions := 0
	va := uint64(regionBase)
	var off uint64
	for pi := range snap.Procs {
		as := pagetable.NewAddressSpace(tracker, lat)
		for _, reg := range snap.Procs[pi].Regions {
			pages := reg.Pages()
			if pages == 0 {
				continue
			}
			if _, err := as.AddVMA(reg.Name, va, pages, reg.Prot, reg.Kind, pool, off, state); err != nil {
				for _, s := range spaces {
					s.ReleaseAll()
				}
				as.ReleaseAll()
				return nil, 0, err
			}
			regions++
			va += uint64(pages)*mem.PageSize + regionGap
			off += uint64(pages) * mem.PageSize
		}
		spaces = append(spaces, as)
	}
	return spaces, regions, nil
}

// RestoreFullCopy performs a vanilla CRIU restore: recreate every VMA
// with mmap and copy the full memory image from the snapshot file. All
// pages end up resident, so execution takes no restore faults, but the
// startup pays the copy (the paper's ">60 ms for a 60 MB image").
func RestoreFullCopy(snap *Snapshot, tracker *mem.Tracker, lat mem.LatencyModel, costs Costs) (*Restored, error) {
	spaces, regions, err := layout(snap, tracker, lat, nil, pagetable.Local)
	if err != nil {
		return nil, fmt.Errorf("snapshot: full-copy restore of %q: %w", snap.Function, err)
	}
	bd := Breakdown{
		Orchestration: costs.CRIUOrchestration,
		Mmap:          time.Duration(regions) * costs.MmapPerRegion,
		Copy:          lat.CopyCost(snap.MemBytes()),
		Procs:         procRestoreCost(snap, costs),
	}
	return &Restored{
		Snapshot: snap, Spaces: spaces, Latency: bd.Total(), BD: bd,
		CopyPool: "local", CopyPages: snap.MemBytes() / mem.PageSize,
	}, nil
}

// procRestoreCost totals the per-thread clone and per-fd reopen costs.
func procRestoreCost(snap *Snapshot, costs Costs) time.Duration {
	var d time.Duration
	for pi := range snap.Procs {
		d += time.Duration(snap.Procs[pi].Threads) * costs.ThreadClone
		d += time.Duration(snap.Procs[pi].FDs) * costs.FDRestore
	}
	return d
}

// LazyConfig tunes the REAP/FaaSnap-style restore paths.
type LazyConfig struct {
	// WorkingSet gives, per region name, the page count the recorded
	// working set covers (what a previous profiled invocation touched).
	WorkingSet map[string]int
	// Coverage is the fraction of the current invocation's touches that
	// the recorded set actually predicts (REAP reports ~90%-class hit
	// rates; deviations fault through userfaultfd at execution time).
	Coverage float64
	// EagerFraction is the part of the recorded set copied synchronously
	// before the function starts. REAP uses 1.0; FaaSnap copies a small
	// eager set and prefetches the rest concurrently with execution.
	EagerFraction float64
	// AsyncMissBase/AsyncMissPerLoad model the chance that execution
	// touches an async-prefetched page before the prefetcher delivers it;
	// the race worsens as concurrent restores contend for the handler.
	AsyncMissBase    float64
	AsyncMissPerLoad float64
}

// ReapConfig returns the REAP-style configuration for a working set.
func ReapConfig(ws map[string]int) LazyConfig {
	return LazyConfig{WorkingSet: ws, Coverage: 0.88, EagerFraction: 1.0}
}

// FaaSnapConfig returns the FaaSnap-style configuration for a working set.
func FaaSnapConfig(ws map[string]int) LazyConfig {
	return LazyConfig{
		WorkingSet: ws, Coverage: 0.88, EagerFraction: 0.3,
		AsyncMissBase: 0.15, AsyncMissPerLoad: 0.02,
	}
}

// RestoreLazy performs a lazy restore from a tmpfs-resident snapshot
// served through userfaultfd. Eagerly-copied pages are resident; the rest
// of the recorded working set is either delivered by async prefetch
// (FaaSnap) or left to fault; pages outside the recorded set always fault
// during execution.
func RestoreLazy(snap *Snapshot, tracker *mem.Tracker, tmpfs *mem.Pool, cfg LazyConfig, lat mem.LatencyModel, costs Costs) (*Restored, error) {
	if tmpfs.Kind() != mem.Tmpfs {
		return nil, fmt.Errorf("snapshot: lazy restore needs a tmpfs pool, got %s", tmpfs.Kind())
	}
	if cfg.Coverage <= 0 || cfg.Coverage > 1 || cfg.EagerFraction < 0 || cfg.EagerFraction > 1 {
		return nil, fmt.Errorf("snapshot: bad lazy config: coverage=%v eager=%v", cfg.Coverage, cfg.EagerFraction)
	}
	if err := tmpfs.Unavailable(); err != nil {
		return nil, fmt.Errorf("snapshot: lazy restore of %q: %w", snap.Function, err)
	}
	spaces, regions, err := layout(snap, tracker, lat, tmpfs, pagetable.RemoteLazy)
	if err != nil {
		return nil, fmt.Errorf("snapshot: lazy restore of %q: %w", snap.Function, err)
	}
	release := func() {
		for _, s := range spaces {
			s.ReleaseAll()
		}
	}
	// Async prefetch miss ratio depends on handler load right now.
	miss := cfg.AsyncMissBase + cfg.AsyncMissPerLoad*float64(tmpfs.Outstanding())
	if miss > 0.75 {
		miss = 0.75
	}
	var eagerBytes int64
	for _, as := range spaces {
		for _, v := range as.VMAs() {
			ws := cfg.WorkingSet[v.Name]
			if ws > v.Pages() {
				ws = v.Pages()
			}
			recorded := int(float64(ws) * cfg.Coverage)
			if recorded == 0 {
				continue
			}
			eager := int(float64(recorded) * cfg.EagerFraction)
			// Async prefetch delivers the non-eager recorded pages that
			// win the race against execution.
			delivered := eager + int(float64(recorded-eager)*(1-miss))
			if delivered > 0 {
				if err := as.MakeResident(v, 0, delivered); err != nil {
					release()
					return nil, err
				}
			}
			eagerBytes += int64(eager) * mem.PageSize
		}
	}
	// Concurrent restores share the snapshot medium: N in-flight eager
	// copies each run ~N times slower (this is what ruins the lazy
	// baselines' P99 during bursts of large-image restores, §9.2.2).
	sharing := float64(tmpfs.Outstanding())
	if sharing < 1 {
		sharing = 1
	}
	if sharing > 8 {
		sharing = 8 // the medium has parallelism; degradation saturates
	}
	bd := Breakdown{
		Orchestration: costs.CRIUOrchestration + costs.UffdSetup,
		Mmap:          time.Duration(regions) * costs.MmapPerRegion,
		Copy:          time.Duration(float64(eagerBytes) / costs.TmpfsBandwidth * float64(time.Second) * sharing),
		Procs:         procRestoreCost(snap, costs),
	}
	res := &Restored{Snapshot: snap, Spaces: spaces, Latency: bd.Total(), BD: bd}
	if eagerBytes > 0 {
		res.CopyPool = tmpfs.Kind().String()
		res.CopyPages = eagerBytes / mem.PageSize
	}
	return res, nil
}

// RestoreTemplate performs TrEnv's restore: join the repurposed sandbox
// and attach the preprocessed mm-templates. Only metadata is copied; all
// image pages stay in the pool until CoW or lazy touch.
func RestoreTemplate(img *Image, tracker *mem.Tracker, lat mem.LatencyModel, attach mmtemplate.CostModel, costs Costs) (*Restored, error) {
	snap := img.Snapshot
	// A template attach is only metadata, but the resulting PTEs point at
	// pool pages — attaching against a pool inside an injected outage
	// window would wedge on first touch. Fail fast with the typed error
	// so the platform can fall back to a local cold start.
	for _, pool := range img.Pools() {
		if err := pool.Unavailable(); err != nil {
			return nil, fmt.Errorf("snapshot: template restore of %q: %w", snap.Function, err)
		}
	}
	res := &Restored{Snapshot: snap, Spaces: make([]*pagetable.AddressSpace, 0, len(img.Templates))}
	bd := Breakdown{Orchestration: costs.RepurposeOrchestration, Procs: procRestoreCost(snap, costs)}
	for _, tpl := range img.Templates {
		as, d, err := tpl.Attach(tracker, lat, attach)
		if err != nil {
			res.ReleaseAll()
			return nil, fmt.Errorf("snapshot: template restore of %q: %w", snap.Function, err)
		}
		res.Spaces = append(res.Spaces, as)
		bd.Attach += d
	}
	res.Latency = bd.Total()
	res.BD = bd
	return res, nil
}
