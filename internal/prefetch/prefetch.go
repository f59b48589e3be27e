// Package prefetch replays recorded first-run working sets as batched
// remote fetches racing the invocation.
//
// TrEnv's RDMA path maps template pages invalid and fetches them
// lazily, so a cold start's critical path is a train of one-page-per-
// round-trip demand faults. The prefetcher removes most of them with
// two mechanisms layered on the page table's working-set machinery:
//
//   - Batched replay: the first run against a template records its
//     fault order into the image's pagetable.WorkingSetLog; every
//     later restore replays that log through mem.Pool.FetchBatch —
//     one doorbell round trip amortized over up to DefaultBatchPages
//     pages — concurrently with execution. Replayed pages are marked
//     in flight (pagetable.AddressSpace.MarkInFlight), so a demand
//     fault that outruns its batch parks on the batch deadline instead
//     of issuing a duplicate fetch.
//   - Hot promotion: a run whose cross-invocation replay count crosses
//     Config.PromoteAfter moves into the node's capacity-bounded
//     direct-access cache (mem.PromotionCache, LRU): later attaches
//     redirect the run there (pagetable.AddressSpace.PromoteRange) and
//     repeat RDMA faults become CXL-cost direct hits.
//
// Everything is driven by engine virtual time and the engine rng, so
// same-seed runs with prefetch enabled stay byte-identical.
package prefetch

import (
	"strconv"
	"time"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Config tunes the prefetcher.
type Config struct {
	// PromoteAfter is the cross-invocation replay count at which a run
	// is promoted into the direct-access cache (0 disables promotion).
	PromoteAfter int
}

// DefaultBatchPages caps the pages one doorbell-style batched fetch
// covers: 64 pages (256 KB) keeps a batch one work request while
// amortizing the round trip ~64x.
const DefaultBatchPages = 64

// Summary reports what one restore's prefetch pass did, for spans and
// metrics. Recording passes set Recording and nothing else.
type Summary struct {
	// Recording marks the template's first run: the invocation records
	// the working-set log instead of replaying it.
	Recording bool
	// Batches/Pages count the batched fetches issued and the pages they
	// cover; Latency is the last batch's completion offset from launch
	// (batches pipeline on one queue, so it is also the total transfer
	// time the invocation races).
	Batches int
	Pages   int
	Latency time.Duration
	// Pool names the kind serving the most replayed pages.
	Pool string
	// PromotedPages counts pages redirected at the promotion cache
	// during this pass (already direct-access, not fetched).
	PromotedPages int
	// Err is the first batch failure (injected fault), after which the
	// replay stops and remaining pages fall back to demand faults.
	Err error
}

// Prefetcher replays working-set logs for one node and owns the node's
// promotion cache and per-run replay counts. It is engine-deterministic
// and must only be used from simulated processes.
type Prefetcher struct {
	cfg   Config
	cache *mem.PromotionCache
	// plans holds each sealed log this node has replayed, compiled once.
	// Each image version has a log of its own, so a redeployed function
	// starts from fresh replay counts and promotion keys (versions counts
	// the logs compiled per function).
	plans    map[*pagetable.WorkingSetLog]*plan
	versions map[string]int
	// eng, now and ends are bound once and reused by every restore: the
	// engine clock handed to restored spaces, and one EndFetch per pool
	// for batch completions.
	eng  *sim.Engine
	now  func() time.Duration
	ends []poolEnd
}

// plan is a sealed working-set log compiled for replay on one node: the
// log's runs with their promotion keys, and one replay count per key.
type plan struct {
	runs   []planRun
	counts []int // replays per promotion key; runs that share a key share a count
}

// planRun is one recorded run of a plan.
type planRun struct {
	pagetable.WSFetch
	key   string // promotion-cache key
	count int    // index into plan.counts
}

// poolEnd is a pool's EndFetch, bound once.
type poolEnd struct {
	pool *mem.Pool
	end  func()
}

// New creates a prefetcher; cache may be nil to disable promotion even
// when Config.PromoteAfter is set.
func New(cache *mem.PromotionCache, cfg Config) *Prefetcher {
	return &Prefetcher{cfg: cfg, cache: cache,
		plans: make(map[*pagetable.WorkingSetLog]*plan), versions: make(map[string]int)}
}

// planFor returns log's plan, compiling it on the log's first replay on
// this node. A run's promotion key is function/region#first: the
// template's working set is rack-stable, so the key names the same pages
// across restores. The function's second and later logs (redeployed
// versions) key as function@vN, so they never reuse a retired version's
// counts or promoted runs.
func (pf *Prefetcher) planFor(log *pagetable.WorkingSetLog, fn string) *plan {
	if pl, ok := pf.plans[log]; ok {
		return pl
	}
	pf.versions[fn]++
	if v := pf.versions[fn]; v > 1 {
		fn += "@v" + strconv.Itoa(v)
	}
	entries := log.Entries()
	pl := &plan{runs: make([]planRun, len(entries))}
	index := make(map[string]int, len(entries))
	for i, e := range entries {
		key := fn + "/" + e.Region + "#" + strconv.Itoa(e.First)
		k, ok := index[key]
		if !ok {
			k = len(pl.counts)
			index[key] = k
			pl.counts = append(pl.counts, 0)
		}
		pl.runs[i] = planRun{WSFetch: e, key: key, count: k}
	}
	pf.plans[log] = pl
	return pl
}

// clock returns eng's clock, bound once per engine.
func (pf *Prefetcher) clock(eng *sim.Engine) func() time.Duration {
	if pf.eng != eng {
		pf.eng, pf.now = eng, eng.Now
	}
	return pf.now
}

// endFetch returns pool.EndFetch, bound once per pool.
func (pf *Prefetcher) endFetch(pool *mem.Pool) func() {
	for _, e := range pf.ends {
		if e.pool == pool {
			return e.end
		}
	}
	end := pool.EndFetch
	pf.ends = append(pf.ends, poolEnd{pool, end})
	return end
}

// OnRestore runs the prefetch pass for one freshly restored instance.
// With an unsealed log it claims recording for the first run (attaching
// the recorder to the restored spaces); with a sealed log it replays
// the log's compiled plan as batched fetches racing the invocation, and
// promotes runs that crossed the promotion threshold. Returns nil when
// there is nothing to do (no log, or another instance is recording).
//
// The caller seals the log once the recording invocation completes.
func (pf *Prefetcher) OnRestore(p *sim.Proc, log *pagetable.WorkingSetLog, res *snapshot.Restored) *Summary {
	if pf == nil || log == nil || res == nil {
		return nil
	}
	// In-flight waits are charged against virtual time on every space
	// the prefetcher may touch, recording or replaying.
	eng := p.Engine()
	res.SetClock(pf.clock(eng))
	if !log.Sealed() {
		if !log.StartRecording() {
			return nil // another first run is recording; run unassisted
		}
		res.SetWorkingSetLog(log)
		return &Summary{Recording: true}
	}
	pl := pf.planFor(log, res.Snapshot.Function)
	promote := pf.cache != nil && pf.cfg.PromoteAfter > 0
	sum := &Summary{}
	now := p.Now()
	var cum time.Duration            // batches pipeline on one queue pair
	var kindPages [mem.Tmpfs + 1]int // replayed pages per pool kind; Tmpfs is the last kind
	for i := range pl.runs {
		r := &pl.runs[i]
		as, v := res.Region(r.Region)
		if as == nil {
			continue
		}
		// Promotion first: a hot-enough run moves to the direct-access
		// cache and needs no batch at all.
		if promote {
			pl.counts[r.count]++
			hot := pf.cache.Lookup(r.key) // touches LRU, counts the hit
			if !hot && pl.counts[r.count] >= pf.cfg.PromoteAfter {
				hot = pf.cache.Promote(r.key, r.Pages)
			}
			if hot {
				if n, err := as.PromoteRange(v, r.First, r.Pages, pf.cache.Pool()); err == nil {
					sum.PromotedPages += n
				}
				continue // promoted runs never batch-fetch
			}
		}
		pool := v.PoolAt(r.First)
		if pool == nil {
			continue
		}
		// Replay the run as doorbell batches. Each batch prices one
		// round trip plus streaming, retrying as a unit under the
		// pool's fault policy; a failed batch aborts the replay and
		// leaves the rest to demand faults.
		for off := 0; off < r.Pages; off += DefaultBatchPages {
			n := min(DefaultBatchPages, r.Pages-off)
			lazy := v.CountRange(r.First+off, n, pagetable.RemoteLazy)
			if lazy == 0 {
				continue // already resident (or promoted); nothing to move
			}
			d, _, err := pool.FetchBatch(p.Rand(), lazy)
			if err != nil {
				sum.Err = err
				break
			}
			cum += d
			marked, merr := as.MarkInFlight(v, r.First+off, n, now+cum)
			if merr != nil {
				sum.Err = merr
				break
			}
			if marked > 0 {
				sum.Batches++
				sum.Pages += marked
				kindPages[pool.Kind()] += marked
				// The batch occupies the pool's queue until it lands,
				// so concurrent demand fetches (and later batches of
				// this replay) see its contention.
				pool.BeginFetch()
				eng.After(cum, pf.endFetch(pool))
			}
		}
		if sum.Err != nil {
			break
		}
	}
	sum.Latency = cum
	best := 0
	for kind, n := range kindPages {
		name := mem.PoolKind(kind).String()
		if n > best || (n == best && n > 0 && name < sum.Pool) {
			best = n
			sum.Pool = name
		}
	}
	return sum
}
