package pagetable

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/mem"
)

// refVMA and refSpace are the slow reference model of the page table:
// one State per page, and per-page in-flight and redirect maps.
// FuzzAccessDifferential drives them next to the run-list MMU.
// Costs are priced by the production charge, so the model checks what
// the run list changes: which pages move to which state, tallied against
// which pool, recorded in which working-set run.
type refVMA struct {
	name   string
	start  uint64
	prot   Prot
	segs   []Backing // sorted by First, non-overlapping
	states []State
	counts [numStates]int

	inflight map[int]time.Duration
	redirect map[int]*mem.Pool
}

func (v *refVMA) Pages() int              { return len(v.states) }
func (v *refVMA) end() uint64             { return v.start + uint64(len(v.states))*mem.PageSize }
func (v *refVMA) CountIn(s State) int     { return v.counts[s] }
func (v *refVMA) PageState(i int) State   { return v.states[i] }
func (v *refVMA) setState(i int, s State) { v.counts[v.states[i]]--; v.states[i] = s; v.counts[s]++ }

func (v *refVMA) PoolAt(i int) *mem.Pool {
	if p := v.redirect[i]; p != nil {
		return p
	}
	for _, s := range v.segs {
		if i >= s.First && i < s.First+s.Pages {
			return s.Pool
		}
	}
	return nil
}

// refSpace holds its VMAs itself and borrows an AddressSpace only for
// accounting: tracker, stats, sink, RSS, clock and working-set log.
type refSpace struct {
	acct *AddressSpace
	vmas []*refVMA // sorted by start
}

func newRefSpace(local *mem.Tracker, lat mem.LatencyModel) *refSpace {
	return &refSpace{acct: NewAddressSpace(local, lat)}
}

func (as *refSpace) AddVMA(name string, start uint64, pages int, prot Prot, pool *mem.Pool, base uint64, init State) (*refVMA, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("pagetable: VMA %q has %d pages", name, pages)
	}
	if (init == RemoteDirect || init == RemoteLazy) && pool == nil {
		return nil, fmt.Errorf("pagetable: VMA %q: remote state without a pool", name)
	}
	if init == RemoteDirect && !pool.Kind().ByteAddressable() {
		return nil, fmt.Errorf("pagetable: VMA %q: pool %s is not byte-addressable", name, pool.Kind())
	}
	end := start + uint64(pages)*mem.PageSize
	for _, v := range as.vmas {
		if start < v.end() && v.start < end {
			return nil, &ErrOverlap{Name: name, Existing: v.name}
		}
	}
	v := &refVMA{name: name, start: start, prot: prot, states: make([]State, pages)}
	for i := range v.states {
		v.states[i] = init
	}
	v.counts[init] = pages
	if pool != nil {
		v.segs = []Backing{{First: 0, Pages: pages, Pool: pool, Base: base}}
	}
	if init == Local {
		if err := as.acct.allocLocal(int64(pages) * mem.PageSize); err != nil {
			return nil, err
		}
	}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].start < as.vmas[j].start })
	return v, nil
}

func (as *refSpace) SetBacking(v *refVMA, first, count int, pool *mem.Pool, base uint64, s State) error {
	if first < 0 || count <= 0 || first+count > v.Pages() {
		return fmt.Errorf("pagetable: SetBacking [%d,%d) outside VMA %q", first, first+count, v.name)
	}
	switch s {
	case RemoteDirect:
		if pool == nil || !pool.Kind().ByteAddressable() {
			return fmt.Errorf("pagetable: VMA %q: RemoteDirect requires a byte-addressable pool", v.name)
		}
	case RemoteLazy:
		if pool == nil {
			return fmt.Errorf("pagetable: VMA %q: RemoteLazy requires a pool", v.name)
		}
	}
	b := Backing{First: first, Pages: count, Pool: pool, Base: base}
	if pool != nil {
		for _, o := range v.segs {
			if b.First < o.First+o.Pages && o.First < b.First+b.Pages {
				return fmt.Errorf("pagetable: VMA %q: backing [%d,%d) overlaps existing [%d,%d)",
					v.name, b.First, b.First+b.Pages, o.First, o.First+o.Pages)
			}
		}
	}
	for i := first; i < first+count; i++ {
		if v.states[i] == Local {
			return fmt.Errorf("pagetable: VMA %q page %d already local", v.name, i)
		}
	}
	if s == Local {
		if err := as.acct.allocLocal(int64(count) * mem.PageSize); err != nil {
			return err
		}
	}
	if pool != nil {
		v.segs = append(v.segs, b)
		sort.Slice(v.segs, func(i, j int) bool { return v.segs[i].First < v.segs[j].First })
	}
	for i := first; i < first+count; i++ {
		v.setState(i, s)
	}
	return nil
}

func (as *refSpace) Touch(rng *rand.Rand, addr uint64, write bool) (time.Duration, error) {
	for _, v := range as.vmas {
		if addr >= v.start && addr < v.end() {
			res, err := as.accessVMA(rng, v, int((addr-v.start)/mem.PageSize), 1, write)
			return res.Latency, err
		}
	}
	return 0, fmt.Errorf("pagetable: fault at unmapped address %#x", addr)
}

func (as *refSpace) Access(rng *rand.Rand, v *refVMA, readPages, writePages int) (AccessResult, error) {
	var total AccessResult
	if writePages > 0 {
		res, err := as.accessVMA(rng, v, 0, writePages, true)
		total = addResults(total, res)
		if err != nil {
			return total, err
		}
	}
	if readPages > writePages {
		res, err := as.accessVMA(rng, v, writePages, readPages-writePages, false)
		total = addResults(total, res)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (as *refSpace) Prefetch(rng *rand.Rand, v *refVMA, first, count int) (time.Duration, error) {
	res, err := as.accessVMA(rng, v, first, count, false)
	if err != nil {
		return 0, err
	}
	return res.Latency, nil
}

// accessVMA walks pages [first, first+count) one by one.
func (as *refSpace) accessVMA(rng *rand.Rand, v *refVMA, first, count int, write bool) (AccessResult, error) {
	if err := checkAccess(v.name, v.prot, v.Pages(), first, count, write); err != nil || count <= 0 {
		return AccessResult{}, err
	}
	var t accessTally
	wslog := as.acct.wslog
	record := wslog != nil && wslog.active()
	var runPool *mem.Pool
	var runFirst, runLen int
	flushRun := func() {
		if runLen > 0 {
			wslog.record(v.name, runFirst, runLen, runPool.Kind().String())
			runLen = 0
		}
	}
	for i := first; i < first+count; i++ {
		switch v.states[i] {
		case Local:
			if dl, ok := v.inflight[i]; ok {
				delete(v.inflight, i)
				t.inflightHits++
				t.inflightReady = max(t.inflightReady, dl)
			}
		case Unmapped:
			t.toZero++
			v.setState(i, Local)
		case RemoteDirect:
			if write {
				t.cow.add(v.PoolAt(i), 1)
				t.cowTotal++
				v.setState(i, Local)
			} else {
				t.direct.add(v.PoolAt(i), 1)
			}
		case RemoteLazy:
			p := v.PoolAt(i)
			t.fetch.add(p, 1)
			t.fetchTotal++
			if record {
				if runLen > 0 && p == runPool && i == runFirst+runLen {
					runLen++
				} else {
					flushRun()
					runPool, runFirst, runLen = p, i, 1
				}
			}
			v.setState(i, Local)
		}
	}
	if record {
		flushRun()
	}
	return as.acct.charge(rng, v.name, &t)
}

func (as *refSpace) MakeResident(v *refVMA, first, count int) error {
	if first < 0 || count <= 0 || first+count > v.Pages() {
		return fmt.Errorf("pagetable: MakeResident [%d,%d) outside VMA %q", first, first+count, v.name)
	}
	var toAlloc int
	for i := first; i < first+count; i++ {
		if v.states[i] != Local {
			toAlloc++
			v.setState(i, Local)
		}
	}
	if toAlloc > 0 {
		return as.acct.allocLocal(int64(toAlloc) * mem.PageSize)
	}
	return nil
}

func (as *refSpace) MarkInFlight(v *refVMA, first, count int, readyAt time.Duration) (int, error) {
	if first < 0 || count <= 0 || first+count > v.Pages() {
		return 0, fmt.Errorf("pagetable: MarkInFlight [%d,%d) outside VMA %q", first, first+count, v.name)
	}
	var marked int
	for i := first; i < first+count; i++ {
		if v.states[i] == RemoteLazy {
			marked++
		}
	}
	if marked == 0 {
		return 0, nil
	}
	if err := as.acct.allocLocal(int64(marked) * mem.PageSize); err != nil {
		return 0, err
	}
	if v.inflight == nil {
		v.inflight = make(map[int]time.Duration)
	}
	for i := first; i < first+count; i++ {
		if v.states[i] == RemoteLazy {
			v.inflight[i] = readyAt
			v.setState(i, Local)
		}
	}
	as.acct.stats.PrefetchedPages += int64(marked)
	if as.acct.sink != nil {
		as.acct.sink.PrefetchedPages += int64(marked)
	}
	return marked, nil
}

func (as *refSpace) PromoteRange(v *refVMA, first, count int, cache *mem.Pool) (int, error) {
	if cache == nil || !cache.Kind().ByteAddressable() {
		return 0, fmt.Errorf("pagetable: PromoteRange requires a byte-addressable cache pool")
	}
	if first < 0 || count <= 0 || first+count > v.Pages() {
		return 0, fmt.Errorf("pagetable: PromoteRange [%d,%d) outside VMA %q", first, first+count, v.name)
	}
	var n int
	for i := first; i < first+count; i++ {
		if v.states[i] != RemoteLazy {
			continue
		}
		if v.redirect == nil {
			v.redirect = make(map[int]*mem.Pool)
		}
		v.redirect[i] = cache
		v.setState(i, RemoteDirect)
		n++
	}
	return n, nil
}

func (as *refSpace) Grow(v *refVMA, pages int) error {
	if pages <= 0 {
		return fmt.Errorf("pagetable: grow by %d pages", pages)
	}
	end := v.end() + uint64(pages)*mem.PageSize
	for _, o := range as.vmas {
		if o != v && v.end() < o.end() && o.start < end {
			return &ErrOverlap{Name: v.name + "+growth", Existing: o.name}
		}
	}
	v.states = append(v.states, make([]State, pages)...)
	v.counts[Unmapped] += pages
	return nil
}
