package pagetable

import (
	"fmt"

	"repro/internal/mem"
)

// Frozen is an address space's layout frozen for copying: its VMAs with
// their runs and backing segments, held in one array each. It holds no
// tracker, latency model, stats or local memory; Copy binds the first two
// and starts the rest at zero. A Frozen never changes, so any number of
// goroutines may copy it at once.
type Frozen struct {
	vmas []VMA     // each VMA's runs and segs are capped windows of the arrays below
	runs []run     // every VMA's runs and spare run capacity, in VMA order
	segs []Backing // every VMA's segments and spare segment capacity, in VMA order
}

// Freeze copies as's layout into a Frozen. Each VMA keeps the spare
// capacity its run and segment slices have in as, so a copy splits and
// grows exactly as as would, without a reallocation as would not make.
// as must hold no local memory; it is not changed.
func Freeze(as *AddressSpace) *Frozen {
	if as.rss != 0 {
		panic(fmt.Sprintf("pagetable: Freeze of an address space holding %d local bytes", as.rss))
	}
	var nruns, nsegs int
	for _, v := range as.vmas {
		nruns += cap(v.runs)
		nsegs += cap(v.segs)
	}
	f := &Frozen{vmas: make([]VMA, len(as.vmas)), runs: make([]run, nruns), segs: make([]Backing, nsegs)}
	var ro, so int
	for k, v := range as.vmas {
		f.vmas[k] = *v
		ro, so = f.vmas[k].rebase(f.runs, f.segs, ro, so)
	}
	return f
}

// Copy builds a fresh address space holding f's layout that charges
// local pages to local. It makes at most five allocations however many
// VMAs f holds: the space, its VMA index, its VMAs, its runs and, when f
// has any, its segments. Every run and segment slice is capped at its own
// VMA's spare capacity, so growing or splitting one VMA of the copy
// reallocates rather than write into a neighbour, another copy or f.
func (f *Frozen) Copy(local *mem.Tracker, lat mem.LatencyModel) *AddressSpace {
	vmas := make([]VMA, len(f.vmas))
	index := make([]*VMA, len(f.vmas))
	runs := make([]run, len(f.runs))
	var segs []Backing
	if len(f.segs) > 0 {
		segs = make([]Backing, len(f.segs))
	}
	var ro, so int
	for k := range f.vmas {
		vmas[k] = f.vmas[k]
		ro, so = vmas[k].rebase(runs, segs, ro, so)
		index[k] = &vmas[k]
	}
	return &AddressSpace{vmas: index, local: local, lat: lat}
}

// rebase moves v's runs and segments into runs[ro:] and segs[so:],
// keeping their lengths and capacities, and returns the offsets past the
// capacity it took. A VMA with no segment capacity keeps a nil list.
func (v *VMA) rebase(runs []run, segs []Backing, ro, so int) (int, int) {
	n, c := len(v.runs), cap(v.runs)
	copy(runs[ro:ro+n], v.runs)
	v.runs = runs[ro : ro+n : ro+c]
	ro += c
	if n, c := len(v.segs), cap(v.segs); c > 0 {
		copy(segs[so:so+n], v.segs)
		v.segs = segs[so : so+n : so+c]
		so += c
	}
	return ro, so
}
