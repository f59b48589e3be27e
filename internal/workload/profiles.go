// Package workload defines the evaluated serverless functions (the
// paper's Table 4, drawn from SeBS and FunctionBench) and generates the
// invocation traces the evaluation drives them with: W1 bursty loads, W2
// diurnal traffic under tight memory, and Azure-like / Huawei-like
// industrial traces (§9.1).
package workload

import (
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/snapshot"
)

// FunctionProfile describes one serverless function's resource behaviour.
type FunctionProfile struct {
	Name        string
	Lang        string // "python" or "nodejs"
	Description string

	// MemBytes is the post-initialization snapshot size (Table 4).
	MemBytes int64
	// Threads is the number of threads CRIU must restore (Table 4).
	Threads int
	// FDs is the number of open descriptors to restore.
	FDs int

	// BaseExec is the end-to-end execution time of one invocation with
	// all memory local and no contention.
	BaseExec time.Duration
	// CPUFraction is the share of BaseExec spent on-CPU (the rest is
	// I/O wait, releasing the core).
	CPUFraction float64

	// ReadFrac is the fraction of image pages read during an invocation;
	// WriteFrac the fraction written. WriteFrac <= ReadFrac, and
	// (ReadFrac-WriteFrac)/ReadFrac is the read-only ratio of Figure 10.
	ReadFrac  float64
	WriteFrac float64

	// CXLExecFactor is the relative execution-time inflation when the
	// function's hot read-only set resides on CXL instead of local DRAM
	// (§9.2.1: DH and IR nearly double; others see ~10% on average).
	CXLExecFactor float64

	// ColdInit is the bootstrapping phase on a cold start (interpreter
	// launch, imports); snapshots/templates skip it entirely.
	ColdInit time.Duration
}

// Shared-content sizes per language: the runtime and the common library
// set are bit-identical across functions of the same language, so they
// deduplicate in the consolidated image. Function-specific content
// (including big per-function libraries like torch) lives in the heap.
var (
	langRuntimeBytes = map[string]int64{"python": 18 << 20, "nodejs": 20 << 20}
	langLibsBytes    = map[string]int64{"python": 16 << 20, "nodejs": 14 << 20}
)

// Table4 returns the ten evaluated functions with the paper's published
// memory sizes and thread counts; execution-time and working-set
// parameters are calibrated to reproduce the evaluation's shapes
// (Figure 10's 24-90% read-only span, CR's ~500 ms execution, DH/IR's
// sub-100 ms runs).
func Table4() []FunctionProfile {
	return []FunctionProfile{
		{Name: "DH", Lang: "python", Description: "dynamic web page generation",
			MemBytes: 50<<20 + 419430, Threads: 14, FDs: 18,
			BaseExec: 60 * time.Millisecond, CPUFraction: 0.7,
			ReadFrac: 0.55, WriteFrac: 0.0825, CXLExecFactor: 0.80, ColdInit: 350 * time.Millisecond},
		{Name: "JS", Lang: "python", Description: "JSON de/serialization",
			MemBytes: 94<<20 + 943718, Threads: 14, FDs: 16,
			BaseExec: 120 * time.Millisecond, CPUFraction: 0.85,
			ReadFrac: 0.50, WriteFrac: 0.10, CXLExecFactor: 0.10, ColdInit: 500 * time.Millisecond},
		{Name: "PR", Lang: "python", Description: "PageRank",
			MemBytes: 116 << 20, Threads: 395, FDs: 24,
			BaseExec: 600 * time.Millisecond, CPUFraction: 0.92,
			ReadFrac: 0.62, WriteFrac: 0.28, CXLExecFactor: 0.12, ColdInit: 800 * time.Millisecond},
		{Name: "IR", Lang: "python", Description: "ResNet image inference",
			MemBytes: 855 << 20, Threads: 141, FDs: 40,
			BaseExec: 90 * time.Millisecond, CPUFraction: 0.95,
			ReadFrac: 0.25, WriteFrac: 0.025, CXLExecFactor: 0.85, ColdInit: 4 * time.Second},
		{Name: "IP", Lang: "python", Description: "image rotate/flip",
			MemBytes: 67<<20 + 104857, Threads: 15, FDs: 18,
			BaseExec: 250 * time.Millisecond, CPUFraction: 0.9,
			ReadFrac: 0.58, WriteFrac: 0.32, CXLExecFactor: 0.08, ColdInit: 600 * time.Millisecond},
		{Name: "VP", Lang: "python", Description: "video gray-scale effect",
			MemBytes: 324 << 20, Threads: 204, FDs: 30,
			BaseExec: 1200 * time.Millisecond, CPUFraction: 0.93,
			ReadFrac: 0.60, WriteFrac: 0.36, CXLExecFactor: 0.06, ColdInit: time.Second},
		{Name: "CH", Lang: "python", Description: "HTML table rendering",
			MemBytes: 94<<20 + 943718, Threads: 38, FDs: 26,
			BaseExec: 350 * time.Millisecond, CPUFraction: 0.3,
			ReadFrac: 0.48, WriteFrac: 0.144, CXLExecFactor: 0.05, ColdInit: 600 * time.Millisecond},
		{Name: "CR", Lang: "nodejs", Description: "AES encryption",
			MemBytes: 124 << 20, Threads: 16, FDs: 14,
			BaseExec: 500 * time.Millisecond, CPUFraction: 0.95,
			ReadFrac: 0.52, WriteFrac: 0.208, CXLExecFactor: 0.10, ColdInit: 400 * time.Millisecond},
		{Name: "JJS", Lang: "nodejs", Description: "JSON de/serialization (Node)",
			MemBytes: 111 << 20, Threads: 21, FDs: 14,
			BaseExec: 150 * time.Millisecond, CPUFraction: 0.85,
			ReadFrac: 0.50, WriteFrac: 0.125, CXLExecFactor: 0.12, ColdInit: 300 * time.Millisecond},
		{Name: "IFR", Lang: "nodejs", Description: "image rotate/flip (Node)",
			MemBytes: 253 << 20, Threads: 21, FDs: 20,
			BaseExec: 400 * time.Millisecond, CPUFraction: 0.9,
			ReadFrac: 0.55, WriteFrac: 0.418, CXLExecFactor: 0.08, ColdInit: 900 * time.Millisecond},
	}
}

// ProfileByName returns the Table 4 profile with the given name.
func ProfileByName(name string) (FunctionProfile, error) {
	for _, p := range Table4() {
		if p.Name == name {
			return p, nil
		}
	}
	return FunctionProfile{}, fmt.Errorf("workload: unknown function %q", name)
}

// ReadOnlyRatio returns the fraction of touched pages that are only read
// (Figure 10).
func (p FunctionProfile) ReadOnlyRatio() float64 {
	if p.ReadFrac == 0 {
		return 0
	}
	return (p.ReadFrac - p.WriteFrac) / p.ReadFrac
}

// ImagePages returns the snapshot size in pages.
func (p FunctionProfile) ImagePages() int { return mem.PagesFor(p.MemBytes) }

// imageRegions lays out every function image: a runtime region and a
// libs region shared (same content key) with all functions of the same
// language, then the private heap, the only writable region.
var imageRegions = [...]struct {
	name   string
	prot   pagetable.Prot
	kind   pagetable.MapKind
	shared bool
}{
	{"runtime", pagetable.Read | pagetable.Exec, pagetable.File, true},
	{"libs", pagetable.Read, pagetable.File, true},
	{"heap", pagetable.Read | pagetable.Write, pagetable.Anon, false},
}

// regionPages returns the page count of each of the image's regions, in
// imageRegions order.
func (p FunctionProfile) regionPages() [len(imageRegions)]int {
	runtimePages := mem.PagesFor(langRuntimeBytes[p.Lang])
	libPages := mem.PagesFor(langLibsBytes[p.Lang])
	heapPages := p.ImagePages() - runtimePages - libPages
	if heapPages < 1 {
		panic(fmt.Sprintf("workload: %s image smaller than shared content", p.Name))
	}
	return [len(imageRegions)]int{runtimePages, libPages, heapPages}
}

// Snapshot synthesizes the function's CRIU snapshot: one process whose
// regions are laid out as imageRegions.
func (p FunctionProfile) Snapshot() *snapshot.Snapshot {
	pages := p.regionPages()
	regions := make([]snapshot.Region, len(imageRegions))
	for i, r := range imageRegions {
		regions[i] = snapshot.Region{Name: r.name, Bytes: int64(pages[i]) * mem.PageSize, Prot: r.prot, Kind: r.kind}
		if r.shared {
			regions[i].ContentKey = r.name + "/" + p.Lang
		}
	}
	return &snapshot.Snapshot{
		Function: p.Name,
		Procs: []snapshot.ProcessImage{{
			Name:    "main",
			Threads: p.Threads,
			FDs:     p.FDs,
			Regions: regions,
		}},
	}
}

// RegionAccess gives the per-region read/write page counts of one
// invocation. Reads spread across all regions proportionally to size;
// writes land only in the writable heap.
type RegionAccess struct {
	Region     string
	ReadPages  int
	WritePages int
}

// Accesses returns the per-region working set of one invocation, one
// entry per image region. It reads the image layout without building
// the snapshot, since every invocation calls it.
func (p FunctionProfile) Accesses() []RegionAccess {
	pages := p.regionPages()
	totalPages := p.ImagePages()
	readTotal := int(float64(totalPages) * p.ReadFrac)
	writeTotal := int(float64(totalPages) * p.WriteFrac)
	out := make([]RegionAccess, len(imageRegions))
	assigned := 0
	for i, r := range imageRegions {
		rp := pages[i]
		var reads int
		if i == len(imageRegions)-1 {
			reads = readTotal - assigned
		} else {
			reads = int(float64(readTotal) * float64(rp) / float64(totalPages))
		}
		if reads > rp {
			reads = rp
		}
		assigned += reads
		ra := RegionAccess{Region: r.name, ReadPages: reads}
		if r.prot&pagetable.Write != 0 {
			w := writeTotal
			if w > rp {
				w = rp
			}
			ra.WritePages = w
			if ra.ReadPages < w {
				ra.ReadPages = w // written pages are also touched
			}
		}
		out[i] = ra
	}
	return out
}

// WorkingSet returns the touched page count per region (for REAP/FaaSnap
// recorded working sets).
func (p FunctionProfile) WorkingSet() map[string]int {
	ws := make(map[string]int)
	for _, a := range p.Accesses() {
		n := a.ReadPages
		if a.WritePages > n {
			n = a.WritePages
		}
		ws[a.Region] = n
	}
	return ws
}

// TouchedPages returns total distinct pages touched per invocation.
func (p FunctionProfile) TouchedPages() int {
	var n int
	for _, a := range p.Accesses() {
		if a.ReadPages > a.WritePages {
			n += a.ReadPages
		} else {
			n += a.WritePages
		}
	}
	return n
}
