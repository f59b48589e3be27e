// Package mmtemplate implements TrEnv's mm-template abstraction (§5.1):
// an in-kernel object resembling an mm_struct that (1) is not bound to a
// particular process and can be attached to any process, (2) treats all
// remote memory as read-only with copy-on-write, and (3) gives fine-
// grained control over page-table entries mapping virtual addresses to
// physical offsets in remote memory pools.
//
// The API mirrors the paper's Figure 11:
//
//	reg.Create(name)            // mmt_create
//	t.AddMap(...)               // mmt_add_map
//	t.SetupPT(...)              // mmt_setup_pt
//	t.Attach(...)               // mmt_attach
//	reg.Destroy(id)             // mmt_destroy
//
// Templates hold only metadata (VMA layout + preconfigured PTEs), so
// attaching is a metadata copy — no memory-image copy and no mmap storm —
// which is where TrEnv's restore speedup comes from. Byte-addressable
// pools (CXL) get valid write-protected PTEs (reads need no fault);
// message-based pools (RDMA/NAS) get invalid PTEs carrying the remote
// address, resolved lazily by major faults.
package mmtemplate

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// CostModel prices the attach path.
type CostModel struct {
	// AttachSyscall is the fixed cost of the mmt_attach ioctl.
	AttachSyscall time.Duration
	// MetadataBandwidth is the kernel-to-kernel copy rate for template
	// metadata (page tables + VMA descriptors).
	MetadataBandwidth float64 // bytes/s
	// PerMapOverhead is the per-VMA descriptor copy/insert cost.
	PerMapOverhead time.Duration
}

// DefaultCostModel returns attach costs calibrated so that a ~95 MB
// snapshot (JS) attaches in well under a millisecond and an ~855 MB one
// (IR) in a couple of milliseconds, matching the paper's §9.4 breakdown.
func DefaultCostModel() CostModel {
	return CostModel{
		AttachSyscall:     30 * time.Microsecond,
		MetadataBandwidth: 1 << 30, // 1 GiB/s
		PerMapOverhead:    2 * time.Microsecond,
	}
}

// bytesPerPTE is the metadata weight of one preconfigured page-table
// entry, including amortized intermediate page-table levels.
const bytesPerPTE = 10

// bytesPerMap is the metadata weight of one VMA descriptor.
const bytesPerMap = 256

// Registry holds templates indexed by ID, mirroring the kernel's XArray.
// It is safe for concurrent use.
type Registry struct {
	mu        sync.Mutex
	next      uint64
	templates map[uint64]*Template
	attaches  int64 // cumulative, survives template destruction
	live      int64 // attaches to the templates still in templates
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{templates: make(map[uint64]*Template)}
}

// Create allocates a new empty template (mmt_create).
func (r *Registry) Create(name string) *Template {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	t := &Template{id: r.next, name: name, reg: r}
	r.templates[t.id] = t
	return t
}

// Get looks a template up by ID.
func (r *Registry) Get(id uint64) (*Template, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.templates[id]
	return t, ok
}

// Destroy removes a template (mmt_destroy). Address spaces already
// attached keep working: they own copies of the metadata.
func (r *Registry) Destroy(id uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.templates[id]
	if !ok {
		return fmt.Errorf("mmtemplate: destroy of unknown template %d", id)
	}
	delete(r.templates, id)
	r.live -= t.Attaches()
	return nil
}

// Len returns the number of live templates.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.templates)
}

// TotalAttaches returns the cumulative attach count across all
// templates ever created through this registry (monotone — destroyed
// templates keep contributing).
func (r *Registry) TotalAttaches() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attaches
}

// SharingFactor returns attached mms per live template — how many
// address spaces each shared memory template has spawned. Zero when no
// templates are live. It reads a running sum, so the flight recorder can
// sample it every tick without walking the templates.
func (r *Registry) SharingFactor() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.templates) == 0 {
		return 0
	}
	return float64(r.live) / float64(len(r.templates))
}

// noteAttach counts one attach of t. It bumps t's count under r.mu, so
// Destroy subtracts exactly the attaches the running sum holds; an
// attach to a destroyed template counts toward the total only.
func (r *Registry) noteAttach(t *Template) {
	r.mu.Lock()
	t.attaches.Add(1)
	r.attaches++
	if r.templates[t.id] == t {
		r.live++
	}
	r.mu.Unlock()
}

// Template is the metadata for one process's memory state.
type Template struct {
	id   uint64
	name string
	reg  *Registry

	mu       sync.Mutex
	maps     []*tmap
	image    *image       // maps compiled for Attach; nil until the first attach after a change
	attaches atomic.Int64 // written under reg.mu; atomic so readers take no lock
}

// image is a template compiled for attach, as mmt_setup_pt builds PTEs
// once for every later mmt_attach: the maps and setups replayed into a
// frozen address space, and what an attach is priced by. It never
// changes; a change to the template drops it instead.
type image struct {
	space    *pagetable.Frozen
	metadata int64 // metadataBytes at compile time
	maps     int
}

type tmap struct {
	name   string
	start  uint64
	pages  int
	prot   pagetable.Prot
	kind   pagetable.MapKind
	setups []setup
}

type setup struct {
	firstPage int
	pages     int
	pool      *mem.Pool
	base      uint64
}

// ID returns the template's registry identifier.
func (t *Template) ID() uint64 { return t.id }

// Name returns the template's debug name.
func (t *Template) Name() string { return t.name }

// Attaches returns how many times the template has been attached.
func (t *Template) Attaches() int64 { return t.attaches.Load() }

// AddMap records a virtual memory area in the template (mmt_add_map).
// start/length are in bytes; length must be page aligned. Like the kernel
// API, it accepts both anonymous and file-backed mappings — the
// restriction that stock device-DAX imposes (no anonymous, no regular
// file) is exactly what the paper's custom driver removes.
func (t *Template) AddMap(name string, start uint64, length int64, prot pagetable.Prot, kind pagetable.MapKind) error {
	if length <= 0 || length%mem.PageSize != 0 {
		return fmt.Errorf("mmtemplate: map %q length %d not page aligned", name, length)
	}
	pages := int(length / mem.PageSize)
	t.mu.Lock()
	defer t.mu.Unlock()
	end := start + uint64(length)
	for _, m := range t.maps {
		mEnd := m.start + uint64(m.pages)*mem.PageSize
		if start < mEnd && m.start < end {
			return fmt.Errorf("mmtemplate: map %q overlaps %q", name, m.name)
		}
	}
	t.maps = append(t.maps, &tmap{name: name, start: start, pages: pages, prot: prot, kind: kind})
	t.image = nil
	return nil
}

// SetupPT preconfigures page-table entries for [start, start+length) to
// point at pool memory beginning at byte offset poolOffset
// (mmt_setup_pt). The range must lie within a single added map. For
// byte-addressable pools the entries are valid and write-protected; for
// message-based pools they are invalid and resolved lazily.
func (t *Template) SetupPT(start uint64, length int64, poolOffset uint64, pool *mem.Pool) error {
	if pool == nil {
		return fmt.Errorf("mmtemplate: SetupPT with nil pool")
	}
	if length <= 0 || length%mem.PageSize != 0 {
		return fmt.Errorf("mmtemplate: SetupPT length %d not page aligned", length)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.findMap(start, uint64(length))
	if m == nil {
		return fmt.Errorf("mmtemplate: SetupPT range [%#x,+%d) not covered by one map", start, length)
	}
	first := int((start - m.start) / mem.PageSize)
	pages := int(length / mem.PageSize)
	for _, s := range m.setups {
		if first < s.firstPage+s.pages && s.firstPage < first+pages {
			return fmt.Errorf("mmtemplate: SetupPT range overlaps existing setup in map %q", m.name)
		}
	}
	m.setups = append(m.setups, setup{firstPage: first, pages: pages, pool: pool, base: poolOffset})
	t.image = nil
	return nil
}

func (t *Template) findMap(start, length uint64) *tmap {
	for _, m := range t.maps {
		mEnd := m.start + uint64(m.pages)*mem.PageSize
		if start >= m.start && start+length <= mEnd {
			return m
		}
	}
	return nil
}

// MetadataBytes returns the size of the template's metadata: what Attach
// copies. For the paper's JS function (~95 MB image) this is well under
// 400 KB.
func (t *Template) MetadataBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.metadataBytes()
}

// metadataBytes is MetadataBytes for callers already holding t.mu.
func (t *Template) metadataBytes() int64 {
	var n int64
	for _, m := range t.maps {
		n += bytesPerMap
		for _, s := range m.setups {
			n += int64(s.pages) * bytesPerPTE
		}
	}
	return n
}

// MappedBytes returns the total virtual bytes the template describes.
func (t *Template) MappedBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, m := range t.maps {
		n += int64(m.pages) * mem.PageSize
	}
	return n
}

// RemoteBytes returns the bytes covered by preconfigured PTEs (resident
// in pools rather than local memory after attach).
func (t *Template) RemoteBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, m := range t.maps {
		for _, s := range m.setups {
			n += int64(s.pages) * mem.PageSize
		}
	}
	return n
}

// Attach instantiates the template into a fresh address space charging
// local pages to tracker (mmt_attach). It returns the new address space
// and the attach latency: a fixed syscall cost plus the metadata copy.
// No memory contents move and no local pages are allocated — pages stay
// remote until written (CoW) or, for lazy pools, first touched.
//
// The first attach after a change compiles the template (see compile);
// every attach then copies the compiled image, in the same few
// allocations however many maps the template has.
func (t *Template) Attach(tracker *mem.Tracker, lat mem.LatencyModel, cost CostModel) (*pagetable.AddressSpace, time.Duration, error) {
	t.mu.Lock()
	img, err := t.compile()
	t.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	as := img.space.Copy(tracker, lat)
	t.reg.noteAttach(t)
	d := cost.AttachSyscall +
		time.Duration(float64(img.metadata)/cost.MetadataBandwidth*float64(time.Second)) +
		time.Duration(img.maps)*cost.PerMapOverhead
	return as, d, nil
}

// compile returns t's image, building it when a change dropped it: the
// maps and setups are replayed through AddVMA and SetBacking into a
// scratch address space, whose checks reject a bad template with the
// same errors on every attach, and the result is frozen. t.mu must be
// held.
func (t *Template) compile() (*image, error) {
	if t.image != nil {
		return t.image, nil
	}
	as := pagetable.NewAddressSpace(nil, mem.LatencyModel{})
	for _, m := range t.maps {
		v, err := as.AddVMA(m.name, m.start, m.pages, m.prot, m.kind, nil, 0, pagetable.Unmapped)
		if err != nil {
			return nil, fmt.Errorf("mmtemplate: attach %q: %w", t.name, err)
		}
		for _, s := range m.setups {
			state := pagetable.RemoteLazy
			if s.pool.Kind().ByteAddressable() {
				state = pagetable.RemoteDirect
			}
			if err := as.SetBacking(v, s.firstPage, s.pages, s.pool, s.base, state); err != nil {
				return nil, fmt.Errorf("mmtemplate: attach %q: %w", t.name, err)
			}
		}
	}
	t.image = &image{space: pagetable.Freeze(as), metadata: t.metadataBytes(), maps: len(t.maps)}
	return t.image, nil
}

// Maps returns the number of VMAs in the template.
func (t *Template) Maps() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.maps)
}
