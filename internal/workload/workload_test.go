package workload

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

func TestTable4MatchesPaper(t *testing.T) {
	profiles := Table4()
	if len(profiles) != 10 {
		t.Fatalf("profiles = %d, want 10", len(profiles))
	}
	want := map[string]struct {
		memMB   int64
		threads int
		lang    string
	}{
		"DH": {50, 14, "python"}, "JS": {94, 14, "python"}, "PR": {116, 395, "python"},
		"IR": {855, 141, "python"}, "IP": {67, 15, "python"}, "VP": {324, 204, "python"},
		"CH": {94, 38, "python"}, "CR": {124, 16, "nodejs"}, "JJS": {111, 21, "nodejs"},
		"IFR": {253, 21, "nodejs"},
	}
	for _, p := range profiles {
		w, ok := want[p.Name]
		if !ok {
			t.Fatalf("unexpected function %q", p.Name)
		}
		if p.MemBytes < w.memMB<<20 || p.MemBytes > (w.memMB+2)<<20 {
			t.Errorf("%s: mem %d not ~%d MB", p.Name, p.MemBytes, w.memMB)
		}
		if p.Threads != w.threads {
			t.Errorf("%s: threads %d, want %d", p.Name, p.Threads, w.threads)
		}
		if p.Lang != w.lang {
			t.Errorf("%s: lang %q", p.Name, p.Lang)
		}
	}
}

func TestReadOnlyRatiosSpanPaperRange(t *testing.T) {
	// Figure 10: read-only ratios span 24% to 90%.
	lo, hi := 1.0, 0.0
	for _, p := range Table4() {
		r := p.ReadOnlyRatio()
		if r < 0.2 || r > 0.95 {
			t.Errorf("%s: read-only ratio %.2f outside plausible range", p.Name, r)
		}
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo > 0.30 || hi < 0.85 {
		t.Fatalf("ratio span [%.2f, %.2f] too narrow vs paper's [0.24, 0.90]", lo, hi)
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("IR")
	if err != nil || p.Name != "IR" {
		t.Fatalf("ProfileByName(IR) = %+v, %v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestSnapshotRegionsSumToImage(t *testing.T) {
	for _, p := range Table4() {
		snap := p.Snapshot()
		if got := snap.MemBytes(); got != int64(p.ImagePages())*mem.PageSize {
			t.Errorf("%s: snapshot bytes %d != image %d", p.Name, got, p.ImagePages()*mem.PageSize)
		}
		if snap.Procs[0].Threads != p.Threads {
			t.Errorf("%s: threads not carried", p.Name)
		}
		if len(snap.Procs[0].Regions) != 3 {
			t.Errorf("%s: regions = %d", p.Name, len(snap.Procs[0].Regions))
		}
	}
}

func TestSharedRegionsHaveLanguageKeys(t *testing.T) {
	js, _ := ProfileByName("JS")
	dh, _ := ProfileByName("DH")
	cr, _ := ProfileByName("CR")
	jsSnap, dhSnap, crSnap := js.Snapshot(), dh.Snapshot(), cr.Snapshot()
	if jsSnap.Procs[0].Regions[0].ContentKey != dhSnap.Procs[0].Regions[0].ContentKey {
		t.Fatal("python runtime not shared between JS and DH")
	}
	if jsSnap.Procs[0].Regions[0].ContentKey == crSnap.Procs[0].Regions[0].ContentKey {
		t.Fatal("python and nodejs runtimes share a key")
	}
	if jsSnap.Procs[0].Regions[2].ContentKey != "" {
		t.Fatal("heap should be private (empty key)")
	}
}

func TestAccessesConsistentWithFractions(t *testing.T) {
	for _, p := range Table4() {
		accs := p.Accesses()
		var reads, writes int
		for _, a := range accs {
			reads += a.ReadPages
			writes += a.WritePages
			if a.WritePages > a.ReadPages {
				t.Errorf("%s/%s: writes (%d) exceed touched reads (%d)", p.Name, a.Region, a.WritePages, a.ReadPages)
			}
		}
		// Written pages count as touched, so write-heavy functions (IFR)
		// can exceed the read target by the heap write surplus.
		wantReads := int(float64(p.ImagePages()) * p.ReadFrac)
		if reads < wantReads*9/10 || reads > wantReads*13/10 {
			t.Errorf("%s: reads %d vs target %d", p.Name, reads, wantReads)
		}
		wantWrites := int(float64(p.ImagePages()) * p.WriteFrac)
		if writes < wantWrites*9/10 || writes > wantWrites*11/10 {
			t.Errorf("%s: writes %d vs target %d", p.Name, writes, wantWrites)
		}
	}
}

// accessesFromSnapshot is Accesses as it was when it built the
// snapshot to read its region sizes and protections.
func accessesFromSnapshot(p FunctionProfile) []RegionAccess {
	totalPages := p.ImagePages()
	readTotal := int(float64(totalPages) * p.ReadFrac)
	writeTotal := int(float64(totalPages) * p.WriteFrac)
	var out []RegionAccess
	regs := p.Snapshot().Procs[0].Regions
	assigned := 0
	for i, r := range regs {
		rp := r.Pages()
		var reads int
		if i == len(regs)-1 {
			reads = readTotal - assigned
		} else {
			reads = int(float64(readTotal) * float64(rp) / float64(totalPages))
		}
		reads = min(reads, rp)
		assigned += reads
		ra := RegionAccess{Region: r.Name, ReadPages: reads}
		if r.Prot&pagetable.Write != 0 {
			ra.WritePages = min(writeTotal, rp)
			ra.ReadPages = max(ra.ReadPages, ra.WritePages)
		}
		out = append(out, ra)
	}
	return out
}

// Accesses reads the image layout Snapshot builds without building it:
// the same entries as a walk of the snapshot's regions, in one
// allocation.
func TestAccessesFollowSnapshotRegions(t *testing.T) {
	for _, p := range Table4() {
		if got, want := p.Accesses(), accessesFromSnapshot(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Accesses() = %+v, want %+v", p.Name, got, want)
		}
		if n := testing.AllocsPerRun(20, func() { p.Accesses() }); n != 1 {
			t.Errorf("%s: Accesses allocates %v times, want 1", p.Name, n)
		}
	}
}

func TestWorkingSetCoversAccesses(t *testing.T) {
	p, _ := ProfileByName("JS")
	ws := p.WorkingSet()
	for _, a := range p.Accesses() {
		n := a.ReadPages
		if a.WritePages > n {
			n = a.WritePages
		}
		if ws[a.Region] != n {
			t.Fatalf("ws[%s] = %d, want %d", a.Region, ws[a.Region], n)
		}
	}
	if p.TouchedPages() == 0 {
		t.Fatal("no touched pages")
	}
}

func names() []string {
	var out []string
	for _, p := range Table4() {
		out = append(out, p.Name)
	}
	return out
}

func TestW1BurstsSeparatedByGap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultW1(names())
	cfg.Background = 0 // isolate bursts
	tr := W1Bursty(rng, cfg)
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	// All invocations must sit inside per-function staggered windows.
	stagger := cfg.BurstGap / time.Duration(len(cfg.Functions)+1)
	fnIdx := make(map[string]int)
	for i, fn := range cfg.Functions {
		fnIdx[fn] = i
	}
	for _, inv := range tr {
		inBurst := false
		offset := time.Duration(fnIdx[inv.Function]) * stagger
		for start := time.Duration(0); start < cfg.Duration; start += cfg.BurstGap {
			if inv.At >= start+offset && inv.At <= start+offset+cfg.BurstSpan {
				inBurst = true
				break
			}
		}
		if !inBurst {
			t.Fatalf("invocation of %s at %v outside its burst windows", inv.Function, inv.At)
		}
	}
	// Different functions' bursts do not coincide.
	if c := tr.CountByFunction(); len(c) != len(cfg.Functions) {
		t.Fatalf("functions used = %d", len(c))
	}
	// Up to 3 rounds x 10 functions x 18, minus windows clipped at the
	// trace end by the stagger.
	max := 3 * 10 * cfg.BurstSize
	if tr.Len() < max*2/3 || tr.Len() > max {
		t.Fatalf("invocations = %d, want within (2/3..1]x%d", tr.Len(), max)
	}
}

func TestW2VolumeAndOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := W2Diurnal(rng, DefaultW2(names()))
	// Mean RPS ~8 over 1800s => ~14k invocations (the paper's ">4k over
	// 30 minutes" is a floor).
	if tr.Len() < 10000 || tr.Len() > 20000 {
		t.Fatalf("W2 volume = %d", tr.Len())
	}
	for i := 1; i < tr.Len(); i++ {
		if tr[i].At < tr[i-1].At {
			t.Fatal("trace not time ordered")
		}
	}
	counts := tr.CountByFunction()
	if len(counts) != 10 {
		t.Fatalf("functions used = %d", len(counts))
	}
}

func TestIndustrialTracesSkewAndBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	az := Industrial(rng, AzureConfig(names()))
	if az.Len() < 1000 {
		t.Fatalf("azure volume = %d", az.Len())
	}
	counts := az.CountByFunction()
	// Skew: first function should be busier than last.
	if counts["DH"] <= counts["IFR"] {
		t.Fatalf("no popularity skew: DH=%d IFR=%d", counts["DH"], counts["IFR"])
	}
	hw := Industrial(rng, HuaweiConfig(names()))
	if hw.Len() < 1000 {
		t.Fatalf("huawei volume = %d", hw.Len())
	}
}

func TestTraceDeterminism(t *testing.T) {
	a := W2Diurnal(rand.New(rand.NewSource(7)), DefaultW2(names()))
	b := W2Diurnal(rand.New(rand.NewSource(7)), DefaultW2(names()))
	if a.Len() != b.Len() {
		t.Fatalf("non-deterministic lengths: %d vs %d", a.Len(), b.Len())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

// Property: poisson sampling is non-negative and roughly centered. With
// n = 1,200 draws the ±25% window is at least 6 standard errors wide
// for every mean the property picks (at mean 0.5 it is 6.1), so a
// correct sampler does not fail it; the inputs come from a fixed
// source, so a failure reproduces.
func TestPoissonProperty(t *testing.T) {
	f := func(seed int64, mean8 uint8) bool {
		mean := float64(mean8%60) + 0.5
		rng := rand.New(rand.NewSource(seed))
		var sum int
		const n = 1200
		for i := 0; i < n; i++ {
			v := poisson(rng, mean)
			if v < 0 {
				return false
			}
			sum += v
		}
		got := float64(sum) / n
		return got > mean*0.75 && got < mean*1.25
	}
	// At n = 400 this input's sample mean was 0.655 against a bound of
	// 0.625.
	if !f(-833001274061889524, 0x3c) {
		t.Fatal("poisson sample mean left the ±25% window at mean 0.5")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceAccessors(t *testing.T) {
	tr := Trace{{At: time.Second, Function: "a"}, {At: 2 * time.Second, Function: "a"}}
	if tr.Duration() != 2*time.Second {
		t.Fatalf("duration = %v", tr.Duration())
	}
	if (Trace{}).Duration() != 0 {
		t.Fatal("empty duration")
	}
	if tr.CountByFunction()["a"] != 2 {
		t.Fatal("counts")
	}
}
