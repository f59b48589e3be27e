package pagetable

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/mem"
)

// FuzzAccessDifferential drives the run-list MMU and the per-page
// reference model (reference_test.go) through the same program of
// page-table calls, each side with its own same-seed pools, rng, fault
// agent and clock, and checks after every step that both returned the
// same result and hold the same state. The seed corpus runs under plain
// go test; go test -fuzz FuzzAccessDifferential searches further.
func FuzzAccessDifferential(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 64+rng.Intn(1024))
		rng.Read(prog)
		f.Add(seed, prog)
	}
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		runDifferential(t, seed, prog)
	})
}

// diffSide is the environment of one side: a tracker, pools (two CXL,
// one flaky RDMA, one NAS), an rng, a clock and a working-set log.
type diffSide struct {
	tr    *mem.Tracker
	pools []*mem.Pool
	rng   *rand.Rand
	now   time.Duration
	log   *WorkingSetLog
}

func newDiffSide(seed, capacity int64) *diffSide {
	lat := mem.DefaultLatencyModel()
	s := &diffSide{
		tr:  mem.NewTracker("node", capacity),
		rng: rand.New(rand.NewSource(seed)),
		log: &WorkingSetLog{},
		pools: []*mem.Pool{
			mem.NewPool(mem.CXL, 0, lat), mem.NewPool(mem.CXL, 0, lat),
			mem.NewPool(mem.RDMA, 0, lat), mem.NewPool(mem.NAS, 0, lat),
		},
	}
	s.pools[2].SetFaultAgent(&flakyAgent{rng: rand.New(rand.NewSource(^seed))}, s.clock)
	s.log.StartRecording()
	return s
}

func (s *diffSide) clock() time.Duration { return s.now }

// pool maps a program byte to a pool or, for two of six values, nil.
func (s *diffSide) pool(c int) *mem.Pool {
	if c %= len(s.pools) + 2; c < len(s.pools) {
		return s.pools[c]
	}
	return nil
}

func (s *diffSide) poolIndex(p *mem.Pool) int {
	for i, q := range s.pools {
		if q == p {
			return i
		}
	}
	return -1
}

// flakyAgent fails a third of fetch attempts, so fetches retry and now
// and then exhaust their retry budget.
type flakyAgent struct{ rng *rand.Rand }

func (a *flakyAgent) FetchVerdict(pool string, _ time.Duration) mem.FetchVerdict {
	if a.rng.Intn(3) == 0 {
		return mem.FetchVerdict{Err: &mem.ErrFlakyFetch{Pool: pool, FaultTrace: "flaky"}, FaultTrace: "flaky"}
	}
	return mem.FetchVerdict{}
}

func (a *flakyAgent) PoolDown(string, time.Duration) (string, bool) { return "", false }

// program hands out the bytes of a fuzz input, then zeros.
type program []byte

func (p *program) next() int {
	if len(*p) == 0 {
		return 0
	}
	c := int((*p)[0])
	*p = (*p)[1:]
	return c
}

// outcome is what one call returned, in comparable form.
type outcome struct {
	res AccessResult
	lat time.Duration
	n   int
	err string
}

func (o *outcome) setErr(err error) {
	if err != nil {
		o.err = err.Error()
	}
}

func runDifferential(t *testing.T, seed int64, code []byte) {
	p := program(code)
	var capacity int64
	if c := p.next(); c%2 == 1 {
		capacity = int64(16+c%128) * mem.PageSize // small enough to run out
	}
	a, b := newDiffSide(seed, capacity), newDiffSide(seed, capacity)
	lat := mem.DefaultLatencyModel()
	as := NewAddressSpace(a.tr, lat)
	as.SetClock(a.clock)
	as.SetWorkingSetLog(a.log)
	ref := newRefSpace(b.tr, lat)
	ref.acct.SetClock(b.clock)
	ref.acct.SetWorkingSetLog(b.log)
	prots := []Prot{Read | Write, Read, Write, Read | Write | Exec}
	// Steps and VMA growth are bounded so that every input stays fast.
	for step := 0; len(p) > 0 && step < 1000; step++ {
		op := p.next() % 11
		var got, want outcome
		if op == 0 {
			start := uint64(p.next()%4)<<20 + uint64(p.next()%4)*mem.PageSize
			pages, prot, pc, init := 1+p.next()%48, prots[p.next()%4], p.next(), State(p.next()%4)
			name := fmt.Sprintf("v%d", step)
			_, err := as.AddVMA(name, start, pages, prot, Anon, a.pool(pc), 0, init)
			got.setErr(err)
			_, err = ref.AddVMA(name, start, pages, prot, b.pool(pc), 0, init)
			want.setErr(err)
			compareSides(t, step, op, as, ref, a, b, got, want)
			continue
		}
		if len(ref.vmas) == 0 || len(as.VMAs()) != len(ref.vmas) {
			continue
		}
		k := p.next()
		v, rv := as.VMAs()[k%len(ref.vmas)], ref.vmas[k%len(ref.vmas)]
		pages := rv.Pages()
		first, count := p.next()%(pages+1), p.next()%(pages+2)
		var err error
		switch op {
		case 1:
			pc, base, s := p.next(), uint64(p.next())*mem.PageSize, State(p.next()%4)
			got.setErr(as.SetBacking(v, first, count, a.pool(pc), base, s))
			want.setErr(ref.SetBacking(rv, first, count, b.pool(pc), base, s))
		case 2:
			got.res, err = as.Access(a.rng, v, first, count)
			got.setErr(err)
			want.res, err = ref.Access(b.rng, rv, first, count)
			want.setErr(err)
		case 3:
			addr, write := v.Start+uint64(first)*mem.PageSize, count%2 == 1
			got.lat, err = as.Touch(a.rng, addr, write)
			got.setErr(err)
			want.lat, err = ref.Touch(b.rng, addr, write)
			want.setErr(err)
		case 4:
			got.lat, err = as.Prefetch(a.rng, v, first, count)
			got.setErr(err)
			want.lat, err = ref.Prefetch(b.rng, rv, first, count)
			want.setErr(err)
		case 5:
			got.setErr(as.MakeResident(v, first, count))
			want.setErr(ref.MakeResident(rv, first, count))
		case 6:
			readyAt := a.now + time.Duration(p.next())*time.Microsecond
			got.n, err = as.MarkInFlight(v, first, count, readyAt)
			got.setErr(err)
			want.n, err = ref.MarkInFlight(rv, first, count, readyAt)
			want.setErr(err)
		case 7:
			pc := p.next() % len(a.pools)
			got.n, err = as.PromoteRange(v, first, count, a.pools[pc])
			got.setErr(err)
			want.n, err = ref.PromoteRange(rv, first, count, b.pools[pc])
			want.setErr(err)
		case 8:
			if pages < 128 {
				got.setErr(as.Grow(v, count%16))
				want.setErr(ref.Grow(rv, count%16))
			}
		case 9:
			d := time.Duration(first+count) * time.Microsecond
			a.now += d
			b.now += d
		case 10:
			for _, l := range []*WorkingSetLog{a.log, b.log} {
				switch count % 3 {
				case 0:
					l.Seal()
				case 1:
					l.AbortRecording()
				case 2:
					l.StartRecording()
				}
			}
		}
		compareSides(t, step, op, as, ref, a, b, got, want)
	}
}

// compareSides fails the test at the first difference between the run
// list (as, a) and the reference (ref, b) after one step.
func compareSides(t *testing.T, step, op int, as *AddressSpace, ref *refSpace, a, b *diffSide, got, want outcome) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (op %d): %s", step, op, fmt.Sprintf(format, args...))
	}
	if got != want {
		fail("outcome\n run list: %+v\nreference: %+v", got, want)
	}
	if as.Stats() != ref.acct.Stats() {
		fail("stats\n run list: %+v\nreference: %+v", as.Stats(), ref.acct.Stats())
	}
	if as.RSS() != ref.acct.RSS() || a.tr.Used() != b.tr.Used() {
		fail("rss %d/%d, used %d/%d", as.RSS(), ref.acct.RSS(), a.tr.Used(), b.tr.Used())
	}
	if len(as.VMAs()) != len(ref.vmas) {
		fail("%d VMAs, reference has %d", len(as.VMAs()), len(ref.vmas))
	}
	for k, v := range as.VMAs() {
		rv := ref.vmas[k]
		if v.Name != rv.name || v.Pages() != rv.Pages() {
			fail("VMA %s: %d pages; reference %s: %d pages", v.Name, v.Pages(), rv.name, rv.Pages())
		}
		for s := State(0); s < numStates; s++ {
			if v.CountIn(s) != rv.CountIn(s) {
				fail("VMA %s: %d pages %v, reference %d", v.Name, v.CountIn(s), s, rv.CountIn(s))
			}
		}
		for i := 0; i < v.Pages(); i++ {
			if v.PageState(i) != rv.PageState(i) || a.poolIndex(v.PoolAt(i)) != b.poolIndex(rv.PoolAt(i)) {
				fail("VMA %s page %d: %v on pool %d, reference %v on pool %d", v.Name, i,
					v.PageState(i), a.poolIndex(v.PoolAt(i)), rv.PageState(i), b.poolIndex(rv.PoolAt(i)))
			}
		}
		checkRuns(t, v)
	}
	if !reflect.DeepEqual(a.log.Entries(), b.log.Entries()) {
		fail("working-set log\n run list: %+v\nreference: %+v", a.log.Entries(), b.log.Entries())
	}
	if x, y := a.rng.Int63(), b.rng.Int63(); x != y {
		fail("rng streams diverged: %d vs %d", x, y)
	}
}

// checkRuns verifies the run list's own invariants: the runs tile the
// VMA in order, no two neighbours are equal, and the per-state counts
// and in-flight deadlines agree with the runs.
func checkRuns(t *testing.T, v *VMA) {
	t.Helper()
	var counts [numStates]int
	next := 0
	for k := range v.runs {
		r := &v.runs[k]
		if r.first != next || r.pages <= 0 {
			t.Fatalf("VMA %s: run %d is [%d,+%d), want it to start at %d", v.Name, k, r.first, r.pages, next)
		}
		if k > 0 && v.runs[k-1].sameAs(r) {
			t.Fatalf("VMA %s: runs %d and %d are equal and unmerged: %+v", v.Name, k-1, k, v.runs)
		}
		if (r.inflight && r.state != Local) || (!r.inflight && r.readyAt != 0) {
			t.Fatalf("VMA %s: run %d has a stray deadline: %+v", v.Name, k, *r)
		}
		counts[r.state] += r.pages
		next = r.end()
	}
	if next != v.Pages() || counts != v.counts {
		t.Fatalf("VMA %s: runs cover %d of %d pages, counts %v, want %v", v.Name, next, v.Pages(), counts, v.counts)
	}
}
