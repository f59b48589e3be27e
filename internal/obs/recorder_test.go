package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestGatherSortedAndTyped(t *testing.T) {
	reg := NewRegistry()
	var n int64
	reg.CounterFunc("zz_total", "z", nil, func() int64 { return n })
	reg.GaugeFunc("aa_gauge", "a", map[string]string{"node": "n0"}, func() float64 { return 7 })
	h := &sim.Histogram{}
	h.Add(3)
	h.Add(5)
	reg.Histogram("mm_lat", "m", nil, h)
	n = 42

	samples := reg.Gather()
	var keys []string
	byKey := map[string]Sample{}
	for _, s := range samples {
		keys = append(keys, s.Key)
		byKey[s.Key] = s
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("gather not sorted: %q >= %q", keys[i-1], keys[i])
		}
	}
	if s := byKey["zz_total"]; !s.Counter || s.Value != 42 {
		t.Fatalf("counter sample = %+v", s)
	}
	if s := byKey[`aa_gauge{node="n0"}`]; s.Counter || s.Value != 7 {
		t.Fatalf("gauge sample = %+v", s)
	}
	if s := byKey["mm_lat_count"]; !s.Counter || s.Value != 2 {
		t.Fatalf("summary count sample = %+v", s)
	}
	if s := byKey["mm_lat_sum"]; s.Value != 8 {
		t.Fatalf("summary sum sample = %+v", s)
	}
}

func TestRegistryDynamicValueSets(t *testing.T) {
	reg := NewRegistry()
	var set ValueSet
	reg.CounterSet("dyn_total", "d", &set)
	if got := len(reg.Gather()); got != 0 {
		t.Fatalf("empty set gathered %d samples", got)
	}
	set.Add(map[string]string{"fn": "JS"}, func() float64 { return 3 })
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `dyn_total{fn="JS"} 3`; !strings.Contains(buf.String(), want) {
		t.Fatalf("prometheus output missing %q:\n%s", want, buf.String())
	}
}

func TestRecorderRatesAndRing(t *testing.T) {
	reg := NewRegistry()
	var c int64
	var g float64
	reg.CounterFunc("c_total", "c", nil, func() int64 { return c })
	reg.GaugeFunc("g", "g", nil, func() float64 { return g })

	rec := NewRecorder(reg, 3)
	step := 100 * time.Millisecond
	for i := 0; i < 5; i++ {
		c += 10 // +10 per 100ms = 100/s
		g = float64(i)
		rec.Sample(time.Duration(i+1) * step)
	}
	ct := rec.Lookup("c_total", nil)
	if ct == nil || ct.Len() != 3 || ct.Dropped() != 2 {
		t.Fatalf("counter series = %+v", ct)
	}
	pts := ct.Points()
	if pts[0].T != 3*step || pts[2].T != 5*step {
		t.Fatalf("ring retained wrong window: %+v", pts)
	}
	for _, p := range pts {
		if p.Rate != 100 {
			t.Fatalf("counter rate = %v, want 100/s (point %+v)", p.Rate, p)
		}
	}
	gt := rec.Lookup("g", nil)
	if got := gt.Last(); got.Value != 4 || got.Rate != 0 {
		t.Fatalf("gauge last = %+v, want value 4 rate 0", got)
	}

	// Re-sampling the same instant must not duplicate points.
	rec.Sample(5 * step)
	if ct.Len() != 3 || ct.Last().T != 5*step {
		t.Fatal("duplicate-instant sample changed the ring")
	}
}

func TestRecorderFirstSampleHasZeroRate(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("c_total", "c", nil, func() int64 { return 99 })
	rec := NewRecorder(reg, 0)
	rec.Sample(time.Second)
	p := rec.Lookup("c_total", nil).Last()
	if p.Value != 99 || p.Rate != 0 {
		t.Fatalf("first point = %+v", p)
	}
}

func TestRecorderPumpWhile(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	reg.GaugeFunc("now_ms", "virtual now", nil, func() float64 { return durMS(eng.Now()) })
	rec := NewRecorder(reg, 0)

	end := 450 * time.Millisecond
	eng.After(end, func() {}) // workload stand-in
	rec.PumpWhile(eng, 100*time.Millisecond, func() bool { return eng.Now() < end })
	eng.Run()

	ts := rec.Lookup("now_ms", nil)
	pts := ts.Points()
	// Samples at 0,100,...,400 while cont holds, plus the final one at 500.
	if len(pts) != 6 {
		t.Fatalf("got %d points: %+v", len(pts), pts)
	}
	if pts[0].T != 0 || pts[5].T != 500*time.Millisecond {
		t.Fatalf("pump window wrong: first %v last %v", pts[0].T, pts[5].T)
	}
	for _, p := range pts {
		if p.Value != durMS(p.T) {
			t.Fatalf("sampled value %v at %v", p.Value, p.T)
		}
	}
}

func TestRecorderExportsDeterministic(t *testing.T) {
	run := func() (string, string) {
		eng := sim.NewEngine(7)
		reg := NewRegistry()
		var c int64
		reg.CounterFunc("c_total", "c", map[string]string{"node": "n0"}, func() int64 { return c })
		rec := NewRecorder(reg, 0)
		for i := 1; i <= 4; i++ {
			c += int64(i * 3)
			rec.Sample(time.Duration(i) * 50 * time.Millisecond)
		}
		_ = eng
		var j, csvb bytes.Buffer
		if err := rec.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteCSV(&csvb); err != nil {
			t.Fatal(err)
		}
		return j.String(), csvb.String()
	}
	j1, c1 := run()
	j2, c2 := run()
	if j1 != j2 {
		t.Fatal("same-seed JSON exports differ")
	}
	if c1 != c2 {
		t.Fatal("same-seed CSV exports differ")
	}
	var doc struct {
		Samples int64 `json:"samples"`
		Series  []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Points []struct {
				TMS  float64 `json:"t_ms"`
				V    float64 `json:"v"`
				Rate float64 `json:"rate"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(j1), &doc); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	if doc.Samples != 4 || len(doc.Series) != 1 || len(doc.Series[0].Points) != 4 {
		t.Fatalf("export shape wrong: %+v", doc)
	}
	if doc.Series[0].Labels["node"] != "n0" {
		t.Fatalf("labels lost: %+v", doc.Series[0].Labels)
	}
	if !strings.HasPrefix(c1, "series,labels,t_ms,value,rate_per_s\n") {
		t.Fatalf("csv header wrong: %q", strings.SplitN(c1, "\n", 2)[0])
	}
}

func TestRecorderSetGroupsRuns(t *testing.T) {
	set := NewRecorderSet(0, 0)
	if set.Every() != DefaultSampleInterval {
		t.Fatalf("default interval = %v", set.Every())
	}
	for _, run := range []string{"faasd", "trenv"} {
		reg := NewRegistry()
		v := int64(len(run))
		reg.CounterFunc("c_total", "c", nil, func() int64 { return v })
		set.Track(run, reg).Sample(time.Second)
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Run    string `json:"run"`
			Series []struct {
				Name string `json:"name"`
			} `json:"series"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 2 || doc.Runs[0].Run != "faasd" || doc.Runs[1].Run != "trenv" {
		t.Fatalf("runs = %+v", doc.Runs)
	}
	var csvb bytes.Buffer
	if err := set.WriteCSV(&csvb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvb.String(), "run,series,labels,t_ms,value,rate_per_s\n") {
		t.Fatalf("set csv header wrong: %q", strings.SplitN(csvb.String(), "\n", 2)[0])
	}
	if !strings.Contains(csvb.String(), "faasd,c_total") {
		t.Fatalf("set csv missing run rows:\n%s", csvb.String())
	}
}

func TestSLOBurnRate(t *testing.T) {
	tr := NewSLOTracker(time.Minute)
	tr.Set("JS", SLO{Target: 100 * time.Millisecond, Objective: 0.9})

	at := func(s int) time.Duration { return time.Duration(s) * time.Second }
	// 10 events in the first minute: 2 breaches → bad frac 0.2, budget
	// 0.1 → burn rate 2.
	for i := 0; i < 10; i++ {
		lat := 50 * time.Millisecond
		if i < 2 {
			lat = 200 * time.Millisecond
		}
		tr.Record("JS", at(i*6), lat)
	}
	if got := tr.BurnRate("JS", at(54), time.Minute); math.Abs(got-2) > 1e-9 {
		t.Fatalf("burn rate = %v, want 2", got)
	}
	if tr.Total("JS") != 10 || tr.Breaches("JS") != 2 {
		t.Fatalf("totals = %d/%d", tr.Total("JS"), tr.Breaches("JS"))
	}
	// A minute later the window has slid past every event.
	if got := tr.BurnRate("JS", at(200), time.Minute); got != 0 {
		t.Fatalf("burn rate after slide = %v, want 0", got)
	}
	// Untracked function (no default): ignored.
	tr.Record("Go", at(1), time.Hour)
	if tr.Total("Go") != 0 {
		t.Fatal("untracked function recorded")
	}
}

func TestSLODefaultAndRegister(t *testing.T) {
	tr := NewSLOTracker(time.Minute)
	tr.SetDefault(SLO{Target: 10 * time.Millisecond, Objective: 0.5})
	now := 30 * time.Second
	tr.Record("B", time.Second, 20*time.Millisecond) // breach
	tr.Record("A", 2*time.Second, 5*time.Millisecond)

	if got := tr.Handles(); len(got) != 2 || got[0].Name != "A" || got[1].Name != "B" {
		t.Fatalf("handles = %v", got)
	}
	reg := NewRegistry()
	tr.Register(reg, map[string]string{"node": "n1"}, func() time.Duration { return now })
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`trenv_slo_events_total{function="A",node="n1"} 1`,
		`trenv_slo_breaches_total{function="B",node="n1"} 1`,
		`trenv_slo_target_ms{function="A",node="n1"} 10`,
		// B: 1 bad / 1 total over the window, budget 0.5 → burn 2.
		`trenv_slo_burn_rate{function="B",node="n1",window="1m0s"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSLOValidation(t *testing.T) {
	for _, bad := range []SLO{
		{Target: 0, Objective: 0.9},
		{Target: time.Second, Objective: 0},
		{Target: time.Second, Objective: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SLO %+v accepted", bad)
				}
			}()
			NewSLOTracker().Set("x", bad)
		}()
	}
}

// A series registered between two samples at the same instant gets its
// first point at that instant. Series that already have a point there
// keep their first read, and both continue at the next instant.
func TestRecorderSeriesFirstAppearsAtSameInstantResample(t *testing.T) {
	reg := NewRegistry()
	a, b := int64(1), int64(7)
	reg.CounterFunc("a_total", "a", nil, func() int64 { return a })
	rec := NewRecorder(reg, 0)
	rec.Sample(time.Second)
	a = 2
	reg.CounterFunc("b_total", "b", nil, func() int64 { return b })
	rec.Sample(time.Second)

	at, bt := rec.Lookup("a_total", nil), rec.Lookup("b_total", nil)
	if got := at.Points(); len(got) != 1 || got[0].Value != 1 {
		t.Fatalf("same-instant resample changed an existing series: %+v", got)
	}
	if bt == nil || bt.Len() != 1 || bt.Last() != (Point{T: time.Second, Value: 7}) {
		t.Fatalf("series appearing at the resample = %+v", bt)
	}
	b = 9
	rec.Sample(1500 * time.Millisecond)
	if got := bt.Points(); len(got) != 2 || got[1] != (Point{T: 1500 * time.Millisecond, Value: 9, Rate: 4}) {
		t.Fatalf("new series next instant = %+v, want 7 -> 9 over 500ms = 4/s", got)
	}
	if got := at.Last(); got != (Point{T: 1500 * time.Millisecond, Value: 2, Rate: 2}) {
		t.Fatalf("existing series next instant = %+v, want 1 -> 2 over 500ms = 2/s", got)
	}
}

// A series stores one step per value change, not one point per tick: a
// constant series holds one step after 10,000 ticks, and one that
// changes on every tick holds O(capacity) steps however long it runs.
func TestRecorderStorageGrowsWithChangesNotTicks(t *testing.T) {
	reg := NewRegistry()
	var c int64
	reg.GaugeFunc("flat", "f", nil, func() float64 { return 42 })
	reg.CounterFunc("c_total", "c", nil, func() int64 { return c })
	const capacity, ticks = 64, 10000
	rec := NewRecorder(reg, capacity)
	for i := 1; i <= ticks; i++ {
		c++
		rec.Sample(time.Duration(i) * DefaultSampleInterval)
	}

	flat := rec.Lookup("flat", nil)
	if n := len(flat.steps); n != 1 {
		t.Fatalf("constant series holds %d steps after %d ticks, want 1", n, ticks)
	}
	if flat.Len() != capacity || flat.Dropped() != ticks-capacity || flat.Last().Value != 42 {
		t.Fatalf("constant series: len %d, dropped %d, last %+v", flat.Len(), flat.Dropped(), flat.Last())
	}
	busy := rec.Lookup("c_total", nil)
	if n := cap(busy.steps); n > maxSteps(capacity) {
		t.Fatalf("series changing every tick holds room for %d steps, want at most %d", n, maxSteps(capacity))
	}
	pts := busy.Points()
	for i, p := range pts {
		if want := float64(ticks - capacity + 1 + i); p.Value != want || p.Rate != 10 {
			t.Fatalf("point %d = %+v, want value %v at 10/s", i, p, want)
		}
	}
}
