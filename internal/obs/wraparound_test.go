package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestRecorderWraparoundKeepsRatesAndExports drives a small ring far
// past its capacity and checks that the retained window is the newest
// points in order, rates stay correct across the wrap, and the CSV and
// JSON exports reflect exactly the retained window.
func TestRecorderWraparoundKeepsRatesAndExports(t *testing.T) {
	reg := NewRegistry()
	var c int64
	reg.CounterFunc("c_total", "c", nil, func() int64 { return c })

	const capacity = 4
	rec := NewRecorder(reg, capacity)
	step := 100 * time.Millisecond
	const rounds = 25 // 6x past capacity
	for i := 1; i <= rounds; i++ {
		c += 5 // +5 per 100ms = 50/s
		rec.Sample(time.Duration(i) * step)
	}

	ts := rec.Lookup("c_total", nil)
	if ts.Len() != capacity || ts.Dropped() != rounds-capacity {
		t.Fatalf("len = %d dropped = %d, want %d/%d", ts.Len(), ts.Dropped(), capacity, rounds-capacity)
	}
	pts := ts.Points()
	for i, p := range pts {
		wantT := time.Duration(rounds-capacity+1+i) * step
		if p.T != wantT {
			t.Fatalf("point %d at %v, want %v (oldest-first across the wrap)", i, p.T, wantT)
		}
		if p.Rate != 50 {
			t.Fatalf("point %d rate = %v, want 50/s after wraparound", i, p.Rate)
		}
	}

	var csvBuf bytes.Buffer
	if err := rec.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if got := len(lines) - 1; got != capacity {
		t.Fatalf("CSV rows = %d, want the %d retained points:\n%s", got, capacity, csvBuf.String())
	}
	if !strings.Contains(lines[1], "2200") || !strings.Contains(lines[len(lines)-1], "2500") {
		t.Fatalf("CSV window wrong:\n%s", csvBuf.String())
	}

	var jsonBuf bytes.Buffer
	if err := rec.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []struct {
			Key    string `json:"key"`
			Points []struct {
				TMS  float64 `json:"t_ms"`
				Rate float64 `json:"rate"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || len(doc.Series[0].Points) != capacity {
		t.Fatalf("JSON export = %s", jsonBuf.String())
	}
	if first := doc.Series[0].Points[0]; first.TMS != 2200 || first.Rate != 50 {
		t.Fatalf("JSON first retained point = %+v", first)
	}
}

func TestRateOverWindows(t *testing.T) {
	reg := NewRegistry()
	var c int64
	reg.CounterFunc("c_total", "c", nil, func() int64 { return c })
	rec := NewRecorder(reg, 3)
	ts := func() *TimeSeries { return rec.Lookup("c_total", nil) }

	// No points, then one point: no rate either way — never zero.
	rec.Sample(100 * time.Millisecond)
	if _, ok := ts().RateOver(100*time.Millisecond, time.Second); ok {
		t.Fatal("single point yielded a rate")
	}

	c += 10
	rec.Sample(200 * time.Millisecond) // 100/s over the last 100ms
	c += 0
	rec.Sample(300 * time.Millisecond) // flat over the last 100ms
	if v, ok := ts().RateOver(300*time.Millisecond, 200*time.Millisecond); !ok || v != 50 {
		t.Fatalf("windowed rate = %v/%v, want 50/s over both intervals", v, ok)
	}

	// A window reaching past the ring falls back to the oldest retained
	// point instead of inventing a zero baseline.
	c += 10
	rec.Sample(400 * time.Millisecond) // ring now holds 200,300,400ms
	v, ok := ts().RateOver(400*time.Millisecond, time.Hour)
	if !ok {
		t.Fatal("window past the ring yielded no rate")
	}
	if want := 10.0 / 0.2; v != want { // +10 over the retained 200ms
		t.Fatalf("clamped-window rate = %v, want %v", v, want)
	}
}

// TestRecorderOldestRetainedRateAfterWrap checks that the oldest point
// a wrapped series retains keeps the rate from its dropped predecessor:
// when the predecessor's value was set a hundred instants earlier, and
// when that rate is NaN (+Inf − +Inf) or −0 (−0 − +0).
func TestRecorderOldestRetainedRateAfterWrap(t *testing.T) {
	reg := NewRegistry()
	var c int64
	inf, zero := math.Inf(1), 0.0
	var set ValueSet
	set.Add(map[string]string{"v": "inf"}, func() float64 { return inf })
	set.Add(map[string]string{"v": "zero"}, func() float64 { return zero })
	reg.CounterFunc("c_total", "c", nil, func() int64 { return c })
	reg.CounterSet("x_total", "x", &set)

	const capacity = 3
	rec := NewRecorder(reg, capacity)
	step := 100 * time.Millisecond
	for i := 1; i <= 100; i++ {
		rec.Sample(time.Duration(i) * step)
	}
	c, zero = 5, math.Copysign(0, -1)
	for i := 101; i <= 103; i++ {
		rec.Sample(time.Duration(i) * step)
	}

	pts := rec.Lookup("c_total", nil).Points()
	if len(pts) != capacity || pts[0].T != 101*step {
		t.Fatalf("retained window = %+v", pts)
	}
	// 0 -> 5 over the 100ms from the dropped instant 100.
	if pts[0].Rate != 50 || pts[1].Rate != 0 || pts[2].Rate != 0 {
		t.Fatalf("rates after the wrap = %+v, want 50, 0, 0", pts)
	}
	for _, p := range rec.Lookup("x_total", map[string]string{"v": "inf"}).Points() {
		if !math.IsNaN(p.Rate) {
			t.Fatalf("+Inf counter point %+v: want a NaN rate", p)
		}
	}
	zpts := rec.Lookup("x_total", map[string]string{"v": "zero"}).Points()
	if r := zpts[0].Rate; r != 0 || !math.Signbit(r) {
		t.Fatalf("oldest retained rate after +0 -> -0 = %v, want -0", r)
	}
	if r := zpts[1].Rate; r != 0 || math.Signbit(r) {
		t.Fatalf("rate after -0 -> -0 = %v, want +0", r)
	}
}
