package obs

import (
	"math"
	"testing"
	"time"
)

func TestSafeRateDegenerateIntervals(t *testing.T) {
	if got := safeRate(10, 0); got != 0 {
		t.Errorf("safeRate(10, 0) = %v, want 0", got)
	}
	if got := safeRate(10, -time.Second); got != 0 {
		t.Errorf("safeRate(10, -1s) = %v, want 0", got)
	}
	if got := safeRate(10, 2*time.Second); got != 5 {
		t.Errorf("safeRate(10, 2s) = %v, want 5", got)
	}
}

// A recorder fed duplicate and backwards sample instants must neither
// duplicate points nor derive a rate from a degenerate interval.
func TestRecorderRejectsNonAdvancingSamples(t *testing.T) {
	reg := NewRegistry()
	var n int64
	reg.CounterFunc("trenv_guard_test_total", "test counter", nil, func() int64 { return n })

	rec := NewRecorder(reg, 0)
	n = 5
	rec.Sample(100 * time.Millisecond)
	n = 10
	rec.Sample(100 * time.Millisecond) // duplicate instant: dropped
	rec.Sample(50 * time.Millisecond)  // backwards instant: dropped
	rec.Sample(200 * time.Millisecond) // advancing: kept, rate derived

	ts := rec.Lookup("trenv_guard_test_total", nil)
	if ts == nil {
		t.Fatal("series never recorded")
	}
	pts := ts.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2 (duplicate and backwards samples dropped): %+v", len(pts), pts)
	}
	for _, p := range pts {
		if math.IsInf(p.Rate, 0) || math.IsNaN(p.Rate) {
			t.Fatalf("degenerate rate leaked into the ring: %+v", p)
		}
	}
	if pts[0].Rate != 0 {
		t.Errorf("first sample rate = %v, want 0", pts[0].Rate)
	}
	// 5 -> 10 over the 100ms between the two retained samples = 50/s.
	if pts[1].Rate != 50 {
		t.Errorf("second sample rate = %v, want 50", pts[1].Rate)
	}
}

// A sample instant earlier than the newest records nothing for any
// series, one registered since included, yet still counts as a sample
// and runs the hook. The next advancing instant starts the new series.
func TestRecorderBackwardInstantIsNoOp(t *testing.T) {
	reg := NewRegistry()
	n := int64(5)
	reg.CounterFunc("old_total", "o", nil, func() int64 { return n })
	rec := NewRecorder(reg, 0)
	var hooked []time.Duration
	rec.SetOnSample(func(now time.Duration) { hooked = append(hooked, now) })

	rec.Sample(200 * time.Millisecond)
	n = 9
	reg.GaugeFunc("new_g", "n", nil, func() float64 { return 3 })
	rec.Sample(100 * time.Millisecond) // backward: a no-op for both series

	if rec.NumSeries() != 1 || rec.Lookup("new_g", nil) != nil {
		t.Fatalf("backward instant created a series: %d series", rec.NumSeries())
	}
	old := rec.Lookup("old_total", nil)
	if got := old.Points(); len(got) != 1 || got[0] != (Point{T: 200 * time.Millisecond, Value: 5}) {
		t.Fatalf("backward instant changed an existing series: %+v", got)
	}
	if rec.Samples() != 2 || len(hooked) != 2 || hooked[1] != 100*time.Millisecond {
		t.Fatalf("samples = %d, hook saw %v; every call counts and runs the hook", rec.Samples(), hooked)
	}

	rec.Sample(300 * time.Millisecond)
	if g := rec.Lookup("new_g", nil); g == nil || g.Len() != 1 || g.Last() != (Point{T: 300 * time.Millisecond, Value: 3}) {
		t.Fatalf("new series after the backward instant = %+v", g)
	}
	// 5 -> 9 over the 100ms between the two recorded instants = 40/s.
	if got := old.Last(); got != (Point{T: 300 * time.Millisecond, Value: 9, Rate: 40}) {
		t.Fatalf("existing series after the backward instant: last = %+v", got)
	}
}
