package obs

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestSLOWindowMatchesBruteForce records random events into a tracker
// whose rings wrap: mostly in time order, some at the same instant as
// the record before, and one in ten up to 3 s out of order. After every
// record it compares BurnRate and Compliance for each function, over
// several windows ending before, at and after the newest instant, with
// a brute-force count over the events a ring of that capacity keeps:
// the newest by time, ties in record order.
func TestSLOWindowMatchesBruteForce(t *testing.T) {
	const capacity = 8
	rng := rand.New(rand.NewSource(1))
	slo := SLO{Target: 100 * time.Millisecond, Objective: 0.9}
	tr := NewSLOTracker(time.Minute)
	tr.cap = capacity
	fns := []string{"A", "B"}
	for _, fn := range fns {
		tr.Set(fn, slo)
	}
	all := map[string][]sloEvent{}
	windows := []time.Duration{-time.Second, 0, 100 * time.Millisecond, time.Second, 5 * time.Second, time.Hour}
	var now time.Duration
	for step := 0; step < 1000; step++ {
		fn := fns[rng.Intn(len(fns))]
		at := now
		switch rng.Intn(10) {
		case 0:
			at -= time.Duration(rng.Intn(3000)) * time.Millisecond
		case 1, 2:
		default:
			now += time.Duration(rng.Intn(500)) * time.Millisecond
			at = now
		}
		lat := time.Duration(rng.Intn(200)) * time.Millisecond
		tr.Record(fn, at, lat)
		all[fn] = append(all[fn], sloEvent{t: at, bad: lat > slo.Target})

		for _, f := range fns {
			kept := newestByTime(all[f], capacity)
			for _, w := range windows {
				for _, q := range []time.Duration{now - time.Second, now, now + time.Second} {
					total, bad := bruteWindow(kept, q, w)
					wantBurn, wantComp := 0.0, 1.0
					if total > 0 {
						wantBurn = (float64(bad) / float64(total)) / (1 - slo.Objective)
						wantComp = 1 - float64(bad)/float64(total)
					}
					if got := tr.BurnRate(f, q, w); got != wantBurn {
						t.Fatalf("step %d: BurnRate(%s, %v, %v) = %v, brute force %v over %+v", step, f, q, w, got, wantBurn, kept)
					}
					if got := tr.Compliance(f, q, w); got != wantComp {
						t.Fatalf("step %d: Compliance(%s, %v, %v) = %v, brute force %v over %+v", step, f, q, w, got, wantComp, kept)
					}
				}
			}
		}
	}
	for _, fn := range fns {
		var bad int64
		for _, e := range all[fn] {
			if e.bad {
				bad++
			}
		}
		if tr.Total(fn) != int64(len(all[fn])) || tr.Breaches(fn) != bad {
			t.Fatalf("%s totals %d/%d, want %d/%d", fn, tr.Total(fn), tr.Breaches(fn), len(all[fn]), bad)
		}
	}
}

// newestByTime returns the last n events of a stable sort by time.
func newestByTime(evs []sloEvent, n int) []sloEvent {
	s := append([]sloEvent(nil), evs...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].t < s[j].t })
	return s[max(len(s)-n, 0):]
}

// bruteWindow counts the events with t in (now-window, now].
func bruteWindow(evs []sloEvent, now, window time.Duration) (total, bad int64) {
	for _, e := range evs {
		if e.t > now-window && e.t <= now {
			total++
			if e.bad {
				bad++
			}
		}
	}
	return total, bad
}
