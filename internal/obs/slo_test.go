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
// record it compares BurnRate for each function, over several windows
// ending before, at and after the newest instant, with a brute-force
// count over the events a ring of that capacity keeps: the newest by
// time, ties in record order.
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
					wantBurn := 0.0
					if total > 0 {
						wantBurn = (float64(bad) / float64(total)) / (1 - slo.Objective)
					}
					if got := tr.BurnRate(f, q, w); got != wantBurn {
						t.Fatalf("step %d: BurnRate(%s, %v, %v) = %v, brute force %v over %+v", step, f, q, w, got, wantBurn, kept)
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

// FuzzSLOWindowDifferential runs a byte program against a tracker whose
// ring holds 1 to 8 events and compares every burn rate it reads with a
// brute-force count over the events the ring keeps. The first byte
// picks the capacity; each later triple is one op:
//
//	0 record in time order, after a step forward
//	1 record at the newest instant
//	2 record up to 3 s out of order
//	3 tick: step forward and read the 1m and 5m windows twice, as the
//	  recorder and then the alert engine read them
//	4 read a 1m or 5m window at an earlier instant
//	5 read a zero or negative window
//
// After every op both functions' 1m and 5m windows are read again at
// the newest tick's instant.
func FuzzSLOWindowDifferential(f *testing.F) {
	f.Add([]byte{})
	// Two events in a ring of two, a tick that counts both, then records
	// that overwrite them while the cursors are mid-window.
	f.Add([]byte{
		1,
		0, 10, 0, // A at 1 s
		0, 10, 2, // A at 2 s, bad
		3, 0, 0, // tick at 2 s: both counted
		0, 10, 0, // A at 3 s: the ring drops the 1 s event
		0, 10, 3, // B at 4 s, bad
		0, 10, 2, // A at 5 s, bad: the 2 s event goes
		3, 5, 0, // tick at 5.5 s
		0, 230, 0, // A 450 s later: every window slides
		3, 1, 0,
	})
	// Same-instant and out-of-order records around ticks, an earlier
	// read, and zero and negative windows.
	f.Add([]byte{
		3,
		0, 5, 0, 1, 0, 2, 3, 0, 0, 2, 20, 3, 1, 0, 1, 3, 0, 0,
		4, 30, 1, 3, 10, 0, 5, 1, 1, 5, 0, 2, 2, 30, 0, 3, 250, 0,
		0, 200, 1, 2, 7, 2, 3, 2, 0, 4, 0, 0, 3, 0, 0,
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		capacity := 1
		if len(prog) > 0 {
			capacity += int(prog[0]) % 8
			prog = prog[1:]
		}
		slo := SLO{Target: 100 * time.Millisecond, Objective: 0.9}
		tr := NewSLOTracker(time.Minute, 5*time.Minute)
		tr.cap = capacity
		fns := []string{"A", "B"}
		for _, fn := range fns {
			tr.Set(fn, slo)
		}
		all := map[string][]sloEvent{}
		var now, tick time.Duration
		read := func(step int, fn string, at, w time.Duration) {
			t.Helper()
			total, bad := bruteWindow(newestByTime(all[fn], capacity), at, w)
			want := 0.0
			if total > 0 {
				want = (float64(bad) / float64(total)) / (1 - slo.Objective)
			}
			if got := tr.BurnRate(fn, at, w); got != want {
				t.Fatalf("step %d: BurnRate(%s, %v, %v) = %v, brute force %v over %+v",
					step, fn, at, w, got, want, newestByTime(all[fn], capacity))
			}
		}
		// forward is a step of up to 19.9 s in 100-ms ticks, or of up to
		// 825 s, which slides every window.
		forward := func(b byte) time.Duration {
			if b < 200 {
				return time.Duration(b) * 100 * time.Millisecond
			}
			return time.Duration(b-200) * 15 * time.Second
		}
		for step := 0; len(prog) >= 3 && step < 128; step++ {
			op, a, b := prog[0], prog[1], prog[2]
			prog = prog[3:]
			fn := fns[b%2]
			record := func(at time.Duration) {
				lat := 50 * time.Millisecond
				if b&2 != 0 {
					lat = 200 * time.Millisecond
				}
				tr.Record(fn, at, lat)
				all[fn] = append(all[fn], sloEvent{t: at, bad: lat > slo.Target})
			}
			switch op % 6 {
			case 0:
				now += forward(a)
				record(now)
			case 1:
				record(now)
			case 2:
				record(now - time.Duration(a%31)*100*time.Millisecond)
			case 3:
				now += forward(a)
				tick = now
				for range 2 {
					for _, f := range fns {
						read(step, f, tick, time.Minute)
						read(step, f, tick, 5*time.Minute)
					}
				}
			case 4:
				w := time.Minute
				if b&4 != 0 {
					w = 5 * time.Minute
				}
				read(step, fn, now-time.Duration(a)*time.Second, w)
			case 5:
				read(step, fn, now-time.Duration(a%4)*time.Second, -time.Duration(b%3)*time.Second)
			}
			for _, f := range fns {
				read(step, f, tick, time.Minute)
				read(step, f, tick, 5*time.Minute)
			}
		}
	})
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
