package sim

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Histogram collects samples and answers percentile / CDF queries. It
// stores raw samples (experiments here produce at most a few hundred
// thousand), keeping percentiles exact. A query sorts only the samples
// added since the last one and merges them into the sorted prefix, so a
// histogram queried as it grows pays O(k log k + n) per query, not
// O(n log n).
type Histogram struct {
	vals   []float64 // vals[:sorted] ascending, NaNs first as in slices.Sort
	sorted int
	sum    float64
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.vals = append(h.vals, v)
	h.sum += v
}

// AddDuration records a duration sample in milliseconds.
func (h *Histogram) AddDuration(d time.Duration) {
	h.Add(float64(d) / float64(time.Millisecond))
}

// Merge folds other's samples into h (other is unchanged). Because the
// histogram stores raw samples, percentiles over the merged set are
// exact — cluster experiments use this to get fleet-wide tails from
// per-node histograms. To read one percentile across histograms
// without copying their samples, use the package-level Percentile.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || len(other.vals) == 0 {
		return
	}
	h.vals = append(h.vals, other.vals...)
	h.sum += other.sum
}

// N returns the number of samples.
func (h *Histogram) N() int { return len(h.vals) }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the sample mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if len(h.vals) == 0 {
		return 0
	}
	return h.sum / float64(len(h.vals))
}

// less is slices.Sort's order on float64: ascending, NaNs first.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// sort sorts the samples added since the last query and merges them
// into the sorted prefix back to front. The new run is copied into the
// spare capacity past the samples, so a histogram that grows by a few
// samples between queries allocates nothing, unless those samples have
// just filled its array.
func (h *Histogram) sort() {
	n, s := len(h.vals), h.sorted
	if s == n {
		return
	}
	h.sorted = n
	run := h.vals[s:]
	slices.Sort(run)
	if s == 0 || !less(run[0], h.vals[s-1]) {
		return // the new run already sorts after the prefix
	}
	run = append(h.vals[n:], run...)
	i, k := s-1, n-1
	for j := len(run) - 1; j >= 0; k-- {
		if i >= 0 && less(run[j], h.vals[i]) {
			h.vals[k] = h.vals[i]
			i--
		} else {
			h.vals[k] = run[j]
			j--
		}
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) float64 { return Percentile(p, h) }

// Percentile returns the p-th percentile (p in [0,100]) of the samples of
// every histogram in hs taken together: exactly what merging them into
// one histogram and calling its Percentile returns, without copying a
// sample. It reads the two closest ranks off the histograms' sorted
// runs, walking from whichever end is nearer. Nil histograms count as
// empty; with no samples at all it returns 0.
func Percentile(p float64, hs ...*Histogram) float64 {
	n := 0
	for _, h := range hs {
		if h != nil {
			h.sort()
			n += len(h.vals)
		}
	}
	if n == 0 {
		return 0
	}
	if !(p >= 0 && p <= 100) {
		panic(fmt.Sprintf("sim: percentile %v out of range", p))
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	vlo, vhi := ranked(hs, n, lo, hi)
	if lo == hi {
		return vlo
	}
	frac := rank - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// ranked returns the samples at ranks lo and hi (lo <= hi <= lo+1) of
// the union of hs's n sorted samples. One non-empty histogram is
// indexed directly; several are walked as a k-way merge from the nearer
// end, one cursor per histogram.
func ranked(hs []*Histogram, n, lo, hi int) (vlo, vhi float64) {
	var only *Histogram
	runs := 0
	for _, h := range hs {
		if h != nil && len(h.vals) > 0 {
			only, runs = h, runs+1
		}
	}
	if runs == 1 {
		return only.vals[lo], only.vals[hi]
	}
	var stack [8]int
	taken := stack[:] // samples taken so far from each histogram's walk end
	if len(hs) > len(stack) {
		taken = make([]int, len(hs))
	}
	fromFront := lo+hi < n-1
	steps := hi + 1
	if !fromFront {
		steps = n - lo
	}
	for k := 0; k < steps; k++ {
		// Take the next sample in walk order: the smallest remaining
		// from the front, the largest remaining from the back.
		best, v := -1, 0.0
		for i, h := range hs {
			if h == nil || taken[i] == len(h.vals) {
				continue
			}
			var x float64
			if fromFront {
				x = h.vals[taken[i]]
			} else {
				x = h.vals[len(h.vals)-1-taken[i]]
			}
			if best < 0 || (fromFront && less(x, v)) || (!fromFront && less(v, x)) {
				best, v = i, x
			}
		}
		taken[best]++
		r := k
		if !fromFront {
			r = n - 1 - k
		}
		if r == lo {
			vlo = v
		}
		if r == hi {
			vhi = v
		}
	}
	return vlo, vhi
}

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() float64 {
	if len(h.vals) == 0 {
		return 0
	}
	h.sort()
	return h.vals[0]
}

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() float64 {
	if len(h.vals) == 0 {
		return 0
	}
	h.sort()
	return h.vals[len(h.vals)-1]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64 // sample value
	Fraction float64 // cumulative fraction <= Value
}

// CDF returns an empirical CDF downsampled to at most maxPoints points
// (maxPoints <= 0 means all points).
func (h *Histogram) CDF(maxPoints int) []CDFPoint {
	n := len(h.vals)
	if n == 0 {
		return nil
	}
	h.sort()
	step := 1
	if maxPoints > 0 && n > maxPoints {
		step = n / maxPoints
	}
	var out []CDFPoint
	for i := 0; i < n; i += step {
		out = append(out, CDFPoint{Value: h.vals[i], Fraction: float64(i+1) / float64(n)})
	}
	if out[len(out)-1].Fraction != 1 {
		out = append(out, CDFPoint{Value: h.vals[n-1], Fraction: 1})
	}
	return out
}

// Summary returns a one-line human-readable digest.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p75=%.2f p99=%.2f max=%.2f",
		h.N(), h.Mean(), h.Percentile(50), h.Percentile(75), h.Percentile(99), h.Max())
}

// Gauge is a step function of virtual time, used for memory-usage curves.
// Values are recorded with Set/Add; Peak and averages integrate the steps.
type Gauge struct {
	times []time.Duration
	vals  []float64
	cur   float64
}

// Set records value v at time t. Times must be non-decreasing.
func (g *Gauge) Set(t time.Duration, v float64) {
	if n := len(g.times); n > 0 && t < g.times[n-1] {
		panic("sim: gauge time went backwards")
	}
	g.times = append(g.times, t)
	g.vals = append(g.vals, v)
	g.cur = v
}

// Add records cur+delta at time t.
func (g *Gauge) Add(t time.Duration, delta float64) { g.Set(t, g.cur+delta) }

// Current returns the last recorded value.
func (g *Gauge) Current() float64 { return g.cur }

// Peak returns the maximum recorded value (0 if empty).
func (g *Gauge) Peak() float64 {
	peak := 0.0
	for _, v := range g.vals {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// TimeWeightedMean integrates the step function over [t0, t1] and divides
// by the interval. Points outside the window are clamped.
func (g *Gauge) TimeWeightedMean(t0, t1 time.Duration) float64 {
	if t1 <= t0 || len(g.times) == 0 {
		return 0
	}
	var integral float64
	prevT := t0
	prevV := 0.0
	// find value in effect at t0
	for i, t := range g.times {
		if t > t0 {
			break
		}
		prevV = g.vals[i]
	}
	for i, t := range g.times {
		if t <= t0 {
			continue
		}
		if t >= t1 {
			break
		}
		integral += float64(t-prevT) * prevV
		prevT = t
		prevV = g.vals[i]
	}
	integral += float64(t1-prevT) * prevV
	return integral / float64(t1-t0)
}

// Integral returns the time integral of the gauge over [t0, t1] in
// value-seconds (useful for the paper's usage x duration memory cost).
func (g *Gauge) Integral(t0, t1 time.Duration) float64 {
	return g.TimeWeightedMean(t0, t1) * (t1 - t0).Seconds()
}

// Points returns the raw step points, downsampled to at most maxPoints.
func (g *Gauge) Points(maxPoints int) ([]time.Duration, []float64) {
	n := len(g.times)
	if n == 0 {
		return nil, nil
	}
	step := 1
	if maxPoints > 0 && n > maxPoints {
		step = n / maxPoints
	}
	var ts []time.Duration
	var vs []float64
	for i := 0; i < n; i += step {
		ts = append(ts, g.times[i])
		vs = append(vs, g.vals[i])
	}
	return ts, vs
}

// Counter is a simple monotonically increasing event counter.
type Counter struct{ n int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.n++ }

// IncBy adds d (d >= 0).
func (c *Counter) IncBy(d int64) {
	if d < 0 {
		panic("sim: counter decrement")
	}
	c.n += d
}

// Value returns the count.
func (c *Counter) Value() int64 { return c.n }
