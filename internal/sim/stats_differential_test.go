package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refHistogram is the Histogram reference: it keeps every sample in
// arrival order and answers each query from a fresh sorted copy, with
// the rank and interpolation formula written out here, not shared with
// stats.go.
type refHistogram struct {
	vals []float64
	sum  float64
}

func (r *refHistogram) add(v float64) {
	r.vals = append(r.vals, v)
	r.sum += v
}

func (r *refHistogram) merge(o *refHistogram) {
	r.vals = append(r.vals, o.vals...)
	r.sum += o.sum
}

func (r *refHistogram) mean() float64 {
	if len(r.vals) == 0 {
		return 0
	}
	return r.sum / float64(len(r.vals))
}

func (r *refHistogram) min() float64 {
	s := refSorted(r)
	if len(s) == 0 {
		return 0
	}
	return s[0]
}

func (r *refHistogram) max() float64 {
	s := refSorted(r)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

func (r *refHistogram) cdf(maxPoints int) []CDFPoint {
	s := refSorted(r)
	n := len(s)
	if n == 0 {
		return nil
	}
	step := 1
	if maxPoints > 0 && n > maxPoints {
		step = n / maxPoints
	}
	var out []CDFPoint
	for i := 0; i < n; i += step {
		out = append(out, CDFPoint{Value: s[i], Fraction: float64(i+1) / float64(n)})
	}
	if out[len(out)-1].Fraction != 1 {
		out = append(out, CDFPoint{Value: s[n-1], Fraction: 1})
	}
	return out
}

// refSorted copies the samples of every histogram in rs (nil counts as
// empty) and sorts the copy with sort.Float64s.
func refSorted(rs ...*refHistogram) []float64 {
	var all []float64
	for _, r := range rs {
		if r != nil {
			all = append(all, r.vals...)
		}
	}
	sort.Float64s(all)
	return all
}

// refPercentile is the p-th percentile of the merged samples by linear
// interpolation between the closest ranks, 0 when there are none.
func refPercentile(p float64, rs ...*refHistogram) float64 {
	s := refSorted(rs...)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo, hi := math.Floor(rank), math.Ceil(rank)
	if lo == hi {
		return s[int(lo)]
	}
	frac := rank - lo
	return s[int(lo)]*(1-frac) + s[int(hi)]*frac
}

// sameFloat is == except that NaN equals NaN.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// histSpecials are the values a fuzz program draws besides small
// quarter-step numbers, which repeat often enough to make ties.
var histSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 1e300,
	math.Float64frombits(0x7ff8000000000001), // a NaN with another payload
}

// histPercentiles are the p values a query draws besides uniform ones.
var histPercentiles = []float64{0, 100, 50, 95, 99, 99.9, 1}

// maxFuzzSamples caps one fuzzed histogram's size, and maxFuzzOps a
// program's length, so that each run stays fast.
const (
	maxFuzzSamples = 1 << 10
	maxFuzzOps     = 1 << 10
)

// FuzzHistogramDifferential runs a random interleaving of Add, Merge
// (self-merge included) and queries on four histograms and on four
// refHistograms, and requires every query to agree exactly: Percentile,
// the package-level Percentile over one to four histograms (repeats and
// nil included), Min, Max, CDF, N, Sum and Mean.
func FuzzHistogramDifferential(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		code := make([]byte, 16+rng.Intn(512))
		rng.Read(code)
		f.Add(code)
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > maxFuzzOps {
			code = code[:maxFuzzOps]
		}
		var hs [4]*Histogram
		var rs [4]*refHistogram
		for i := range hs {
			hs[i], rs[i] = &Histogram{}, &refHistogram{}
		}
		next := func() byte {
			if len(code) == 0 {
				return 0
			}
			b := code[0]
			code = code[1:]
			return b
		}
		value := func() float64 {
			b := next()
			if int(b) < len(histSpecials) {
				return histSpecials[b]
			}
			return float64(int8(b)) / 4
		}
		percentile := func() float64 {
			b := next()
			if int(b) < len(histPercentiles) {
				return histPercentiles[b]
			}
			return float64(b) / 255 * 100
		}
		for step := 0; len(code) > 0; step++ {
			op := next()
			h, r := hs[op>>4&3], rs[op>>4&3]
			var what string
			var got, want float64
			switch op % 11 {
			case 0, 1, 2, 3:
				v := value()
				h.Add(v)
				r.add(v)
				continue
			case 4:
				src := next() & 3
				if h.N()+hs[src].N() > maxFuzzSamples {
					continue // repeated self-merges would double without bound
				}
				h.Merge(hs[src])
				r.merge(rs[src])
				continue
			case 5:
				p := percentile()
				what, got, want = fmt.Sprintf("Percentile(%v)", p), h.Percentile(p), refPercentile(p, r)
			case 6:
				p := percentile()
				sel := next()
				k := 1 + int(sel&3)
				var args []*Histogram
				var refs []*refHistogram
				for i := 0; i < k; i++ {
					j := int(next() % 5) // 4 picks nil
					if j == 4 {
						args, refs = append(args, nil), append(refs, nil)
						continue
					}
					args, refs = append(args, hs[j]), append(refs, rs[j])
				}
				what, got, want = fmt.Sprintf("sim.Percentile(%v) over %d histograms", p, k), Percentile(p, args...), refPercentile(p, refs...)
			case 7:
				what, got, want = "Min", h.Min(), r.min()
			case 8:
				what, got, want = "Max", h.Max(), r.max()
			case 9:
				k := int(next()%8) - 1
				gotCDF, wantCDF := h.CDF(k), r.cdf(k)
				if len(gotCDF) != len(wantCDF) {
					t.Fatalf("step %d: CDF(%d) has %d points, want %d", step, k, len(gotCDF), len(wantCDF))
				}
				for i := range gotCDF {
					if !sameFloat(gotCDF[i].Value, wantCDF[i].Value) || gotCDF[i].Fraction != wantCDF[i].Fraction {
						t.Fatalf("step %d: CDF(%d) point %d = %+v, want %+v", step, k, i, gotCDF[i], wantCDF[i])
					}
				}
				continue
			case 10:
				if h.N() != len(r.vals) {
					t.Fatalf("step %d: N = %d, want %d", step, h.N(), len(r.vals))
				}
				if !sameFloat(h.Sum(), r.sum) || !sameFloat(h.Mean(), r.mean()) {
					t.Fatalf("step %d: Sum, Mean = %v, %v; want %v, %v", step, h.Sum(), h.Mean(), r.sum, r.mean())
				}
				continue
			}
			if !sameFloat(got, want) {
				t.Fatalf("step %d: %s = %v, want %v", step, what, got, want)
			}
		}
	})
}
