package workload

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"time"
)

// Invocation is one function trigger in a trace.
type Invocation struct {
	At       time.Duration
	Function string
}

// Trace is a time-ordered list of invocations.
type Trace []Invocation

// Len returns the invocation count.
func (t Trace) Len() int { return len(t) }

// Duration returns the latest arrival time (0 for empty traces). A
// trace need not be sorted, so that is not always the last element's.
func (t Trace) Duration() time.Duration {
	var end time.Duration
	for _, inv := range t {
		end = max(end, inv.At)
	}
	return end
}

// CountByFunction tallies invocations per function.
func (t Trace) CountByFunction() map[string]int {
	m := make(map[string]int)
	for _, inv := range t {
		m[inv.Function]++
	}
	return m
}

// sortByTime orders t by arrival time; invocations at the same instant
// keep their generation order.
func (t Trace) sortByTime() {
	slices.SortStableFunc(t, func(a, b Invocation) int { return cmp.Compare(a.At, b.At) })
}

// W1Config shapes the bursty workload: bursts arrive with gaps longer
// than the platform's keep-alive window, so plain caching never helps.
type W1Config struct {
	Functions  []string
	Duration   time.Duration
	BurstGap   time.Duration // > keep-alive threshold
	BurstSize  int           // invocations per function per burst
	BurstSpan  time.Duration // burst spread
	Background float64       // sparse background invocations/sec across all functions
}

// DefaultW1 returns the paper's W1 shape for the given functions: bursts
// every 12 minutes (keep-alive is 10), 30 minutes total.
func DefaultW1(functions []string) W1Config {
	return W1Config{
		Functions:  functions,
		Duration:   30 * time.Minute,
		BurstGap:   12 * time.Minute,
		BurstSize:  18,
		BurstSpan:  150 * time.Millisecond,
		Background: 0.01,
	}
}

// W1Bursty generates the bursty trace. Each function bursts on its own
// schedule (staggered across the gap), so a burst stresses one function's
// startup path at ~BurstSize-way concurrency rather than saturating the
// node's cores with every function at once.
func W1Bursty(rng *rand.Rand, cfg W1Config) Trace {
	var t Trace
	stagger := cfg.BurstGap / time.Duration(len(cfg.Functions)+1)
	for start := time.Duration(0); start < cfg.Duration; start += cfg.BurstGap {
		for fi, fn := range cfg.Functions {
			base := start + time.Duration(fi)*stagger
			for i := 0; i < cfg.BurstSize; i++ {
				at := base + time.Duration(rng.Int63n(int64(cfg.BurstSpan)+1))
				if at < cfg.Duration {
					t = append(t, Invocation{At: at, Function: fn})
				}
			}
		}
	}
	t = append(t, background(rng, cfg.Functions, cfg.Duration, cfg.Background)...)
	t.sortByTime()
	return t
}

// W2Config shapes the diurnal workload: total load cycles between trough
// and peak while the *active function subset rotates* each period —
// "cycling through various functions under tight memory limits". The
// rotation is what defeats plain keep-alive caching: by the time a
// function comes around again, its warm instances have been evicted by
// the cap or expired.
type W2Config struct {
	Functions []string
	Duration  time.Duration
	Period    time.Duration
	PeakRPS   float64
	TroughRPS float64
	// ActiveFns is how many functions receive traffic at a time; the
	// window advances by ActiveFns every Period.
	ActiveFns int
}

// DefaultW2 returns the paper's W2 shape.
func DefaultW2(functions []string) W2Config {
	return W2Config{
		Functions: functions,
		Duration:  30 * time.Minute,
		Period:    5 * time.Minute,
		PeakRPS:   14,
		TroughRPS: 2,
		ActiveFns: 4,
	}
}

// W2Diurnal generates the diurnal trace: a triangle wave of total RPS
// split across the currently-active function subset, invocations
// jittered within each second.
func W2Diurnal(rng *rand.Rand, cfg W2Config) Trace {
	var t Trace
	active := cfg.ActiveFns
	if active <= 0 || active > len(cfg.Functions) {
		active = len(cfg.Functions)
	}
	for sec := time.Duration(0); sec < cfg.Duration; sec += time.Second {
		phase := float64(sec%cfg.Period) / float64(cfg.Period) // 0..1
		tri := 1 - 2*math.Abs(phase-0.5)                       // 0..1..0
		rps := cfg.TroughRPS + (cfg.PeakRPS-cfg.TroughRPS)*tri
		rot := int(sec/cfg.Period) * active
		n := poisson(rng, rps)
		for i := 0; i < n; i++ {
			fn := cfg.Functions[(rot+rng.Intn(active))%len(cfg.Functions)]
			at := sec + time.Duration(rng.Int63n(int64(time.Second)))
			t = append(t, Invocation{At: at, Function: fn})
		}
	}
	t.sortByTime()
	return t
}

// IndustrialConfig shapes the Azure-like and Huawei-like synthetic
// traces. Both datasets record per-minute counts; invocations are spread
// randomly within each minute with a skew/burst probability (§9.3).
// Functions alternate between active and idle runs — the production
// pattern that defeats keep-alive caching: idle runs are longer than the
// retention window, so a returning function starts cold.
type IndustrialConfig struct {
	Functions []string
	Duration  time.Duration
	// MeanPerMin is the mean per-function invocations per active minute.
	MeanPerMin float64
	// Skew is the Zipf-ish popularity skew across functions (0 = uniform,
	// 1 = heavily skewed toward the first functions).
	Skew float64
	// BurstProb is the chance a function-minute is a burst minute.
	BurstProb float64
	// BurstFactor multiplies the minute's count during a burst.
	BurstFactor float64
	// ActiveMinutes / IdleMinutes are the mean run lengths of the
	// per-function on/off process (geometric transitions).
	ActiveMinutes float64
	IdleMinutes   float64
}

// AzureConfig returns an Azure-trace-like shape: moderate rates, strong
// popularity skew, occasional bursts, idle gaps past the keep-alive
// window.
func AzureConfig(functions []string) IndustrialConfig {
	return IndustrialConfig{
		Functions: functions, Duration: 30 * time.Minute,
		MeanPerMin: 28, Skew: 0.7, BurstProb: 0.06, BurstFactor: 6,
		ActiveMinutes: 4, IdleMinutes: 13,
	}
}

// HuaweiConfig returns a Huawei-trace-like shape: spikier, higher
// variance minute-to-minute, longer quiet runs.
func HuaweiConfig(functions []string) IndustrialConfig {
	return IndustrialConfig{
		Functions: functions, Duration: 30 * time.Minute,
		MeanPerMin: 30, Skew: 0.5, BurstProb: 0.12, BurstFactor: 9,
		ActiveMinutes: 3, IdleMinutes: 14,
	}
}

// Industrial generates a synthetic industrial trace.
func Industrial(rng *rand.Rand, cfg IndustrialConfig) Trace {
	var t Trace
	nf := len(cfg.Functions)
	pIdle, pActive := 0.0, 0.0
	if cfg.ActiveMinutes > 0 {
		pIdle = 1 / cfg.ActiveMinutes // chance an active run ends
	}
	if cfg.IdleMinutes > 0 {
		pActive = 1 / cfg.IdleMinutes // chance an idle run ends
	}
	for fi, fn := range cfg.Functions {
		// popularity weight: first functions busier under skew
		w := 1.0 / (1.0 + cfg.Skew*float64(fi))
		// Stagger initial phases so functions do not synchronize.
		active := fi%2 == 0
		for min := time.Duration(0); min < cfg.Duration; min += time.Minute {
			justActivated := false
			if cfg.ActiveMinutes > 0 && cfg.IdleMinutes > 0 {
				if active && rng.Float64() < pIdle {
					active = false
				} else if !active && rng.Float64() < pActive {
					active = true
					justActivated = true
				}
				if !active {
					continue
				}
			}
			mean := cfg.MeanPerMin * w * float64(nf) / norm(nf, cfg.Skew)
			n := poisson(rng, mean)
			// A function returning from idle returns with a thundering
			// herd (scale-from-zero), and any minute may burst.
			if justActivated || rng.Float64() < cfg.BurstProb {
				n = int(float64(n+1) * cfg.BurstFactor)
			}
			for i := 0; i < n; i++ {
				at := min + time.Duration(rng.Int63n(int64(time.Minute)))
				if at < cfg.Duration {
					t = append(t, Invocation{At: at, Function: fn})
				}
			}
		}
	}
	t.sortByTime()
	return t
}

// background produces sparse uniform invocations at the given total rate.
func background(rng *rand.Rand, functions []string, duration time.Duration, rps float64) Trace {
	var t Trace
	if rps <= 0 {
		return t
	}
	n := int(rps * duration.Seconds())
	for i := 0; i < n; i++ {
		t = append(t, Invocation{
			At:       time.Duration(rng.Int63n(int64(duration))),
			Function: functions[rng.Intn(len(functions))],
		})
	}
	return t
}

// poisson samples a Poisson(mean) variate by inversion (mean < ~30) or a
// normal approximation above.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(mean + rng.NormFloat64()*math.Sqrt(mean) + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func norm(n int, skew float64) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += 1.0 / (1.0 + skew*float64(i))
	}
	return s
}
