// Command bench is the repository benchmark. It measures what the
// simulator costs its host (wall and CPU time per simulated second,
// allocations, peak RSS, set-up time) and what the simulated TrEnv
// platform delivers (end-to-end latency and peak memory) on four
// workloads, and with -trace 1 splits a run's CPU time and allocations
// across the simulator's layers. See README.md for the metrics, the
// workloads and how to read the numbers.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload azure-rack-cxl -seed 1 -seconds 20 -trace 0
//	cd bench && go run . -rounds 8          # all workloads, interleaved
//
// Every rep runs in a child process (the same binary with -child), so
// each rep starts from a fresh heap and reports its own peak RSS. The
// last line of standard output is the result as JSON.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int
	trace    int
	scale    float64
	child    string
	workers  int
}

// minRounds is the fewest rounds a time-budgeted run makes, so every
// median has at least three reps behind it.
const minRounds = 3

// profileCPUSeconds is the CPU time the traced pass profiles: at pprof's
// 100 Hz it yields more than 1,000 samples.
const profileCPUSeconds = 11.5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all for interleaved rounds of every workload")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated traces and of the simulation")
	fs.Float64Var(&o.seconds, "seconds", 0, "run rounds until this many seconds have passed (at least 3 rounds); 0 runs -rounds rounds")
	fs.IntVar(&o.rounds, "rounds", 8, "rounds to run when -seconds is 0")
	fs.IntVar(&o.trace, "trace", 0, "1 adds a profiled pass per workload and prints the per-layer metrics instead of the end-to-end ones")
	fs.Float64Var(&o.scale, "scale", 1, "trace length scale; 1 is the benchmark's size")
	fs.StringVar(&o.child, "child", "", "internal: run one rep (rep) or the profiled pass (traced) and print it as JSON")
	fs.IntVar(&o.workers, "workers", 0, "internal: shard workers of a child's fleet rep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case o.seconds < 0 || o.rounds < 1 || o.scale <= 0:
		fmt.Fprintln(stderr, "bench: -seconds must be >= 0, -rounds >= 1 and -scale > 0")
		return 2
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	defs := workloads
	if o.workload != "all" {
		def, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		defs = []*workloadDef{def}
	}
	if o.child != "" {
		if len(defs) != 1 {
			fmt.Fprintln(stderr, "bench: -child needs one -workload")
			return 2
		}
		return runChild(o, defs[0], stdout, stderr)
	}
	ms, err := measure(o, defs, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return report(ms, o.trace == 1, stdout, stderr)
}

// measured is everything one run collected for one workload.
type measured struct {
	def  *workloadDef
	reps []*rep
	// ref is the sharded fleet's one-worker reference rep (nil for the
	// other workloads); every measured rep must match its digest.
	ref *rep
	// traced is the profiled pass (nil unless -trace 1).
	traced *rep
}

// measure runs rounds of child reps, each round running every workload
// once, so a slow phase of a shared host hits every workload alike; then
// the profiled pass when -trace 1.
func measure(o options, defs []*workloadDef, stderr io.Writer) ([]*measured, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ms := make([]*measured, len(defs))
	for i, def := range defs {
		ms[i] = &measured{def: def}
	}
	probe := startProbe()
	defer probe.close()
	child := func(def *workloadDef, mode string, workers int) (*rep, error) {
		t0 := time.Now()
		r, err := runChildProcess(exe, o, def, mode, workers)
		if err != nil {
			return nil, err
		}
		r.ProbeS = probe.median(t0, time.Now())
		return r, nil
	}
	start := time.Now()
	for round := 0; ; round++ {
		if o.seconds > 0 {
			if round >= minRounds && time.Since(start).Seconds() >= o.seconds {
				break
			}
		} else if round >= o.rounds {
			break
		}
		for _, m := range ms {
			if round == 0 && m.def.workers > 1 {
				if m.ref, err = child(m.def, "rep", fleetRefWorkers); err != nil {
					return nil, err
				}
			}
			r, err := child(m.def, "rep", m.def.workers)
			if err != nil {
				return nil, err
			}
			m.reps = append(m.reps, r)
			fmt.Fprintf(stderr, "round %d %-24s setup %.3fms run %.3fs cpu %.3fs probe %.3fms rss %d MiB\n",
				round, m.def.name, r.SetupS*1000, r.WallS, r.CPUS, r.ProbeS*1000, r.MaxRSSKB>>10)
		}
	}
	if o.trace == 1 {
		for _, m := range ms {
			if m.traced, err = child(m.def, "traced", m.def.workers); err != nil {
				return nil, err
			}
			fmt.Fprintf(stderr, "traced  %-24s run %.3fs, %.0f profile samples\n",
				m.def.name, m.traced.WallS, m.traced.Layer["bench.profile_samples"])
		}
	}
	return ms, nil
}

// runChildProcess runs one child and returns the rep it printed, with the
// child's peak RSS from its rusage.
func runChildProcess(exe string, o options, def *workloadDef, mode string, workers int) (*rep, error) {
	cmd := exec.Command(exe,
		"-child", mode,
		"-workload", def.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-workers", strconv.Itoa(workers))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s child: %w: %s", def.name, mode, err, bytes.TrimSpace(stderr.Bytes()))
	}
	r := &rep{}
	if err := json.Unmarshal(lastLine(out), r); err != nil {
		return nil, fmt.Errorf("%s %s child: bad output: %w", def.name, mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.MaxRSSKB = ru.Maxrss // KiB on Linux
	}
	return r, nil
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}

func runChild(o options, def *workloadDef, stdout, stderr io.Writer) int {
	var r *rep
	var err error
	switch o.child {
	case "rep":
		r, err = runRep(def, o.seed, o.scale, o.workers, false)
	case "traced":
		r, err = runTraced(def, o.seed, o.scale, o.workers)
	default:
		err = fmt.Errorf("unknown -child mode %q", o.child)
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(r)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runTraced is the profiled pass: it runs reps, with the exports that
// follow a run, under a CPU profile until profileCPUSeconds of CPU have
// been sampled, then charges the CPU and allocation profiles to layers.
// It returns the last rep, with the median run wall of the pass.
func runTraced(def *workloadDef, seed int64, scale float64, workers int) (*rep, error) {
	runtime.MemProfileRate = 64 << 10
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return nil, err
	}
	cpu0 := cpuSeconds()
	var walls []float64
	var last *rep
	for last == nil || cpuSeconds()-cpu0 < profileCPUSeconds {
		r, err := runRep(def, seed, scale, workers, true)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		walls = append(walls, r.WallS)
		last = r
	}
	pprof.StopCPUProfile()
	// The allocation profile is current as of the last completed GC.
	runtime.GC()
	var memBuf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&memBuf, 0); err != nil {
		return nil, err
	}
	cpuProf, err := decodeProfile(cpuBuf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	memProf, err := decodeProfile(memBuf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	for layer, share := range attribute(cpuProf, cpuProf.valueIndex("cpu")) {
		last.Layer[layer+".cpu_share"] = share
	}
	for layer, share := range attribute(memProf, memProf.valueIndex("alloc_space")) {
		last.Layer[layer+".alloc_share"] = share
	}
	last.Layer["bench.profile_samples"] = float64(cpuProf.total(cpuProf.valueIndex("samples")))
	last.WallS = median(walls)
	return last, nil
}

// metric is one reported metric; the JSON result carries value and unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics: each is the median over the
// measured reps of its per-rep value. Host times are in reference time
// (refSeconds).
var endToEnd = []struct {
	name, unit string
	of         func(r *rep) float64
}{
	{"wall_ms_per_sim_s", "ref-ms/sim-s", func(r *rep) float64 { return ratio(refSeconds(r.WallS, r)*1000, r.SimS) }},
	{"invocations_per_s", "inv/ref-s", func(r *rep) float64 { return ratio(float64(r.Invocations), refSeconds(r.WallS, r)) }},
	{"cpu_ms_per_sim_s", "ref-ms/sim-s", func(r *rep) float64 { return ratio(refSeconds(r.CPUS, r)*1000, r.SimS) }},
	{"allocs_per_inv", "allocs/inv", func(r *rep) float64 { return perInv(float64(r.Mallocs), r) }},
	{"alloc_kb_per_inv", "KiB/inv", func(r *rep) float64 { return perInv(float64(r.AllocBytes)/1024, r) }},
	{"max_rss_mb", "MiB", func(r *rep) float64 { return float64(r.MaxRSSKB) / 1024 }},
	{"setup_s", "s", func(r *rep) float64 { return refSeconds(r.SetupS, r) }},
}

// perLayer lists the per-layer metrics the profiled pass reports, read
// from its rep's Layer map (absent = 0).
var perLayer = []struct{ name, unit string }{
	{"sim_e2e_samples", "count"}, {"sim_e2e_p50_ms", "sim-ms"},
	{"sim_e2e_tail_ms", "sim-ms"}, {"sim_peak_mem_gb", "sim-GiB"},

	{"pagetable.cpu_share", "share"}, {"pagetable.alloc_share", "share"},
	{"pagetable.minor_faults", "count"}, {"pagetable.major_faults", "count"},
	{"pagetable.cow_pages", "count"}, {"pagetable.fetched_pages", "count"},
	{"pagetable.direct_pages", "count"}, {"pagetable.pages_per_inv", "pages/inv"},

	{"sim.cpu_share", "share"}, {"sim.alloc_share", "share"},
	{"sim.events_per_inv", "events/inv"}, {"sim.shard_windows", "count"},
	{"sim.shard_messages", "count"}, {"sim.events_per_window", "events/window"},
	{"sim.shard_speedup", "x"},

	{"obs.cpu_share", "share"}, {"obs.alloc_share", "share"},
	{"obs.spans_per_inv", "spans/inv"}, {"obs.recorder_samples", "count"},
	{"obs.series", "count"}, {"obs.gather_ms", "ms"},
	{"obs.analyze_ms", "ms"}, {"obs.chrome_export_ms", "ms"},
	{"alert.cpu_share", "share"}, {"alert.evals", "count"}, {"alert.fired", "count"},

	{"mem.cpu_share", "share"}, {"mem.alloc_share", "share"},
	{"mem.fetches", "count"}, {"mem.pages_fetched", "count"},
	{"mem.batch_fetches", "count"}, {"mem.retries", "count"},
	{"mem.fault_failures", "count"}, {"mem.fetch_exhausted", "count"},
	{"mem.retry_ratio", "ratio"},
	{"fault.cpu_share", "share"}, {"fault.injected", "count"},

	{"prefetch.cpu_share", "share"}, {"prefetch.alloc_share", "share"},
	{"prefetch.launches", "count"}, {"prefetch.batches", "count"},
	{"prefetch.pages", "count"}, {"prefetch.hit_ratio", "ratio"},
	{"prefetch.promoted_pages", "count"},

	{"snapshot.cpu_share", "share"}, {"snapshot.alloc_share", "share"},
	{"mmtemplate.cpu_share", "share"}, {"mmtemplate.attaches", "count"},
	{"mmtemplate.sharing_factor", "mm/template"}, {"faas.register_ms", "ms"},

	{"sandbox.cpu_share", "share"}, {"sandbox.repurpose_ratio", "ratio"},
	{"core.cpu_share", "share"}, {"core.alloc_share", "share"},

	{"faas.cpu_share", "share"}, {"faas.alloc_share", "share"},
	{"faas.warm_hits", "count"}, {"faas.cold_starts", "count"},
	{"faas.repurposes", "count"}, {"faas.restores", "count"},
	{"faas.evictions", "count"}, {"faas.errors", "count"},
	{"faas.fallbacks", "count"}, {"faas.warm_ratio", "ratio"},

	{"cluster.cpu_share", "share"}, {"cluster.alloc_share", "share"},
	{"cluster.dispatched", "count"}, {"cluster.hedged", "count"},
	{"cluster.hedge_wins", "count"}, {"cluster.hedge_win_ratio", "ratio"},
	{"cluster.extra_attempt_ratio", "ratio"}, {"cluster.cancelled", "count"},
	{"cluster.redispatched", "count"}, {"cluster.spillovers", "count"},
	{"cluster.wedged", "count"},

	{"workload.cpu_share", "share"}, {"workload.trace_gen_ms", "ms"},
	{"osproc.cpu_share", "share"}, {"gc.cpu_share", "share"},
	{"bench.trace_overhead_frac", "ratio"}, {"bench.profile_samples", "count"},
}

// summary is one workload's self-check outcome and metrics.
type summary struct {
	correct           bool
	attempted, failed int
	endToEnd          map[string]metric
	// perLayer comes from the profiled pass; without one, from the first
	// measured rep, which carries the simulated results and the counts
	// but no profile shares or export timers.
	perLayer map[string]metric
}

// summarize self-checks every rep of one workload and computes its
// metrics. A rep fails its self-check when it settled a different number
// of invocations than its trace holds, left any wedged, or produced a
// digest that differs from the run's reference: the fleet's one-worker
// rep, else the first measured rep. Every invocation of a failed rep
// counts as failed; otherwise failures are the invocations that ended in
// an error, a missed deadline or an exhausted re-dispatch budget.
func summarize(m *measured, stderr io.Writer) summary {
	s := summary{correct: len(m.reps) > 0, endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
	if !s.correct {
		return s
	}
	want := m.reps[0].Digest
	if m.ref != nil {
		want = m.ref.Digest
	}
	all := append([]*rep{}, m.reps...)
	for _, r := range []*rep{m.ref, m.traced} {
		if r != nil {
			all = append(all, r)
		}
	}
	for _, r := range all {
		s.attempted += r.Invocations
		var why string
		switch {
		case r.Settled != r.Invocations:
			why = fmt.Sprintf("settled %d of %d invocations", r.Settled, r.Invocations)
		case r.Wedged != 0:
			why = fmt.Sprintf("%d wedged invocations", r.Wedged)
		case r.Digest != want:
			why = fmt.Sprintf("digest %s differs from reference %s", r.Digest, want)
		}
		if why != "" {
			fmt.Fprintf(stderr, "bench: %s rep (workers %d) fails its self-check: %s\n", m.def.name, r.Workers, why)
			s.correct = false
			s.failed += r.Invocations
		} else {
			s.failed += r.Failed
		}
	}

	walls := make([]float64, len(m.reps))
	for i, r := range m.reps {
		walls[i] = r.WallS
	}
	for _, e := range endToEnd {
		vals := make([]float64, len(m.reps))
		for i, r := range m.reps {
			vals[i] = e.of(r)
		}
		s.endToEnd[e.name] = metric{median(vals), e.unit}
	}

	src := m.traced
	if src == nil {
		src = m.reps[0]
	}
	layer := map[string]float64{}
	for k, v := range src.Layer {
		layer[k] = v
	}
	if m.traced != nil {
		layer["bench.trace_overhead_frac"] = ratio(m.traced.WallS, median(walls)) - 1
	}
	if m.ref != nil {
		layer["sim.shard_speedup"] = ratio(m.ref.WallS, median(walls))
	}
	for _, p := range perLayer {
		s.perLayer[p.name] = metric{layer[p.name], p.unit}
	}
	return s
}

// report prints every workload's result, metrics by name and unit on
// stderr and the JSON object on stdout, and returns the exit code: 1 when
// any rep failed its self-check. The JSON object holds the end-to-end
// metrics, or with traced the per-layer ones. With one workload it is the
// last line; with several, each line is "<workload> <json>".
func report(ms []*measured, traced bool, stdout, stderr io.Writer) int {
	code := 0
	w := bufio.NewWriter(stdout)
	for _, m := range ms {
		s := summarize(m, stderr)
		if !s.correct {
			code = 1
		}
		fmt.Fprintf(stderr, "%s: %d reps, attempted %d, failed %d, correct %v\n",
			m.def.name, len(m.reps), s.attempted, s.failed, s.correct)
		printMetrics(stderr, s.endToEnd, "")
		if traced {
			printMetrics(stderr, s.perLayer, "")
		} else {
			printMetrics(stderr, s.perLayer, "sim_")
		}
		res := result{Correct: s.correct, Attempted: s.attempted, Failed: s.failed, Metrics: s.endToEnd}
		if traced {
			res.Metrics = s.perLayer
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if len(ms) > 1 {
			fmt.Fprintf(w, "%s ", m.def.name)
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return code
}

// printMetrics prints the metrics whose names start with prefix, sorted.
func printMetrics(w io.Writer, ms map[string]metric, prefix string) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// median returns the median of vals (0 when empty).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// probeRefSeconds is the median probe time on the reference host, the
// one the README's baselines were recorded on.
const probeRefSeconds = 0.0016

// refSeconds converts a host time measured in rep r into reference
// seconds: the time it would have taken on a host where the probe runs
// in probeRefSeconds. A slow phase of a shared host slows the probes that
// ran alongside the rep as well, so it cancels out.
func refSeconds(s float64, r *rep) float64 {
	return s * ratio(probeRefSeconds, r.ProbeS)
}

// speedProbe samples the host's speed while children run: every
// probeGap it times a fixed, allocation-free piece of pointer chasing,
// memory sweeping and sorting that uses only the standard library, so no
// change to the simulator can change it. At about 1.6 ms per 50 ms it
// takes 3% of one core.
type speedProbe struct {
	mu      sync.Mutex
	samples []probeSample
	stop    chan struct{}
	done    chan struct{}
}

type probeSample struct {
	at  time.Time
	dur float64
}

const probeGap = 50 * time.Millisecond

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	w := newProbeWork()
	go func() {
		defer close(p.done)
		for {
			d := w.run()
			p.mu.Lock()
			p.samples = append(p.samples, probeSample{time.Now(), d})
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-time.After(probeGap):
			}
		}
	}()
	return p
}

// close stops the probe and waits for it to exit.
func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

// median returns the median probe time over [from, to], or the latest
// probe time when none fell inside.
func (p *speedProbe) median(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ds []float64
	for _, s := range p.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			ds = append(ds, s.dur)
		}
	}
	if len(ds) == 0 && len(p.samples) > 0 {
		return p.samples[len(p.samples)-1].dur
	}
	return median(ds)
}

// probeWork is the probe's fixed work: a random cycle through 8 Ki nodes
// reading a 1 MiB buffer, a sweep writing the buffer, and a sort.
type probeWork struct {
	nodes      []probeNode
	buf        []byte
	keys, sort []int
	sink       int
}

type probeNode struct {
	next *probeNode
	key  int
	_    [6]int64
}

func newProbeWork() *probeWork {
	rng := rand.New(rand.NewSource(1))
	w := &probeWork{
		nodes: make([]probeNode, 1<<13),
		buf:   make([]byte, 1<<20),
		keys:  make([]int, 2048),
		sort:  make([]int, 2048),
	}
	perm := rng.Perm(len(w.nodes))
	for i := range w.nodes {
		w.nodes[perm[i]].next = &w.nodes[perm[(i+1)%len(w.nodes)]]
		w.nodes[i].key = rng.Intn(len(w.buf))
	}
	for i := range w.keys {
		w.keys[i] = rng.Int()
	}
	return w
}

func (w *probeWork) run() float64 {
	t0 := time.Now()
	n := &w.nodes[0]
	for i := 0; i < len(w.nodes); i++ {
		w.sink += int(w.buf[n.key])
		n = n.next
	}
	for i := range w.buf {
		w.buf[i] = byte(i)
	}
	copy(w.sort, w.keys)
	sort.Ints(w.sort)
	w.sink += w.sort[0]
	return time.Since(t0).Seconds()
}
