// Command trenv-bench regenerates the paper's tables and figures on the
// simulated substrate and prints them in paper-style rows.
//
// Usage:
//
//	trenv-bench [-exp table1,fig17,...|all] [-seed N] [-scale F]
//	            [-json] [-trace out.json] [-timeseries out.json]
//	            [-analyze report.json] [-flame out.folded]
//	            [-report bundle.json] [-report-lean]
//	            [-chaos spec] [-prefetch] [-alerts out.json] [-rules spec]
//	            [-hedge spec] [-shards N]
//	trenv-bench -version
//
// -json prints the results as a JSON array instead of paper-style text;
// -trace collects every invocation's span tree during the runs and
// writes them as Chrome trace-event JSON (open in chrome://tracing or
// Perfetto); -timeseries samples the trace-driven figure runs into
// utilization-over-time series and writes them as JSON (or CSV when
// the filename ends in .csv); -analyze writes the trace-analytics
// report (top-k slowest invocations with critical paths, per-function
// phase attribution, tail-vs-median diffs) as JSON; -flame writes the
// recorded spans as folded flamegraph stacks (flamegraph.pl /
// speedscope compatible). Same-seed runs write byte-identical
// time-series, analysis, and flamegraph files.
//
// -report writes the schema-stable trenv-report/v1 run bundle: the
// run's identity (seed, scale, flags, build version), every figure's
// rendered rows, per-run end-state metrics and sampled series, trace
// analytics, and the flattened virtual-time-ordered span list. Bundles
// are what cmd/trenv-diff compares; same-seed runs write byte-identical
// bundles. -report-lean shrinks the bundle to committed-baseline size
// (spans and sampled series omitted).
//
// -alerts attaches the alert engine to every run (one engine per run,
// evaluated on the virtual clock at each flight-recorder sample) and
// writes the per-run alert states, incidents, and transition timelines
// as JSON; -rules overrides the built-in rule set with a compact spec
// or @file (grammar in internal/alert). Alerts also embed in -report
// bundles, where cmd/trenv-diff compares them against a baseline.
// Same-seed runs write byte-identical alert JSON.
//
// -hedge arms a request-hedging policy on the availability
// experiment's rack, the only experiment that reads it; the "hedging"
// experiment races its own fixed policies. Every bundle still records
// the flag as part of the run's identity.
//
// -chaos and -prefetch reach the single-node figure runs: fig17,
// fig18, fig20 and fig22. The rack experiments (availability, hedging,
// incidents, prefetch) build their own racks, chaos schedules and
// prefetch settings and ignore both flags. Every bundle still records
// them as part of the run's identity.
//
// -shards sets the worker parallelism for sharded-fleet experiment
// runs (the "sharding" experiment executes its reference run at that
// count and checks it against the fixed worker-count sweep); every
// emitted line is invariant of the flag. The simulator's own
// wall-clock cost is measured by the bench module (bench/run.sh), not
// by this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	trenv "repro"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs (table1..fig26) or 'all'")
	seed := flag.Int64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 1.0, "workload scale (1.0 = paper scale)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	out := flag.String("out", "", "also write the output to this file")
	tracePath := flag.String("trace", "", "write invocation spans as Chrome trace JSON to this file")
	tsPath := flag.String("timeseries", "", "write per-run metric time series to this file (.csv for CSV, else JSON)")
	analyzePath := flag.String("analyze", "", "write the trace-analytics report as JSON to this file")
	flamePath := flag.String("flame", "", "write recorded spans as folded flamegraph stacks to this file")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of text")
	chaosSpec := flag.String("chaos", "", "fault-injection spec applied to the fig17, fig18, fig20 and fig22 runs (the rack experiments ignore it), e.g. 'outage:cxl:10s-20s,flaky:rdma:0.2:burst=3,crash:n1:30s'")
	alertsPath := flag.String("alerts", "", "attach the alert engine to every run and write per-run alert states, incidents, and timelines as JSON to this file")
	rulesSpec := flag.String("rules", "", "with -alerts or -report: alerting rules as a compact spec or @file (empty = built-in default set)")
	prefetch := flag.Bool("prefetch", false, "enable working-set prefetching on the TrEnv platforms of the fig17, fig18, fig20 and fig22 runs (the rack experiments ignore it)")
	hedgeSpec := flag.String("hedge", "", "request-hedging policy armed on the availability experiment's rack, e.g. 'delay:50ms', 'p95', 'clone:2' (see README for the grammar)")
	shards := flag.Int("shards", 0, "worker parallelism for sharded-fleet experiment runs (0 = sequential; all outputs are invariant of it)")
	reportPath := flag.String("report", "", "write the schema-stable trenv-report/v1 run bundle (figures, metrics, series, spans, analysis) to this file")
	reportLean := flag.Bool("report-lean", false, "with -report: omit spans and sampled series, producing a committed-baseline-sized bundle")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Printf("trenv-bench %s %s %s/%s\n", trenv.Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}

	var tee io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trenv-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tee = io.MultiWriter(os.Stdout, f)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintln(tee, e.ID)
		}
		return
	}
	o := experiments.Options{Seed: *seed, Scale: *scale, Prefetch: *prefetch, Shards: *shards}
	if *tracePath != "" || *analyzePath != "" || *flamePath != "" || *reportPath != "" {
		o.Tracer = obs.NewTracer(0)
	}
	if *tsPath != "" || *reportPath != "" {
		o.Recorders = obs.NewRecorderSet(0, 0)
	}
	if *chaosSpec != "" {
		sc, err := fault.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trenv-bench: -chaos: %v\n", err)
			os.Exit(2)
		}
		o.Chaos = &sc
	}
	if *hedgeSpec != "" {
		hp, err := trenv.ParseHedgePolicy(*hedgeSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trenv-bench: -hedge: %v\n", err)
			os.Exit(2)
		}
		if hp.Enabled() {
			o.Hedge = &hp
		}
	}
	if *alertsPath != "" || *rulesSpec != "" {
		rules := trenv.DefaultAlertRules()
		if *rulesSpec != "" {
			var err error
			rules, err = trenv.LoadAlertRules(*rulesSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trenv-bench: -rules: %v\n", err)
				os.Exit(2)
			}
		}
		o.Alerts = trenv.NewAlertSet(rules)
		if o.Recorders == nil {
			// Alert evaluation rides the flight-recorder sampler.
			o.Recorders = obs.NewRecorderSet(0, 0)
		}
	}
	var ids []string
	if *exp == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	var results []*experiments.Result
	for _, id := range ids {
		run, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "trenv-bench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		r := run(o)
		results = append(results, r)
		if !*jsonOut {
			fmt.Fprintln(tee, r)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(tee)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "trenv-bench: encode results: %v\n", err)
			os.Exit(1)
		}
	}
	if *tracePath != "" {
		writeOut(*tracePath, "trace", func(w io.Writer) error { return obs.WriteChromeTrace(w, o.Tracer.Spans()) })
		fmt.Fprintf(os.Stderr, "trenv-bench: wrote %d spans (%d dropped) to %s\n",
			o.Tracer.Len(), o.Tracer.Dropped(), *tracePath)
	}
	if *analyzePath != "" {
		rep := obs.Analyze(o.Tracer.Spans(), 0)
		writeOut(*analyzePath, "analysis", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		fmt.Fprintf(os.Stderr, "trenv-bench: wrote analysis of %d invocations to %s\n",
			rep.Invocations, *analyzePath)
	}
	if *flamePath != "" {
		writeOut(*flamePath, "flame", func(w io.Writer) error { return obs.WriteFolded(w, o.Tracer.Spans()) })
		fmt.Fprintf(os.Stderr, "trenv-bench: wrote folded stacks to %s\n", *flamePath)
	}
	if *tsPath != "" {
		write := o.Recorders.WriteJSON
		if strings.HasSuffix(*tsPath, ".csv") {
			write = o.Recorders.WriteCSV
		}
		writeOut(*tsPath, "timeseries", write)
		fmt.Fprintf(os.Stderr, "trenv-bench: wrote time series for %d runs to %s\n",
			o.Recorders.Runs(), *tsPath)
	}
	if *alertsPath != "" {
		writeOut(*alertsPath, "alerts", o.Alerts.WriteJSON)
		fmt.Fprintf(os.Stderr, "trenv-bench: wrote alert states for %d runs to %s\n",
			o.Alerts.Runs(), *alertsPath)
	}
	if *reportPath != "" {
		rep := experiments.BuildReport(ids, o, results, *reportLean)
		if err := rep.WriteFile(*reportPath); err != nil {
			fmt.Fprintf(os.Stderr, "trenv-bench: write report: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trenv-bench: wrote run bundle (%d figures, %d metrics, %d series, %d spans) to %s\n",
			len(rep.Figures), len(rep.Metrics), len(rep.Series), len(rep.Spans), *reportPath)
	}
}

// writeOut creates path and fills it with write, exiting 1 with a
// message naming what if creating, writing or closing the file fails.
func writeOut(path, what string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trenv-bench: %v\n", err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "trenv-bench: write %s: %v\n", what, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "trenv-bench: close %s: %v\n", what, err)
		os.Exit(1)
	}
}
