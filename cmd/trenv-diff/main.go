// Command trenv-diff compares two run artifacts and attributes the
// delta: per-metric deltas inside tolerance bands, per-function
// per-phase latency-attribution deltas, critical-path structural diffs,
// time-series divergence, figure-row diffs, and — for same-seed
// span-carrying pairs — determinism triage that names the first
// divergent span (trace ID, virtual time, phase, node) instead of
// "bytes differ".
//
// Usage:
//
//	trenv-diff [-tol F] [-abs-tol F] [-format text|json]
//	           baseline.json fresh.json
//	trenv-diff -version
//
// Both arguments are trenv-report/v1 bundles (trenv-bench -report,
// trenvd GET /report). Output is deterministic: diffing the same pair
// twice is byte-identical.
//
// Exit codes:
//
//	0  comparable and no regression
//	1  regression: a regressed/missing finding or a determinism
//	   divergence
//	2  usage error, unreadable file, malformed artifact, or a schema
//	   other than trenv-report/v1
//	3  artifacts refuse comparison (source, seed, or scale disagree)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	trenv "repro"
	"repro/internal/diff"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the comparison and returns the process exit code; main
// stays a one-liner so tests can drive the CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trenv-diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tol", 0, "relative tolerance band on metric/phase/series deltas (0 = exact, right for same-seed artifacts)")
	absTol := fs.Float64("abs-tol", 0, "absolute tolerance floor: deltas smaller than this are unchanged regardless of -tol")
	format := fs.String("format", "text", "output format: text or json")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "trenv-diff %s %s %s/%s\n", trenv.Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return 0
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "trenv-diff: bad -format %q (want text or json)\n", *format)
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: trenv-diff [flags] baseline.json fresh.json")
		fs.PrintDefaults()
		return 2
	}
	res, err := diff.CompareFiles(fs.Arg(0), fs.Arg(1), diff.Options{RelTol: *tol, AbsTol: *absTol})
	if err != nil {
		fmt.Fprintf(stderr, "trenv-diff: %v\n", err)
		var mismatch *diff.MismatchError
		if errors.As(err, &mismatch) {
			return 3
		}
		return 2
	}
	var werr error
	if *format == "json" {
		werr = res.WriteJSON(stdout)
	} else {
		werr = res.WriteText(stdout)
	}
	if werr != nil {
		fmt.Fprintf(stderr, "trenv-diff: write: %v\n", werr)
		return 2
	}
	if res.Regressed() {
		return 1
	}
	return 0
}
