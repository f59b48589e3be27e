package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

// writeBundle renders r into dir under name and returns the path.
func writeBundle(t *testing.T, dir, name string, r *report.Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI drives the CLI in-process and returns exit code plus output.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// bundle builds a small span-carrying report.
func bundle() *report.Report {
	r := report.New("test", 1, 1)
	r.Metrics = []report.Metric{{Key: "trenv_errors_total", Name: "trenv_errors_total", Value: 1}}
	r.Spans = []report.SpanRecord{
		{TraceID: "t1", SpanID: "s1", Name: "invoke/JS", Node: "n0", StartUs: 0, DurUs: 500},
		{TraceID: "t2", SpanID: "s2", Name: "invoke/PR", Node: "n0", StartUs: 100, DurUs: 900},
	}
	return r
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeBundle(t, dir, "base.json", bundle())

	t.Run("identical-is-zero", func(t *testing.T) {
		code, out, _ := runCLI(base, base)
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, out)
		}
		if !strings.Contains(out, "0 findings") {
			t.Fatalf("summary lacks zero-findings line:\n%s", out)
		}
	})

	t.Run("regression-is-one", func(t *testing.T) {
		bad := bundle()
		bad.Metrics[0].Value = 5
		fresh := writeBundle(t, dir, "bad.json", bad)
		code, out, _ := runCLI(base, fresh)
		if code != 1 {
			t.Fatalf("exit %d, want 1:\n%s", code, out)
		}
		if !strings.Contains(out, "trenv_errors_total") || !strings.Contains(out, "REGRESSED") {
			t.Fatalf("summary lacks the finding:\n%s", out)
		}
	})

	t.Run("divergence-is-one-and-named", func(t *testing.T) {
		bad := bundle()
		bad.Spans[1].DurUs++
		fresh := writeBundle(t, dir, "diverged.json", bad)
		code, out, _ := runCLI(base, fresh)
		if code != 1 {
			t.Fatalf("exit %d, want 1:\n%s", code, out)
		}
		if !strings.Contains(out, "first divergent span at index 1") ||
			!strings.Contains(out, "trace t2") {
			t.Fatalf("summary lacks the divergence diagnosis:\n%s", out)
		}
	})

	t.Run("usage-is-two", func(t *testing.T) {
		if code, _, _ := runCLI(base); code != 2 {
			t.Fatalf("one-arg exit = %d, want 2", code)
		}
		if code, _, _ := runCLI("-format", "yaml", base, base); code != 2 {
			t.Fatalf("bad format exit = %d, want 2", code)
		}
		if code, _, _ := runCLI(base, filepath.Join(dir, "nope.json")); code != 2 {
			t.Fatalf("unreadable exit = %d, want 2", code)
		}
	})

	t.Run("mismatch-is-three", func(t *testing.T) {
		other := bundle()
		other.Seed = 2
		fresh := writeBundle(t, dir, "reseeded.json", other)
		code, _, errOut := runCLI(base, fresh)
		if code != 3 {
			t.Fatalf("seed mismatch exit = %d, want 3:\n%s", code, errOut)
		}
		if !strings.Contains(errOut, "seed mismatch") {
			t.Fatalf("stderr lacks refusal reason:\n%s", errOut)
		}
	})
}

func TestToleranceFlag(t *testing.T) {
	dir := t.TempDir()
	base := writeBundle(t, dir, "base.json", bundle())
	bad := bundle()
	bad.Metrics[0].Value = 1.05
	bad.Spans = nil
	baseNoSpans := bundle()
	baseNoSpans.Spans = nil
	base = writeBundle(t, dir, "base2.json", baseNoSpans)
	fresh := writeBundle(t, dir, "drift.json", bad)
	if code, out, _ := runCLI(base, fresh); code != 1 {
		t.Fatalf("exact comparison accepted 5%% drift (exit %d):\n%s", code, out)
	}
	if code, out, _ := runCLI("-tol", "0.1", base, fresh); code != 0 {
		t.Fatalf("-tol 0.1 rejected 5%% drift (exit %d):\n%s", code, out)
	}
}

func TestJSONFormatDeterministic(t *testing.T) {
	dir := t.TempDir()
	base := writeBundle(t, dir, "base.json", bundle())
	bad := bundle()
	bad.Metrics[0].Value = 3
	fresh := writeBundle(t, dir, "bad.json", bad)
	_, a, _ := runCLI("-format", "json", base, fresh)
	_, b, _ := runCLI("-format", "json", base, fresh)
	if a != b {
		t.Fatalf("JSON output differs across runs:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, `"schema": "trenv-diff/v1"`) {
		t.Fatalf("JSON lacks result schema:\n%s", a)
	}
}

// TestSelfbenchArtifactsCompare pins the loader contract: only
// trenv-report/v1 bundles compare. A file of any other schema (retired
// wall-clock artifacts, diff results, other bundle layouts) exits 2 on
// either side, and a bundle from another source exits 3.
func TestSelfbenchArtifactsCompare(t *testing.T) {
	dir := t.TempDir()
	base := writeBundle(t, dir, "base.json", bundle())
	for _, schema := range []string{"trenv-diff/v1", "trenv-report/v0", "trenv-report/v2"} {
		path := filepath.Join(dir, "foreign.json")
		if err := os.WriteFile(path, []byte(`{"schema":"`+schema+`"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{path, base}, {base, path}} {
			code, _, errOut := runCLI(args...)
			if code != 2 {
				t.Fatalf("%s: exit %d, want 2:\n%s", schema, code, errOut)
			}
			if !strings.Contains(errOut, schema) {
				t.Fatalf("%s: stderr does not name the schema:\n%s", schema, errOut)
			}
		}
	}

	other := bundle()
	other.Source = "other"
	fresh := writeBundle(t, dir, "other.json", other)
	code, _, errOut := runCLI(base, fresh)
	if code != 3 {
		t.Fatalf("source mismatch exit = %d, want 3:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "source mismatch") {
		t.Fatalf("stderr lacks refusal reason:\n%s", errOut)
	}
}
