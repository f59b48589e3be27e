#!/usr/bin/env sh
# Documentation drift checks, run in CI:
#   1. every internal package (and the root package) carries a godoc
#      package comment ("// Package <name> ...");
#   2. every HTTP route cmd/trenvd registers appears in README.md's
#      endpoint table;
#   3. every flag cmd/trenv-bench defines appears in EXPERIMENTS.md's
#      flag table;
#   4. README.md's trenvd flag list (the "Flags:" paragraph of its
#      trenvd section) names, in backquotes, exactly the flags
#      cmd/trenvd defines, and every trenv-bench flag appears in
#      README.md's trenv-bench flag table;
#   5. every flag cmd/trenv-trace defines appears in its own command
#      comment (the godoc usage block);
#   6. every flag cmd/trenv-diff defines appears in README.md's
#      trenv-diff flag table;
#   7. ARCHITECTURE.md carries the "Engine internals & sharding"
#      chapter and the shard-count-invariance determinism paragraph;
#   8. every committed BENCH_*.json baseline (each a lean
#      trenv-report/v1 bundle that trenv-diff gates) and every
#      BENCH_*.sha256 output pin appears in EXPERIMENTS.md's
#      "Regenerating baselines" section;
#   9. the `internal/<pkg>` rows of README.md's layout table and of
#      ARCHITECTURE.md's package map name exactly the directories under
#      internal/ (no package missing, none deleted, none twice).
# The simulator's host cost is not checked here: bench/ measures it.
# Exits non-zero listing everything that is missing.
set -eu

cd "$(dirname "$0")/.."
fail=0

for dir in internal/*/; do
    pkg=$(basename "$dir")
    if ! grep -l "^// Package $pkg " "$dir"*.go >/dev/null 2>&1; then
        echo "missing package comment: $dir (want '// Package $pkg ...')" >&2
        fail=1
    fi
done
if ! grep -q "^// Package trenv " trenv.go; then
    echo "missing package comment on the root facade (trenv.go)" >&2
    fail=1
fi
for dir in cmd/*/; do
    if ! grep -qh "^// Command $(basename "$dir") " "$dir"*.go; then
        echo "missing command comment: $dir (want '// Command $(basename "$dir") ...')" >&2
        fail=1
    fi
done

endpoints=$(sed -n 's/.*mux.HandleFunc("\(GET\|POST\) \([^"]*\)".*/\1 \2/p' cmd/trenvd/main.go | sort -u)
[ -n "$endpoints" ] || { echo "found no routes in cmd/trenvd/main.go" >&2; exit 1; }
echo "$endpoints" | while read -r method path; do
    if ! grep -q "\`$method $path\`" README.md; then
        echo "trenvd endpoint undocumented in README.md: $method $path" >&2
        touch .docs-check-failed
    fi
done

flags=$(sed -n 's/.*flag\.\(Bool\|String\|Int64\|Int\|Float64\|Duration\)("\([a-z-]*\)".*/\2/p' cmd/trenv-bench/main.go | sort -u)
[ -n "$flags" ] || { echo "found no flags in cmd/trenv-bench/main.go" >&2; exit 1; }
for f in $flags; do
    case "$f" in list) continue ;; esac # -list is usage plumbing, not an experiment knob
    if ! grep -q -- "-$f" EXPERIMENTS.md; then
        echo "trenv-bench flag undocumented in EXPERIMENTS.md: -$f" >&2
        fail=1
    fi
done
for f in $flags; do
    case "$f" in list) continue ;; esac
    if ! grep -q -- "\`-$f" README.md; then
        echo "trenv-bench flag undocumented in README.md: -$f" >&2
        fail=1
    fi
done

dflags=$(sed -n 's/.*flag\.\(Bool\|String\|Int64\|Int\|Float64\|Duration\)("\([a-z-]*\)".*/\2/p' cmd/trenvd/main.go | sort -u)
[ -n "$dflags" ] || { echo "found no flags in cmd/trenvd/main.go" >&2; exit 1; }
# Each backquoted -name in the list counts, "`-hedge-policy delay:50ms`"
# included, so an example cannot name a flag the daemon dropped.
listed=$(awk '/^### trenvd HTTP API/ { s = 1 } s && /^Flags:/ { p = 1 } p && /^$/ { exit } p' README.md |
    grep -o '`-[a-z][a-z-]*' | sed 's/^`-//' | sort -u)
[ -n "$listed" ] || { echo "found no trenvd Flags: list in README.md" >&2; exit 1; }
for f in $dflags; do
    if ! echo "$listed" | grep -qx -- "$f"; then
        echo "trenvd flag missing from README.md's trenvd flag list: -$f" >&2
        fail=1
    fi
done
for f in $listed; do
    if ! echo "$dflags" | grep -qx -- "$f"; then
        echo "README.md's trenvd flag list names -$f, which cmd/trenvd does not define" >&2
        fail=1
    fi
done

tflags=$(sed -n 's/.*flag\.\(Bool\|String\|Int64\|Int\|Float64\|Duration\)("\([a-z-]*\)".*/\2/p' cmd/trenv-trace/main.go | sort -u)
[ -n "$tflags" ] || { echo "found no flags in cmd/trenv-trace/main.go" >&2; exit 1; }
for f in $tflags; do
    if ! grep "^//" cmd/trenv-trace/main.go | grep -q -- "-$f"; then
        echo "trenv-trace flag undocumented in its command comment: -$f" >&2
        fail=1
    fi
done

# trenv-diff declares flags on a flag.FlagSet (fs.Float64 etc.), so the
# pattern matches any receiver, not just the package-level flag.X form.
gflags=$(sed -n 's/.*\.\(Bool\|String\|Int64\|Int\|Float64\|Duration\)("\([a-z-]*\)".*/\2/p' cmd/trenv-diff/main.go | sort -u)
[ -n "$gflags" ] || { echo "found no flags in cmd/trenv-diff/main.go" >&2; exit 1; }
for f in $gflags; do
    if ! grep -q -- "\`-$f" README.md; then
        echo "trenv-diff flag undocumented in README.md: -$f" >&2
        fail=1
    fi
done

for heading in '## Engine internals & sharding' '### The scheduler contract' '### Shards, horizons, and the exchange'; do
    if ! grep -q "^$heading" ARCHITECTURE.md; then
        echo "ARCHITECTURE.md missing section: $heading" >&2
        fail=1
    fi
done
if ! grep -q 'shard-count' ARCHITECTURE.md; then
    echo "ARCHITECTURE.md determinism contract missing the shard-count-invariance paragraph" >&2
    fail=1
fi

if ! grep -q '^## Regenerating baselines' EXPERIMENTS.md; then
    echo "EXPERIMENTS.md missing section: ## Regenerating baselines" >&2
    fail=1
fi
for b in BENCH_*.json BENCH_*.sha256; do
    [ -e "$b" ] || continue
    if ! grep -q "$b" EXPERIMENTS.md; then
        echo "committed baseline undocumented in EXPERIMENTS.md: $b" >&2
        fail=1
    fi
done

pkgs=$(for d in internal/*/; do basename "$d"; done | sort)
for doc in README.md ARCHITECTURE.md; do
    rows=$(sed -n 's/^| `internal\/\([^`/]*\)`.*/\1/p' "$doc" | sort)
    [ "$rows" = "$pkgs" ] && continue
    for pkg in $pkgs; do
        if ! echo "$rows" | grep -qx "$pkg"; then
            echo "$doc package table has no row for internal/$pkg" >&2
        fi
    done
    for pkg in $(echo "$rows" | uniq); do
        if [ ! -d "internal/$pkg" ]; then
            echo "$doc package table lists internal/$pkg, which does not exist" >&2
        fi
    done
    for pkg in $(echo "$rows" | uniq -d); do
        echo "$doc package table lists internal/$pkg twice" >&2
    done
    fail=1
done

if [ -e .docs-check-failed ]; then
    rm -f .docs-check-failed
    fail=1
fi
exit $fail
