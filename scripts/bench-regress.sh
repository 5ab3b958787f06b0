#!/bin/sh
# Bench regression gate: re-run every section of the newest BENCH_*.json
# (or the named baseline) and compare each row, matched on section +
# config, to it under one rule.  A gated "count" (deterministic work:
# index builds, reuses and probes, retries, journal bytes) fails the gate
# when worse at all, from a baseline of 0 too, as does a missing row or
# metric.  A "time" (wall clock) worse by more than the threshold (30%) in
# this run and in a second run of its section is reported, not gated: on a
# shared host two thirds of the timings, long windows too, read over 30%
# slow in some same-code pass (EXPERIMENTS.md, "One bench harness"), and
# an archived timing says little on another machine; benchmark/ times
# parent against change.
# scripts/bench-regress-skip.txt leaves out the times of the rows it names.
# Runs are left in bench.json (+ .metrics.json) and bench-confirm.json.
#
# Usage: scripts/bench-regress.sh [baseline.json] [threshold]
set -eu

cd "$(dirname "$0")/.."

BASELINE="${1:-$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -n 1)}"
THRESHOLD="${2:-0.30}"

[ -f "$BASELINE" ] || { echo "bench-regress: FAIL: no baseline BENCH_*.json" >&2; exit 1; }

run() { # run OUT SECTION...: the sections into the JSON file OUT
  out="$1" && shift
  _build/default/bench/main.exe "$@" --json "$out" > bench-regress.out 2>&1 \
    || { cat bench-regress.out >&2; echo "bench-regress: FAIL: bench run failed" >&2; exit 1; }
  rm -f bench-regress.out
}

# compare FRESH...: report on stderr, fail on a count; after one run, print
# the sections with a time over the threshold, to be run again
compare() {
  python3 - "$BASELINE" "$THRESHOLD" scripts/bench-regress-skip.txt "$@" <<'EOF'
import json, sys

baseline_path, threshold, skip_path, *fresh_paths = sys.argv[1:]
threshold = float(threshold)

def key(row):
    return (row["section"], tuple(sorted(row["config"].items())))

def label(row):
    return "%s[%s]" % (row["section"], ", ".join("%s=%s" % kv for kv in key(row)[1]))

say = lambda msg: print("bench-regress: " + msg, file=sys.stderr)

# skip file: one entry per line, `section` or `section key=value ...`;
# an entry leaves out the times of rows of that section whose config
# matches every pair
skips = []
for line in open(skip_path):
    parts = line.split("#", 1)[0].split()
    if parts:
        skips.append((parts[0], dict(p.split("=", 1) for p in parts[1:])))

def time_skipped(row):
    return any(
        row["section"] == section and all(row["config"].get(k) == v for k, v in pairs.items())
        for section, pairs in skips
    )

def worse(better, b, f):
    d = f - b if better == "lower" else b - f
    return d / abs(b) if b else (float("inf") if d > 0 else 0.0)

runs = [{key(r): r for r in json.load(open(p))["rows"]} for p in fresh_paths]
failures, slow, rows, counts = [], [], 0, 0

for base in json.load(open(baseline_path))["rows"]:
    if key(base) not in runs[0]:
        failures.append("%s: row missing from the fresh run" % label(base))
        continue
    rows += 1
    for name, m in base["metrics"].items():
        if "better" not in m or (m["kind"] == "time" and time_skipped(base)):
            continue
        got = [run[key(base)]["metrics"].get(name, {}).get("value") for run in runs if key(base) in run]
        if None in got:
            failures.append("%s: %s missing from the fresh run" % (label(base), name))
            continue
        # a count must hold in every run; a time is slow only if slow in each
        w = (max if m["kind"] == "count" else min)(worse(m["better"], m["value"], f) for f in got)
        msg = "%s: %s %.4g -> %s (%.0f%% worse)" % (
            label(base), name, m["value"], " / ".join("%.4g" % f for f in got), w * 100.0)
        if m["kind"] == "count":
            counts += 1
            if w > 0.0:
                failures.append(msg)
        elif w > threshold:
            slow.append((base["section"], msg))

for section, msg in slow:
    say(("time over the threshold once: " if len(runs) == 1 else "TIME (not gating): ") + msg)
say("%d row(s), %d count(s) compared" % (rows, counts))
for f in failures:
    say("REGRESSION: " + f)
if failures:
    sys.exit(1)
elif len(runs) == 1:
    print(" ".join(dict.fromkeys(section for section, _ in slow)))
else:
    say("OK (no count got worse; times above are reported, not gated)")
EOF
}

SECTIONS="$(python3 -c "import json, sys
print(' '.join(dict.fromkeys(r['section'] for r in json.load(open(sys.argv[1]))['rows'])))" "$BASELINE")"

echo "bench-regress: baseline $BASELINE, sections: $SECTIONS, threshold $THRESHOLD"
dune build bench/main.exe
rm -f bench-confirm.json
# shellcheck disable=SC2086 # one argument per section
run bench.json $SECTIONS
AGAIN="$(compare bench.json)"
[ -n "$AGAIN" ] || { echo "bench-regress: OK (no count got worse, no time over the threshold)"; exit 0; }
echo "bench-regress: running again: $AGAIN"
# shellcheck disable=SC2086
run bench-confirm.json $AGAIN
compare bench.json bench-confirm.json
