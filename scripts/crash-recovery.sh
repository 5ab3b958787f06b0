#!/bin/sh
# End-to-end crash recovery: kill battle_sim with SIGKILL mid-run, restart
# it with --restore, and require the final state (tick, population, CRC-32
# state digest, counters) to be bit-identical to an uninterrupted run.
# Then corrupt the newest checkpoint generation on disk and require
# recovery to detect it by checksum, fall back a generation, and *still*
# land on the identical final state via journal chain replay.  Finally,
# the crashed run's streamed flight-recorder dump must load (torn tail
# tolerated) and its last record must sit on the journal's last committed
# tick (or one behind it: the kill can land between journal commit and
# the flight write of the same step).
#
# Every leg runs twice: once with resurrection (the population is
# rewritten in place) and once with --no-resurrect (Remove deaths shrink
# it), so recovery is checked under both death rules and across
# checkpoints whose unchanged rows are shared between ticks.
#
# Final states are compared through --summary-json, not by grepping the
# human-readable output.
#
# Usage: scripts/crash-recovery.sh [checkpoint-dir]
# The directory (default: a fresh ./crash-recovery-ckpt) is left in place
# on failure so CI can upload it for post-mortem.
set -eu

cd "$(dirname "$0")/.."

DIR="${1:-crash-recovery-ckpt}"
UNITS=300
TICKS=40
EVERY=10
BASE_ARGS="--units $UNITS --ticks $TICKS --evaluator indexed --seed 7 --checkpoint-every $EVERY"

SIM="_build/default/bin/battle_sim.exe"
[ -x "$SIM" ] || dune build bin/battle_sim.exe

fail() {
  echo "crash-recovery: FAIL: $*" >&2
  exit 1
}

# Compare two summary documents field by field, ignoring wall-clock noise.
same_summary() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
for k in ("elapsed_s", "ticks_per_s"):
    a.pop(k, None)
    b.pop(k, None)
if a != b:
    print("reference: %r" % a, file=sys.stderr)
    print("recovered: %r" % b, file=sys.stderr)
    sys.exit(1)
EOF
}

describe_summary() {
  python3 - "$1" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
print("   tick=%d units=%d digest=%s deaths=%d resurrections=%d"
      % (s["tick"], s["units"], s["digest"], s["deaths"], s["resurrections"]))
EOF
}

# All legs for one death rule; $1 is extra battle_sim arguments, $2 a label.
legs() {
ARGS="$BASE_ARGS $1"
rm -rf "$DIR" crash-flight.dump
echo "=== death rule: $2"

# --- Leg 1: the uninterrupted reference run -------------------------------
echo "== reference run ($TICKS ticks, no interruption)"
"$SIM" $ARGS --summary-json ref-summary.json > ref.out 2>&1
describe_summary ref-summary.json

# --- Leg 2: kill -9 mid-run, then restore ---------------------------------
echo "== crashed run (SIGKILL mid-flight, flight recorder streaming)"
"$SIM" $ARGS --checkpoint-dir "$DIR" --sleep-ms 30 \
    --dump-flight crash-flight.dump > crash.out 2>&1 &
PID=$!
# let it commit a couple of checkpoint generations, then pull the plug
sleep 1.2
kill -9 "$PID" 2>/dev/null || fail "the victim exited before the kill; raise --sleep-ms"
wait "$PID" 2>/dev/null || true
ls "$DIR"/ckpt-*.sglc >/dev/null 2>&1 || fail "no checkpoint generation reached the disk"
echo "   killed pid $PID; directory holds: $(ls "$DIR" | tr '\n' ' ')"

echo "== restore and run to completion"
"$SIM" $ARGS --checkpoint-dir "$DIR" --restore \
    --summary-json restore-summary.json > restore.out 2>&1
grep '^restored:' restore.out || fail "restore did not report recovery"
describe_summary restore-summary.json
same_summary ref-summary.json restore-summary.json \
  || fail "recovered final state differs from the uninterrupted run"
echo "   bit-identical to the reference"

# --- Leg 3: the flight dump left by the SIGKILL ---------------------------
echo "== flight recorder dump left by the crash"
[ -f crash-flight.dump ] || fail "crashed run left no flight dump"
"$SIM" --print-flight crash-flight.dump > flight-summary.json \
  || fail "flight dump did not load"
python3 - flight-summary.json restore.out <<'EOF' \
  || fail "flight dump does not line up with the journal (see flight-summary.json)"
import json, re, sys
flight = json.load(open(sys.argv[1]))
m = re.search(r"restored: checkpoint tick=(\d+), replayed (\d+) journal tick",
              open(sys.argv[2]).read())
assert m, "no restored: line to recover the journal position from"
committed = int(m.group(1)) + int(m.group(2))
assert flight["records"] > 0, "flight dump holds no records"
# the observer runs after journal commit inside the same step, so the
# last flight record is the last committed tick, or one behind it when
# the kill lands inside that window
assert flight["last_tick"] in (committed, committed - 1), (
    "flight last_tick=%d vs journal last committed tick=%d"
    % (flight["last_tick"], committed))
assert flight["last"]["tick"] == flight["last_tick"]
print("   flight: %d record(s)%s, last_tick=%d, journal committed tick=%d"
      % (flight["records"],
         " (torn tail)" if flight["torn"] else "",
         flight["last_tick"], committed))
EOF

# --- Leg 4: corrupt the newest generation; checksum must catch it ---------
echo "== corrupted newest checkpoint generation"
NEWEST="$(ls "$DIR"/ckpt-*.sglc | sort | tail -n 1)"
# stomp 4 bytes mid-file; the section CRC must reject the generation
printf 'XXXX' | dd of="$NEWEST" bs=1 seek=60 conv=notrunc 2>/dev/null
"$SIM" $ARGS --checkpoint-dir "$DIR" --restore \
    --summary-json corrupt-summary.json > corrupt.out 2>&1
grep '^restored:' corrupt.out | grep 'fell back past' \
  || fail "corrupt generation was not detected/skipped (see corrupt.out)"
describe_summary corrupt-summary.json
same_summary ref-summary.json corrupt-summary.json \
  || fail "post-corruption recovery diverged from the uninterrupted run"
echo "   checksum caught the damage; fallback + journal replay matched the reference"
}

legs "" "resurrect"
legs "--no-resurrect" "remove"

rm -rf "$DIR" ref.out crash.out restore.out corrupt.out crash-flight.dump \
  ref-summary.json restore-summary.json corrupt-summary.json flight-summary.json
echo "crash-recovery: OK"
