#!/bin/sh
# The reference fingerprint of the paper's battle: 12 000 units, 40 ticks,
# seed 42.  Every evaluator, fault policy and index-cache setting must
# end on the same state digest with the same deaths and resurrections; a
# change that moves any of them changed the simulation, not just its speed.
#
# Every leg must also do the reference work: the same number of index
# probes, and with the cross-tick index cache on the same index builds
# and cache reuses (with --no-index-cache: the same builds, no reuses).
# A change that moves these changed what the engine computes to reach
# the state, which the state digest alone cannot show.
#
# Usage: scripts/battle-fingerprint.sh [leg ...]   (default: indexed fused)
#
# A leg is an evaluator name, optionally followed by further battle_sim
# flags in the same argument, e.g. "indexed --fault-policy quarantine".
# The work counters are the indexed engine's, so a leg names indexed or
# fused.
set -eu

cd "$(dirname "$0")/.."

EXPECTED="digest=6a4a7e2f deaths=2922 resurrections=2922"
PROBES="probes=2368957"
WORK_CACHE_ON="builds=629 reuses=12"
WORK_CACHE_OFF="builds=639 reuses=0"

SIM="_build/default/bin/battle_sim.exe"
dune build bin/battle_sim.exe

fail() {
  printf '%s\n' "$out" >&2
  echo "battle-fingerprint: FAIL: $leg $1" >&2
  exit 1
}

[ "$#" -gt 0 ] || set -- indexed fused
for leg in "$@"; do
  # $leg is split on purpose: the evaluator name, then its extra flags
  # shellcheck disable=SC2086
  out=$("$SIM" --units 12000 --ticks 40 --seed 42 --evaluator $leg)
  final=$(printf '%s\n' "$out" | grep '^final state:')
  work=$(printf '%s\n' "$out" | grep '^builds=')
  case "$leg" in
    *--no-index-cache*) expected_work="$WORK_CACHE_OFF" ;;
    *) expected_work="$WORK_CACHE_ON" ;;
  esac
  case "$final" in
    *"$EXPECTED"*) ;;
    *) fail "does not end on $EXPECTED" ;;
  esac
  case " $work " in
    *" $PROBES "*) ;;
    *) fail "does not do $PROBES" ;;
  esac
  case "$work" in
    "$expected_work "*) ;;
    *) fail "does not do $expected_work" ;;
  esac
  echo "battle-fingerprint: $leg: $final"
  echo "battle-fingerprint: $leg: $work"
done
