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
# With --no-resurrect the dead stay dead: the unit array shrinks every
# tick, so every unit behind a death shifts to a new position.  That leg
# has its own reference line, which the resurrecting legs cannot stand in
# for.
#
# Usage: scripts/battle-fingerprint.sh [leg ...]   (default: indexed fused)
#
# A leg is an evaluator name, optionally followed by further battle_sim
# flags in the same argument, e.g. "indexed --fault-policy quarantine".
# The work counters are the indexed engine's, so a leg names indexed or
# fused.
set -eu

cd "$(dirname "$0")/.."

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
  # The reference line of the leg's death rule, then its index work.
  case "$leg" in
    *--no-resurrect*)
      expected="units=9168 digest=660a4af5 deaths=2832 resurrections=0"
      probes="probes=2035824"
      work_cache_on="builds=579 reuses=12"
      work_cache_off="builds=589 reuses=0" ;;
    *)
      expected="units=12000 digest=6a4a7e2f deaths=2922 resurrections=2922"
      probes="probes=2368957"
      work_cache_on="builds=629 reuses=12"
      work_cache_off="builds=639 reuses=0" ;;
  esac
  case "$leg" in
    *--no-index-cache*) expected_work="$work_cache_off" ;;
    *) expected_work="$work_cache_on" ;;
  esac
  case "$final" in
    *"$expected"*) ;;
    *) fail "does not end on $expected" ;;
  esac
  case " $work " in
    *" $probes "*) ;;
    *) fail "does not do $probes" ;;
  esac
  case "$work" in
    "$expected_work "*) ;;
    *) fail "does not do $expected_work" ;;
  esac
  echo "battle-fingerprint: $leg: $final"
  echo "battle-fingerprint: $leg: $work"
done
