#!/bin/sh
# The reference fingerprint of the paper's battle: 12 000 units, 40 ticks,
# seed 42.  Every evaluator, domain count and fault policy must end on the
# same state digest with the same deaths and resurrections; a change that
# moves any of them changed the simulation, not just its speed.
#
# Usage: scripts/battle-fingerprint.sh [leg ...]   (default: indexed fused)
#
# A leg is an evaluator name, optionally followed by further battle_sim
# flags in the same argument, e.g. "indexed --fault-policy quarantine".
set -eu

cd "$(dirname "$0")/.."

EXPECTED="digest=6a4a7e2f deaths=2922 resurrections=2922"

SIM="_build/default/bin/battle_sim.exe"
dune build bin/battle_sim.exe

[ "$#" -gt 0 ] || set -- indexed fused
for leg in "$@"; do
  # $leg is split on purpose: the evaluator name, then its extra flags
  # shellcheck disable=SC2086
  out=$("$SIM" --units 12000 --ticks 40 --seed 42 --evaluator $leg)
  final=$(printf '%s\n' "$out" | grep '^final state:')
  case "$final" in
    *"$EXPECTED"*) echo "battle-fingerprint: $leg: $final" ;;
    *)
      printf '%s\n' "$out" >&2
      echo "battle-fingerprint: FAIL: $leg does not end on $EXPECTED" >&2
      exit 1
      ;;
  esac
done
