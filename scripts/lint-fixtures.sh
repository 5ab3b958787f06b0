#!/usr/bin/env bash
# Run the SGL lint engine over the shipped scripts and the seeded-defect
# fixtures, asserting:
#
#   1. every example script and the built-in battle scripts lint clean
#      under --werror (infos are allowed, they never gate);
#   2. every fixture in examples/lint_fixtures/ is flagged with exactly
#      the rule id encoded in its file name prefix (t001_..., r003_...);
#   3. every JSON report parses (the emitter is hand-rolled, so this
#      script is the parser of record).
#
# JSON lint reports are collected under lint-reports/ for the CI
# artifact.
set -u

SGL_CHECK="dune exec --no-build bin/sgl_check.exe --"
OUT_DIR="lint-reports"
mkdir -p "$OUT_DIR"
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# -- 1. shipped scripts must be clean ---------------------------------------

for f in examples/scripts/*.sgl; do
  if $SGL_CHECK "$f" --lint --werror > /dev/null; then
    echo "ok: $f lints clean"
  else
    fail "$f should lint clean under --werror"
  fi
  $SGL_CHECK "$f" --lint-json > "$OUT_DIR/$(basename "$f" .sgl).json"
done

if $SGL_CHECK --battle --lint --werror > /dev/null; then
  echo "ok: battle built-ins lint clean"
else
  fail "battle built-in scripts should lint clean under --werror"
fi
$SGL_CHECK --battle --lint-json > "$OUT_DIR/battle.json"

# -- 2. each fixture must be flagged by its seeded rule ---------------------

for f in examples/lint_fixtures/*.sgl; do
  base=$(basename "$f" .sgl)
  rule=$(echo "${base%%_*}" | tr '[:lower:]' '[:upper:]')
  extra=""
  case "$base" in
    r004_*) extra="--no-post-reads" ;;  # R004 needs "no engine consumes effects"
  esac
  report="$OUT_DIR/fixture_$base.json"
  # shellcheck disable=SC2086
  $SGL_CHECK "$f" --lint-json $extra > "$report"
  if grep -q "\"rule\": \"$rule\"" "$report"; then
    echo "ok: $f flagged by $rule"
  else
    fail "$f: expected rule $rule in $report"
  fi
done

# -- 3. every report must be valid JSON -------------------------------------

for j in "$OUT_DIR"/*.json; do
  if python3 -m json.tool "$j" > /dev/null; then
    echo "ok: $j parses"
  else
    fail "$j is not valid JSON"
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "$failures lint-fixture check(s) failed" >&2
  exit 1
fi
echo "all lint-fixture checks passed"
