#!/usr/bin/env bash
# cover.sh — run the test suite with coverage, print a per-package
# summary, and enforce per-package floors on the packages whose
# correctness the campaign engine leans on hardest, and on the paper's
# core (pb, methodology).
#
# Usage: scripts/cover.sh [output-profile]
set -euo pipefail

profile="${1:-coverage.out}"

# Floors (percent). Raise them as coverage grows; never lower them to
# make a failing build pass — write the missing test instead.
declare -A floors=(
	["pbsim/internal/obs"]=80
	["pbsim/internal/stats"]=95
	["pbsim/internal/runner"]=90
	["pbsim/internal/runner/dist"]=70
	["pbsim/internal/perfbench"]=80
	["pbsim/internal/analysis"]=85
	["pbsim/internal/analysis/flow"]=85
	["pbsim/internal/analysis/rules"]=85
	["pbsim/cmd/pbcheck"]=60
	["pbsim/internal/truth"]=85
	["pbsim/internal/assess"]=80
	["pbsim/internal/experiment"]=80
	["pbsim/internal/enhance"]=95
	["pbsim/internal/sampling"]=80
	["pbsim/internal/sim"]=90
	["pbsim/internal/sim/cache"]=95
	["pbsim/internal/sim/bpred"]=95
	["pbsim/internal/sim/pipeline"]=95
	["pbsim/internal/pb"]=95
	["pbsim/internal/methodology"]=95
	["pbsim/internal/trace"]=90
)

go test -covermode=atomic -coverprofile="$profile" ./... | tee /tmp/cover-packages.txt

echo
echo "== per-package coverage =="
fail=0
while read -r line; do
	pkg=$(awk '{print $2}' <<<"$line")
	pct=$(grep -o 'coverage: [0-9.]*%' <<<"$line" | grep -o '[0-9.]*' || true)
	[[ -z "$pct" ]] && continue
	floor="${floors[$pkg]:-}"
	if [[ -n "$floor" ]]; then
		if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
			echo "FAIL  $pkg  ${pct}% (floor ${floor}%)"
			fail=1
		else
			echo "ok    $pkg  ${pct}% (floor ${floor}%)"
		fi
	else
		echo "      $pkg  ${pct}%"
	fi
done < <(grep '^ok' /tmp/cover-packages.txt)

echo
go tool cover -func="$profile" | tail -n 1

if [[ $fail -ne 0 ]]; then
	echo "coverage floor violated" >&2
	exit 1
fi
