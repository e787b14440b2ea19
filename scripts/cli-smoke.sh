#!/usr/bin/env bash
# cli-smoke.sh — build the simulating CLIs and drive each one end to
# end at a small size: every pair of runs that must print the same
# bytes is cmp'd, and every refused flag combination must exit 2 (the
# usage-error code). A few seconds on two cores.
#
# Usage: scripts/cli-smoke.sh
set -euo pipefail

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin"
for tool in pbrank pbworker pbenhance pbclassify simrun tablegen; do
	go build -o "$bin/$tool" "./cmd/$tool"
done
size=(-n 2000 -warmup 500)

# same NAME A B: files A and B must be byte-identical.
same() {
	cmp "$2" "$3" || { echo "cli-smoke: $1: outputs differ"; exit 1; }
	echo "ok   $1"
}

# usage NAME CMD...: CMD must exit 2.
usage() {
	local name="$1" st=0
	shift
	"$@" >/dev/null 2>&1 || st=$?
	[ "$st" -eq 2 ] || { echo "cli-smoke: $name: exit $st, want 2"; exit 1; }
	echo "ok   $name (exit 2)"
}

# pbrank: in memory, in a fresh campaign, and resuming that campaign;
# then a worker joining the finished campaign has nothing left to do.
rank=("$bin/pbrank" "${size[@]}" -benchmarks gzip,mcf)
"${rank[@]}" >"$tmp/rank.mem"
"${rank[@]}" -checkpoint "$tmp/camp" >"$tmp/rank.fresh"
"${rank[@]}" -checkpoint "$tmp/camp" >"$tmp/rank.resumed"
same "pbrank in memory vs fresh campaign" "$tmp/rank.mem" "$tmp/rank.fresh"
same "pbrank in memory vs resumed campaign" "$tmp/rank.mem" "$tmp/rank.resumed"
"$bin/pbworker" -checkpoint "$tmp/camp" >/dev/null
echo "ok   pbworker joins the finished campaign"

# pbenhance: the default enhancement is precompute-128.
"$bin/pbenhance" "${size[@]}" >"$tmp/enh.default"
"$bin/pbenhance" "${size[@]}" -enhance precompute-128 >"$tmp/enh.label"
same "pbenhance default vs -enhance precompute-128" "$tmp/enh.default" "$tmp/enh.label"

# pbclassify and simrun: the output does not depend on -par.
for par in 1 2; do
	"$bin/pbclassify" -source sim "${size[@]}" -par "$par" >"$tmp/classify.$par"
	"$bin/simrun" -bench all "${size[@]}" -par "$par" >"$tmp/simrun.$par"
done
same "pbclassify -source sim at -par 1 vs 2" "$tmp/classify.1" "$tmp/classify.2"
same "simrun -bench all at -par 1 vs 2" "$tmp/simrun.1" "$tmp/simrun.2"

"$bin/tablegen" -table 12 "${size[@]}" -out "$tmp/tables" >/dev/null
echo "ok   tablegen -table 12"

usage "pbenhance -enhance base" "$bin/pbenhance" "${size[@]}" -enhance base
usage "simrun -sample with an enhancement" "$bin/simrun" "${size[@]}" -sample uniform -enhance precompute-128
usage "simrun -checkpoint" "$bin/simrun" "${size[@]}" -checkpoint "$tmp/simcamp"
