#!/usr/bin/env bash
# cli-smoke.sh — build the simulating CLIs and drive each one end to
# end at a small size: every pair of runs that must print the same
# bytes is cmp'd, a run refused by its campaign must exit 1, and every
# refused flag must exit 2 (the usage-error code). A few seconds on two
# cores.
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

# exits CODE NAME CMD...: CMD must exit CODE.
exits() {
	local want="$1" name="$2" st=0
	shift 2
	"$@" >/dev/null 2>&1 || st=$?
	[ "$st" -eq "$want" ] || { echo "cli-smoke: $name: exit $st, want $want"; exit 1; }
	echo "ok   $name (exit $want)"
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
exits 1 "pbrank with changed -benchmarks on the campaign" "$bin/pbrank" "${size[@]}" -benchmarks gzip -checkpoint "$tmp/camp"

# Sampled pbrank: a bare estimator name is the spec text with its
# defaults, and a sampled campaign resumes and is joined like a full one.
"${rank[@]}" -sample uniform >"$tmp/sample.mem"
"${rank[@]}" -sample est=uniform,seed=1 >"$tmp/sample.spelled"
same "pbrank -sample uniform vs est=uniform,seed=1" "$tmp/sample.mem" "$tmp/sample.spelled"
"${rank[@]}" -sample uniform -checkpoint "$tmp/scamp" >"$tmp/sample.fresh"
"${rank[@]}" -sample uniform -checkpoint "$tmp/scamp" >"$tmp/sample.resumed"
same "sampled pbrank in memory vs fresh campaign" "$tmp/sample.mem" "$tmp/sample.fresh"
same "sampled pbrank in memory vs resumed campaign" "$tmp/sample.mem" "$tmp/sample.resumed"
"$bin/pbworker" -checkpoint "$tmp/scamp" >/dev/null
echo "ok   pbworker joins the finished sampled campaign"

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

exits 2 "pbenhance -enhance base" "$bin/pbenhance" "${size[@]}" -enhance base
exits 2 "simrun -sample with an enhancement" "$bin/simrun" "${size[@]}" -sample uniform -enhance precompute-128
exits 2 "simrun -checkpoint" "$bin/simrun" "${size[@]}" -checkpoint "$tmp/simcamp"
exits 2 "pbrank -sample-frac (retired)" "$bin/pbrank" "${size[@]}" -sample-frac 0.1
