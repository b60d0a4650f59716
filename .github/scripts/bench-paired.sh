#!/usr/bin/env bash
# Paired benchmark gate. Builds the repository benchmark (bench/) at BASE
# and at HEAD, both with HEAD's benchmark code, runs alternating pairs on
# the saturated and the light-load workload, and fails when HEAD's median
# on any end-to-end metric of BENCHMARK.json is worse than BASE's by more
# than that metric's bound. Run from the repository root:
#
#   bash .github/scripts/bench-paired.sh HEAD^1
#
# BASE keeps its own bench/golden.json, whose digests pin BASE's Results.
# A run that exits nonzero (a golden digest, flit conservation or an
# invariant check failed) fails the gate. Standard output is one line per
# workload and metric; progress goes to standard error. Builds, runs and
# the BASE worktree live in a temporary directory that is removed on exit.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 BASE" >&2; exit 2; }
root=$PWD
base=$(git rev-parse --verify "$1^{commit}")
workloads=(sat64_wireless lowload16_drain)
pairs=5
seconds=10

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; git -C "$root" worktree prune' EXIT

git worktree add -q --detach "$tmp/base" "$base"
rm -rf "$tmp/base/bench"
cp -R bench "$tmp/base/bench"
git show "$base:bench/golden.json" > "$tmp/base/bench/golden.json"
(cd bench && go build -o "$tmp/head.bin" .)
(cd "$tmp/base/bench" && go build -o "$tmp/base.bin" .)

# The benchmark keeps its temporary stores under .bench_build/ in the
# working directory, so the runs happen inside $tmp.
cd "$tmp"
for w in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		order=(base head)
		((i % 2)) || order=(head base)
		for side in "${order[@]}"; do
			echo "$w pair $i/$pairs: $side" >&2
			if ! "./$side.bin" -workload "$w" -seed "$i" -seconds "$seconds" > run.txt; then
				cat run.txt >&2
				echo "$side run of $w at -seed $i failed" >&2
				exit 1
			fi
			tail -n 1 run.txt >> "$w.$side.jsonl"
		done
	done
	jq -r --arg w "$w" --slurpfile b "$w.base.jsonl" --slurpfile h "$w.head.jsonl" '
		def median: sort | .[length / 2 | floor]; # pairs is odd
		.end_to_end[] | .name as $m
		| ([$b[].metrics[$m].value] | median) as $bm
		| ([$h[].metrics[$m].value] | median) as $hm
		| (($hm - $bm) / $bm) as $d
		| (if .better == "higher" then -$d else $d end) as $worse
		| [$w, $m, $bm, $hm, 100 * $d, 100 * .bound,
			(if $worse > .bound then "FAIL" else "ok" end)] | @tsv
	' "$root/BENCHMARK.json" >> table.tsv
done

printf '%-16s %-21s %12s %12s %8s %6s  %s\n' workload metric base head change bound verdict
while IFS=$'\t' read -r w m bm hm d bound verdict; do
	printf '%-16s %-21s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n' "$w" "$m" "$bm" "$hm" "$d" "$bound" "$verdict"
done < table.tsv
if grep -q 'FAIL$' table.tsv; then
	echo "bench-paired: FAIL: HEAD is worse than $base beyond a BENCHMARK.json bound" >&2
	exit 1
fi
echo "bench-paired: every end-to-end metric within its bound of $base" >&2
