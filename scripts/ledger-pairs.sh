#!/bin/bash
# "Within bound" as a command: run the ledger (bench/run.sh, end-to-end
# metrics) on a parent revision and on the working tree in alternating
# pairs and say, per workload and metric, whether the working tree is
# worse, within bound or better by enough to claim.
#
#   bash scripts/ledger-pairs.sh PARENT [WORKLOADS] [PAIRS] [SECONDS]
#   make ledger-pairs PARENT=<rev> [WORKLOADS="a b"] [PAIRS=3] [SECONDS=25]
#
# Both sides run from fresh directories under $TMPDIR (removed on exit):
# PARENT exported with `git archive`, the working tree as the files git
# tracks or would add. The two are then treated alike (no warm build
# cache, no old data directory on one side only), and neither the
# repository's metadata, BENCHMARK.json nor bench/ is written. Each pair
# draws a fresh seed and runs both sides with it; even pairs run the
# parent first, odd pairs the working tree. The metrics, their direction
# and their bounds are read from BENCHMARK.json.
#
# Per workload and metric it prints both medians, the parent's quartiles
# (linear interpolation), the ratio, the pairs the working tree won
# (ties count for neither side) and a verdict:
#   worse   the working tree's median is worse than the parent's by more
#           than the bound
#   claim   a gain by the rule a claim is judged by: the working tree won
#           at least 9 in 10 of the pairs, and its median is better than
#           the parent's by more than the parent's interquartile range
#   within  anything else
# Exit status 1 if a run had a failed op or a failed check (bench/run.sh
# exits non-zero and the comparison stops there) or any metric is worse;
# 2 on a usage error.
set -euo pipefail

usage() {
	echo "usage: $0 PARENT [WORKLOADS] [PAIRS] [SECONDS]" >&2
	exit 2
}
[ $# -ge 1 ] && [ -n "$1" ] || usage
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
manifest="$root/BENCHMARK.json"
rev="$(git -C "$root" rev-parse --verify --quiet "$1^{commit}")" || { echo "$0: no such revision: $1" >&2; exit 2; }
workloads="${2:-$(jq -r '.workloads[].name' "$manifest" | tr '\n' ' ')}"
pairs="${3:-3}"
secs="${4:-$(jq -r '.run_seconds' "$manifest")}"
case "$pairs$secs" in *[!0-9]*) usage ;; esac

tmp="$(mktemp -d "${TMPDIR:-/tmp}/ledger-pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
(cd "$root" && git ls-files -co --exclude-standard -z |
	while IFS= read -r -d "" f; do if [ -e "$f" ]; then printf "%s\0" "$f"; fi; done |
	tar --null -T - -cf -) | tar -x -C "$tmp/change"
runs="$tmp/runs.jsonl"

# one WORKLOAD SIDE DIR PAIR SEED: run the ledger in DIR and append its
# last JSON line, labelled, to $runs.
one() {
	echo "== $1 pair $4 seed $5: $2" >&2
	local out
	out="$(bash "$3/bench/run.sh" --workload "$1" --seed "$5" --seconds "$secs" --trace 0)" || {
		echo "$out" | tail -n 20 >&2
		echo "$0: the ledger failed on $2 ($1, seed $5)" >&2
		exit 1
	}
	echo "$out" | grep '^{' | tail -n 1 |
		jq -c --arg w "$1" --arg side "$2" --argjson pair "$4" --argjson seed "$5" \
			'{workload: $w, side: $side, pair: $pair, seed: $seed, result: .}' >>"$runs"
}

for w in $workloads; do
	for ((i = 0; i < pairs; i++)); do
		seed=$((RANDOM + 1))
		if ((i % 2 == 0)); then
			one "$w" parent "$tmp/parent" "$i" "$seed"
			one "$w" change "$tmp/change" "$i" "$seed"
		else
			one "$w" change "$tmp/change" "$i" "$seed"
			one "$w" parent "$tmp/parent" "$i" "$seed"
		fi
	done
done

echo "parent $(git -C "$root" rev-parse --short "$rev") vs working tree, $pairs pairs of $secs s, seeds $(jq -s -c '[.[] | select(.side == "parent") | .seed]' "$runs")"
jq -s -r --slurpfile bm "$manifest" '
	def quantile($q): sort | ((length - 1) * $q) as $i | ($i | floor) as $lo | .[$lo] + (.[$i | ceil] - .[$lo]) * ($i - $lo);
	def side($s; $m): map(select(.side == $s)) | sort_by(.pair) | map(.result.metrics[$m].value);
	(["workload", "metric", "parent", "p_q1", "p_q3", "change", "change/parent", "better", "bound", "won", "verdict"] | @tsv),
	(group_by(.workload)[] | . as $runs | $bm[0].end_to_end[] | . as $m
	 | ($runs | side("parent"; $m.name)) as $p | ($runs | side("change"; $m.name)) as $c
	 | (if $m.better == "lower" then 1 else -1 end) as $sign
	 | ([range(0; $p | length) | select(($c[.] - $p[.]) * $sign < 0)] | length) as $won
	 | ($p | quantile(0.5)) as $pm | ($c | quantile(0.5)) as $cm
	 | ($p | quantile(0.25)) as $q1 | ($p | quantile(0.75)) as $q3
	 | (($cm / $pm - 1) * $sign) as $loss
	 | [$runs[0].workload, $m.name, $pm, $q1, $q3, $cm, $cm / $pm, $m.better, $m.bound, "\($won)/\($p | length)",
	    (if $loss > $m.bound then "worse"
	     elif $won * 10 >= ($p | length) * 9 and ($pm - $cm) * $sign > $q3 - $q1 then "claim"
	     else "within" end)]
	 | @tsv)
' "$runs" | awk -F'\t' '
	NR == 1 { printf "%-20s %-21s %10s %10s %10s %10s %14s %7s %6s %5s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9, $10, $11; next }
	{ printf "%-20s %-21s %10.4f %10.4f %10.4f %10.4f %14.3f %7s %6s %5s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9, $10, $11 }
	$11 == "worse" { bad = 1 }
	END { exit bad }
'
