#!/bin/sh
# benchpair.sh PARENT WORKLOAD [PAIRS] — paired untraced runs of one
# benchmark workload, the way a performance claim is judged (BENCHMARK.json,
# benchmark/README.md): PARENT and HEAD are each built from their own
# committed tree, then run at seeds 1..PAIRS with the side that runs first
# alternating per seed. It prints, for every end-to-end metric, each side's
# quartiles and median and how many pairs HEAD won (ties count for neither).
#
# Everything it writes goes under a fresh directory in $TMPDIR (default
# /tmp): the two source trees and binaries, deleted on exit, and the result
# lines, kept there as <side>.<seed>.json for reporting every run made.
set -eu

usage="usage: benchpair.sh PARENT WORKLOAD [PAIRS]"
parent=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
trap 'rm -rf "$tmp/parent-src" "$tmp/head-src" "$tmp/parent" "$tmp/head" "$tmp/out"' EXIT
trap 'exit 130' INT TERM

for side in parent head; do
	ref=$parent
	[ "$side" = head ] && ref=HEAD
	mkdir "$tmp/$side-src"
	git -C "$root" archive "$ref" | tar -x -C "$tmp/$side-src"
	(cd "$tmp/$side-src" && go build -o "$tmp/$side" ./benchmark)
done
echo "benchpair: $workload, $pairs pairs, $parent ($(git -C "$root" rev-parse --short "$parent")) vs HEAD ($(git -C "$root" rev-parse --short HEAD))"
echo "benchpair: result lines in $tmp"

# run SIDE SEED: one untraced run with the side's own catalogue; the last
# stdout line is the run's result object.
run() {
	if ! (cd "$tmp/$1-src" && "$tmp/$1" -workload "$workload" -seed "$2" -trace 0 -out "$tmp/out") \
		>"$tmp/$1.$2.log" 2>&1; then
		echo "benchpair: $1 seed $2 exited non-zero (log: $tmp/$1.$2.log)"
	fi
	tail -n 1 "$tmp/$1.$2.log" >"$tmp/$1.$2.json"
	grep -q '"correct":true' "$tmp/$1.$2.json" || echo "benchpair: $1 seed $2 did not report \"correct\":true"
}

seed=1
while [ "$seed" -le "$pairs" ]; do
	if [ $((seed % 2)) -eq 1 ]; then
		run parent "$seed"
		run head "$seed"
	else
		run head "$seed"
		run parent "$seed"
	fi
	seed=$((seed + 1))
done

# value SIDE SEED METRIC: the metric's value in one result line.
value() {
	sed -n "s/.*\"$3\":{\"value\":\([^,}]*\).*/\1/p" "$tmp/$1.$2.json"
}

printf '%-22s %-6s %-36s %-36s %s\n' metric better "parent q1 / median / q3" "head q1 / median / q3" "head wins"
sed -n '/"end_to_end"/,/]/s/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)".*/\1 \2/p' "$tmp/head-src/BENCHMARK.json" |
	while read -r metric better; do
		seed=1
		while [ "$seed" -le "$pairs" ]; do
			echo "$seed $(value parent "$seed" "$metric") $(value head "$seed" "$metric")"
			seed=$((seed + 1))
		done | awk -v metric="$metric" -v better="$better" '
			# quartiles: Python statistics.quantiles(n=4), the exclusive
			# method the benchmark itself reports (benchmark/report.go).
			function quartiles(x, n,    i, j, d, out) {
				out = ""
				for (i = 1; i <= 3; i++) {
					j = int(i * (n + 1) / 4)
					if (j < 1) j = 1
					if (j > n - 1) j = n - 1
					d = i * (n + 1) - j * 4
					out = out (i > 1 ? " / " : "") sprintf("%.6g", (x[j] * (4 - d) + x[j + 1] * d) / 4)
				}
				return out
			}
			function sortv(x, n,    i, j, t) {
				for (i = 2; i <= n; i++)
					for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
			}
			NF == 3 {
				n++; p[n] = $2; h[n] = $3
				if ((better == "lower" && $3 < $2) || (better == "higher" && $3 > $2)) wins++
			}
			END {
				if (n < 2) { printf "%-22s %-6s fewer than two pairs reported it\n", metric, better; exit }
				sortv(p, n); sortv(h, n)
				printf "%-22s %-6s %-36s %-36s %d/%d\n", metric, better, quartiles(p, n), quartiles(h, n), wins, n
			}'
	done
