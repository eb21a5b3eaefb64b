#!/usr/bin/env bash
# Paired, alternating runs of benchmark/run.sh on a parent commit and on
# this checkout: the measurement every speed claim rests on (ROADMAP's
# ground rules, the choosing-metrics method). It prints every run's five
# end-to-end metrics and failed count, then per seed, workload and
# metric each side's median and quartiles, the change/parent ratio of
# the medians and how many pairs the checkout won.
#
#   scripts/bench-pair.sh [--pairs N] [--seeds "2017 7"]
#                         [--workloads "wbfs-grid delta-rmat"] PARENT-REF
#
# Defaults: 10 pairs of all four workloads on seed 2017, tracing off;
# each run lasts run.sh's own default window. The parent's tree is
# extracted with `git archive` into .bench_pair/parent (git-ignored;
# nothing is registered in .git) and removed on exit. The checkout side is the working tree as it
# stands, uncommitted edits included. Pair i runs the parent first when
# i is odd and the checkout first when it is even. Each side builds with
# its own run.sh into its own .bench_build/, and both write their
# temporary graph files under .bench_pair/, so benchmark/ is left as it
# is and nothing is written outside the checkout. The raw rows stay in
# .bench_pair/runs.tsv. A metric is marked a gain only when the checkout
# won at least 9 of every 10 pairs run (a pair with a missing value is
# a loss), the medians are apart by more than the parent's interquartile
# distance, no checkout run was lost, and the checkout failed no more
# operations than the parent.
set -euo pipefail
cd "$(dirname "$0")/.."

pairs=10 seeds=2017 workloads="kcore-rmat wbfs-grid delta-rmat serve-zipf" parent=
while [ $# -gt 0 ]; do
	case "$1" in
	--pairs) pairs=$2; shift 2 ;;
	--seeds) seeds=$2; shift 2 ;;
	--workloads) workloads=$2; shift 2 ;;
	-h | --help) sed -n '2,25p' "$0"; exit 0 ;;
	-*) echo "bench-pair: unknown flag $1" >&2; exit 2 ;;
	*) parent=$1; shift ;;
	esac
done
if [ -z "$parent" ]; then
	echo "usage: scripts/bench-pair.sh [--pairs N] [--seeds LIST] [--workloads LIST] PARENT-REF" >&2
	exit 2
fi
rev=$(git rev-parse --verify "$parent^{commit}")

work="$PWD/.bench_pair"
tree="$work/parent"
rm -rf "$tree"
mkdir -p "$tree" "$work/out-parent" "$work/out-change"
trap 'rm -rf "$tree"' EXIT
git archive --format=tar "$rev" | tar -x -C "$tree"

metrics="setup_s time_s time_p1_s alloc_mb_per_op peak_rss_mb"
rows="$work/runs.tsv"
printf 'seed\tworkload\tpair\tside\t%s\tfailed\n' "$(echo $metrics | tr ' ' '\t')" >"$rows"

# run SIDE SEED WORKLOAD PAIR: one run.sh on SIDE, one row in runs.tsv.
run() {
	local side=$1 seed=$2 wl=$3 i=$4 root=$PWD last
	[ "$side" = parent ] && root=$tree
	last=$(bash "$root/benchmark/run.sh" --workload "$wl" --seed "$seed" --trace 0 \
		--out "$work/out-$side" 2>/dev/null | tail -n 1) || true
	if ! echo "$last" | jq -e .metrics >/dev/null 2>&1; then
		echo "bench-pair: $side $wl seed $seed pair $i produced no result" >&2
		last='{"failed":-1,"metrics":{}}'
	fi
	echo "$last" | jq -r --arg s "$seed" --arg w "$wl" --arg i "$i" --arg side "$side" --arg m "$metrics" \
		'[$s, $w, $i, $side] + [($m | split(" "))[] as $k | (.metrics[$k].value // "nan" | tostring)] + [(.failed | tostring)] | @tsv' \
		| tee -a "$rows"
}

echo "parent $parent = $rev; $pairs pairs; seeds: $seeds; workloads: $workloads"
printf 'seed\tworkload\tpair\tside\t%s\tfailed\n' "$(echo $metrics | tr ' ' '\t')"
for seed in $seeds; do
	for wl in $workloads; do
		for i in $(seq 1 "$pairs"); do
			if [ $((i % 2)) -eq 1 ]; then
				run parent "$seed" "$wl" "$i"
				run change "$seed" "$wl" "$i"
			else
				run change "$seed" "$wl" "$i"
				run parent "$seed" "$wl" "$i"
			fi
		done
	done
done

# Per seed, workload and metric: median [q1, q3] of each side (a
# quartile is the median of the half below or above the median), the
# ratio change/parent of the medians, and the pairs the change won out
# of all pairs run (lower is better for all five; a tie or a missing
# value is not a win).
echo
awk -F'\t' -v metrics="$metrics" '
function sortv(a, n,   i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
}
function med(a, lo, hi,   n, m) {
	n = hi - lo + 1
	m = lo + int((n - 1) / 2)
	return n % 2 ? a[m] : (a[m] + a[m + 1]) / 2
}
function stats(side,   n, i, v) {
	n = 0
	for (i = 1; i <= cnt[key]; i++) {
		v = val[key, side, i]
		if (v != "nan" && v != "") v_[++n] = v + 0
	}
	if (n == 0) return "-"
	sortv(v_, n)
	M = med(v_, 1, n)
	h = int(n / 2)
	Q1 = h ? med(v_, 1, h) : M
	Q3 = h ? med(v_, n - h + 1, n) : M
	return sprintf("%.4g [%.4g, %.4g]", M, Q1, Q3)
}
NR == 1 { next }
{
	key = $1 SUBSEP $2
	if (!(key in seen)) { seen[key] = 1; order[++nk] = key }
	if ($3 + 0 > cnt[key]) cnt[key] = $3 + 0
	split(metrics, names, " ")
	for (k = 1; k <= 5; k++) val[key, names[k], $4, $3] = $(4 + k)
	if ($10 < 0) lost[key, $4]++
	else fail[key, $4] += $10
}
END {
	split(metrics, names, " ")
	printf "%-6s %-11s %-16s %-30s %-30s %-8s %s\n", "seed", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "change won"
	for (o = 1; o <= nk; o++) {
		key = order[o]
		split(key, kv, SUBSEP)
		for (k = 1; k <= 5; k++) {
			m = names[k]
			for (i = 1; i <= cnt[key]; i++) {
				val[key, "p", i] = val[key, m, "parent", i]
				val[key, "c", i] = val[key, m, "change", i]
			}
			ps = stats("p"); pm = M; pq1 = Q1; pq3 = Q3
			cs = stats("c"); cm = M
			won = 0; n = cnt[key]
			for (i = 1; i <= n; i++) {
				p = val[key, "p", i]; c = val[key, "c", i]
				if (p == "nan" || c == "nan" || p == "" || c == "") continue
				if (c + 0 < p + 0) won++
			}
			clean = !lost[key, "change"] && fail[key, "change"] <= fail[key, "parent"]
			claim = (n > 0 && won >= 0.9 * n && pm - cm > pq3 - pq1 && clean) ? "  (gain: >= 9/10 wins, medians apart by more than the parent IQR, no more failures)" : ""
			printf "%-6s %-11s %-16s %-30s %-30s %-8s %d/%d%s\n", kv[1], kv[2], m, ps, cs, (pm > 0 ? sprintf("%.3f", cm / pm) : "-"), won, n, claim
		}
		printf "%-6s %-11s %-16s parent %d, change %d (runs without a result: %d, %d)\n", kv[1], kv[2], "failed ops", fail[key, "parent"], fail[key, "change"], lost[key, "parent"], lost[key, "change"]
	}
}' "$rows"
