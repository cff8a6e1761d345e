#!/usr/bin/env bash
# bench-claim: the alternating pairs a speed claim rests on (choosing-metrics
# guide, section 8), as one command instead of a hand-run loop.
#
#   scripts/bench-claim.sh WORKLOAD [PAIRS] [BASE]     (make bench-claim WORKLOAD=…)
#
# BASE (default HEAD~1) is checked out as a throw-away worktree under
# .bench_build/base, made and removed exactly as `make bench-pair` does.
# With BASE_DIR set in the environment (make bench-claim BASE_DIR=…), that
# existing checkout, a git clone or a `git archive` copy, is the base
# instead: no worktree is made or removed, and the directory is kept. Both
# benchmark binaries are built before anything is timed; then each of PAIRS
# (default 10) pairs runs one workload of the repo benchmark once per side,
#   bash bench/run.sh --workload WORKLOAD --seed 100+pair --seconds 10 --trace 0
# base first in odd pairs, the working tree first in even ones. Per pair it
# prints the five end-to-end metrics of both sides; at the end, per metric,
# how many pairs the working tree won, each side's quartiles and median, and
# whether the section-8 rule holds (the change wins at least nine tenths of
# all pairs, ties counting for neither, and the medians are further apart
# than the base's own quartiles). Beside that verdict it prints, per metric,
# the median of the per-pair ratios head/base (both runs of a pair share a
# seed) and its 95 % percentile-bootstrap interval: 10 000 resamples of the
# pairs with replacement, drawn from a Park-Miller generator seeded with 1,
# whose products stay exact in double precision, so every awk draws the
# same resamples and a report re-computes to the same interval. It ends
# with one BENCH_TRAJECTORY.json record per metric: paste the claimed
# metric's, with "pr" filled in and "met" set to the verdict the claim's
# own rule gives (here: the section-8 rule). The report is also left in
# .bench_build/claim-WORKLOAD.txt. Only bench/run.sh is called; run length is
# the benchmark's own (BENCHMARK.json run_seconds).
#
# Exit status: 0 every run passed its checks, 1 a run failed one (digest,
# conservation, failed operation) or printed no result, 2 a side did not build.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/bench-claim.sh WORKLOAD [PAIRS] [BASE]}
pairs=${2:-10}
base_ref=${3:-HEAD~1}
metrics="setup_s wall_s cpu_s peak_rss_mb sim_cycles_per_s"

out="$PWD/.bench_build"
base="$out/base"
report="$out/claim-$workload.txt"
mkdir -p "$out"
data=$(mktemp "$out/claim.XXXXXX")
trap 'exit 130' INT TERM
if [ -n "${BASE_DIR:-}" ]; then
	base=$(cd "$BASE_DIR" && pwd) || exit 2
	[ -f "$base/bench/run.sh" ] || { echo "bench-claim: BASE_DIR $BASE_DIR holds no bench/run.sh" >&2; exit 2; }
	trap 'rm -f "$data"' EXIT
	if [ -e "$base/.git" ]; then base_rev=$(git -C "$base" rev-parse --short HEAD); else base_rev="not a git checkout"; fi
	base_desc="$BASE_DIR ($base_rev)"
else
	trap 'rm -f "$data"; git worktree remove --force "$base" || true' EXIT
	git worktree add --detach "$base" "$base_ref" >/dev/null || exit 2
	base_rev=$(git -C "$base" rev-parse --short HEAD)
	base_desc="$base_ref ($base_rev)"
fi

# -h makes run.sh build and nocbench print its usage: both binaries exist,
# and both build caches are warm, before the first timed run.
bash "$base/bench/run.sh" -h >/dev/null 2>&1 || true
bash bench/run.sh -h >/dev/null 2>&1 || true
[ -x "$base/.bench_build/nocbench" ] && [ -x "$out/nocbench" ] || { echo "bench-claim: a side did not build" >&2; exit 2; }

# run_side SIDE CHECKOUT PAIR SEED: one run; its metrics go to $data (four
# fields a line; a FAILED line marks a run that must fail the command) and
# to stdout.
run_side() {
	local line m v
	line=$(bash "$2/bench/run.sh" --workload "$workload" --seed "$4" --seconds 10 --trace 0 2>&1 | tail -n 1) || true
	case "$line" in
	'{"correct":true,'*) ;;
	*) echo FAILED >>"$data"; echo "  $1: run failed its checks: ${line:-no output}" ;;
	esac
	for m in $metrics; do
		v=$(sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p" <<<"$line")
		[ -n "$v" ] || { echo FAILED >>"$data"; continue; }
		echo "$3 $1 $m $v" >>"$data"
		printf '  %-5s %-18s %s\n' "$1" "$m" "$v"
	done
}

{
	echo "bench-claim $workload: $pairs pairs, base $base_desc vs working tree ($(git rev-parse --short HEAD)$(git diff --quiet HEAD 2>/dev/null || echo ' + uncommitted')), seeds 101..$((100 + pairs)), --seconds 10 --trace 0"
	for ((i = 1; i <= pairs; i++)); do
		seed=$((100 + i))
		if ((i % 2)); then
			echo "pair $i seed $seed (base first)"
			run_side base "$base" "$i" "$seed"
			run_side head "$PWD" "$i" "$seed"
		else
			echo "pair $i seed $seed (head first)"
			run_side head "$PWD" "$i" "$seed"
			run_side base "$base" "$i" "$seed"
		fi
	done

	echo
	echo "summary: head = working tree; a win is a pair in which head read better, ties count for neither"
	awk -v pairs="$pairs" -v order="$metrics" -v workload="$workload" -v base_rev="$base_rev" '
	function quantile(a, n, q,    pos, i) { # bench/measure.go quantile
		if (n == 0) return 0
		pos = q * (n - 1); i = int(pos)
		if (i + 1 >= n) return a[n]
		return a[i + 1] + (pos - i) * (a[i + 2] - a[i + 1])
	}
	function sorted(src, m, n, dst,    i) {
		for (i = 1; i <= n; i++) dst[i] = src[m, i]
		shellsort(dst, n)
	}
	function shellsort(a, n,    gap, i, j, t) {
		for (gap = int(n / 2); gap > 0; gap = int(gap / 2))
			for (i = gap + 1; i <= n; i++) { t = a[i]; for (j = i - gap; j >= 1 && a[j] > t; j -= gap) a[j + gap] = a[j]; a[j + gap] = t }
	}
	function draw() { rng = (16807 * rng) % 2147483647; return rng / 2147483647 }
	# bootstrap sets lo and hi to the 95 % percentile-bootstrap interval of
	# the median of r[1..n], and returns that median.
	function bootstrap(r, n,    k, j, s, meds) {
		rng = 1
		for (k = 1; k <= 10000; k++) {
			for (j = 1; j <= n; j++) s[j] = r[int(draw() * n) + 1]
			shellsort(s, n); meds[k] = quantile(s, n, 0.5)
		}
		shellsort(meds, 10000); lo = quantile(meds, 10000, 0.025); hi = quantile(meds, 10000, 0.975)
		for (j = 1; j <= n; j++) s[j] = r[j]
		shellsort(s, n)
		return quantile(s, n, 0.5)
	}
	NF == 4 { v[$2, $3, $1] = $4 + 0; seen[$2, $3, $1] = 1 }
	END {
		printf "%-18s %-6s %-6s %-38s %-38s %-8s %s\n", "metric", "better", "wins", "base q1 / median / q3", "head q1 / median / q3", "head/base", "section-8 rule"
		nm = split(order, ms, " ")
		for (k = 1; k <= nm; k++) {
			m = ms[k]; higher = (m == "sim_cycles_per_s"); n = 0; wins = 0
			for (i = 1; i <= pairs; i++) {
				if (!(("base", m, i) in seen) || !(("head", m, i) in seen)) continue
				n++; b[m, n] = v["base", m, i]; h[m, n] = v["head", m, i]
				if (higher ? h[m, n] > b[m, n] : h[m, n] < b[m, n]) wins++
			}
			sorted(b, m, n, sb); sorted(h, m, n, sh)
			bq1 = quantile(sb, n, 0.25); bmed = quantile(sb, n, 0.5); bq3 = quantile(sb, n, 0.75)
			hq1 = quantile(sh, n, 0.25); hmed = quantile(sh, n, 0.5); hq3 = quantile(sh, n, 0.75)
			gap = higher ? hmed - bmed : bmed - hmed
			rule = (n == pairs && wins >= 0.9 * pairs && gap > bq3 - bq1) ? "gain" : "no gain shown"
			if (pairs < 10) rule = "needs ten pairs"
			rec[m] = sprintf("{\"pr\": null, \"workload\": \"%s\", \"metric\": \"%s\", \"base_median\": %.5g, \"head_median\": %.5g, ", workload, m, bmed, hmed)
			tail[m] = sprintf("\"pairs\": %d, \"wins\": %d, \"seeds\": \"101-%d\", \"base_rev\": \"%s\", \"met\": %s}", n, wins, 100 + pairs, base_rev, rule == "gain" ? "true" : "false")
			printf "%-18s %-6s %-6s %-38s %-38s %-8s %s (medians %.4g apart, base IQR %.4g)\n", m, higher ? "higher" : "lower", wins "/" n,
				sprintf("%.5g / %.5g / %.5g", bq1, bmed, bq3), sprintf("%.5g / %.5g / %.5g", hq1, hmed, hq3),
				bmed ? sprintf("%.3f", hmed / bmed) : "-", rule, gap, bq3 - bq1
		}
		print ""
		print "paired ratios head/base (same seed): median and 95 % percentile-bootstrap interval, 10000 resamples, seed 1"
		for (k = 1; k <= nm; k++) {
			m = ms[k]; n = 0
			for (i = 1; i <= pairs; i++)
				if ((("base", m, i) in seen) && (("head", m, i) in seen) && v["base", m, i] != 0) r[++n] = v["head", m, i] / v["base", m, i]
			if (n == 0) { printf "%-18s -\n", m; continue }
			med = bootstrap(r, n)
			printf "%-18s %.3f [%.3f, %.3f] over %d pairs%s\n", m, med, lo, hi, n, (lo <= 1 && 1 <= hi) ? ", 1.000 inside" : ", 1.000 outside"
			ratio[m] = sprintf("\"ratio\": %.3f, \"interval\": [%.3f, %.3f], ", med, lo, hi)
		}
		print ""
		print "BENCH_TRAJECTORY.json records (paste the claimed metric'"'"'s; set \"pr\", and \"met\" by the claim'"'"'s rule)"
		for (k = 1; k <= nm; k++) if (ms[k] in ratio) print "    " rec[ms[k]] ratio[ms[k]] tail[ms[k]] ","
	}' "$data"
} | tee "$report"
! grep -q '^FAILED' "$data"
