#!/usr/bin/env bash
# paired.sh BASE [PAIRS] [WORKLOAD] [SECONDS] [SEED] — alternating paired
# benchmark runs of a base ref against the working tree.
#
# Builds ./benchmark and ./cmd/psserve at BASE (a `git archive` export into
# a temporary directory, as scripts/exact-diff.sh does) and at the working
# tree, then runs the untraced benchmark on one workload PAIRS times per
# side, alternating which side goes first. For every end-to-end metric of
# BENCHMARK.json it prints each pair's working-tree/base ratio, each side's
# median and quartiles, the median ratio, how many pairs the working tree
# won in the metric's better direction, and a verdict against the metric's
# bound (the largest relative regression BENCHMARK.json tolerates):
#
#   better     the head wins at least 9 of 10 pairs and its median beats the
#              base median by more than the base's interquartile range (or,
#              under unresolved's noise, every head run beats every base run)
#   worse      the head median is worse than the base median by more than
#              the bound (under unresolved's noise: and every base run beats
#              every head run)
#   unresolved the base interquartile range exceeds the bound (relative to
#              the base median) and not every head run beats every base run
#   within     none of the above: any change is inside the bound
#
# Exits non-zero if a run fails or any metric is worse.
set -euo pipefail

base=${1:?usage: scripts/paired.sh <base-ref> [pairs] [workload] [seconds] [seed]}
pairs=${2:-10}
workload=${3:-jobshop-fire}
seconds=${4:-15}
seed=${5:-1}
root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/paired.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

export GOTOOLCHAIN=local
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bin-base/" ./benchmark ./cmd/psserve)
go build -o "$tmp/bin-head/" ./benchmark ./cmd/psserve

# The end-to-end metrics are the BENCHMARK.json entries carrying a bound:
# name:better:bound per line.
metrics=$(awk -F'"' '/"bound"/ { match($15, /[0-9.]+/); print $4 ":" $12 ":" substr($15, RSTART, RLENGTH) }' BENCHMARK.json)

run() { # side pair
	local dir=$root
	[ "$1" = base ] && dir=$tmp/base
	if ! (cd "$dir" && "$tmp/bin-$1/benchmark" --psserve "$tmp/bin-$1/psserve" \
		--workload "$workload" --seconds "$seconds" --seed "$seed" >"$tmp/$1-$2.txt" 2>&1); then
		echo "paired: $workload pair $2 failed at $1:" >&2
		tail -5 "$tmp/$1-$2.txt" >&2
		exit 1
	fi
	awk -v side="$1" -v pair="$2" 'NF == 3 && $2 ~ /^[0-9.eE+-]+$/ { print side, pair, $1, $2 }' \
		"$tmp/$1-$2.txt" >>"$tmp/values"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then run base "$i"; run head "$i"; else run head "$i"; run base "$i"; fi
	echo "pair $i/$pairs done" >&2
done

echo "== $workload: $pairs pairs, --seconds $seconds --seed $seed, $base (base) vs working tree (head)"
awk -v metrics="$metrics" '
	function pct(a, n, p,   x, i) { # linear interpolation on sorted a[1..n]
		x = 1 + (n - 1) * p; i = int(x)
		return i >= n ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i])
	}
	function sorted(side, m, out,   n, i, j, t) {
		n = 0
		for (i = 1; i <= npairs; i++) if ((side, i, m) in v) out[++n] = v[side, i, m]
		for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
		return n
	}
	function beats(x, y) { return better == "higher" ? x > y : x < y }
	{ v[$1, $2, $3] = $4; if ($2 > npairs) npairs = $2 }
	END {
		printf "%-18s %-6s %5s %28s %28s %7s %6s %-10s  %s\n", "metric", "better", "bound", "base median [q1 q3]", "head median [q1 q3]", "ratio", "wins", "verdict", "head/base per pair"
		n = split(metrics, ms, "\n")
		failed = 0
		for (k = 1; k <= n; k++) {
			split(ms[k], f, ":"); m = f[1]; better = f[2]; bound = f[3] + 0
			nb = sorted("base", m, b); nh = sorted("head", m, h)
			if (nb == 0 || nh == 0) continue
			wins = 0; paired = 0; ratios = ""
			for (i = 1; i <= npairs; i++) {
				if (!(("base", i, m) in v) || !(("head", i, m) in v)) continue
				bv = v["base", i, m]; hv = v["head", i, m]; paired++
				ratios = ratios sprintf(" %.3f", bv == 0 ? 0 : hv / bv)
				if (beats(hv, bv)) wins++
			}
			mb = pct(b, nb, 0.5); mh = pct(h, nh, 0.5)
			iqr = pct(b, nb, 0.75) - pct(b, nb, 0.25)
			# gain: how far the head median improves on the base median, in
			# the better direction; negative is a regression.
			gain = better == "higher" ? mh - mb : mb - mh
			headAll = better == "higher" ? h[1] > b[nb] : h[nh] < b[1]
			baseAll = better == "higher" ? b[1] > h[nh] : b[nb] < h[1]
			regressed = mb != 0 && -gain > bound * (mb < 0 ? -mb : mb)
			if (mb != 0 && iqr > bound * (mb < 0 ? -mb : mb)) {
				verdict = headAll ? "better" : (baseAll && regressed ? "worse" : "unresolved")
			} else if (regressed) {
				verdict = "worse"
			} else if (paired > 0 && wins >= 0.9 * paired && gain > iqr) {
				verdict = "better"
			} else {
				verdict = "within"
			}
			if (verdict == "worse") failed = 1
			printf "%-18s %-6s %5.2f %10.4g [%7.4g %7.4g] %10.4g [%7.4g %7.4g] %7.3f %3d/%-2d %-10s %s\n", m, better, bound,
				mb, pct(b, nb, 0.25), pct(b, nb, 0.75), mh, pct(h, nh, 0.25), pct(h, nh, 0.75),
				mb == 0 ? 0 : mh / mb, wins, npairs, verdict, ratios
		}
		exit failed
	}' "$tmp/values"
