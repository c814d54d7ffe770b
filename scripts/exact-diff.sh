#!/usr/bin/env bash
# exact-diff.sh BASE — diff the benchmark's exact work counters between a
# base ref and the working tree (ROADMAP 4d: wall time stays advisory,
# the counters are evidence).
#
# Builds ./benchmark and ./cmd/psserve at BASE (a `git archive` export
# into a temporary directory) and at the working tree, runs the traced pass
# (--trace 1 --seed 1 --scale 0.1) of payroll-stream, chain-bulk and
# jobshop-fire with each, and prints every `exact` line side by side.
# Exits non-zero if a run fails or if any of the counters that define the
# computed result differ: state_sha256, instantiations, retractions,
# rule_firings, conflict_size_final, tuples_inserted, tuples_deleted.
# Work counters (candidate_checks, joins_computed, ...) may differ; that
# is what a performance change is for.
set -euo pipefail

base=${1:?usage: scripts/exact-diff.sh <base-ref>}
root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/exact-diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

export GOTOOLCHAIN=local
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bin-base/" ./benchmark ./cmd/psserve)
go build -o "$tmp/bin-head/" ./benchmark ./cmd/psserve

must_match="state_sha256 instantiations retractions rule_firings conflict_size_final tuples_inserted tuples_deleted"
status=0
for w in payroll-stream chain-bulk jobshop-fire; do
	for side in base head; do
		dir=$root
		[ "$side" = base ] && dir=$tmp/base
		if ! (cd "$dir" && "$tmp/bin-$side/benchmark" --psserve "$tmp/bin-$side/psserve" \
			--workload "$w" --trace 1 --seed 1 --scale 0.1 >"$tmp/$side-$w.txt" 2>&1); then
			echo "exact-diff: $w failed at $side:" >&2
			tail -5 "$tmp/$side-$w.txt" >&2
			status=1
		fi
	done
	echo "== $w ($base vs working tree)"
	if ! awk -v must="$must_match" '
		BEGIN { n = split(must, m, " "); for (i = 1; i <= n; i++) required[m[i]] = 1 }
		FNR == NR && $1 == "exact" { b[$2] = $3; order[++k] = $2; next }
		$1 == "exact" { h[$2] = $3; if (!($2 in b)) order[++k] = $2 }
		END {
			bad = 0
			for (i = 1; i <= k; i++) {
				c = order[i]; mark = ""
				if (b[c] != h[c]) mark = (c in required) ? "  MISMATCH" : "  changed"
				if (mark == "  MISMATCH") bad = 1
				printf "%-22s %20s %20s%s\n", c, b[c], h[c], mark
			}
			for (c in required) if (!(c in b) || !(c in h)) { printf "%-22s missing\n", c; bad = 1 }
			exit bad
		}' "$tmp/base-$w.txt" "$tmp/head-$w.txt"; then
		status=1
	fi
done
exit $status
