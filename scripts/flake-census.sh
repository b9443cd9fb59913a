#!/usr/bin/env bash
# Flake census: runs the whole test suite N times, shuffled, at GOMAXPROCS=1
# and at the default, and prints a markdown table of failures per test. A
# test that fails at all here fails tier-1 on some runs with no change under
# test.
#
#   bash scripts/flake-census.sh [runs]    # default 10 runs per setting
#
# Each run is `go test -count=1 -shuffle=on ./...`; the logs of failing runs
# are kept in a temp dir whose path is printed at the end. A package that
# fails with no failing test named (a panic, a timeout, a build error) is
# counted as "<package> (package)".
set -u
runs=${1:-10}
logs=$(mktemp -d)
cd "$(dirname "$0")/.."

for setting in 1 default; do
	for i in $(seq 1 "$runs"); do
		log="$logs/$setting.$i.log"
		if [ "$setting" = 1 ]; then
			GOMAXPROCS=1 go test -count=1 -shuffle=on ./... >"$log" 2>&1
		else
			go test -count=1 -shuffle=on ./... >"$log" 2>&1
		fi
		status=$?
		echo "GOMAXPROCS=$setting run $i/$runs: exit $status" >&2
		[ "$status" -eq 0 ] && rm "$log"
	done
done

# Name each failing test by its package: go test prints a package's
# "--- FAIL: <test>" lines before its "FAIL <package>" line.
echo "| test | GOMAXPROCS=1 | default |"
echo "|---|---|---|"
for setting in 1 default; do
	for log in "$logs/$setting".*.log; do
		[ -e "$log" ] || continue
		awk -v setting="$setting" '
			/^ *--- FAIL: / { pending[++n] = $3 }
			/^FAIL\t/ {
				if (n == 0) print setting "\t" $2 " (package)"
				for (i = 1; i <= n; i++) print setting "\t" $2 "." pending[i]
				n = 0
			}' "$log" | sort -u
	done
done | awk -F '\t' -v runs="$runs" '
	!($2 in tests) { tests[$2] = 1; n++ }
	{ count[$2, $1]++ }
	END {
		for (t in tests)
			printf "| `%s` | %d/%d | %d/%d |\n", t, count[t, "1"], runs, count[t, "default"], runs
		if (n == 0)
			printf "| (none) | 0/%d | 0/%d |\n", runs, runs
	}' | sort
echo "logs of failing runs: $logs" >&2
