#!/usr/bin/env bash
# Reach census: which functions of the module can a production run reach?
# Builds every cmd/* binary and the benchmark harness with coverage over the
# whole module, runs a fixed list of production command lines, and prints
# every function that none of them entered (the `go tool covdata func` rows
# at 0.0 %), then a count.
#
#   bash scripts/reach-census.sh
#
# Everything it writes — binaries, coverage counters, spill and run files,
# corpora — goes to one private TMPDIR, removed when the script exits. It
# fails only when a build or a listed command fails; an unreached function
# is a finding, not a failure. About 50 s on 2 vCPUs.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin cov=$work/cov
mkdir -p "$bin" "$cov" "$work/tmp"
export TMPDIR=$work/tmp GOCOVERDIR=$cov

echo "reach-census: building into $bin" >&2
for c in cmd/*/; do
	go build -cover -coverpkg=mrmicro/... -o "$bin/" "./$c"
done
go build -C "$root/bench" -cover -coverpkg=mrmicro/... -o "$bin/mrmicro-bench" .

# run executes one command line, quiet unless it fails.
run() {
	echo "+ $*" >&2
	if ! "$@" >"$work/out" 2>&1; then
		tail -20 "$work/out" >&2
		echo "reach-census: command failed: $*" >&2
		exit 1
	fi
}

b=$bin/mrbench
text="text:seed=7,files=2,bytes=65536,shape=crlf"
hs="-pipeline=hs -maps 3 -pairs 200 -reduces 3"
dist="-engine=dist -pairs 2000 -kv 64 -maps 6 -reduces 3"

# The simulated engines and the RDMA shuffle.
run "$b" -pattern MR-AVG -size 2GB -monitor
run "$b" -engine yarn -pattern MR-SKEW -size 1GB -datatype Text -tasklog
run "$b" -rdma -network RDMA-FDR\(56Gbps\) -pattern MR-RAND -size 2GB
run "$b" -pattern MR-AVG -size 1GB -trace "$work/tmp/sim.json"
# The real executor: defaults, then every twin knob, then every fault knob.
run "$b" -local -pairs 2000 -kv 64 -bench-reps 2
run "$b" -local -pattern MR-SKEW -pairs 5000 -kv 128 -datatype Text
run "$b" -local -pattern MR-RAND -pairs 5000 -kv 64 -maps 16 -reduces 4 -slowstart 1.0
run "$b" -local -pairs 5000 -kv 64 -maps 8 -reduces 2 -shufflemem 1 -mergefactor 2
run "$b" -local -pairs 20000 -kv 64 -maps 4 -reduces 2 -iosortmb 1 -spillpercent 0.05
run "$b" -local -pairs 20000 -kv 64 -maps 4 -reduces 2 -iosortmb 1 -spillpercent 0.05 -syncspill
run "$b" -local -pairs 4000 -kv 64 -maps 8 -reduces 4 -codec deflate -combine -diskshuffle -parallelcopies 2
run "$b" -local -pairs 2000 -kv 64 -fault-map-rate 0.2 -fault-reduce-rate 0.1 -fault-shuffle-drop 0.1 \
	-fault-shuffle-slow 0.1 -fault-spill 0.1 -fault-seed 3
run "$b" -local -pairs 2000 -kv 64 -codec deflate -fault-shuffle-truncate 0.2 -fault-seed 5
# The real-input workloads and the chained pipeline, local and distributed.
run "$b" -local -workload wordcount -input "$text" -splitsize 997 -outdir "$work/tmp/out"
run "$b" -local -workload grep -input "$text"
run "$b" -local -workload invindex -input "$text"
run "$b" $hs
run "$b" $hs -engine=dist -workers 2
run "$b" $hs -fault-map-rate 0.3 -fault-reduce-rate 0.2 -fault-shuffle-drop 0.2 -fault-seed 7
# The multi-process runtime: clean, bounded, with kills and a WAL, with
# speculation and partitions.
run "$b" $dist
run "$b" $dist -shufflemem 4096 -mergefactor 2 -parallelcopies 3 -codec deflate
run "$b" $dist -fault-worker-kill 0.15 -fault-seed 11 -wal "$work/tmp/job.wal"
run "$b" $dist -speculative 20ms -fault-partition 0.1 -fault-seed 3
# A coordinator with two workers joined by hand. Each process gets leg
# seconds; `timeout` ends a hung one with status 124, so a hang is a failure
# that names the process, not a stalled script.
leg=120
timeout "$leg" "$bin/mrcoord" -pattern MR-AVG -maps 4 -reduces 2 -pairs 500 -kv 64 >"$work/coord.out" 2>&1 &
coord=$!
addr=
for _ in $(seq 100); do
	addr=$(sed -n 's/^mrcoord: listening on //p' "$work/coord.out")
	[ -n "$addr" ] && break
	sleep 0.1
done
echo "+ mrcoord at ${addr:-?} with two mrworkers" >&2
if [ -z "$addr" ]; then
	kill "$coord" 2>/dev/null || true
	cat "$work/coord.out" >&2
	echo "reach-census: mrcoord printed no address" >&2
	exit 1
fi
timeout "$leg" "$bin/mrworker" -coord "$addr" -index 0 >"$work/w0.out" 2>&1 &
w0=$!
timeout "$leg" "$bin/mrworker" -coord "$addr" -index 1 >"$work/w1.out" 2>&1 &
w1=$!
failed=
wait "$coord" || failed="$failed mrcoord:$?"
wait "$w0" || failed="$failed mrworker-0:$?"
wait "$w1" || failed="$failed mrworker-1:$?"
if [ -n "$failed" ]; then
	cat "$work/coord.out" "$work/w0.out" "$work/w1.out" >&2
	echo "reach-census: mrcoord with two mrworkers failed (process:status, 124 = timed out after ${leg}s):$failed" >&2
	exit 1
fi
# The figure, cluster and sensitivity tools, and the property tester.
run "$bin/mrsweep" -figure all -quick -workers 2
run "$bin/mrcluster" -profiles
run "$bin/mrcluster" -specs
run "$bin/mrcluster" -p2p -network 10GigE -bytes 1GB
run "$bin/mrcluster" -alltoall -slaves 4
run "$bin/mrsensitivity" -size 2 -workers 2
run "$bin/mrcheck" -n 50 -seed 42 -faults
run "$bin/mrcheck" -engines dist,local -n 10 -seed 42
# The benchmark harness at its smoke size, every workload.
for w in avg-1k rand-10b skew-bounded hs-pipeline dist-avg sim-figs; do
	run "$bin/mrmicro-bench" -smoke -trace 1 -workload "$w"
done

go tool covdata func -i="$cov" >"$work/func.txt"
awk '$1 != "total" && $NF == "0.0%"' "$work/func.txt"
awk '$1 != "total" { n++; if ($NF == "0.0%") z++ }
	END { printf "reach-census: %d of %d functions unreached\n", z, n }' "$work/func.txt"
