#!/usr/bin/env bash
# CPU profile of the edge server while the repository benchmark drives
# it: starts `bench/run.sh -workload W`, waits for the launch the
# benchmark measures (it starts and warms the origin+edge pair three
# times and measures the last), reads the edge child's -pprof address
# from its argv, fetches /debug/pprof/profile during the closed loop and
# prints `go tool pprof -top -cum` against the binary the benchmark
# built, then the per-syscall split: who called into the syscall entry
# points (sendfile, read, pwrite, write, openat, close, lseek,
# epoll_wait, ...), each as a share of all samples. The share of edge
# CPU inside syscalls altogether is the `cum%` of the
# internal/runtime/syscall.Syscall6 line.
#
#   scripts/profile-bench.sh hit-small        # 10 s of the 20 s window
#   scripts/profile-bench.sh stream-large 5
#
# Only the three HTTP workloads have an edge child (replay-cafe runs in
# the benchmark's own process). Everything written stays under
# .bench_build/ and bench/out/, both git-ignored.
set -euo pipefail

workload="${1:?usage: scripts/profile-bench.sh <workload> [seconds]}"
seconds="${2:-10}"
settle=4   # the measured launch warms up first; setup_s is 1 to 2.5 s
launches=3 # bench/runhttp.go: setupLaunches
if ((seconds < 1 || seconds + settle > 18)); then
    echo "seconds must be 1..$((18 - settle)): the closed loop lasts 20 s" >&2
    exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/pprof" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOWORK=off
export PPROF_TMPDIR="$build/pprof"
log="$build/pprof/bench-$workload.log"

bash "$root/bench/run.sh" -workload "$workload" >"$log" 2>&1 &
bench=$!
trap 'kill "$bench" 2>/dev/null || true; wait 2>/dev/null || true' EXIT

# Count the distinct edge children of this checkout as they come and go.
seen=" "
edge=""
while [[ -z "$edge" ]]; do
    if ! kill -0 "$bench" 2>/dev/null; then
        echo "the benchmark ended before its measured launch; log:" >&2
        cat "$log" >&2
        exit 1
    fi
    for pid in $(pgrep -f -- "^$build/cdnserver .*-mode edge " || true); do
        [[ "$seen" == *" $pid "* ]] && continue
        seen+="$pid "
        if (($(wc -w <<<"$seen") == launches)); then
            edge="$pid"
        fi
    done
    sleep 0.05
done
addr="$(tr '\0' '\n' <"/proc/$edge/cmdline" | grep -A1 -x -- '-pprof' | tail -1)"
echo "edge child $edge, pprof on $addr; profiling ${seconds}s after ${settle}s of warm-up" >&2
sleep "$settle"

prof="$build/pprof/edge-$workload.pb.gz"
go tool pprof -proto -output "$prof" "$build/cdnserver" \
    "http://$addr/debug/pprof/profile?seconds=$seconds" >/dev/null
go tool pprof -top -cum -nodecount=45 "$build/cdnserver" "$prof"

# The callers of the syscall entry points, from `pprof -peek`: in each
# block the lines above the entry point's own line are its callers.
echo
echo "--- syscalls, share of all samples"
entry='syscall\.(Syscall6?|RawSyscall6?)$'
go tool pprof -nodefraction=0 -edgefraction=0 -peek "$entry" "$build/cdnserver" "$prof" 2>/dev/null | awk -v entry="$entry" '
    function secs(v) { return v ~ /ms$/ ? v / 1000 : v + 0 }
    /Total samples = / { for (i = 1; i <= NF; i++) if ($i == "=") total = secs($(i + 1)) }
    /^-+\+-+$/ { n = 0; next }                            # a new block
    / \|   [^ ]/ { t[n] = $1; name[n] = $NF; n++; next }  # a caller (or, further down, a callee)
    / \| [^ ]/ && $NF ~ entry {                           # the line of the entry point itself
        for (i = 0; i < n; i++)
            if (name[i] !~ entry) sum[name[i]] += secs(t[i])
    }
    END {
        for (k in sum) printf "%8.2fs %6.2f%%  %s\n", sum[k], 100 * sum[k] / total, k | "sort -rn"
    }'

wait "$bench" || { echo "the benchmark failed; log: $log" >&2; exit 1; }
trap - EXIT
echo "--- benchmark output ($log)" >&2
cat "$log" >&2
