#!/usr/bin/env bash
# Builds the harness, then runs it.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
#       one workload, one pass, one fresh single-threaded process; the last
#       stdout line is the result object (the form /BENCHMARK.json names).
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
#       all four workloads, timed pass then traced pass, each in its own
#       process; ends with one JSON document holding the eight result objects.
#
# --trace 1 (the traced pass) runs the bench-traced binary, which installs a
# counting allocator; the timed pass keeps the system allocator.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release"

workload="" trace=0 passthrough=()
while (($#)); do
    case "$1" in
    --workload) workload="${2:?--workload needs a value}" && shift 2 ;;
    --trace) trace="${2:?--trace needs a value}" && shift 2 ;;
    *) passthrough+=("$1") && shift ;;
    esac
done

run_pass() { # workload trace
    local exe=bench
    [[ "$2" == 1 ]] && exe=bench-traced
    "$bin/$exe" --workload "$1" --trace "$2" "${passthrough[@]}"
}

if [[ -n "$workload" ]]; then
    run_pass "$workload" "$trace"
    exit
fi

status=0 results=()
for w in paper-fig4 write-stream bigworld-churn chaos-corpus; do
    for t in 0 1; do
        out="$(run_pass "$w" "$t")" || status=1
        printf '%s\n' "$out" | sed '$d'
        results+=("{\"workload\": \"$w\", \"trace\": $t, \"result\": $(printf '%s\n' "$out" | tail -n 1)}")
    done
done
(IFS=, && printf '{"results": [%s]}\n' "${results[*]}")
exit "$status"
