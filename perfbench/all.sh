#!/bin/sh
# Print every end-to-end and per-layer metric of every workload, by name
# with its unit: one untraced and one traced run per workload.
#   sh perfbench/all.sh [seed] [seconds]
set -e
cd "$(dirname "$0")/.."
for workload in lie_pipeline uea_build finite_tables; do
    for trace in 0 1; do
        echo "== $workload trace=$trace"
        python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
            --seconds "${2:-30}" --trace "$trace"
    done
done
