#!/bin/sh
# alloc-budget.sh <bench regex> <budget file> <label>
#
# The allocation budget check the smoke targets share: run one benchmark
# of the root package with $GO (default go; 5 iterations, -benchmem;
# output kept in out/<label>-alloc.txt) and fail if its allocs/op exceeds the integer
# in the budget file. allocs/op is exact and host-independent, so a hot
# path that starts allocating again fails here long before it shows in
# milliseconds.
set -eu
regex=$1 budget_file=$2 label=$3
mkdir -p out
${GO:-go} test -short -run XXX -bench "$regex" -benchtime 5x -benchmem . | tee "out/$label-alloc.txt"
budget=$(cat "$budget_file")
allocs=$(awk '/^Benchmark/ {for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i}' "out/$label-alloc.txt")
[ -n "$allocs" ] || { echo "$label: no allocs/op in benchmark output"; exit 1; }
[ "$allocs" -le "$budget" ] || { echo "$label: $allocs allocs/op exceeds budget $budget ($budget_file)"; exit 1; }
echo "$label: $allocs allocs/op within budget $budget"
