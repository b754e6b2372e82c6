#!/bin/sh
# alloc-budget.sh <bench regex> <budget file> <label>
#
# The allocation budget check the smoke targets share: run the
# benchmarks of the root package the regex matches with $GO (default go;
# 5 iterations, -benchmem; output kept in out/<label>-alloc.txt) and fail
# if the allocs/op of any of them exceeds the integer in the budget file.
# allocs/op is exact and host-independent, so a hot path that starts
# allocating again fails here long before it shows in milliseconds.
set -eu
regex=$1 budget_file=$2 label=$3
mkdir -p out
${GO:-go} test -short -run XXX -bench "$regex" -benchtime 5x -benchmem . | tee "out/$label-alloc.txt"
budget=$(cat "$budget_file")
awk -v budget="$budget" -v label="$label" -v file="$budget_file" '
	/^Benchmark/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") {
		seen++
		if ($i + 0 > budget + 0) { printf "%s: %s %d allocs/op exceeds budget %d (%s)\n", label, $1, $i, budget, file; bad = 1 }
		else printf "%s: %s %d allocs/op within budget %d\n", label, $1, $i, budget
	} }
	END { if (!seen) { print label ": no allocs/op in benchmark output"; exit 1 }; exit bad }
' "out/$label-alloc.txt"
