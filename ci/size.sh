#!/bin/sh
# size.sh
#
# Non-test Go lines of the layers ROADMAP's "Size:" paragraph compares:
# the front end, the paper's algorithm, what executes its output, what observes both,
# the command-line front ends, and the whole tree outside benchmark/.
# A report for `make size` (and the end of `make check`), and one gate:
# it fails when the observability layer and the command-line front ends
# together exceed their budget (ROADMAP item 6(a)).
set -eu
budget=4900
lines() {
	find "$@" -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 | xargs -0 cat | wc -l
}
count() {
	label=$1
	shift
	printf '%-52s %6d\n' "$label" "$(lines "$@")"
}
count 'front end: source ast parser inline sem scalarize' internal/source internal/ast internal/parser internal/inline internal/sem internal/scalarize
count 'internal/core (without core/bound)' internal/core/*.go
# native's own files: its prof subpackage is the next row's.
count 'internal/plan + spmd + native + runtime' internal/plan internal/spmd internal/runtime internal/native/*.go
count 'internal/obs/... + internal/native/prof' internal/obs internal/native/prof
count 'cmd/*' cmd
observe=$(lines internal/obs internal/native/prof cmd)
printf '%-52s %6d\n' 'internal/obs/... + internal/native/prof + cmd/*' "$observe"
count 'all Go outside benchmark/' .
if [ "$observe" -gt "$budget" ]; then
	echo "size: internal/obs/... + internal/native/prof + cmd/* is $observe lines, over its budget of $budget"
	exit 1
fi
