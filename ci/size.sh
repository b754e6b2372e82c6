#!/bin/sh
# size.sh
#
# Non-test Go lines of the layers ROADMAP's "Size:" paragraph compares:
# the front end, the paper's algorithm, what executes its output, what observes both,
# the command-line front ends, and the whole tree outside benchmark/.
# A report for `make size` (and the end of `make check`); it fails
# nothing.
set -eu
count() {
	label=$1
	shift
	printf '%-52s %6d\n' "$label" "$(find "$@" -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 | xargs -0 cat | wc -l)"
}
count 'front end: source ast parser inline sem scalarize' internal/source internal/ast internal/parser internal/inline internal/sem internal/scalarize
count 'internal/core (without core/bound)' internal/core/*.go
# native's own files: its prof subpackage is the next row's.
count 'internal/plan + spmd + native + runtime' internal/plan internal/spmd internal/runtime internal/native/*.go
count 'internal/obs/... + internal/native/prof' internal/obs internal/native/prof
count 'cmd/*' cmd
count 'internal/obs/... + internal/native/prof + cmd/*' internal/obs internal/native/prof cmd
count 'all Go outside benchmark/' .
