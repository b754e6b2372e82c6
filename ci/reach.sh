#!/bin/sh
# reach.sh
#
# No shipped function that no binary reaches. Builds every main package
# of the module (gcaod, hpfc, the examples) and the benchmark/ driver with
# inlining off and the linker's dependency dump on, then runs reach.go
# over the dumps: every non-test func declaration outside benchmark/ must
# be reached by some binary or be listed in ci/test-oracles.txt — a test
# oracle another package's tests call, README-documented API, or an
# interface marker method — and every entry of that list must still name
# an unreached declaration and a test `go test -list` lists. Part of
# `make check`.
set -eu
GO=${GO:-go}
dumps=$(mktemp -d)
trap 'rm -rf "$dumps"' EXIT
i=0
for pkg in $($GO list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	i=$((i + 1))
	$GO build -gcflags=all=-l -ldflags=-dumpdep -o /dev/null "$pkg" 2>"$dumps/$i.dep" || { cat "$dumps/$i.dep"; exit 1; }
done
$GO build -C benchmark -gcflags=all=-l -ldflags=-dumpdep -o /dev/null . 2>"$dumps/bench.dep" || { cat "$dumps/bench.dep"; exit 1; }
$GO run ci/reach.go ci/test-oracles.txt "$dumps"/*.dep
