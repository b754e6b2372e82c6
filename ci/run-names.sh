#!/bin/sh
# run-names.sh
#
# Every -run alternative on a `$(GO) test` line of the Makefile must name
# a test of that line's package (the part before a '/' — a subtest
# pattern, parenthesized when it has alternatives of its own — is what is
# checked): `go test -run` that matches nothing exits 0 with "no
# tests to run", so a test that moved or was renamed would drop out of CI
# without a word. Lists each package's tests with `go test -list` and
# fails naming every alternative that matches none. Part of `make check`.
set -eu
GO=${GO:-go}
sed -n "s/.*\$(GO) test .*\(\.[^ ]*\) .*-run '\([^']*\)'.*/\1 \2/p" Makefile | {
	bad=0
	while read -r pkg alts; do
		tests=$($GO test -list . "$pkg" | grep -E '^(Test|Benchmark|Example|Fuzz)' || true)
		for alt in $(echo "$alts" | sed 's#/([^)]*)##g' | tr '|' ' '); do
			if ! echo "$tests" | grep -Eq "${alt%%/*}"; then
				echo "run-names: make's -run '$alt' names no test in $pkg"
				bad=1
			fi
		done
	done
	exit $bad
}
echo "run-names: every -run alternative names a test"
