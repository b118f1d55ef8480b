#!/usr/bin/env bash
# Non-test Go lines per package and in total — the figure every PR
# reports. Counts raw lines (wc -l) of *.go files that are not *_test.go,
# outside bench/ (its own module) and any testdata/ directory.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1; t += $1 }
	     END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' |
	sort -k2
