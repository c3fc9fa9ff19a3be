#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#	bash scripts/tftbench/run.sh --workload dns_crawl --seed 7 --seconds 10 --trace 0
#
# Builds tftbench from source (its own module, scripts/tftbench/go.mod,
# which replaces the repository's module with ../..) and runs it with the
# arguments given. Everything the build and the run write stays inside the
# checkout: the binary and Go's build cache under .bench_build/, span files
# under .tftbench/ (both in .gitignore). The first build in a checkout
# compiles the standard library too and takes a minute or two; later ones
# are cache hits.
set -euo pipefail

root=$PWD
src=$root/scripts/tftbench
out=$root/.bench_build
if [ ! -f "$root/go.mod" ] || [ ! -f "$src/go.mod" ]; then
	echo "tftbench: run from the root of a checkout of the repository (no go.mod at $root or $src)" >&2
	exit 2
fi
mkdir -p "$out"

# No toolchain download, no user-level Go settings, caches inside the
# checkout.
(
	cd "$src"
	GOCACHE=$out/go-cache GOTOOLCHAIN=local GOFLAGS= GOWORK=off XDG_CONFIG_HOME=$out/config \
		go build -o "$out/tftbench" .
)
exec "$out/tftbench" "$@"
