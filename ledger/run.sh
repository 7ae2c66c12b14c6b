#!/usr/bin/env bash
# Builds the ledger benchmark from the checkout it sits in and runs it,
# passing every argument through:
#
#   bash ledger/run.sh --workload warm --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the go command's own
# configuration and telemetry files stay inside the checkout, under
# .bench_build/, so nothing outside it is written; the module needs
# nothing beyond the standard library and the repository itself.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/ledger" .)
exec "$out/ledger" "$@"
