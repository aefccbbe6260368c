#!/usr/bin/env bash
# Builds fdperf from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash cmd/fdperf/run.sh --workload wide-induct --seed 0 --seconds 20 --trace 0
#   bash cmd/fdperf/run.sh -o run.jsonl        # every workload, one child each
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the temp files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/fdperf/go.mod" ]]; then
	echo "fdperf: run from the repository root (go.mod and cmd/fdperf/go.mod not found)" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/cmd/fdperf" && go build -o "$build/fdperf" .)
exec "$build/fdperf" "$@"
