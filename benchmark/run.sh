#!/usr/bin/env bash
# The benchmark's one command: build aabench once, then exec it.
#
# Build, then exec the binary; never `go run`. `go run` starts the program
# as a child of the go tool, so a caller that times out and kills what it
# started can leave the program itself running. With exec, the process the
# caller started IS the benchmark, and the benchmark spawns nothing.
#
# The build reads nothing outside the checkout but the Go toolchain: the
# module cache is not needed (the only dependency is the repository itself,
# through the replace directive in go.mod), the network is switched off,
# and the build cache lives under benchmark/bin.
set -euo pipefail
cd "$(dirname "$0")"
export GOCACHE="$PWD/bin/gocache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if [ ! -x bin/aabench ] || [ -n "$(find .. -name '*.go' -newer bin/aabench -print -quit)" ]; then
	go build -o bin/aabench .
fi
cd ..
exec benchmark/bin/aabench "$@"
