#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the build
# writes (binary, Go build cache) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry counters in the user's config directory;
# point it into the checkout for the build.
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/eacbench" .)
cd "$root"
exec "$build/eacbench" "$@"
