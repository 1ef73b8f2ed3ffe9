#!/usr/bin/env bash
# Builds the perfbench program from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload browse-hot --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload plan-cold --repeat 5 --seconds 10
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
# The toolchain's caches, module path and config (telemetry counters
# included) all live under the build directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --out "$out" "$@"
