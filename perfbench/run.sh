#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build cache, binary, span dumps and
# temporary campaign caches all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/internal" ] || {
	echo "perfbench: run from the root of a ppep checkout" >&2
	exit 2
}
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Keep the go command's own files (module cache, telemetry counters)
# inside the checkout too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# The commit the binary was built from: its id, with a hash of the Go
# sources appended when the tree has changes; outside git the hash alone.
src_hash() {
	find . -name .bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print0 |
		LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16
}
if commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	[ -z "$(git -C "$root" status --porcelain 2>/dev/null)" ] || commit="$commit-dirty-$(src_hash)"
else
	commit="src-$(src_hash)"
fi
PERFBENCH_OUT="$out" PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
