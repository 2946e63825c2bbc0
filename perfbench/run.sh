#!/usr/bin/env bash
# Builds the benchmark and runs one workload.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Two builds share the target directory ($CARGO_TARGET_DIR, else
# perfbench/target): the default-feature build measures end to end, the
# `trace` build gives the per-layer numbers of `--trace 1`. Both are built
# on every call (a no-op once fresh) so no run pays a build inside its
# measurement window.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && $((i + 1)) -lt ${#args[@]} ]]; then
        trace="${args[i + 1]}"
    fi
done
build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
        --target-dir "$target/$1" "${@:2}" >&2
}
build plain
build traced --features trace
variant=plain
if [[ "$trace" == "1" ]]; then
    variant=traced
fi
exec "$target/$variant/release/perfbench" "$@"
