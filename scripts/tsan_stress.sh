#!/usr/bin/env bash
# ThreadSanitizer stress run over the concurrency-heavy crates: the
# worker pool's submit, offer and claim over its one locked queue, the
# query service's requests claiming their morsels from one cursor with
# idle workers helping (owner plus helpers), and the buffer
# pool, whose misses read outside its lock and swap the frame in under
# it. Needs a nightly toolchain with
# the rust-src component (-Zbuild-std rebuilds std with TSan
# instrumentation).
#
# Usage: scripts/tsan_stress.sh [extra cargo test args]
set -euo pipefail

TARGET="${TSAN_TARGET:-x86_64-unknown-linux-gnu}"

if ! cargo +nightly --version >/dev/null 2>&1; then
  echo "tsan_stress: no nightly toolchain installed (rustup toolchain install nightly)" >&2
  exit 2
fi

# TSan has false positives on some std synchronization internals it
# cannot see into; second_deadlock_stack improves reports on real ones.
export TSAN_OPTIONS="${TSAN_OPTIONS:-second_deadlock_stack=1}"
export RUSTFLAGS="-Zsanitizer=thread ${RUSTFLAGS:-}"
# Instrumented tests interleave aggressively; keep runtimes bounded.
export RUST_TEST_THREADS="${RUST_TEST_THREADS:-4}"

exec cargo +nightly test -p ebi-service -p ebi-storage \
  -Zbuild-std \
  --target "$TARGET" \
  --release \
  "$@"
