#!/usr/bin/env bash
# Correctness-tooling gate: determinism lint, clang-tidy (baselined), and
# the sanitizer matrix.
#
#   scripts/analyze.sh            full gate:
#     1. scripts/determinism_lint.py over src/ (nondeterminism sources)
#     2. scripts/clang_tidy_gate.py over build/compile_commands.json,
#        diffed against scripts/clang_tidy_baseline.txt (fails on NEW
#        findings only; SKIPs cleanly when clang-tidy is not installed)
#     3. ASan+UBSan: -DUSNE_SAN=address+undefined -DUSNE_WERROR=ON build,
#        full ctest suite — any sanitizer report fails the run
#        (-fno-sanitize-recover=all; LeakSanitizer is on by default)
#     4. TSan: -DUSNE_SAN=thread -DUSNE_WERROR=ON build, ctest -L tsan
#        (the multi-threaded engine / thread-pool / transport / serve /
#        net / obs suites)
#
#   scripts/analyze.sh --fast     steps 1–2 only (the static half; this is
#                                 what scripts/check.sh embeds so tier-1
#                                 stays fast)
#
# Build trees: build-asan/ and build-tsan/ (gitignored), kept apart from
# the primary build/ so the sanitizer configs never pollute release
# artifacts. Exits non-zero on any finding, report, or test failure.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
if [ "${1:-}" = "--fast" ]; then
  FAST=1
fi

echo "== determinism lint (src/) =="
python3 scripts/determinism_lint.py

echo "== clang-tidy gate (baselined) =="
# The gate wants a compile_commands.json; the plain build/ tree exports one
# at configure time (CMAKE_EXPORT_COMPILE_COMMANDS is always on).
if [ ! -f build/compile_commands.json ]; then
  cmake -B build -S . >/dev/null
fi
python3 scripts/clang_tidy_gate.py --build-dir build

if [ "${FAST}" = "1" ]; then
  echo "== analyze --fast done (sanitizer matrix skipped) =="
  exit 0
fi

echo "== sanitizer matrix: address+undefined (full suite) =="
cmake -B build-asan -S . -DUSNE_SAN=address+undefined -DUSNE_WERROR=ON \
  >/dev/null
cmake --build build-asan -j "${JOBS}"
# Reports are fatal: UBSan recovers nowhere (-fno-sanitize-recover=all),
# ASan aborts on its first report, LeakSanitizer runs at exit by default.
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo "== sanitizer matrix: thread (ctest -L tsan) =="
cmake -B build-tsan -S . -DUSNE_SAN=thread -DUSNE_WERROR=ON >/dev/null
cmake --build build-tsan -j "${JOBS}"
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  ctest --test-dir build-tsan -L tsan --output-on-failure -j "${JOBS}"

echo "== analyze done: lint + tidy + asan/ubsan suite + tsan label green =="
