#!/usr/bin/env bash
# Tier-1 gate: configure build/ with -DUSNE_WERROR=ON and build it, run the
# static half of scripts/analyze.sh (determinism lint + baselined
# clang-tidy), the -DUSNE_NO_TRACE compile-out probe and the full test
# suite, then scripts/pins.py: every command in scripts/pins.json, with the
# pins on its output (H digests, CONGEST counts, answer checksums, audit
# counters, the daemon's ledgers, the paper's claims). It writes nothing
# into the tree. The sanitizer matrix is the full scripts/analyze.sh.
#
# Exits non-zero on any build, lint, probe, test or pin failure.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure (-Werror) =="
cmake -B build -S . -DUSNE_WERROR=ON >/dev/null

echo "== build =="
cmake --build build -j "${JOBS}"

echo "== static analysis smoke (det-lint + clang-tidy gate) =="
scripts/analyze.sh --fast

echo "== obs compile-out probe (-DUSNE_NO_TRACE must be symbol-free) =="
# trace.hpp's contract: under -DUSNE_NO_TRACE the USNE_TRACE_* macros expand
# to nothing, so a TU using only the macros references no obs symbol at all
# (not "inert calls" — zero references). The probe is two-sided: the same TU
# compiled without the define must reference obs symbols, proving the probe
# can actually detect a regression. usne::obs mangles to the '4usne3obs'
# fragment on every Itanium-ABI compiler.
PROBE_DIR="$(mktemp -d)"
trap 'rm -rf "${PROBE_DIR}"' EXIT
c++ -std=c++20 -O2 -DUSNE_NO_TRACE -I src -c tests/obs_no_trace_probe.cpp \
  -o "${PROBE_DIR}/probe_off.o"
c++ -std=c++20 -O2 -I src -c tests/obs_no_trace_probe.cpp \
  -o "${PROBE_DIR}/probe_on.o"
if nm "${PROBE_DIR}/probe_off.o" | grep '4usne3obs' >&2; then
  echo "FAIL: -DUSNE_NO_TRACE build still references the usne::obs symbols above" >&2
  exit 1
fi
if ! nm "${PROBE_DIR}/probe_on.o" | grep -q '4usne3obs'; then
  echo "FAIL: compile-out probe is insensitive (no obs refs even without -DUSNE_NO_TRACE)" >&2
  exit 1
fi
echo "USNE_NO_TRACE: macro layer is symbol-free (probe sensitive both ways)"

echo "== tier-1 tests =="
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== pins (scripts/pins.json) =="
python3 scripts/pins.py
