#!/usr/bin/env bash
# Tier-1 verify + CONGEST perf smoke.
#
#   scripts/check.sh           configure with -DUSNE_WERROR=ON, build, run
#                              the full test suite,
#                              then smoke-run bench_congest_rounds at
#                              --threads 1 and --threads max and emit
#                              BENCH_congest.json (round/message/word counts
#                              per workload — the cross-PR perf trajectory —
#                              plus serial/parallel wall-clock and speedup).
#                              Fails if the model counts diverge between the
#                              serial and parallel engines: the parallel
#                              scheduler's determinism is a hard guarantee.
#                              Finally runs the unified-API registry smoke:
#                              `usne_run --json` for every name in
#                              usne::algorithms(), diffing the CONGEST
#                              variants' round/message/word counts against
#                              the BENCH_congest.json rows (the registry is
#                              a dispatch layer — bit-for-bit, never a
#                              semantic one), the H digest pins (usne_run's
#                              h_digest must equal the committed value for
#                              emulator_fast and spanner on er and caveman
#                              at n = 16384, for every registered name at
#                              the smoke settings, and for the seven
#                              centralized names on caveman at n = 4096),
#                              and the transport smoke:
#                              --transport ideal must reproduce the BENCH
#                              counts exactly, and faulty/async runs with a
#                              fixed --transport-seed must be identical
#                              run-to-run.
#                              Finally the serve smoke: `usne_run query`
#                              on two workloads must produce seed-stable
#                              answer checksums run-to-run (multi-threaded
#                              serving included), and bench_query_throughput
#                              regenerates BENCH_serve.json — the throughput
#                              trajectory — whose row *count* and per-row
#                              answer *checksums* must match the committed
#                              file (wall times move with the hardware; the
#                              scenario list and the answers must not drift
#                              silently). Between regeneration and those
#                              gates sits the daemon smoke: usne_served is
#                              started on a loopback ephemeral port with
#                              invariant audits on, usne_loadgen drives two
#                              seeded workloads over TCP with --verify
#                              (wire answers must be checksum-identical to
#                              an in-process engine), the daemon must exit
#                              cleanly on SIGTERM with a conserved request
#                              ledger, the grouped row's p50 must stay under
#                              400 us (no fixed wait the size of the old
#                              500 us flush window fits), and the loadgen
#                              rows are merged into the report
#                              (scripts/bench_serve_merge.py) so the same
#                              row-count/checksum gates pin the daemon
#                              trajectory too. Finally the E10 scale
#                              smoke:
#                              bench_scale --smoke hard-gates serial ==
#                              parallel answers, its answer checksum is
#                              pinned, and the committed BENCH_scale.json
#                              rows (n = 2^17 and 2^20) are pinned by
#                              count and answer checksum.
#
# Before tier-1 this script runs the static half of the correctness
# tooling (scripts/analyze.sh --fast: determinism lint + baselined
# clang-tidy gate) and, after the registry smoke, an invariant-audit
# counter sanity pass (USNE_AUDIT=1 usne_run build + query must show every
# exercised category checked > 0 with zero firings, and audits-off records
# must not carry the field).
#
# Observability gates: the -DUSNE_NO_TRACE compile-out probe (the trace
# macro layer must be symbol-free when compiled out, and the probe must be
# sensitive the other way), the construction-profile smoke (usne_run
# --profile stage coverage >= 95% of scheduler wall for both CONGEST
# constructions), the daemon obs smoke (scrape the live daemon's Prometheus
# page via usne_loadgen --scrape-metrics, assert the key per-layer series
# including every per-hop latency histogram, reconcile the usne_net_*
# counters against the request-conservation law and the engine's cache
# hits + misses against its queries, both exactly), and the grouped-speedup
# floor (E9 structural-regression gate).
#
# The sanitizer matrix (ASan+UBSan full suite, TSan -L tsan) is the full
# scripts/analyze.sh run — heavier than tier-1 and kept separate:
#   scripts/analyze.sh
#
# Exits non-zero on any build, test, lint, or divergence failure.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure (-Werror) =="
cmake -B build -S . -DUSNE_WERROR=ON >/dev/null

echo "== build =="
cmake --build build -j "${JOBS}"

echo "== static analysis smoke (det-lint + clang-tidy gate) =="
# The cheap half of scripts/analyze.sh: determinism lint over src/ and the
# baselined clang-tidy gate (SKIPs when the tool is absent). The sanitizer
# matrix is analyze.sh's full mode — deliberately not part of tier-1.
scripts/analyze.sh --fast

echo "== obs compile-out probe (-DUSNE_NO_TRACE must be symbol-free) =="
# trace.hpp's contract: under -DUSNE_NO_TRACE the USNE_TRACE_* macros expand
# to nothing, so a TU using only the macros references no obs symbol at all
# (not "inert calls" — zero references). The probe is two-sided: the same TU
# compiled without the define must reference obs symbols, proving the probe
# can actually detect a regression. usne::obs mangles to the '4usne3obs'
# fragment on every Itanium-ABI compiler.
PROBE_DIR="$(mktemp -d)"
c++ -std=c++20 -O2 -DUSNE_NO_TRACE -I src -c tests/obs_no_trace_probe.cpp \
  -o "${PROBE_DIR}/probe_off.o"
c++ -std=c++20 -O2 -I src -c tests/obs_no_trace_probe.cpp \
  -o "${PROBE_DIR}/probe_on.o"
if nm "${PROBE_DIR}/probe_off.o" | grep -q '4usne3obs'; then
  echo "FAIL: -DUSNE_NO_TRACE build still references usne::obs symbols:" >&2
  nm "${PROBE_DIR}/probe_off.o" | grep '4usne3obs' >&2
  rm -rf "${PROBE_DIR}"
  exit 1
fi
if ! nm "${PROBE_DIR}/probe_on.o" | grep -q '4usne3obs'; then
  echo "FAIL: compile-out probe is insensitive (no obs refs even without -DUSNE_NO_TRACE)" >&2
  rm -rf "${PROBE_DIR}"
  exit 1
fi
rm -rf "${PROBE_DIR}"
echo "USNE_NO_TRACE: macro layer is symbol-free (probe sensitive both ways)"

echo "== tier-1 tests =="
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== CONGEST perf smoke (serial reference) =="
# Keep the committed counts aside: after regeneration the model counts
# (rounds/messages/words) must be unchanged — wall times move with the
# hardware, the CONGEST cost model must not drift silently.
if [ -f BENCH_congest.json ]; then
  cp BENCH_congest.json BENCH_congest_committed.json
fi
./build/bench_congest_rounds --threads 1 --json BENCH_congest_serial.json

echo "== CONGEST perf smoke (parallel, counts must match) =="
# bench_congest_rounds itself re-verifies serial-vs-parallel counts per row
# and exits 1 on divergence; the JSON diff below cross-checks the two runs.
./build/bench_congest_rounds --threads max --json BENCH_congest.json

echo "== serial vs parallel model-count divergence check =="
# Both the ideal rows and the non-ideal transport rows must be identical
# between the two engines: counts AND injected-event counters are
# deterministic for any thread count.
extract_section() { sed -n "/\"$2\": \[/,/\]/p" "$1"; }
for section in rows transport_rows; do
  if ! diff <(extract_section BENCH_congest_serial.json "${section}") \
            <(extract_section BENCH_congest.json "${section}"); then
    echo "FAIL: ${section} diverge between --threads 1 and --threads max" >&2
    exit 1
  fi
done
rm -f BENCH_congest_serial.json
echo "model counts identical across engines (ideal + transport rows)"

echo "== committed CONGEST count drift check =="
count_fields() { grep -o "\"\(rounds\|messages\|words\)\": [0-9]*" "$1" || true; }
if [ -f BENCH_congest_committed.json ]; then
  if ! diff <(count_fields BENCH_congest_committed.json) \
            <(count_fields BENCH_congest.json); then
    echo "FAIL: committed BENCH_congest.json rounds/messages/words drifted" >&2
    exit 1
  fi
  rm -f BENCH_congest_committed.json
  echo "rounds/messages/words match the committed BENCH_congest.json"
fi

echo "== unified-API registry smoke (usne_run over every algorithm) =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
for algo in $(./build/usne_run --list); do
  ./build/usne_run --algo "${algo}" --family er --n 128 --kappa 4 \
    --rho 0.49 --eps 0.4 --seed 2024 --threads 1 \
    --json "${SMOKE_DIR}/${algo}.json" >/dev/null
done
echo "all $(./build/usne_run --list | wc -l) registered algorithms built"

echo "== registry vs BENCH_congest.json (CONGEST count diff) =="
# The `|| true`s keep set -e/pipefail from killing the script on a failed
# grep before the FAIL diagnostics below can print.
json_field() { { grep -o "\"$2\": [0-9]*" "$1" || true; } | head -n 1 | awk '{print $2}'; }
for algo in $(./build/usne_run --list); do
  ./build/usne_run --describe "${algo}" | grep -q "model=congest" || continue
  row="$(grep "\"algo\": \"${algo}\", \"family\": \"er\", \"n\": 128," \
    BENCH_congest.json || true)"
  if [ -z "${row}" ]; then
    echo "FAIL: no BENCH_congest.json row for ${algo} (er, n=128)" >&2
    exit 1
  fi
  for key in rounds messages words; do
    want="$(printf '%s' "${row}" | { grep -o "\"${key}\": [0-9]*" || true; } | awk '{print $2}')"
    got="$(json_field "${SMOKE_DIR}/${algo}.json" "${key}")"
    if [ "${want}" != "${got}" ]; then
      echo "FAIL: ${algo} ${key}: usne_run=${got} != BENCH_congest.json=${want}" >&2
      exit 1
    fi
  done
  echo "${algo}: rounds/messages/words match BENCH_congest.json"
done

echo "== H digest pins (usne_run h_digest) =="
# FNV-1a over H's sorted (min(u,v), max(u,v), w) edge list. The builds are
# deterministic, so any change to what a builder emits (or to the source
# detection and ruling set under them), and any registry entry that reaches
# the wrong builder or the wrong params type, moves a digest.
h_digest() { { grep -o '"h_digest": "[0-9a-f]*"' || true; } | grep -o '[0-9a-f]\{16\}' || true; }
check_digest() {  # label, pinned value, measured value
  if [ "$3" != "$2" ]; then
    echo "FAIL: $1: h_digest '$3' != pinned $2" >&2
    exit 1
  fi
  echo "$1: h_digest $3"
}
# emulator_fast and spanner at n = 2^14, eps 0.25. Recorded with the
# per-vertex-list detect_sources and the flood-per-step ruling_set_central,
# before their flat rewrite.
for pin in "emulator_fast er 4 0.45 b338040b66c1aae2" \
           "emulator_fast er 8 0.3 65d7437bb5645164" \
           "emulator_fast caveman 8 0.3 f01e6cbe3a2db3dc" \
           "spanner er 4 0.45 30ba2ad1ae99459a" \
           "spanner er 8 0.3 bfd6fb9577ef4492" \
           "spanner caveman 8 0.3 109dbc8e67fc49e5"; do
  read -r algo family kappa rho want <<< "${pin}"
  got="$(./build/usne_run --algo "${algo}" --family "${family}" --n 16384 \
    --kappa "${kappa}" --rho "${rho}" --eps 0.25 --seed 2024 --threads 1 \
    --json - | h_digest)"
  check_digest "${algo} ${family} n=16384 kappa=${kappa} rho=${rho}" "${want}" "${got}"
done
# Every registered name at the registry-smoke settings (er, n = 128,
# kappa 4, rho 0.49, eps 0.4), read from the smoke records above; a name
# without a pin fails. Recorded while every builder still had its own
# options struct. At these settings spanner = spanner_em19 and
# spanner_congest = spanner_congest_em19, so the caveman set below, where
# the two degree sequences part, pins the centralized pair apart.
smoke_pins="emulator_centralized a228cb2e4aeccf47
emulator_fast 64a307cc5e05a141
emulator_congest 3c3fe43c1c9a1ebc
spanner cdbfdd2313ab0095
spanner_em19 cdbfdd2313ab0095
spanner_congest 6ded8e1c9dffea0b
spanner_congest_em19 6ded8e1c9dffea0b
emulator_ep01 38a5c88329d779f3
emulator_tz06 e37476e07b4858a4
emulator_en17 51a61cb518006572"
for algo in $(./build/usne_run --list); do
  want="$(printf '%s\n' "${smoke_pins}" | awk -v a="${algo}" '$1 == a {print $2}')"
  if [ -z "${want}" ]; then
    echo "FAIL: ${algo} has no smoke h_digest pin" >&2
    exit 1
  fi
  check_digest "${algo} er n=128 kappa=4" "${want}" \
    "$(h_digest < "${SMOKE_DIR}/${algo}.json")"
done
# The seven centralized names on caveman n = 4096, kappa 8, rho 0.3.
for pin in "emulator_centralized f0900dad414d5147" \
           "emulator_fast 2f43cff0b691681b" \
           "spanner d36f0c80c9af9fb9" \
           "spanner_em19 8c2ab853460a7b63" \
           "emulator_ep01 b7cb3b18f593e85d" \
           "emulator_tz06 db36a7b66aa95e5e" \
           "emulator_en17 bd937f499d345501"; do
  read -r algo want <<< "${pin}"
  got="$(./build/usne_run --algo "${algo}" --family caveman --n 4096 \
    --kappa 8 --rho 0.3 --eps 0.25 --seed 2024 --json - | h_digest)"
  check_digest "${algo} caveman n=4096 kappa=8 rho=0.3" "${want}" "${got}"
done

echo "== invariant-audit counter sanity (USNE_AUDIT=1 usne_run) =="
# One audit-enabled build run and one serve run: the JSON record must carry
# the invariants field, every exercised category must show checked > 0 and
# fired == 0 (a firing would have thrown inside the run), and a default
# (audits-off) record must NOT carry the field — the audits-are-free
# guarantee at the record level.
USNE_AUDIT=1 ./build/usne_run --algo emulator_fast --family er --n 128 \
  --kappa 4 --rho 0.49 --eps 0.4 --seed 2024 --threads 1 \
  --json "${SMOKE_DIR}/audit_build.json" >/dev/null
USNE_AUDIT=1 ./build/usne_run query --algo emulator_fast --family er \
  --n 256 --kappa 4 --rho 0.3 --seed 2024 --workload zipf --queries 500 \
  --workload-seed 42 --qps-threads 2 --cache-mb 8 \
  --json "${SMOKE_DIR}/audit_query.json" >/dev/null
for probe in "audit_build.json csr" "audit_query.json csr" \
             "audit_query.json serve_cache" "audit_query.json sssp"; do
  file="${probe%% *}"; category="${probe##* }"
  counts="$(grep -o "\"${category}\": {\"checked\": [0-9]*, \"fired\": [0-9]*}" \
    "${SMOKE_DIR}/${file}" || true)"
  checked="$(printf '%s' "${counts}" | grep -o '"checked": [0-9]*' | awk '{print $2}')"
  fired="$(printf '%s' "${counts}" | grep -o '"fired": [0-9]*' | awk '{print $2}')"
  if [ -z "${checked}" ] || [ "${checked}" -eq 0 ]; then
    echo "FAIL: ${file}: invariant category '${category}' never checked" >&2
    exit 1
  fi
  if [ "${fired}" != "0" ]; then
    echo "FAIL: ${file}: invariant category '${category}' fired ${fired} times" >&2
    exit 1
  fi
done
if grep -q '"invariants"' "${SMOKE_DIR}/emulator_fast.json"; then
  echo "FAIL: audits-off usne_run record carries an invariants field" >&2
  exit 1
fi
echo "invariant counters: csr/serve_cache/sssp checked > 0, zero firings"

echo "== transport smoke (ideal parity + seeded reproducibility) =="
# For the CONGEST constructions: an explicit --transport ideal run must
# still produce the BENCH_congest.json counts (the transport layer's
# default path is bit-for-bit the classic engine), and faulty/async runs
# with a fixed --transport-seed must be reproducible run-to-run.
for algo in emulator_congest spanner_congest; do
  row="$(grep "\"algo\": \"${algo}\", \"family\": \"er\", \"n\": 128," \
    BENCH_congest.json || true)"
  ./build/usne_run --algo "${algo}" --family er --n 128 --kappa 4 \
    --rho 0.49 --eps 0.4 --seed 2024 --threads 1 --transport ideal \
    --json "${SMOKE_DIR}/${algo}.ideal.json" >/dev/null
  for key in rounds messages words; do
    want="$(printf '%s' "${row}" | { grep -o "\"${key}\": [0-9]*" || true; } | awk '{print $2}')"
    got="$(json_field "${SMOKE_DIR}/${algo}.ideal.json" "${key}")"
    if [ "${want}" != "${got}" ]; then
      echo "FAIL: ${algo} --transport ideal ${key}: ${got} != BENCH ${want}" >&2
      exit 1
    fi
  done
  echo "${algo}: --transport ideal matches BENCH_congest.json"

  for transport_flags in \
      "faulty --drop-p 0.05 --dup-p 0.02" \
      "async --latency-max 4"; do
    model="${transport_flags%% *}"
    for run in 1 2; do
      # shellcheck disable=SC2086  # transport_flags is intentionally split
      ./build/usne_run --algo "${algo}" --family er --n 128 --kappa 4 \
        --rho 0.49 --eps 0.4 --seed 2024 --threads 1 \
        --transport ${transport_flags} --transport-seed 7 \
        --json "${SMOKE_DIR}/${algo}.${model}.${run}.json" >/dev/null
    done
    if ! diff "${SMOKE_DIR}/${algo}.${model}.1.json" \
              "${SMOKE_DIR}/${algo}.${model}.2.json" >/dev/null; then
      echo "FAIL: ${algo} --transport ${model} not reproducible for a fixed seed" >&2
      exit 1
    fi
    echo "${algo}: --transport ${model} reproducible (seed 7)"
  done
done

echo "== construction profile smoke (usne_run --profile stage coverage) =="
# Per-phase stage timing (obs tentpole): the boundary-chained attribution in
# the CONGEST scheduler must account for >= 95% of the measured scheduler
# wall time — below that the profile is lying about where construction time
# goes. Counts are asserted unchanged by profiling via the registry smoke
# above (same seed, same BENCH rows).
for algo in emulator_congest spanner_congest; do
  coverage="$(./build/usne_run --algo "${algo}" --family er --n 128 --kappa 4 \
    --rho 0.49 --eps 0.4 --seed 2024 --threads 1 --profile \
    | { grep -o 'stage coverage = [0-9.]*%' || true; } | grep -o '[0-9.]*')"
  if [ -z "${coverage}" ]; then
    echo "FAIL: ${algo} --profile printed no stage-coverage line" >&2
    exit 1
  fi
  if ! awk -v c="${coverage}" 'BEGIN { exit !(c >= 95.0) }'; then
    echo "FAIL: ${algo} profile covers only ${coverage}% of scheduler wall (< 95%)" >&2
    exit 1
  fi
  echo "${algo}: profile stage coverage ${coverage}% of scheduler wall"
done

echo "== serve smoke (usne_run query: seed-stable answer checksums) =="
# Two workload shapes, each served twice multi-threaded with a fixed
# workload seed: the FNV checksum over all answers must be identical
# run-to-run (answers are a pure function of H; caching, thread count and
# scheduling must never change them).
for workload in zipf grouped; do
  for run in 1 2; do
    ./build/usne_run query --algo emulator_fast --family er --n 512 \
      --kappa 6 --rho 0.3 --seed 2024 --workload "${workload}" \
      --queries 4000 --workload-seed 42 --qps-threads 4 --cache-mb 8 \
      --json "${SMOKE_DIR}/serve.${workload}.${run}.json" >/dev/null
  done
  # Only answer-derived fields are asserted: sssp_runs may legitimately
  # vary with thread timing (the symmetric peek changes which endpoint's
  # SSSP serves a pair) — the answers themselves never do.
  for key in checksum queries; do
    a="$(json_field "${SMOKE_DIR}/serve.${workload}.1.json" "${key}")"
    b="$(json_field "${SMOKE_DIR}/serve.${workload}.2.json" "${key}")"
    if [ -z "${a}" ] || [ "${a}" != "${b}" ]; then
      echo "FAIL: serve ${workload} ${key} not seed-stable: '${a}' vs '${b}'" >&2
      exit 1
    fi
  done
  echo "serve ${workload}: checksum seed-stable across runs ($(json_field "${SMOKE_DIR}/serve.${workload}.1.json" checksum))"
done

echo "== query throughput trajectory (BENCH_serve.json row-count diff) =="
# The bench itself hard-fails if cached/uncached/serial/parallel/legacy
# answers diverge; here we additionally pin the scenario list: the number
# of recorded rows must match the committed trajectory (wall-clock values
# are expected to move, the workload set is not).
old_serve_rows=""
if [ -f BENCH_serve.json ]; then
  old_serve_rows="$(grep -c '"workload":' BENCH_serve.json || true)"
fi
./build/bench_query_throughput --threads max --json BENCH_serve.json.tmp

echo "== daemon smoke (usne_served + usne_loadgen over loopback) =="
# Start the TCP serving daemon on an ephemeral port (invariant audits on),
# drive two seeded workloads over the wire with --verify (the loadgen
# builds the same engine in-process and exits 2 if the wire checksum
# diverges — answers must be transport-independent), then shut down with
# SIGTERM and require a clean exit plus a zero-firing daemon invariant
# ledger in the shutdown record. The loadgen rows are merged into the
# bench tmp file so the row-count and checksum gates below pin the daemon
# trajectory exactly like the in-process one.
rm -f "${SMOKE_DIR}/daemon.port" "${SMOKE_DIR}/daemon.stats.json" \
      "${SMOKE_DIR}/daemon_rows.jsonl"
USNE_AUDIT=1 ./build/usne_served --algo emulator_fast --family er --n 1024 \
  --kappa 8 --rho 0.3 --seed 2024 --workers 2 --port 0 \
  --port-file "${SMOKE_DIR}/daemon.port" \
  --json "${SMOKE_DIR}/daemon.stats.json" >/dev/null &
served_pid=$!
for _ in $(seq 1 100); do
  [ -s "${SMOKE_DIR}/daemon.port" ] && break
  sleep 0.1
done
if ! [ -s "${SMOKE_DIR}/daemon.port" ]; then
  echo "FAIL: usne_served did not write its port file" >&2
  kill "${served_pid}" 2>/dev/null || true
  exit 1
fi
for workload in zipf grouped; do
  # The last workload also scrapes the daemon's Prometheus metrics page
  # (a METRICS wire request after the workload drains — quiescent, so the
  # relaxed counter reads below reconcile exactly).
  scrape_flag=""
  if [ "${workload}" = "grouped" ]; then
    scrape_flag="--scrape-metrics ${SMOKE_DIR}/daemon.metrics.prom"
  fi
  # shellcheck disable=SC2086  # scrape_flag is intentionally split
  if ! ./build/usne_loadgen --port-file "${SMOKE_DIR}/daemon.port" --n 1024 \
      --workload "${workload}" --queries 8000 --workload-seed 42 \
      --connections 4 --batch 16 --verify --algo emulator_fast --family er \
      --kappa 8 --rho 0.3 --seed 2024 ${scrape_flag} \
      --json "${SMOKE_DIR}/daemon_rows.jsonl" >/dev/null; then
    echo "FAIL: usne_loadgen ${workload} (rc 2 = wire checksum mismatch)" >&2
    kill "${served_pid}" 2>/dev/null || true
    exit 1
  fi
  echo "daemon ${workload}: wire checksum matches the in-process engine"
done
# A worker answers each frame as soon as it is free, so a cache-hit frame
# costs well under 100 us here; a fixed wait the size of the old 500 us
# flush window cannot pass this ceiling.
grouped_p50="$(grep '"workload": "grouped"' "${SMOKE_DIR}/daemon_rows.jsonl" \
  | { grep -o '"p50_us": [0-9]*' || true; } | awk '{print $2}')"
if [ -z "${grouped_p50}" ] || [ "${grouped_p50}" -ge 400 ]; then
  echo "FAIL: daemon grouped p50_us '${grouped_p50}' is not under 400 us" >&2
  kill "${served_pid}" 2>/dev/null || true
  exit 1
fi
echo "daemon grouped: p50 ${grouped_p50} us (< 400 us ceiling)"

echo "== obs smoke (daemon metrics page vs request ledger) =="
# The scraped page must carry the key series from every wired layer, and
# the usne_net_* counters on it must satisfy the same conservation law the
# daemon's invariant ledger audits: accepted == answered + rejected_busy +
# rejected_error + in_flight. The scrape was taken at quiescence (both
# workloads drained, scrape request counted on both sides of the equation),
# so the reconciliation is exact, not approximate. So is the engine's
# cache ledger: every served query is one hit or one miss, even though the
# two workers ran their batches on the engine at the same time.
if ! [ -s "${SMOKE_DIR}/daemon.metrics.prom" ]; then
  echo "FAIL: usne_loadgen --scrape-metrics wrote no metrics page" >&2
  kill "${served_pid}" 2>/dev/null || true
  exit 1
fi
metric() { awk -v n="$1" '$1 == n { print $2 }' "${SMOKE_DIR}/daemon.metrics.prom"; }
for series in usne_net_accepted_requests_total usne_net_answered_requests_total \
              usne_net_rejected_busy_total usne_net_rejected_error_total \
              usne_net_in_flight usne_serve_queries_total \
              usne_serve_sssp_runs_total usne_serve_cache_hits_total \
              usne_serve_cache_misses_total usne_net_request_latency_us_count \
              usne_net_queue_wait_us_count usne_net_engine_us_count \
              usne_net_reply_wait_us_count; do
  if [ -z "$(metric "${series}")" ]; then
    echo "FAIL: daemon metrics page is missing series ${series}" >&2
    kill "${served_pid}" 2>/dev/null || true
    exit 1
  fi
done
accepted="$(metric usne_net_accepted_requests_total)"
answered="$(metric usne_net_answered_requests_total)"
rej_busy="$(metric usne_net_rejected_busy_total)"
rej_err="$(metric usne_net_rejected_error_total)"
in_flight="$(metric usne_net_in_flight)"
if [ "${accepted}" -ne "$((answered + rej_busy + rej_err + in_flight))" ]; then
  echo "FAIL: metrics page ledger not conserved: accepted=${accepted}" \
       "!= answered=${answered} + busy=${rej_busy} + error=${rej_err}" \
       "+ in_flight=${in_flight}" >&2
  kill "${served_pid}" 2>/dev/null || true
  exit 1
fi
queries="$(metric usne_serve_queries_total)"
if [ "${queries}" -lt 16000 ]; then
  echo "FAIL: usne_serve_queries_total=${queries} < 16000 served queries" >&2
  kill "${served_pid}" 2>/dev/null || true
  exit 1
fi
hits="$(metric usne_serve_cache_hits_total)"
misses="$(metric usne_serve_cache_misses_total)"
if [ "$((hits + misses))" -ne "${queries}" ]; then
  echo "FAIL: metrics page cache ledger off: hits=${hits} + misses=${misses}" \
       "!= usne_serve_queries_total=${queries}" >&2
  kill "${served_pid}" 2>/dev/null || true
  exit 1
fi
echo "daemon metrics page: ledger conserved (accepted=${accepted}), ${queries} queries served, hits + misses == queries"
kill -TERM "${served_pid}"
if ! wait "${served_pid}"; then
  echo "FAIL: usne_served did not shut down cleanly on SIGTERM" >&2
  exit 1
fi
if ! grep -q '"daemon": {"checked": [1-9][0-9]*, "fired": 0}' \
    "${SMOKE_DIR}/daemon.stats.json"; then
  echo "FAIL: daemon invariant ledger missing or fired in shutdown record" >&2
  exit 1
fi
if ! grep -q '"in_flight": 0' "${SMOKE_DIR}/daemon.stats.json"; then
  echo "FAIL: daemon shut down with requests in flight" >&2
  exit 1
fi
echo "usne_served: clean SIGTERM shutdown, request ledger conserved"
python3 scripts/bench_serve_merge.py BENCH_serve.json.tmp \
  "${SMOKE_DIR}/daemon_rows.jsonl"

new_serve_rows="$(grep -c '"workload":' BENCH_serve.json.tmp || true)"
if [ -n "${old_serve_rows}" ] && [ "${old_serve_rows}" != "${new_serve_rows}" ]; then
  echo "FAIL: BENCH_serve.json row count changed: ${old_serve_rows} -> ${new_serve_rows}" >&2
  rm -f BENCH_serve.json.tmp
  exit 1
fi
# Answer checksums are a pure function of (H, workload seed): the committed
# per-row checksums must be byte-identical after regeneration — a serving
# optimization that moves one is a wrong answer, not a speedup. The serial
# cold engine's SSSP count (sssp_engine) is as reproducible, and pinned with
# them: a cache change that moves it is a change to call out.
serve_pins() { grep -o -e '"checksum": [0-9]*' -e '"sssp_engine": [0-9]*' "$1"; }
if [ -f BENCH_serve.json ]; then
  if ! diff <(serve_pins BENCH_serve.json) <(serve_pins BENCH_serve.json.tmp); then
    echo "FAIL: BENCH_serve.json answer checksums or sssp_engine counts drifted" >&2
    rm -f BENCH_serve.json.tmp
    exit 1
  fi
fi
mv BENCH_serve.json.tmp BENCH_serve.json
echo "BENCH_serve.json: ${new_serve_rows} serving rows recorded (checksums and sssp_engine stable)"

echo "== grouped-speedup floor (E9 regression gate) =="
# On a perfectly grouped stream the legacy single-entry cache is already
# SSSP-optimal, so the engine's honest standing is parity with the oracle:
# measured speedup_vs_oracle varies ~0.5-1.0x run-to-run on the 2-core CI
# host (both sides run ~300 SSSPs; the ratio is scheduler noise on a ~6 ms
# measurement). The floor below is NOT a perf target — it catches the
# structural regression class where the engine loses source-grouping
# entirely and runs one SSSP per query, which craters the ratio to ~0.02.
grouped_speedup="$(grep '"workload": "grouped"' BENCH_serve.json \
  | { grep -o '"speedup_vs_oracle": [0-9.]*' || true; } | head -n 1 | awk '{print $2}')"
if [ -z "${grouped_speedup}" ]; then
  echo "FAIL: BENCH_serve.json has no grouped speedup_vs_oracle field" >&2
  exit 1
fi
if ! awk -v s="${grouped_speedup}" 'BEGIN { exit !(s >= 0.35) }'; then
  echo "FAIL: grouped speedup_vs_oracle=${grouped_speedup} < 0.35 floor" \
       "(engine lost source-grouping?)" >&2
  exit 1
fi
echo "grouped speedup_vs_oracle=${grouped_speedup} (parity-class, floor 0.35)"

echo "== scale tier smoke (E10 bench_scale) =="
# Small-n run of the million-vertex tier: the binary itself hard-gates that
# serial and parallel answers are identical, and the answers are pinned by
# checksum — the Dial kernel is exact, so a change that moves one is a
# wrong answer. The committed BENCH_scale.json (full tier, regenerated
# manually) is pinned the same way: one row each at n = 2^17 and 2^20,
# with their answer checksums.
./build/bench_scale --smoke --threads max --json "${SMOKE_DIR}/scale_smoke.json"
smoke_checksums="$(grep -o '"checksum": [0-9]*' "${SMOKE_DIR}/scale_smoke.json" \
  | awk '{print $2}' | paste -sd ' ' || true)"
if [ "${smoke_checksums}" != "15112102563448698318" ]; then
  echo "FAIL: bench_scale --smoke checksums '${smoke_checksums}'" \
       "(expected one row, 15112102563448698318)" >&2
  exit 1
fi
if [ -f BENCH_scale.json ]; then
  committed_checksums="$(grep -o '"checksum": [0-9]*' BENCH_scale.json \
    | awk '{print $2}' | paste -sd ' ' || true)"
  if [ "${committed_checksums}" != "15922693041251148699 5851162239267059597" ]; then
    echo "FAIL: committed BENCH_scale.json checksums '${committed_checksums}'" \
         "(expected 2 rows: 15922693041251148699 5851162239267059597)" >&2
    exit 1
  fi
  if ! grep -q '"n": 1048576' BENCH_scale.json; then
    echo "FAIL: committed BENCH_scale.json lost its n = 2^20 row" >&2
    exit 1
  fi
  echo "BENCH_scale.json: 2 committed rows incl. n=2^20, checksums pinned; smoke gate green"
else
  echo "FAIL: BENCH_scale.json missing (run ./build/bench_scale --json BENCH_scale.json)" >&2
  exit 1
fi

echo "== done =="
