#!/usr/bin/env python3
"""End-to-end pipeline benchmark: generate G, build the ultra-sparse
emulator H, answer almost-shortest-path queries on H.

    python3 perfbench/run.py --workload wire_grouped --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload congest_build --graph-seed 5 --query-seed 9 --trace 1
    python3 perfbench/run.py --selfcheck

Run it from the root of a source checkout. The first run configures and
builds perfbench/ (the repository's `usne` library plus pipeline_bench)
under $CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed.

Metric names, units and directions come from BENCHMARK.json, which lists
the two workloads, wire_grouped and congest_build. Each run of a workload
is a process of its own. --trace 0 reports the end-to-end metrics of one
untraced run. --trace 1 runs the workload untraced and then traced, and
reports the traced run's per-layer metrics plus
bench.trace_overhead.<metric> (traced minus untraced) for every end-to-end
metric. The congest metrics read 0 on wire_grouped, which does not run
that layer.

Human-readable lines come first; the last stdout line is the JSON result.
The exit code is nonzero when any correctness check fails, when the build
fails, or when the checkout holds no sources to build.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BINARY = "pipeline_bench"
WORKLOADS = ("wire_grouped", "congest_build")
# Layers that only some workloads run; their metrics read 0 elsewhere.
LAYER_WORKLOADS = {"congest": {"congest_build"}}
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds pipeline_bench; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            raise SystemExit(f"error: {ROOT / needed} is missing; run from a "
                             "full source checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", str(out), "--target", BINARY,
                    "-j", "4"], stdout=sys.stderr, check=True, timeout=840)
    return out / BINARY


def source_digest():
    """Short hash of every source the binary is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_binary(binary, args, timeout):
    """Runs pipeline_bench; returns (exit code, parsed last JSON line)."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def layer_metric(name, unit, workload, traced, untraced):
    if name.startswith("bench.trace_overhead."):
        metric = name[len("bench.trace_overhead."):]
        return traced["e2e"][metric][0] - untraced["e2e"][metric][0]
    if name in traced["layers"]:
        value, got_unit = traced["layers"][name]
        if got_unit != unit:
            raise SystemExit(f"error: {name} reported in {got_unit}, not {unit}")
        return value
    layer = name.split(".", 1)[0]
    if workload not in LAYER_WORKLOADS.get(layer, {workload}):
        return 0.0
    raise SystemExit(f"error: {workload} reported no per-layer metric {name}")


def report(res, digest):
    """Human-readable summary of one binary result."""
    e2e = res["e2e"]
    log_lines = [
        f"workload {res['workload']}  n {res['n']}  graph_seed {res['graph_seed']}"
        f"  query_seed {res['query_seed']}  nproc {res['nproc']}"
        f"  traced {res['traced']}  source {digest}  checksum {res['checksum']}",
        f"build_info {json.dumps(res['build_info'], sort_keys=True)}",
        f"setup runs (s): {res['setup_runs_s']}",
    ]
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "p50_us":
            note = f"  ({res['requests']} request samples)"
        elif name == "p99_us":
            beyond = int(res["layers"]["bench.p99_beyond"][0])
            note = (f"  (lower decile of {res['windows']} windows' p99s; "
                    f"each has >= {beyond} samples beyond)")
        elif name == "error_rate":
            note = f"  ({res['failed']} failed of {res['attempted']} attempted)"
        log_lines.append(f"  {name:<20} {value:.6g} {unit}{note}")
    for line in log_lines:
        print(line)


def measure(args):
    bench = spec()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    binary = build()
    graph_seed = args.seed if args.graph_seed is None else args.graph_seed
    query_seed = (args.seed + 1000003 if args.query_seed is None
                  else args.query_seed)
    common = ["--workload", args.workload, "--graph-seed", str(graph_seed),
              "--query-seed", str(query_seed), "--seconds", str(args.seconds)]

    runs = []
    code, untraced = run_binary(binary, common, RUN_TIMEOUT_S // (2 if args.trace else 1))
    runs.append((code, untraced))
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_out = traces / f"{args.workload}-g{graph_seed}-q{query_seed}.json"
        code, traced = run_binary(
            binary, common + ["--trace", "--trace-out", str(trace_out)],
            RUN_TIMEOUT_S // 2)
        runs.append((code, traced))
    digest = source_digest()
    for code, res in runs:
        if res is None:
            raise SystemExit(f"error: {BINARY} exited with {code} and no result")
        report(res, digest)

    correct = all(code == 0 and res["correct"] for code, res in runs)
    metrics = {}
    if args.trace:
        for m in bench["per_layer"]:
            metrics[m["name"]] = {
                "value": layer_metric(m["name"], m["unit"], args.workload,
                                      runs[1][1], runs[0][1]),
                "unit": m["unit"]}
    else:
        for m in bench["end_to_end"]:
            value, unit = untraced["e2e"][m["name"]]
            if unit != m["unit"]:
                raise SystemExit(f"error: {m['name']} reported in {unit}, "
                                 f"not {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for _, res in runs),
        "failed": sum(res["failed"] for _, res in runs),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


def selfcheck():
    """Tiny size of every workload, a few seconds in all: the percentile and
    span code against known samples, an honest run of each workload that
    must pass, and a run with a deliberately wrong reference that must be
    counted as failed."""
    binary = build()
    problems = []
    code, _ = run_binary(binary, ["--selfcheck"], 60)
    if code != 0:
        problems.append("percentile/span self-check")
    for name in WORKLOADS:
        base = ["--workload", name, "--tiny", "--seconds", "0.3",
                "--graph-seed", "3", "--query-seed", "4"]
        for extra, want_ok in (([], True), (["--trace"], True),
                               (["--corrupt-reference"], False)):
            code, res = run_binary(binary, base + extra, 60)
            label = f"{name} {' '.join(extra) or 'honest'}"
            if res is None:
                problems.append(f"{label}: no result (exit {code})")
            elif want_ok and (code != 0 or not res["correct"]):
                problems.append(f"{label}: failed {res['failed']} of "
                                f"{res['attempted']} (exit {code})")
            elif not want_ok and (code == 0 or res["failed"] == 0):
                problems.append(f"{label}: wrong reference not counted "
                                f"as failed")
            else:
                log(f"selfcheck {label}: ok ({res['failed']} failed of "
                    f"{res['attempted']})")
    for p in problems:
        log(f"selfcheck FAILED: {p}")
    print("selfcheck:", "ok" if not problems else "FAILED")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1,
                    help="graph seed; the query seed is seed + 1000003")
    ap.add_argument("--graph-seed", type=int)
    ap.add_argument("--query-seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if args.selfcheck:
        return selfcheck()
    if not args.workload:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
