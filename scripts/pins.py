#!/usr/bin/env python3
"""Runs the commands of scripts/pins.json and checks the pins on their output.

Usage: python3 scripts/pins.py   (scripts/check.sh runs it after ctest)

The manifest holds `vars`, text that commands share, and `gates`. A gate
has a `why` and `runs`; a run is a command (a string, or a list of strings
joined by spaces, run from the repository root) and `checks` on its
output. A command names its output files: {json} (a JSON record or one
JSONL row) and {prom} (a Prometheus text page). They go to a temp dir, so
nothing is written into the tree. A run's document holds "json", "prom",
"stdout" (its words) and "rc" (its exit status, which must be 0). A run
with an `each` command is a template over the words that command prints:
its checks map each word to the checks of the instance with {each} set to
it, a printed word with no checks fails, and a word with checks runs
whether or not it is printed.

A check is [field, op, want]:
  field  a dotted path into the document; a "k=v[,k=v]" step picks the
         list row with those fields, a number the row at that index; a list
         of paths is their sum, where a "-" prefix subtracts
  op     eq, lt, gt, ge: compare with want; present: want says whether the
         field exists; bench: want is ["FILE:PATH", key, pinned], and the
         rows at PATH in the committed FILE must equal the field's rows on
         each pinned field, with rows matched by their key fields

The one run marked "daemon": true starts first and writes its port to
{port}; it gets SIGTERM after the last run, and every process still
running on any exit is killed. Prints one line per check and exits 1 if
any check failed.
"""

import json
import operator
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPS = {"eq": operator.eq, "lt": operator.lt, "gt": operator.gt,
       "ge": operator.ge}


def lookup(doc, path):
    """The value at `path` in `doc`, or None where the path leads nowhere."""
    if isinstance(path, list):
        terms = [(-1 if p[0] == "-" else 1, lookup(doc, p.lstrip("-"))) for p in path]
        return None if any(v is None for _, v in terms) else sum(s * v for s, v in terms)
    for step in path.split("."):
        if isinstance(doc, list) and "=" in step:
            want = dict(kv.split("=", 1) for kv in step.split(","))
            doc = next((row for row in doc
                        if all(str(row.get(k)) == v for k, v in want.items())), None)
        elif isinstance(doc, list) and step.isdigit():
            doc = doc[int(step)] if int(step) < len(doc) else None
        else:
            doc = doc.get(step) if isinstance(doc, dict) else None
    return doc


def read(path, kind):
    """The parsed output file, or None if the command left none readable."""
    try:
        text = path.read_text()
        if kind == "prom":
            return {line.split()[0]: float(line.split()[1])
                    for line in text.splitlines() if line and line[0] != "#"}
        return json.loads(text)
    except (OSError, ValueError, IndexError):
        return None


def start(cmd, tag, subs, procs):
    """Starts `cmd` with its outputs named after `tag`; returns a finisher."""
    files = {kind: Path(subs["tmp"], f"{tag}.{kind}") for kind in ("json", "prom", "out")}
    with files["out"].open("w") as out:
        procs.append(subprocess.Popen(shlex.split(cmd.format(**subs, **files)),
                                      cwd=ROOT, stdout=out))
    proc = procs[-1]

    def finish():
        doc = {"rc": proc.wait(timeout=600), "stdout": files["out"].read_text().split()}
        return dict(doc, json=read(files["json"], "json"), prom=read(files["prom"], "prom"))
    return finish


def expand(field, op, want, doc):
    """(field, got, op, want) for one check; a bench check yields one per pin."""
    if op != "bench":
        yield field, lookup(doc, field), op, want
        return
    where, key, pinned = want
    name, _, path = where.partition(":")
    old = lookup(json.loads((ROOT / name).read_text()), path)
    new = lookup(doc, field)
    rows = {",".join(f"{k}={row.get(k)}" for k in key) for row in (old or []) + (new or [])} \
        if key else {""}
    for row in sorted(rows):
        for pin in pinned:
            at = f"{row}.{pin}" if row else pin
            yield f"{field}.{at}", lookup(new, at), "eq", lookup(old, at)


def holds(got, op, want):
    if op == "present":
        return (got is not None) == want
    return got is not None and want is not None and OPS[op](got, want)


def command(cmd):
    return " ".join(cmd) if isinstance(cmd, list) else cmd


def instances(run, doc):
    """(command, checks) pairs of a run. An `each` run is a template: one
    instance per word its `each` command prints and per key of its checks;
    a word without checks fails."""
    cmd = command(run["cmd"])
    if "each" not in run:
        return [(cmd, run["checks"])]
    words = set(doc(command(run["each"]))["stdout"]) | set(run["checks"])
    return [(command(run["each"]), [])] + [
        (cmd.replace("{each}", w), run["checks"].get(w, [["pin", "present", True]]))
        for w in sorted(words)]


def main():
    manifest = json.loads((ROOT / "scripts" / "pins.json").read_text())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the finally below
    daemon = next(command(run["cmd"]) for gate in manifest["gates"]
                  for run in gate["runs"] if run.get("daemon"))
    docs, procs, runs = {}, [], []
    with tempfile.TemporaryDirectory() as tmp:
        subs = dict(manifest["vars"], tmp=tmp, port=Path(tmp, "daemon.port"))

        def doc(cmd):
            if cmd not in docs:
                docs[cmd] = start(cmd, len(docs), subs, procs)()
            return docs[cmd]
        try:
            stop_daemon = start(daemon, "daemon", subs, procs)
            for _ in range(100):
                if subs["port"].exists() and subs["port"].stat().st_size:
                    break
                time.sleep(0.1)
            for gate in manifest["gates"]:
                for run in gate["runs"]:
                    for cmd, checks in instances(run, doc):
                        runs.append((gate["why"], cmd, checks))
                        if cmd != daemon:
                            doc(cmd)
            procs[0].send_signal(signal.SIGTERM)
            docs[daemon] = stop_daemon()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    failed, seen, total = [], set(), 0
    for why, cmd, checks in runs:
        print(f"== {cmd}")
        rc = [] if cmd in seen else [["rc", "eq", 0]]
        seen.add(cmd)
        for check in rc + checks:
            for field, got, op, want in expand(*check, docs[cmd]):
                ok, total = holds(got, op, want), total + 1
                print(f"{'ok  ' if ok else 'FAIL'}  {field} = {got!r}")
                if not ok:
                    failed.append(f"FAIL  {cmd}\n      {field} = {got!r}, want {op} {want!r}"
                                  f"\n      why: {why}")
    print("\n".join(failed + [f"pins: {total} checks, {len(failed)} failed"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
