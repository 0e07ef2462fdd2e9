"""Run one bendlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

Run it from the root of a bendlab checkout: it imports bendlab from the
checkout's ``src/`` and nowhere else, and exits 2 without a result when that
is missing. One process, one thread, a closed loop with one client (see
``workloads.py`` for the workloads, why each was chosen, and which layer
metric should move which end-to-end metric).

Set-up (importing bendlab, loading the fixture, building what items share)
is done nine times and its median reported as ``setup_s``. The loop then runs
items for ``--seconds``; each item's latency covers its flow only, and its
oracle runs after it, outside the timing. ``items_per_s`` is items divided
by the sum of their latencies.

``--trace 0`` reports the end-to-end metrics and patches nothing.
``--trace 1`` runs the first half of the time untraced and the second half
with spans recorded (``tracer.py``), reports the per-layer metrics and the
tracing overhead, and writes every span to ``perfbench/out/``.

The lines before the last describe the run: the machine, the bendlab source
revision, every metric by name and unit, the error rate, and the first
failures. The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs each
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer, per_layer_metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
END_TO_END_UNITS = {"items_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class MissingProgram(Exception):
    pass


def import_bendlab():
    """A fresh import of bendlab from this checkout's src/ (and of its
    fixtures module, which the package does not import itself)."""
    if not (SRC / "bendlab" / "__init__.py").is_file():
        raise MissingProgram(f"no bendlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "bendlab" or n.startswith("bendlab.")]:
        del sys.modules[name]
    bl = importlib.import_module("bendlab")
    if Path(bl.__file__).resolve().parent != SRC / "bendlab":
        raise MissingProgram(f"bendlab imported from {bl.__file__}, not {SRC}")
    importlib.import_module("bendlab.fixtures")
    return bl


def timed_setup(workload):
    """Set up ``SETUP_REPEATS`` times; the median time and the last state."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        bl = import_bendlab()
        state = workload.setup(bl)
        times.append(perf_counter() - t0)
    return statistics.median(times), bl, state


def run_item(workload, state, seed, i, tracer=None):
    """Item ``i`` timed, then its oracle: (latency in s, problems)."""
    inp = workload.make_input(state, seed, i)
    if tracer is not None:
        tracer.item, tracer.recording = i, True
    t0 = perf_counter()
    try:
        out = workload.run(state, inp)
        error = None
    except Exception as exc:  # an item that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.recording = False
    return latency, [error] if error else workload.check(state, inp, out)


def run_items(workload, state, seed, seconds, start, tracer=None):
    """Closed loop from item ``start`` until ``seconds`` have passed."""
    latencies, items, failures = [], [], []
    i = start
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        latency, problems = run_item(workload, state, seed, i, tracer)
        latencies.append(latency)
        items.append(i)
        if problems:
            failures.append({"item": i, "problems": problems})
        i += 1
    return {"latencies": latencies, "items": items, "failures": failures}


def items_per_s(result) -> float:
    return len(result["latencies"]) / sum(result["latencies"])


def end_to_end(result, setup_s) -> dict[str, float]:
    lat_ms = sorted(x * 1000.0 for x in result["latencies"])
    deciles = statistics.quantiles(lat_ms, n=10) if len(lat_ms) > 1 else lat_ms * 9
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"items_per_s": items_per_s(result),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": deciles[8],
            "setup_s": setup_s,
            "peak_rss_mb": rss_kb / 1024.0}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "platform": platform.platform()}


def source_revision() -> dict:
    """The git commit when the checkout is a repository, and always a digest
    of the bendlab sources and data, which names the code when it is not."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "bendlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".txt"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = "unknown"
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            else:
                packed = (git / "packed-refs").read_text().splitlines()
                commit = next((ln.split()[0] for ln in packed
                               if ln.endswith(" " + ref)), commit)
        else:
            commit = head
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run; returns (result line, run record)."""
    workload = WORKLOADS[name]
    setup_s, bl, state = timed_setup(workload)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine(),
              "bendlab": source_revision(), "setup_repeats": SETUP_REPEATS}
    if not trace:
        result = run_items(workload, state, seed, seconds, 0)
        runs = [result]
        metrics = end_to_end(result, setup_s)
        units = END_TO_END_UNITS
    else:
        untraced = run_items(workload, state, seed, seconds / 2, 0)
        tracer = Tracer()
        tracer.install(bl)
        start = untraced["items"][-1] + 1 if untraced["items"] else 0
        traced = run_items(workload, state, seed, seconds / 2, start, tracer)
        tracer.uninstall()
        runs = [untraced, traced]
        metrics = tracer.per_layer(traced["items"])
        plain, slowed = items_per_s(untraced), items_per_s(traced)
        metrics["trace.untraced_items_per_s"] = plain
        metrics["trace.traced_items_per_s"] = slowed
        metrics["trace.overhead_pct"] = 100.0 * (plain - slowed) / plain
        units = per_layer_metric_units()
        spans = HERE / "out" / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write(spans, "# " + json.dumps(record))
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["spans"] = len(tracer.span_id)
    attempted = sum(len(r["items"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    record["samples"] = len(runs[-1]["latencies"])
    record["error_rate"] = len(failures) / attempted if attempted else 1.0
    record["failures"] = failures[:5]
    line = {"correct": not failures and attempted > 0, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return line, record


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    rows, ok = [], True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "1"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        print(f"{name:22} {metric:{width}} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        line, record = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {record['error_rate']:.6g} "
          f"({line['failed']} of {line['attempted']} items; "
          f"{record['samples']} latency samples)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
