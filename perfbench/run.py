"""Benchmark runner for nilenv.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 0 --seconds 20 --trace 0

``--workload all`` (the default) runs verify, queries, formula-deep and
lattice-deep one after another.  Each repetition of a workload runs in a
fresh single-threaded worker process (see ``worker.py``); the runner keeps
starting repetitions until ``--seconds`` have passed and reports medians.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``wall_s``, ``peak_rss_mb``, ``query_p50_ms`` and ``query_p95_ms``.  With
``--trace 1`` untraced and traced repetitions alternate, and the metrics are
the per-layer ones from the traced repetitions plus ``trace.overhead_s``.
Every time is reported at the reference CPU speed: the time measured in a
repetition divided by that repetition's speed factor (see ``speed.py``).
The time as measured is printed beside each and kept in the result file.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 1 if any
operation failed and 2 if the checkout holds no nilenv source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("verify", "queries", "formula-deep", "lattice-deep")
SUITES = (
    "hallwitt", "threesubgroup", "hall", "bryant", "nested",
    "bottomchain", "dimension", "envelope", "formula", "fitting",
)

# Extra set-up-only processes per untraced run, so setup_s is a median of several.
SETUP_PROBES = 2
# A worker process still running after this long is killed and its operations
# count as failed.  The slowest repetition today (formula-deep) takes about 14 s.
REPETITION_LIMIT_S = 45.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, mode: str, workdir: str) -> dict:
    """Run one worker process to completion or to the time limit."""
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, workdir]
    spawned = monotonic()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    timed_out = False
    try:
        out, err = proc.communicate(timeout=REPETITION_LIMIT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.kill()
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    messages = [json.loads(line[len("PERFBENCH "):]) for line in out.splitlines() if line.startswith("PERFBENCH ")]
    ready = next((m for m in messages if "ready" in m), None)
    result = next((m for m in messages if "ops" in m), None)
    if result is None and mode != "probe" or ready is None:
        why = "timed out" if timed_out else f"exit status {proc.returncode}"
        print(f"{workload} {mode} worker {why}:\n{err[-3000:]}", file=sys.stderr)
    return {
        "mode": mode,
        "setup_s": ready["ready"] - spawned if ready else None,
        "ready": ready,
        "result": result,
    }


def p95(values: list[float]) -> float:
    """The 95th percentile, as the mean of the samples ranked from 92.5% to 97.5%.

    Operation latencies come in clusters, one per kind of operation.  A single
    order statistic jumps from one cluster to the next when the 95% rank falls
    in a gap between them; the mean over a window of ranks moves smoothly.
    """
    ranked = sorted(values)
    low = int(0.925 * len(ranked))
    return statistics.fmean(ranked[low:max(int(0.975 * len(ranked)), low + 1)])


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def read_first_line(path: str, prefix: str = "") -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip() if prefix else line.strip()
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: int, trace: bool, reference: dict) -> dict:
    """Run one workload for ``seconds`` and gather its metrics and failures."""
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    loadavg_before = read_first_line("/proc/loadavg")
    try:
        started = time.perf_counter()
        probes = [] if trace else [spawn(workload, seed, "probe", workdir) for _ in range(SETUP_PROBES)]
        modes = ("run", "trace") if trace else ("run",)
        reps = []
        while len(reps) < len(modes) or time.perf_counter() - started < seconds:
            reps.append(spawn(workload, seed, modes[len(reps) % len(modes)], workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    loadavg_after = read_first_line("/proc/loadavg")

    attempted = failed = 0
    failures: list[str] = []
    for probe in probes:
        if probe["ready"] is None:
            attempted += 1
            failed += 1
            failures.append("set-up failed")
    want_digest = reference["digests"].get(workload, {}).get(str(seed))
    digests = set()
    for rep in reps:
        planned = rep["ready"]["planned"] if rep["ready"] else 1
        ops = rep["result"]["ops"] if rep["result"] else []
        good = sum(1 for op in ops if op["ok"])
        failures += [f"{op['name']}: {op['error']}" for op in ops if not op["ok"]]
        if len(ops) < planned:
            failures.append(f"{planned - len(ops)} operations did not complete")
        # one more operation per repetition: its output digest must match
        attempted += planned + 1
        failed += planned - good
        if rep["result"] is None:
            failed += 1
            continue
        digest = rep["result"]["digest"]
        digests.add(digest)
        if want_digest is not None and digest != want_digest:
            failed += 1
            failures.append(f"output digest {digest[:16]} differs from the reference {want_digest[:16]}")
    if len(digests) > 1:
        failed += 1
        failures.append("repetitions with the same seed gave different outputs")

    runs = [r["result"] for r in reps if r["mode"] == "run" and r["result"]]
    traced = [r["result"] for r in reps if r["mode"] == "trace" and r["result"]]
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": git_commit(),
        "python": next((r["ready"]["python"] for r in reps if r["ready"]), None),
        "numpy": next((r["ready"]["numpy"] for r in reps if r["ready"]), None),
        "nproc": os.cpu_count(),
        "cpu_model": read_first_line("/proc/cpuinfo", "model name"),
        "loadavg_before": loadavg_before,
        "loadavg_after": loadavg_after,
        "repetitions": len(reps),
    }
    metrics: dict[str, dict] = {}

    def put(name: str, unit: str, pairs: list[tuple[float, float]], reduce=statistics.median) -> None:
        """Record reduce() of the values at the reference speed; pairs are (measured, speed factor)."""
        if not pairs:
            return
        metrics[name] = {"value": reduce([x for x, _ in pairs]), "unit": unit, "n": len(pairs)}
        if unit in ("s", "ms"):
            scaled = [x / f for x, f in pairs]
            metrics[name].update(value=reduce(scaled), measured=metrics[name]["value"], samples=scaled)

    if not trace:
        put("setup_s", "s", [(x["setup_s"], x["ready"]["factor"]) for x in probes + reps if x["ready"]])
        put("wall_s", "s", [(r["wall_s"], r["factor"]) for r in runs])
        put("peak_rss_mb", "MB", [(r["rss_mb"], 1.0) for r in runs])
        latencies = [(op["ms"], r["factor"]) for r in runs for op in r["ops"]]
        put("query_p50_ms", "ms", latencies)
        put("query_p95_ms", "ms", latencies, p95)
    else:
        for name in sorted(traced[0]["layers"]) if traced else ():
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
            put(name, unit, [(r["layers"][name], r["factor"]) for r in traced])
        for suite in SUITES:
            put(f"suites.{suite}.elapsed_s", "s",
                [(r["extra"].get("suite_s", {}).get(suite, 0.0), r["factor"]) for r in runs])
        put("suites.contexts_s", "s", [(r["extra"].get("contexts_s", 0.0), r["factor"]) for r in runs])
        if runs and traced:
            overhead = (
                statistics.median(r["wall_s"] / r["factor"] for r in traced)
                - statistics.median(r["wall_s"] / r["factor"] for r in runs)
            )
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "n": len(traced)}
    env["speed_factors"] = [r["factor"] for r in runs + traced]
    if workload == "verify":
        env["passes"] = [r["extra"]["passes"] for r in runs + traced]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "env": env,
        "failures": failures,
    }


def report(workload: str, result: dict) -> None:
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        measured = f", measured {m['measured']!r}" if "measured" in m else ""
        print(f"{workload} {name} {m['value']!r} {m['unit']} (n={m['n']}{measured})")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{workload} failed_frac {frac!r} ratio ({result['failed']} failed of {result['attempted']} attempted)")
    for line in result["failures"][:20]:
        print(f"{workload} FAILED {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the nilenv benchmark workloads.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nilenv", "__init__.py")):
        print(f"no nilenv source under {ROOT}/src: run this from a nilenv checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    os.makedirs(OUT, exist_ok=True)

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in chosen:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), reference)
        results[workload] = result
        report(workload, result)
        path = os.path.join(OUT, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)

    def plain(metrics: dict, prefix: str = "") -> dict:
        return {prefix + k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}

    if len(chosen) == 1:
        metrics = plain(results[chosen[0]]["metrics"])
    else:
        metrics = {}
        for workload, result in results.items():
            metrics.update(plain(result["metrics"], f"{workload}."))
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
