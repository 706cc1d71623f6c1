"""One benchmark process: set a workload up, run its body once, report.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR``, where
MODE is ``probe`` (set up and stop), ``run`` (set up and run the body) or
``trace`` (the same with spans around nilenv's public functions).  The
runner starts a fresh process for every repetition, so each one starts
memo-cold.  Messages to the runner are stdout lines starting with
``PERFBENCH``; everything else the process prints is ignored.

CPU speed is sampled from the first line on (see ``speed.py``).  Each
message carries the speed factor of its period, and the times it reports
exclude the time spent sampling.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")


def send(message: dict) -> None:
    sys.stdout.write("PERFBENCH " + json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    speed = Speed()
    speed.start()
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    sys.path.insert(0, SRC)
    import numpy
    import nilenv

    if not os.path.abspath(nilenv.__file__).startswith(SRC + os.sep):
        print(f"nilenv was imported from {nilenv.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    from workloads import WORKLOADS

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    job = WORKLOADS[workload]()
    job.setup(seed, workdir, reference)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC) - speed.sampling_s
    speed.stop()
    speed.sample_all(3)  # set-up may be shorter than a few sampling periods
    send({
        "ready": ready,
        "factor": speed.factor(),
        "planned": job.planned,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    if mode == "probe":
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    speed.reset()
    speed.start()
    started = speed.clock()
    ops, digest, extra = job.run(speed.clock)
    wall = speed.clock() - started - extra.get("untimed_s", 0.0)
    speed.stop()
    speed.sample_all(3)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "wall_s": wall,
        "factor": speed.factor(),
        "rss_mb": rss_mb,
        "ops": ops,
        "digest": digest,
        "extra": extra,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(os.path.join(OUT, f"spans-{workload}.jsonl"))
    send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
