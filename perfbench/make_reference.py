"""Regenerate ``reference.json``: answer invariants and per-seed output digests.

Usage, from the root of a checkout: ``python3 perfbench/make_reference.py``.

The invariants are computed on the catalog groups as the catalog labels them;
the benchmark checks that every seed's relabelled inputs give the same
answers.  The digests pin the complete outputs of the committed seeds.  Run
this only when nilenv's output is meant to change, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

from run import HERE, OUT, ROOT, WORKLOADS, spawn

REFERENCE_SEEDS = range(10)


def invariants() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nilenv import all_subgroups, centralizer_lattice, from_spec, nilpotence_class
    from nilenv.cli import main
    from workloads import FORMULA_GROUPS, LATTICE_GROUPS, QUERY_GROUPS, output_invariants

    queries = {}
    for label, _ in QUERY_GROUPS:
        queries[label] = {}
        for command in ("info", "dim", "series", "lattice", "fitting"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if main([command, "--group", label]) != 0:
                    raise SystemExit(f"{command} {label} failed")
            queries[label][command] = output_invariants(command, buf.getvalue())
    formula = {}
    for label in FORMULA_GROUPS:
        G = from_spec(label)
        formula[label] = {"order": G.order, "class": nilpotence_class(G.as_subgroup())}
    lattice = {}
    for label in LATTICE_GROUPS:
        G = from_spec(label)
        lattice[label] = {
            "subgroups": len(all_subgroups(G)),
            "lattice_nodes": len(centralizer_lattice(G)),
        }
    return {"queries": queries, "formula-deep": formula, "lattice-deep": lattice}


def main() -> int:
    path = os.path.join(HERE, "reference.json")
    reference = {"invariants": invariants(), "digests": {}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for workload in WORKLOADS:
            digests = reference["digests"].setdefault(workload, {})
            for seed in REFERENCE_SEEDS:
                rep = spawn(workload, seed, "run", workdir)
                result = rep["result"]
                if result is None or not all(op["ok"] for op in result["ops"]):
                    raise SystemExit(f"{workload} seed {seed} failed its checks")
                digests[str(seed)] = result["digest"]
                print(workload, seed, result["digest"][:16], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
