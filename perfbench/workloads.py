"""The four benchmark workloads: inputs from a seed, a timed body, and its checks.

Each workload is built in a fresh worker process, so every ``from_spec``
and ``envelope_formula`` cache and every ``G._memo`` starts empty.  Its
``setup`` makes the inputs and builds whatever the body needs; the body
then returns one record per operation, the digest of its outputs and any
figures the run reports beside the metrics (``untimed_s`` is time spent in
the body on the benchmark's own housekeeping, which ``wall_s`` excludes).

An operation fails when it raises or gives a wrong answer.  Answers are
checked against seed-independent invariants here; the runner also compares
the digest with the committed reference for seeds that have one.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import time
import warnings

from inputs import (
    cayley_table,
    conjugate_generators,
    conjugating,
    is_prime_power,
    relabel_table,
    relabelling,
    rng_for,
)


def _op(name: str, seconds: float, ok: bool, error: str = "") -> dict:
    return {"name": name, "ms": seconds * 1000.0, "ok": ok, "error": error}


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Verify:
    """``run_suites(SuiteConfig(seed=S))``, the library form of ``nilenv verify``."""

    def setup(self, seed: int, workdir: str, reference: dict) -> None:
        from nilenv import ALL_SUITES, DEFAULT_CATALOG, SuiteConfig

        self.config = SuiteConfig(seed=seed)
        # one op per (suite, group) outcome, plus the cross-group uniformity row
        self.planned = len(ALL_SUITES) * len(DEFAULT_CATALOG) + 1

    def run(self, clock) -> tuple[list[dict], str, dict]:
        from nilenv import run_suites

        started, started_raw = clock(), time.perf_counter()
        report = run_suites(self.config)
        wall = clock() - started
        # the library times each outcome with perf_counter, which includes the
        # speed samples taken meanwhile; scale them out
        busy = wall / (time.perf_counter() - started_raw)
        ops = [
            _op(f"{o.suite} {o.group}", o.elapsed * busy, not o.failures,
                "; ".join(f.label for f in o.failures))
            for o in report.outcomes
        ]
        suite_s: dict[str, float] = {}
        for o in report.outcomes:
            suite_s[o.suite] = suite_s.get(o.suite, 0.0) + o.elapsed * busy
        extra = {
            "passes": report.total_passes,
            "suite_s": suite_s,
            "contexts_s": wall - sum(suite_s.values()),
        }
        digest = hashlib.sha256(report.stable_text().encode()).hexdigest()
        return ops, digest, extra


# -- queries ---------------------------------------------------------------

# (label, how the CLI receives the group).  The first eight are catalog groups
# of order <= 48; the last four are the large cases a CLI user also meets.
QUERY_GROUPS = (
    ("cyclic(12)", "spec"),
    ("dihedral(4)", "table"),
    ("quaternion", "table"),
    ("symmetric(4)", "perm"),
    ("alternating(4)", "spec"),
    ("unitriangular(3)", "table"),
    ("product(dihedral(4),symmetric(3))", "table"),
    ("product(cyclic(2),cyclic(4))", "spec"),
    ("symmetric(5)", "perm"),
    ("product(unitriangular(3),symmetric(3))", "spec"),
    ("unitriangular(7)", "table"),
    ("symmetric(6)", "perm"),
)
QUERY_COMMANDS = ("info", "dim", "series", "lattice", "envelope", "fitting")

# "key: value" lines of each command's output that do not depend on labelling
INVARIANT_KEYS = {
    "info": ("order", "center order", "abelian", "nilpotence class"),
    "dim": ("order", "center order", "dimension"),
    "series": (
        "subject order", "lower central series orders", "upper central series orders",
        "nilpotence class",
    ),
    "fitting": (
        "fitting subgroup order", "by p-cores", "by envelope fixpoint", "by engel set",
        "engel bound", "nilpotence class",
    ),
}


def output_invariants(command: str, text: str) -> dict:
    """The labelling-independent content of one CLI command's output."""
    lines = text.splitlines()
    if command == "lattice":
        orders = sorted(int(line.split("order ")[1].split(" ")[0]) for line in lines if line.startswith("  C"))
        edges = [line for line in lines if line.startswith("cover edges:")]
        return {
            "nodes": int(lines[0].split(": ")[1]),
            "orders": orders,
            "edges": len(edges[0].split()) - 2 if edges else -1,
        }
    fields = dict(line.split(": ", 1) for line in lines if ": " in line and not line.startswith(" "))
    return {key: fields.get(key) for key in INVARIANT_KEYS[command]}


def envelope_ok(text: str, cyclic: bool) -> bool:
    """Structural checks on ``envelope`` output for a nilpotent subgroup H.

    H lies in the envelope D, so |H| divides |D|; the class is at least 1
    because H is nontrivial, and exactly 1 when H is cyclic; the tower has
    one stage per class step.
    """
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line and not line.startswith(" "))
    h = int(fields["subgroup order"])
    d = int(fields["envelope order"])
    cls = int(fields["nilpotence class"])
    stages = sum(1 for line in text.splitlines() if line.startswith("  E_"))
    return d % h == 0 and cls >= 1 and (cls == 1 or not cyclic) and stages == cls


class Queries:
    """A seeded stream of CLI calls through ``nilenv.cli.main`` in-process.

    Every (command, group) pair appears once, in an order shuffled by the
    seed, so each seed has the same mix.  ``from_spec``'s cache is cleared
    before each call, so every call builds its group and fills its memos.
    """

    def setup(self, seed: int, workdir: str, reference: dict) -> None:
        from nilenv import from_spec, group_to_dict

        self.expected = reference["invariants"]["queries"]
        self.from_spec = from_spec
        sources = {}
        self.pgroup = {}
        for label, how in QUERY_GROUPS:
            canonical = from_spec(label)
            self.pgroup[label] = is_prime_power(canonical.order)
            rng = rng_for(seed, "queries", label)
            if how == "spec":
                sources[label] = label
                continue
            if how == "table":
                table = relabel_table(cayley_table(canonical), relabelling(canonical.order, rng))
                data = {"kind": "cayley", "name": label, "table": table}
            else:
                desc = group_to_dict(canonical)
                sigma = conjugating(desc["degree"], rng)
                data = {
                    "kind": "perm",
                    "name": label,
                    "degree": desc["degree"],
                    "generators": conjugate_generators(desc["generators"], sigma),
                }
            path = os.path.join(workdir, f"group{len(sources)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            sources[label] = path

        self.queries = []
        for label, _ in QUERY_GROUPS:
            order = from_spec(label).order
            for command in QUERY_COMMANDS:
                argv = [command, "--group", sources[label]]
                if command == "envelope":
                    rng = rng_for(seed, "subgroup", label)
                    count = 2 if self.pgroup[label] else 1
                    gens = rng.sample(range(1, order), count)
                    argv += ["--subgroup", ",".join(map(str, gens))]
                self.queries.append((command, label, argv))
        rng_for(seed, "queries", "order").shuffle(self.queries)
        from_spec.cache_clear()
        self.planned = len(self.queries)

    def check(self, command: str, label: str, text: str) -> bool:
        if command == "envelope":
            return envelope_ok(text, cyclic=not self.pgroup[label])
        return output_invariants(command, text) == self.expected[label][command]

    def run(self, clock) -> tuple[list[dict], str, dict]:
        from nilenv.cli import main

        ops = []
        digest = hashlib.sha256()
        collecting = 0.0
        for command, label, argv in self.queries:
            # the previous call's groups are garbage now; free them outside the
            # timed region, so peak memory does not depend on when the cyclic
            # collector happens to run
            self.from_spec.cache_clear()
            started = clock()
            gc.collect()
            collecting += clock() - started
            buf = io.StringIO()
            started = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = main(argv)
            except Exception as exc:  # a crash is a failed query, not a failed benchmark
                ops.append(_op(f"{command} {label}", clock() - started, False, _error(exc)))
                continue
            elapsed = clock() - started
            text = buf.getvalue()
            try:
                ok = rc == 0 and self.check(command, label, text)
                error = "" if ok else f"exit {rc} or unexpected output"
            except (KeyError, ValueError, IndexError) as exc:
                ok, error = False, f"unparsable output: {_error(exc)}"
            ops.append(_op(f"{command} {label}", elapsed, ok, error))
            digest.update(f"{command} {label} {argv[3:]}\0{rc}\0{text}\0".encode())
        return ops, digest.hexdigest(), {"untimed_s": collecting}


# -- formula-deep ----------------------------------------------------------

FORMULA_GROUPS = ("dihedral(8)", "product(dihedral(8),cyclic(3))", "dihedral(16)")


class FormulaDeep:
    """Whole-group envelopes of class 3 and 4: build, emit and evaluate the formula."""

    def setup(self, seed: int, workdir: str, reference: dict) -> None:
        from nilenv import FiniteGroup, from_spec

        self.expected = reference["invariants"]["formula-deep"]
        self.groups = []
        for label in FORMULA_GROUPS:
            canonical = from_spec(label)
            rng = rng_for(seed, "formula-deep", label)
            table = relabel_table(cayley_table(canonical), relabelling(canonical.order, rng))
            self.groups.append((label, FiniteGroup.from_cayley_table(table, name=label)))
        from_spec.cache_clear()
        self.planned = len(self.groups)

    def run(self, clock) -> tuple[list[dict], str, dict]:
        from nilenv import EvaluationCostWarning, build_envelope, emit_envelope_formula, evaluate

        ops = []
        digest = hashlib.sha256()
        for label, G in self.groups:
            started = clock()
            try:
                trace = build_envelope(G, G.as_subgroup())
                phi = emit_envelope_formula(trace)
                with warnings.catch_warnings():
                    # the naive cost estimate warns on the class-4 case; that is expected
                    warnings.simplefilter("ignore", EvaluationCostWarning)
                    solution = evaluate(phi, G, trace.parameters)
            except Exception as exc:
                ops.append(_op(label, clock() - started, False, _error(exc)))
                continue
            elapsed = clock() - started
            want = self.expected[label]
            ok = (
                solution.members == trace.envelope.members
                and trace.envelope.order == want["order"]
                and trace.nilpotence_class == want["class"]
            )
            ops.append(_op(label, elapsed, ok, "" if ok else "solution set or envelope is wrong"))
            digest.update(f"{label} {list(trace.parameters)} {solution.members:x}\0".encode())
        return ops, digest.hexdigest(), {}


# -- lattice-deep ----------------------------------------------------------

LATTICE_GROUPS = ("symmetric(5)", "unitriangular(7)")


class LatticeDeep:
    """``all_subgroups`` and ``centralizer_lattice`` on two groups of order 120 and 343.

    ``symmetric(5)`` arrives as conjugated generating permutations and
    ``unitriangular(7)`` as a relabelled Cayley table, which takes the
    sampled-associativity path of ``from_cayley_table``.
    """

    def setup(self, seed: int, workdir: str, reference: dict) -> None:
        from nilenv import FiniteGroup, from_spec, group_to_dict

        self.expected = reference["invariants"]["lattice-deep"]
        desc = group_to_dict(from_spec("symmetric(5)"))
        sigma = conjugating(desc["degree"], rng_for(seed, "lattice-deep", "symmetric(5)"))
        s5 = FiniteGroup.from_permutations(
            desc["degree"], conjugate_generators(desc["generators"], sigma), name="symmetric(5)"
        )
        u7 = from_spec("unitriangular(7)")
        perm = relabelling(u7.order, rng_for(seed, "lattice-deep", "unitriangular(7)"))
        u7 = FiniteGroup.from_cayley_table(relabel_table(cayley_table(u7), perm), name="unitriangular(7)")
        from_spec.cache_clear()
        self.groups = [("symmetric(5)", s5), ("unitriangular(7)", u7)]
        self.planned = len(self.groups)

    def run(self, clock) -> tuple[list[dict], str, dict]:
        from nilenv import all_subgroups, centralizer_lattice

        ops = []
        digest = hashlib.sha256()
        for label, G in self.groups:
            started = clock()
            try:
                subgroups = all_subgroups(G)
                lattice = centralizer_lattice(G)
            except Exception as exc:
                ops.append(_op(label, clock() - started, False, _error(exc)))
                continue
            elapsed = clock() - started
            want = self.expected[label]
            ok = len(subgroups) == want["subgroups"] and len(lattice) == want["lattice_nodes"]
            ops.append(_op(label, elapsed, ok, "" if ok else "subgroup or centralizer count is wrong"))
            digest.update(f"{label}\0".encode())
            digest.update(",".join(f"{s.members:x}" for s in subgroups).encode())
            digest.update(",".join(f"{s.members:x}" for s in lattice.nodes).encode())
        return ops, digest.hexdigest(), {}


WORKLOADS = {
    "verify": Verify,
    "queries": Queries,
    "formula-deep": FormulaDeep,
    "lattice-deep": LatticeDeep,
}
