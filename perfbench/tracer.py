"""Spans around nilenv's public functions, recorded from outside the library.

:func:`install` replaces every binding of each traced function across the
loaded ``nilenv`` modules (``from .x import f`` copies the binding, so
patching the defining module alone would miss callers) and wraps the traced
``FiniteGroup`` methods on the class.  Each call records one span: its
name, start, end, parent span and whether it raised.  Spans stay in memory
and are written out by :meth:`Tracer.write`.

Per-element operations (``mul``, ``inv``, ``conj``, ``comm``,
``engel_iterate``, ``hall_witt_products``) are deliberately not traced;
their cost stays in the self time of the traced function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from array import array

# metric prefix -> traced functions, as "module.name" or "module.Class.method"
SPANNED = {
    "catalog.build": (
        "catalog.from_spec", "catalog.cyclic", "catalog.dihedral", "catalog.symmetric",
        "catalog.alternating", "catalog.quaternion", "catalog.unitriangular",
        "catalog.direct_product",
    ),
    "groups.table": (
        "groups.FiniteGroup.from_cayley_table", "groups.FiniteGroup.from_permutations",
        "groups.group_from_dict", "groups.load_group",
    ),
    "groups.closure": ("groups.FiniteGroup.closure_mask",),
    "groups.cent": (
        "groups.FiniteGroup.element_centralizer_mask", "groups.FiniteGroup.center_mask",
        "groups.FiniteGroup.centralizer_mask",
    ),
    "groups.norm": ("groups.FiniteGroup.normalizer_mask", "groups.FiniteGroup.conjugate_mask"),
    "groups.comm": ("groups.commutator_subgroup", "groups.normal_closure", "groups.product_set"),
    "centralizers.lattice": ("centralizers.centralizer_lattice",),
    "centralizers.dimension": ("centralizers.dimension", "centralizers.c_dimension"),
    "centralizers.witness": (
        "centralizers.greedy_witness", "centralizers.minimal_centralizer_above",
    ),
    "series.central": (
        "series.lower_central_series", "series.upper_central_series", "series.nilpotence_class",
    ),
    "series.tower": ("series.iterated_centralizer",),
    "series.checks": (
        "series.check_hall_bound", "series.check_three_subgroup",
        "series.check_centralizer_transfer", "series.check_nested_towers",
    ),
    "envelope.build": ("envelope.build_envelope", "envelope.envelope_of_normal"),
    "envelope.assert": ("envelope._assert_trace",),
    "envelope.verify": ("envelope.verify_envelope",),
    "envelope.fitting": ("envelope.fitting", "envelope.p_core"),
    "formula.emit": ("formula.emit_envelope_formula", "formula.envelope_formula"),
    "formula.format": ("formula.format_formula",),
    "formula.parse": ("formula.parse",),
    "formula.evaluate": ("formula.evaluate", "formula.sentence_holds"),
    "suites.all_subgroups": ("suites.all_subgroups",),
    "cli.main": ("cli.main",),
}

LAYERS = ("catalog", "groups", "centralizers", "series", "envelope", "formula", "suites", "cli")


class Tracer:
    """Span storage plus the work counts observed at the traced boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.prefix_of: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_failed = array("b")
        self._stack = [-1]
        self._serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.closure_keys: set[tuple[int, int]] = set()
        self._lattices: weakref.WeakSet = weakref.WeakSet()
        self.lattice_nodes = 0
        self._enumerated: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.subgroups_found = 0
        self.evaluated: dict[int, object] = {}

    # -- observers for the counts named in the metric list ----------------

    def _group_serial(self, G) -> int:
        serial = self._serial.get(G)
        if serial is None:
            serial = self._serial[G] = len(self._serial)
        return serial

    def _on_closure(self, args, result) -> None:
        self.closure_keys.add((self._group_serial(args[0]), args[1]))

    def _on_lattice(self, args, result) -> None:
        if result not in self._lattices:
            self._lattices.add(result)
            self.lattice_nodes += len(result)

    def _on_all_subgroups(self, args, result) -> None:
        if args[0] not in self._enumerated:
            self._enumerated[args[0]] = True
            self.subgroups_found += len(result)

    def _on_evaluate(self, args, result) -> None:
        self.evaluated.setdefault(id(args[0]), args[0])

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, qualname: str, prefix: str, observe=None):
        name_id = len(self.names)
        self.names.append(qualname)
        self.prefix_of.append(prefix)
        names, parents = self.span_name, self.span_parent
        starts, ends, failed = self.span_start, self.span_end, self.span_failed
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            failed.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function and method in the loaded nilenv modules."""
        observers = {
            "groups.closure": self._on_closure,
            "centralizers.lattice": self._on_lattice,
            "suites.all_subgroups": self._on_all_subgroups,
            "formula.evaluate": self._on_evaluate,
        }
        for module_name in LAYERS:
            importlib.import_module(f"nilenv.{module_name}")
        modules = [m for name, m in sys.modules.items() if name == "nilenv" or name.startswith("nilenv.")]
        for prefix, targets in SPANNED.items():
            for target in targets:
                module_name, _, attr = target.partition(".")
                home = sys.modules[f"nilenv.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(raw.__func__, target, prefix, observers.get(prefix)))
                    else:
                        wrapped = self.wrap(raw, target, prefix, observers.get(prefix))
                    setattr(cls, method, wrapped)
                    continue
                original = getattr(home, attr)
                wrapped = self.wrap(original, target, prefix, observers.get(prefix))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and failures per metric prefix, plus the work counts."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = {prefix: 0 for prefix in SPANNED}
        self_s = {prefix: 0.0 for prefix in SPANNED}
        failed = {layer: 0 for layer in LAYERS}
        prefix_of = self.prefix_of
        for i, name_id in enumerate(self.span_name):
            prefix = prefix_of[name_id]
            calls[prefix] += 1
            self_s[prefix] += ends[i] - starts[i] - child[i]
            if self.span_failed[i]:
                failed[prefix.partition(".")[0]] += 1

        out: dict[str, float] = {}
        for prefix in SPANNED:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_s"] = self_s[prefix]
        for layer in LAYERS:
            out[f"{layer}.failed"] = failed[layer]
        distinct = len(self.closure_keys)
        out["groups.closure.distinct"] = distinct
        out["groups.closure.distinct_ratio"] = distinct / calls["groups.closure"] if distinct else 0.0
        out["centralizers.lattice.nodes"] = self.lattice_nodes
        out["suites.all_subgroups.found"] = self.subgroups_found
        tree, dag = formula_sizes(self.evaluated.values())
        out["formula.tree_nodes"] = tree
        out["formula.dag_nodes"] = dag
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            names = self.names
            for i, name_id in enumerate(self.span_name):
                fh.write(
                    json.dumps(
                        [names[name_id], self.span_start[i], self.span_end[i],
                         self.span_parent[i], self.span_failed[i]]
                    )
                )
                fh.write("\n")


def formula_sizes(formulas) -> tuple[int, int]:
    """Summed tree size and summed count of distinct node objects of the formulas.

    The tree size counts a shared subformula once per occurrence; the DAG
    count counts each node object once, which is what an evaluator keyed by
    node identity has to visit.
    """
    from nilenv.formula import size

    tree = dag = 0
    for phi in formulas:
        tree += size(phi)
        seen: set[int] = set()
        todo = [phi]
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for child in ("left", "right", "operand", "body"):
                sub = getattr(node, child, None)
                if sub is not None and not isinstance(sub, str):
                    todo.append(sub)
        dag += len(seen)
    return tree, dag
