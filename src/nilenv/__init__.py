"""Finite group computations around centralizer chains and definable envelopes.

The package centers on three constructions for a finite group G:

* the centralizer dimension of G, the length of the longest strictly
  descending chain of centralizers (:mod:`nilenv.centralizers`);
* for a nilpotent subgroup H of G, a definable envelope: a subgroup D
  containing H with the same nilpotence class, normalized by everything
  that normalizes H, and cut out by a first-order formula whose shape
  depends only on the dimension of G and the class of H
  (:mod:`nilenv.envelope`, :mod:`nilenv.formula`);
* the Fitting subgroup computed three independent ways
  (:mod:`nilenv.envelope`).

:mod:`nilenv.suites` runs randomized and exhaustive property suites over a
catalog of small groups, and :mod:`nilenv.cli` exposes everything on the
command line.
"""

from __future__ import annotations

from .catalog import (
    DEFAULT_CATALOG,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    from_spec,
    quaternion,
    symmetric,
    unitriangular,
)
from .centralizers import (
    CentralizerLattice,
    ChainReport,
    bottom_chain_classify,
    c_dimension,
    centralizer,
    centralizer_lattice,
    dimension,
    greedy_witness,
    minimal_centralizer_above,
)
from .envelope import (
    EnvelopeReport,
    EnvelopeTrace,
    FittingReport,
    TowerLevel,
    build_envelope,
    engel_iterate,
    envelope_of_normal,
    fitting,
    p_core,
    padded_parameters,
    trace_to_dict,
    verify_envelope,
)
from .errors import (
    ArityMismatchError,
    CapExceededError,
    FormulaSyntaxError,
    HypothesisError,
    InputError,
    InternalCheckError,
    MalformedInputError,
    NotASubgroupError,
    NotNilpotentError,
    NotNormalError,
    ParentMismatchError,
)
from .formula import (
    EvaluationCostWarning,
    dimension_sentence,
    emit_envelope_formula,
    envelope_formula,
    evaluate,
    format_formula,
    free_variables,
    parse,
    quantifier_depth,
    sentence_holds,
)
from .groups import (
    ElementSet,
    FiniteGroup,
    Subgroup,
    closure,
    commutator_subgroup,
    group_from_dict,
    group_to_dict,
    hall_witt_products,
    load_group,
    normal_closure,
    normalizer,
    product_set,
    save_group,
    subgroup_from_dict,
    subgroup_to_dict,
)
from .series import (
    check_centralizer_transfer,
    check_hall_bound,
    check_nested_towers,
    check_three_subgroup,
    iterated_centralizer,
    lower_central_series,
    nilpotence_class,
    upper_central_series,
)
from .suites import (
    ALL_SUITES,
    Failure,
    Report,
    SuiteConfig,
    all_subgroups,
    replay_failure,
    run_suites,
    sample_subgroups,
)

__all__ = [
    "ALL_SUITES",
    "ArityMismatchError",
    "CapExceededError",
    "CentralizerLattice",
    "ChainReport",
    "DEFAULT_CATALOG",
    "ElementSet",
    "EnvelopeReport",
    "EnvelopeTrace",
    "EvaluationCostWarning",
    "Failure",
    "FiniteGroup",
    "FittingReport",
    "FormulaSyntaxError",
    "HypothesisError",
    "InputError",
    "InternalCheckError",
    "MalformedInputError",
    "NotASubgroupError",
    "NotNilpotentError",
    "NotNormalError",
    "ParentMismatchError",
    "Report",
    "Subgroup",
    "SuiteConfig",
    "TowerLevel",
    "all_subgroups",
    "alternating",
    "bottom_chain_classify",
    "build_envelope",
    "c_dimension",
    "centralizer",
    "centralizer_lattice",
    "check_centralizer_transfer",
    "check_hall_bound",
    "check_nested_towers",
    "check_three_subgroup",
    "closure",
    "commutator_subgroup",
    "cyclic",
    "dihedral",
    "dimension",
    "dimension_sentence",
    "direct_product",
    "emit_envelope_formula",
    "engel_iterate",
    "envelope_formula",
    "envelope_of_normal",
    "evaluate",
    "fitting",
    "format_formula",
    "free_variables",
    "from_spec",
    "greedy_witness",
    "group_from_dict",
    "group_to_dict",
    "hall_witt_products",
    "iterated_centralizer",
    "load_group",
    "lower_central_series",
    "minimal_centralizer_above",
    "nilpotence_class",
    "normal_closure",
    "normalizer",
    "p_core",
    "padded_parameters",
    "parse",
    "product_set",
    "quantifier_depth",
    "quaternion",
    "replay_failure",
    "run_suites",
    "sample_subgroups",
    "save_group",
    "sentence_holds",
    "subgroup_from_dict",
    "subgroup_to_dict",
    "symmetric",
    "trace_to_dict",
    "unitriangular",
    "upper_central_series",
    "verify_envelope",
]
