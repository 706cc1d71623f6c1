"""Every InternalCheckError cross-check fires once the code it guards is wrong.

Each guard sits on correct code, so a test has to break that code to see
the guard fire.  Each row of ``GUARDS`` names a guard's message, a fault
injected with ``monkeypatch``, and the catalog spec of a group that
reaches the guard; the group is built fresh, outside ``from_spec``'s cache,
so a fault planted in its memo stays with that one test.
"""

from __future__ import annotations

import pytest

from nilenv import envelope
from nilenv.catalog import from_spec
from nilenv.errors import InternalCheckError


def _whole_group_as_p_core(monkeypatch, G):
    monkeypatch.setattr(envelope, "p_core", lambda G, p: G.as_subgroup())


def _engel_set_without_identity(monkeypatch, G):
    monkeypatch.setattr(envelope, "_engel_set", lambda G: (G.full_mask ^ 1, 0))


def _trivial_engel_set(monkeypatch, G):
    monkeypatch.setattr(envelope, "_engel_set", lambda G: (1, 0))


def _one_conjugacy_class(monkeypatch, G):
    # the p-cores read the classes from the memo; the Engel set does not
    G._memo[("classes",)] = (G.full_mask,)


# guard message -> (fault, spec of the group fitting runs on)
GUARDS = {
    "product of p-cores is not nilpotent": (_whole_group_as_p_core, "symmetric(3)"),
    "bounded Engel set is not a subgroup": (_engel_set_without_identity, "dihedral(4)"),
    "fitting computations disagree": (_trivial_engel_set, "symmetric(4)"),
    "2-core candidate set is not a subgroup": (_one_conjugacy_class, "symmetric(4)"),
}


@pytest.mark.parametrize("message", GUARDS)
def test_fitting_guard_fires_on_its_fault(message, monkeypatch):
    fault, spec = GUARDS[message]
    G = from_spec.__wrapped__(spec)
    envelope.fitting(G)  # the group passes before the fault
    G._memo.clear()
    fault(monkeypatch, G)
    with pytest.raises(InternalCheckError, match=f"^{message}$"):
        envelope.fitting(G)
