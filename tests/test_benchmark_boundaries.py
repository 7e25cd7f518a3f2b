"""Every layer boundary the end-to-end benchmark times still resolves.

``benchmarks/e2e/calls.py`` names each timed layer by ``(owner, attribute)``
pairs.  A boundary that no longer resolves is only reported in a result's
``missing_boundaries``, and its metric silently reads as absent, so this
test resolves every entry the way the benchmark does.  Renaming or deleting
a function that a boundary names fails here, in the change that does it.
The file is loaded read-only, under a private module name.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

CALLS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks", "e2e", "calls.py"
)

#: Boundaries that name functions deleted before this test existed; the
#: benchmark's own re-baseline is where they get repointed.
KNOWN_MISSING = {
    ("repro.relations.krelation.KRelation", "with_storage"),
    ("repro.engine.kernels", "join_relations"),
    ("repro.engine.kernels", "project_relation"),
    ("repro.datalog.seminaive", "solve_ground_seminaive"),
}


def _load_calls():
    spec = importlib.util.spec_from_file_location("_e2e_calls", CALLS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


calls = _load_calls()
BOUNDARIES = sorted(
    (metric, owner, attribute)
    for table in (calls.SETUP_BOUNDARIES, calls.PASS_BOUNDARIES)
    for metric, entries in table.items()
    for owner, attribute in entries
)


def _resolves(owner: str, attribute: str) -> bool:
    try:
        getattr(calls.resolve(owner), attribute)
    except (ImportError, AttributeError):
        return False
    return True


@pytest.mark.parametrize(
    "metric, owner, attribute", BOUNDARIES, ids=[f"{m}:{o}.{a}" for m, o, a in BOUNDARIES]
)
def test_boundary_resolves(metric, owner, attribute):
    if (owner, attribute) in KNOWN_MISSING:
        assert not _resolves(owner, attribute), "resolves again: drop it from KNOWN_MISSING"
    else:
        assert _resolves(owner, attribute), f"{metric} times {owner}.{attribute}, which is gone"


def test_every_known_missing_boundary_is_still_named():
    named = {(owner, attribute) for _, owner, attribute in BOUNDARIES}
    assert KNOWN_MISSING <= named
