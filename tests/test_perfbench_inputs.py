"""The benchmark's own milnor-sparse, milnor-dense and gw-equal inputs all
pass the benchmark's checks.

``perfbench/workloads.py`` builds every round of milnor-sparse, three
inputs whose Jacobian algebra is not local among them, every round of
milnor-dense, and every round of gw-equal, whose pairs of diagonal forms are
equal or unequal by construction, and checks each result without reusing
quadsing's answers.  The module and its ``checks`` are loaded from their
files and only read.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports checks
    imported = "checks" in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    if not imported:
        sys.modules.pop("checks", None)


def _failures(workload, batch):
    failures = []
    for item in batch:
        problem = workload.check(item, workload.run(item))
        if problem is not None:
            failures.append(f"{item.label} {item.data.get('src', '')}: {problem}")
    return failures


def test_no_milnor_sparse_item_fails(workloads):
    workload = workloads.MilnorSparse(41, PERFBENCH.parent)
    batch = workload.round(0)
    assert sum(item.known_fault for item in batch) == 3
    assert _failures(workload, batch) == []


def test_no_milnor_dense_item_fails(workloads):
    """An octic, a septic and a ternary cubic, dense, through the Groebner
    kernel and the graded form."""
    workload = workloads.MilnorDense(41, PERFBENCH.parent)
    batch = workload.round(0)
    assert [item.label for item in batch] == ["octic", "septic", "cubic"]
    assert _failures(workload, batch) == []


def test_no_gw_equal_item_fails(workloads):
    """Ranks 8, 20 and 32, equal and unequal; the unequal pairs differ only
    in their Hasse invariants at the two largest relevant primes."""
    workload = workloads.GwEqual(41, PERFBENCH.parent)
    batch = workload.round(0) + workload.round(1)
    assert [item.label for item in batch] == ["rank8", "rank20", "rank32"] * 2
    assert [item.data["equal"] for item in batch] == [True, False, True, False, True, False]
    assert _failures(workload, batch) == []
