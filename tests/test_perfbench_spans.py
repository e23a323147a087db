"""The benchmark's tracer still finds every layer function it wraps.

``perfbench/spans.py`` wraps quadsing's layer functions by attribute name
from outside the package, so renaming or moving one of them breaks every
traced benchmark run.  The module is loaded from its file and only read.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from quadsing import ekl

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    bezoutian = ekl.bezoutian
    tracer = _spans_module().Tracer()
    tracer.install()
    try:
        assert ekl.bezoutian is not bezoutian
        ekl.ss_form(ekl.singularity("x^2 - y^3", ("x", "y")))  # ungraded: builds the Bezoutian
    finally:
        tracer.uninstall()
    assert ekl.bezoutian is bezoutian
    assert "ekl.bezoutian" in tracer.names and "ekl.ss_form" in tracer.names
