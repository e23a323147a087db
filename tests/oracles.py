"""Slow reference code that only the tests call.

``substitute`` expands a polynomial at polynomial images with
``Polynomial`` arithmetic, which no code in the package applies: its kernels
run on integer term dicts.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from quadsing.poly import Exps, Polynomial


def substitute(f: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """Evaluate f at the given polynomials, one per variable.  Each term's
    expansion is added into one dict, so the cost is linear in the number
    of expanded terms."""
    if len(images) != f.nvars:
        raise ValueError("need one image polynomial per variable")
    if not images:
        return f
    nvars = images[0].nvars
    out: dict[Exps, Fraction] = {}
    get = out.get
    for exps, c in f.terms.items():
        term = Polynomial.constant(nvars, c)
        for img, e in zip(images, exps):
            if e:
                term = term * img ** e
        for m, v in term.terms.items():
            out[m] = get(m, 0) + v
    return Polynomial._of(nvars, {m: v for m, v in out.items() if v})
