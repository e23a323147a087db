"""The four workloads: seeded inputs, one operation each, and their checks.

A workload hands out rounds.  Every round has the same make-up of
operations, so a run of any length attempts whole rounds and the share of
known failures per round is fixed.  Inputs never repeat within a process:
sympy keeps a process-wide cache of factors found, so a repeated input would
make the square-class layer vanish from the numbers.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks

F = Fraction


class Item:
    """One operation's input plus what its checks need to know."""

    __slots__ = ("label", "data", "known_fault")

    def __init__(self, label: str, data: dict, known_fault: bool = False):
        self.label, self.data, self.known_fault = label, data, known_fault


class _Fresh:
    """Draws inputs until one has not been seen in this process."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seen: set = set()

    def unseen(self, draw):
        while True:
            value = draw(self.rng)
            if value not in self.seen:
                self.seen.add(value)
                return value


def child_env(root: Path) -> dict:
    """The environment for a child interpreter that imports quadsing from src/."""
    paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _coeff(rng, bound: int) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _term(c: int, names: str, exps) -> str:
    mono = "*".join(f"{v}^{e}" for v, e in zip(names, exps) if e)
    return f"{c}*{mono}"


def _form_record(form) -> dict:
    """What the checks need from a BilinearForm, without the dense Gram."""
    gram = {(i, j): v for i, row in enumerate(form.gram) for j, v in enumerate(row) if v}
    return {"basis": form.basis, "gram": gram, "pos": form.gw.pos, "neg": form.gw.neg}


class _Milnor:
    in_process = True

    def run(self, item: Item):
        from quadsing import ekl

        d = item.data
        return _form_record(ekl.ss_form(ekl.singularity(d["src"], d["vars"])))


class MilnorSparse(_Milnor):
    """Few-monomial weighted-homogeneous inputs, mu from about 20 to 360.

    Each slot of a round keeps mu nearly fixed, so rounds cost alike; the
    seed picks exponents within the slot, the variable order and the
    coefficients.  Above the three cheap fault inputs, the four small slots
    (mu 19-25) hold the 5th and 6th of a round's ten costs, so the median
    operation is one of them and not the gap between them and the large ones.
    """

    # slot -> exponent tuples of Brieskorn-Pham sums, mu = prod(a - 1)
    BP = {
        "bp2-small": [(5, 6), (4, 8), (3, 12), (5, 7), (3, 13), (4, 9)],
        "bp2-large": [(15, 16), (14, 17), (13, 18), (12, 20)],
        "bp3": [(4, 6, 7), (5, 5, 6), (3, 7, 9), (4, 5, 8)],
        "bp4": [(4, 5, 6, 7)],
    }

    def __init__(self, seed: int, root: Path):
        self.fresh = _Fresh(seed)

    def _bp(self, slot: str) -> Item:
        def draw(rng):
            exps = list(rng.choice(self.BP[slot]))
            rng.shuffle(exps)
            return tuple((a, _coeff(rng, 9)) for a in exps)

        parts = self.fresh.unseen(draw)
        names = "xyzw"[: len(parts)]
        src = " + ".join(
            _term(c, names, [a if k == i else 0 for k in range(len(parts))])
            for i, (a, c) in enumerate(parts)
        )
        return Item(slot, {
            "src": src, "vars": list(names), "weights": [F(1, a) for a, _ in parts],
            "bp": parts,
        })

    def _nonsplit(self, slot: str) -> Item:
        # (exponents of the two monomials, k range, weights for exponent k)
        shapes = {
            "d": ((2, 1), range(19, 24), lambda k: (F(k - 1, 2 * k), F(1, k))),  # mu = k + 1
            "e": ((3, 1), range(10, 12), lambda k: (F(k - 1, 3 * k), F(1, k))),  # mu = 2k + 1
            "x3": ((3, 0), range(7, 10), lambda k: (F(1, 3), F(2, 3 * k))),  # mu = 3k - 2
        }
        first, ks, weights = shapes[slot]

        def draw(rng):
            return rng.choice(ks), _coeff(rng, 9), _coeff(rng, 9)

        k, c1, c2 = self.fresh.unseen(lambda rng: (slot,) + draw(rng))[1:]
        second = (0, k) if slot != "x3" else (1, k)
        src = f"{_term(c1, 'xy', first)} + {_term(c2, 'xy', second)}"
        return Item(slot, {"src": src, "vars": ["x", "y"], "weights": weights(k)})

    @staticmethod
    def _local(r: int) -> list[Item]:
        """Inputs whose Jacobian algebra is not local: known to fail today.

        ss_form reduces modulo the whole Jacobian ideal and so returns the
        form summed over every critical point.  The local class at the
        origin is 0 where the origin is not critical and <det Hess f(0)> at
        a Morse point.  They depend on the round only, never on the seed.
        """
        c = r + 1
        return [
            Item("local", {"src": f"x^3 - {c}*x", "vars": ["x"], "local": (0, None)}, True),
            Item("local", {"src": f"x^2 - y^2 + {c}*y^3", "vars": ["x", "y"], "local": (1, -4)}, True),
            Item("local", {"src": f"x^2 - y^2 + {c}*y^4", "vars": ["x", "y"], "local": (1, -4)}, True),
        ]

    def round(self, r: int) -> list[Item]:
        return self._local(r) + [
            self._nonsplit("d"), self._nonsplit("e"), self._nonsplit("x3"),
            self._bp("bp2-small"), self._bp("bp3"), self._bp("bp2-large"), self._bp("bp4"),
        ]

    def check(self, item: Item, result) -> str | None:
        d = item.data
        if "local" in d:
            return checks.check_local_class(result, *d["local"])
        problem = checks.check_gram(result, d["weights"])
        if problem is None and "bp" in d:
            problem = checks.check_invariants(result, checks.brieskorn_pham_class(d["bp"]))
        return problem


class MilnorDense(_Milnor):
    """Dense homogeneous forms: a binary octic, a binary septic, a ternary cubic.

    Coefficients are nonzero integers up to a fixed bound per shape.  A draw
    whose Jacobian ideal is not zero-dimensional (checked with sympy's own
    Groebner bases) is skipped, whatever it would cost.  The octic bound is
    2: at 3, about a third of the octics hit a hard semiprime (0.7-8.5 s,
    80-99% of it in factorint), and the share of those per run swings the
    median by 40% from seed to seed.
    """

    SHAPES = (("octic", 8, "xy", 2), ("septic", 7, "xy", 3), ("cubic", 3, "xyz", 9))

    def __init__(self, seed: int, root: Path):
        self.fresh = _Fresh(seed)

    @staticmethod
    def _monomials(d: int, n: int):
        if n == 1:
            return [(d,)]
        return [(i,) + rest for i in range(d, -1, -1) for rest in MilnorDense._monomials(d - i, n - 1)]

    @staticmethod
    def isolated(src: str, names: str) -> bool:
        from sympy import groebner, symbols, sympify

        syms = symbols(",".join(names))
        f = sympify(src.replace("^", "**"), locals=dict(zip(names, syms)))
        return groebner([f.diff(s) for s in syms], *syms, order="grevlex").is_zero_dimensional

    def _draw(self, label: str, d: int, names: str, bound: int) -> Item:
        monos = self._monomials(d, len(names))
        while True:
            coeffs = self.fresh.unseen(lambda rng: tuple(_coeff(rng, bound) for _ in monos))
            src = " + ".join(_term(c, names, e) for c, e in zip(coeffs, monos))
            if self.isolated(src, names):
                return Item(label, {"src": src, "vars": list(names),
                                    "weights": [F(1, d)] * len(names)})

    def round(self, r: int) -> list[Item]:
        return [self._draw(*shape) for shape in self.SHAPES]

    def check(self, item: Item, result) -> str | None:
        return checks.check_gram(result, item.data["weights"]) or checks.check_against_gram(result)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


class GwEqual:
    """Pairs of diagonal forms over Q, equal or not by construction.

    Entries are about 20 bits: a sign times three distinct primes from
    [32, 128), dealt so that every one of those 20 primes divides some entry
    of a pair of rank 14 or more.  Both sides of every pair also hold p and
    q, primes above all the others, so each pair has the same relevant
    primes.

    Equal pairs: permutation, scaling by squares, <a,b> = <a+b, ab(a+b)> (on
    a = s*u^2, b = s*v^2 with u^2 + v^2 free of new odd primes) and
    <1,1> = <2,2>.  Unequal pairs replace <p,q> by <1,pq> with p = 1 mod 4
    and q a non-residue mod p: rank, signature and discriminant agree and
    the Hasse invariants differ only at p and q, the two largest relevant
    primes, so every cheaper test passes and every smaller prime is checked.
    Keeping every prime small keeps the cost in the O(n^2) Hilbert symbols
    per prime rather than in one factorization of a large product.
    """

    in_process = True
    RANKS = (8, 20, 32)
    PRIMES = [p for p in range(32, 128) if _is_prime(p)]

    def __init__(self, seed: int, root: Path):
        self.fresh = _Fresh(seed)

    def _smooth(self, n: int) -> bool:
        while n % 2 == 0:
            n //= 2
        for p in self.PRIMES:
            while n % p == 0:
                n //= p
        return n == 1

    def _entries(self, n: int) -> tuple:
        """n - 4 entries; the first four are two pairs s*u^2, s*v^2."""
        def draw(rng):
            pool = list(self.PRIMES)
            rng.shuffle(pool)
            triples = [pool[i: i + 3] for i in range(0, len(pool), 3)]
            triples[-1] += rng.sample([p for p in self.PRIMES if p not in triples[-1]],
                                      3 - len(triples[-1]))
            while len(triples) < n - 6:
                triples.append(rng.sample(self.PRIMES, 3))
            triples = triples[: n - 6]
            rng.shuffle(triples)
            s = [rng.choice((1, -1)) * math.prod(t) for t in triples]
            out = []
            for k in (0, 1):
                u, v = rng.randint(1, 40), rng.randint(1, 40)
                while u == v or not self._smooth(u * u + v * v):
                    u, v = rng.randint(1, 40), rng.randint(1, 40)
                out += [s[k] * u * u, s[k] * v * v]
            return tuple(out + s[2:])

        return self.fresh.unseen(draw)

    @staticmethod
    def _disguise(entries, rng) -> list:
        out = list(entries)
        for k in (0, 2):
            a, b = out[k], out[k + 1]
            out[k], out[k + 1] = a + b, a * b * (a + b)
        out = [v * rng.randint(1, 5) ** 2 for v in out]
        rng.shuffle(out)
        return out

    @staticmethod
    def _hasse_primes(rng) -> tuple[int, int]:
        p = rng.randrange(2**9, 2**10)
        while not (p % 4 == 1 and _is_prime(p)):
            p += 1
        q = p + 1
        while not (_is_prime(q) and pow(q, (p - 1) // 2, p) == p - 1):
            q += 1
        return p, q

    def round(self, r: int) -> list[Item]:
        rng = self.fresh.rng
        items = []
        for i, n in enumerate(self.RANKS):
            equal = (i + r) % 2 == 0
            base = self._entries(n)
            p, q = self._hasse_primes(rng)
            left = list(base) + [1, 1, p, q]
            tail = [q * rng.randint(1, 5) ** 2, p] if equal else [1, p * q]
            right = self._disguise(base, rng) + [2, 2] + tail
            rng.shuffle(right)
            items.append(Item(f"rank{n}", {"left": left, "right": right, "equal": equal}))
        return items

    def run(self, item: Item):
        from quadsing import gw

        return gw.is_equal(gw.diag_form(item.data["left"]), gw.diag_form(item.data["right"]))

    def check(self, item: Item, result) -> str | None:
        if result is not item.data["equal"]:
            return f"verdict {result} != {item.data['equal']} by construction"
        return None


class CliCold:
    """A fixed sequence of fresh `quadsing ... --json` processes."""

    in_process = False

    def __init__(self, seed: int, root: Path, tracer=None):
        self.root = root
        self.tracer = tracer
        self.env = child_env(root)
        self.schemas = {}
        for name, (_, schema, _) in checks.CLI_CALLS.items():
            if schema:
                path = root / "src" / "quadsing" / "schemas" / schema
                self.schemas[name] = json.loads(path.read_text(encoding="utf-8"))
        self.first_output: dict = {}
        self.peak_rss_kb = 0
        self.out_dir = root / "perfbench" / "out"

    def round(self, r: int) -> list[Item]:
        return [Item(name, {"argv": argv}) for name, (argv, _, _) in checks.CLI_CALLS.items()]

    def _argv(self, item: Item) -> list[str]:
        batch = str(self.root / "perfbench" / "data" / "batch.json")
        argv = [a.replace("{batch_file}", batch) for a in item.data["argv"]] + ["--json"]
        if self.tracer is None:
            return [sys.executable, "-m", "quadsing.cli"] + argv
        spans = self.out_dir / f"cli-spans-{os.getpid()}.json"
        return [sys.executable, str(self.root / "perfbench" / "cli_traced.py"), str(spans)] + argv

    def run(self, item: Item):
        proc = subprocess.Popen(self._argv(item), cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def adopt_spans(self, parent: int) -> None:
        """Move the spans a traced child wrote into this process's tracer."""
        path = self.out_dir / f"cli-spans-{os.getpid()}.json"
        self.tracer.add_child_process(json.loads(path.read_text(encoding="utf-8")), parent)
        path.unlink()

    def check(self, item: Item, result) -> str | None:
        returncode, stdout = result
        problem = checks.check_cli(item.label, returncode, stdout, self.schemas.get(item.label))
        if problem is None:
            first = self.first_output.setdefault(item.label, stdout)
            if stdout != first:
                problem = "output differs from the first call in this run"
        return problem


WORKLOADS = {
    "milnor-sparse": MilnorSparse,
    "milnor-dense": MilnorDense,
    "gw-equal": GwEqual,
    "cli-cold": CliCold,
}


def peak_rss_mb(workload) -> float:
    """Peak resident memory of whichever process did the operations."""
    if workload.in_process:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        kb = workload.peak_rss_kb
    return kb / 1024.0
