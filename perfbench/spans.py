"""In-memory spans around the public functions of quadsing's layers.

The benchmark wraps the layer functions from outside the package: each
wrapper records one span (name, start, end, the span that caused it) and,
where a layer reports a size, a count at the same boundary.  Spans stay in
memory until the run ends; ``layer_metrics`` turns them into self times.
A span's self time is its duration minus the time its child spans cover.

Spans live in flat typed arrays rather than tuples: a gw-equal run records
millions of them, and as Python objects they would keep the cyclic garbage
collector busy and inflate the tracing overhead.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import Counter

# per-layer metric name -> span name whose self time it sums
SELF_TIME = {
    "parse_s": "poly.parse",
    "groebner_s": "poly.groebner",
    "bezoutian_s": "ekl.bezoutian",
    "normal_form_s": "QuotientBasis.nf_vector",
    "ss_form_self_s": "ekl.ss_form",
    "diagonalize_s": "gw.diagonalize",
    "squareclass_s": "gw.factorint",
    "is_equal_s": "gw.is_equal",
    "hilbert_s": "gw.hilbert_symbol",
    "render_s": "cli.run",
    "interpreter_s": "interpreter",
}
# per-layer metric name -> span name whose self times give a per-process median
STARTUP = {"import_s": "import quadsing", "sympy_import_s": "import sympy"}
# per-layer metric name -> span name whose spans inside ops it counts
CALLS = {
    "groebner_calls": "poly.groebner",
    "nf_calls": "QuotientBasis.nf_vector",
    "factor_calls": "gw.factorint",
    "hilbert_calls": "gw.hilbert_symbol",
}
# counts recorded by the wrappers themselves; factor_max_bits is a maximum
SIZES = ("groebner_basis_size", "bezoutian_terms", "diagonalize_dim", "factor_max_bits")
OP = "op"


class Tracer:
    """Records spans and counts; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.sizes: Counter = Counter()
        self._stack = [-1]
        self._patched: list = []

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _append(self, name: str, start: float, end: float, parent: int) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(parent)
        self.end.append(end)
        self.start.append(start)
        return idx

    def begin(self, name: str) -> int:
        idx = self._append(name, time.perf_counter(), 0.0, self._stack[-1])
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self._stack.pop()
        self.end[idx] = time.perf_counter()

    def records(self) -> list:
        """The spans as [name, start, end, parent] lists."""
        names = self.names
        return [[names[n], s, e, p] for n, s, e, p in zip(self.name, self.start, self.end, self.parent)]

    def add_child_process(self, record: dict, parent: int) -> None:
        """Adopt the spans and counts of a child process run inside span `parent`.

        perf_counter is the system-wide monotonic clock, so the child's times
        line up with ours; the gaps before its first and after its last
        timestamp are interpreter start-up and exit.
        """
        op_start, op_end = self.start[parent], self.end[parent]
        self._append("interpreter", op_start, record["start"], parent)
        base = len(self.start)
        for name, start, end, p in record["spans"]:
            self._append(name, start, end, parent if p < 0 else base + p)
        self._append("interpreter", record["end"], op_end, parent)
        for key, value in record["sizes"].items():
            if key == "factor_max_bits":
                self.sizes[key] = max(self.sizes[key], value)
            else:
                self.sizes[key] += value

    def wrap(self, name: str, fn, on_call=None):
        nid = self._id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function, wherever a quadsing module binds it."""
        from quadsing import cli, ekl, gw
        from quadsing import poly as P

        sizes = self.sizes

        def on_groebner(args, q):
            sizes["groebner_basis_size"] += len(q.groebner)

        def on_factor(args, result):
            bits = abs(int(args[0])).bit_length()
            if bits > sizes["factor_max_bits"]:
                sizes["factor_max_bits"] = bits

        def on_bezoutian(args, result):
            sizes["bezoutian_terms"] += len(result.terms)

        def on_diagonalize(args, result):
            sizes["diagonalize_dim"] += len(args[0])

        targets = [
            ("poly.parse", P.parse, None),
            ("poly.groebner", P.groebner, on_groebner),
            ("ekl.bezoutian", ekl.bezoutian, on_bezoutian),
            ("ekl.ss_form", ekl.ss_form, None),
            ("gw.diagonalize", gw.diagonalize, on_diagonalize),
            ("gw.factorint", gw.factorint, on_factor),
            ("gw.is_equal", gw.is_equal, None),
            ("gw.hilbert_symbol", gw.hilbert_symbol, None),
            ("cli.run", cli.run, None),
        ]
        modules = [m for n, m in sys.modules.items() if n == "quadsing" or n.startswith("quadsing.")]
        for name, fn, hook in targets:
            wrapped = self.wrap(name, fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, fn))
        nf = P.QuotientBasis.nf_vector
        P.QuotientBasis.nf_vector = self.wrap("QuotientBasis.nf_vector", nf)
        self._patched.append((P.QuotientBasis, "nf_vector", nf))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def layer_metrics(self) -> dict:
        """Per-layer self times and counts over the spans inside ops."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        op = self._name_id.get(OP, -1)
        in_op = [False] * n
        self_by_name: Counter = Counter()
        calls: Counter = Counter()
        startup: dict = {}
        op_total = 0.0
        startup_ids = {self._name_id.get(s) for s in STARTUP.values()}
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            self_time = dur[i] - child[i]
            if nid in startup_ids:
                startup.setdefault(self.names[nid], []).append(self_time)
            in_op[i] = nid == op or (p >= 0 and in_op[p])
            if not in_op[i]:
                continue
            self_by_name[nid] += self_time
            calls[nid] += 1
            if nid == op:
                op_total += dur[i]
        by_name = lambda table: {self.names[k]: v for k, v in table.items()}
        self_by_name, calls = by_name(self_by_name), by_name(calls)
        out = {metric: self_by_name.get(span, 0.0) for metric, span in SELF_TIME.items()}
        for metric, span in STARTUP.items():
            out[metric] = statistics.median(startup[span]) if span in startup else 0.0
        for metric, span in CALLS.items():
            out[metric] = calls.get(span, 0)
        for key in SIZES:
            out[key] = self.sizes[key]
        out["traced_op_s"] = op_total
        out["unspanned_s"] = self_by_name.get(OP, 0.0)
        return out

    def dump(self, path) -> None:
        """Write the spans as CSV: index, parent, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start,end\n")
            for i, (name, start, end, parent) in enumerate(self.records()):
                fh.write(f"{i},{parent},{name},{start:.9f},{end:.9f}\n")


def timed_imports(tracer: Tracer) -> None:
    """Import sympy, then quadsing, each under its own start-up span."""
    idx = tracer.begin(STARTUP["sympy_import_s"])
    import sympy  # noqa: F401

    tracer.finish(idx)
    idx = tracer.begin(STARTUP["import_s"])
    import quadsing  # noqa: F401
    import quadsing.cli  # noqa: F401

    tracer.finish(idx)
