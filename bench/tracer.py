"""Outside-in layer trace of twistcheck, installed from the benchmark.

``Tracer.install()`` wraps the public functions of the traced modules and
rebinds every name under which a twistcheck module reaches them, so a call
made through a ``from .x import y`` alias is traced like a direct one.
Nothing in the program changes; ``uninstall()`` puts the originals back.

Two granularities:

* span level (``scenario``, ``jacobi``, ``contact``, ``groupoid``, ``apath``,
  ``tensor``, ``linsolve``): every call is kept in memory as a span with its
  parent, plus aggregated count, total and self time.  Self time is the
  duration minus the time covered by child spans.
* expr level (``Expr`` construction and arithmetic, ``parse``, ``is_zero``,
  ``eval`` and the numpy determinant and rank): hundreds of thousands of calls
  per round, so only count, total and self time are kept.  Self time here
  also excludes nested expr-level calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

SPAN_MODULES = ("scenario", "jacobi", "contact", "groupoid", "apath", "tensor", "linsolve")

# names that are not in a module's __all__ but are traced as spans: the
# per-check span that the per-kind check times are taken from
EXTRA_SPANS = {"scenario": ("_run_check",)}

EXPR_METHODS = {
    "__init__": "new", "__add__": "add", "__radd__": "add", "__sub__": "sub",
    "__rsub__": "sub", "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow",
    "diff": "diff", "subst": "subst", "eval": "eval",
}
EXPR_FUNCTIONS = ("parse", "is_zero")
TENSOR_METHODS = {"Form": ("apply",), "MultiVec": ("apply",)}


class _Agg:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.agg: dict[str, _Agg] = {}
        # open calls: [span id or -1, time covered by child spans,
        # time covered by any traced child]
        self._stack: list[list] = [[0, 0.0, 0.0]]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        # properties of the traced values
        self.expr_terms = 0
        self.expr_exp = 0
        self.expr_den = 0
        self.expr_dims: Counter = Counter()
        self.tensor_stored = 0
        self.tensor_nonzero = 0
        self.linsolve_max_n = 0
        self.is_zero_sampled = 0
        self.brackets: set = set()
        # every structure seen by a bracket, held so that its id, which keys
        # ``brackets``, is not reused by a later job's structure
        self._bracket_owners: dict[int, object] = {}

    # -- wrappers ------------------------------------------------------------

    def _agg(self, name: str) -> _Agg:
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = _Agg()
        return a

    def _span_wrapper(self, name: str, fn, observe=None):
        """``observe(args)`` sees each call's arguments; if it returns a name,
        the span's duration is also added to that name's aggregate."""
        agg = self._agg(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = observe(args) if observe is not None else None
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                agg.calls += 1
                agg.total += d
                agg.self += d - frame[1]
                parent[1] += d
                parent[2] += d
                self.spans.append((sid, parent[0], name, t0, t1))
                if key is not None:
                    by_key = self._agg(key)
                    by_key.calls += 1
                    by_key.total += d
                    by_key.self += d - frame[1]
            self._observe_result(result)
            return result

        return traced

    def _expr_wrapper(self, name: str, fn, after=None):
        agg = self._agg(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                agg.calls += 1
                agg.total += d
                agg.self += d - frame[2]
                parent[2] += d
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- value properties ------------------------------------------------------

    def _after_new(self, args, _result):
        e = args[0]
        num, den = e.num, e.den
        self.expr_terms += len(num)
        self.expr_dims[e.chart.dim] += 1
        if len(den) > 1:
            self.expr_den += 1
        for key in num:
            if any(key[1]):
                self.expr_exp += 1
                return
        for key in den:
            if any(key[1]):
                self.expr_exp += 1
                return

    def _after_is_zero(self, _args, verdict):
        if verdict.kind != "SymbolicZero":
            self.is_zero_sampled += 1

    def _observe_result(self, result):
        comps = getattr(result, "comps", None)
        if isinstance(comps, dict):
            self.tensor_stored += len(comps)
            self.tensor_nonzero += sum(1 for c in comps.values() if c.num)

    def _observe_solve(self, args):
        a = args[0]
        self.linsolve_max_n = max(self.linsolve_max_n, len(a[0]) if a else 0)

    def _observe_bracket(self, args):
        j, a, b = args[:3]
        self._bracket_owners.setdefault(id(j), j)
        self.brackets.add((id(j), str(a[0]), str(a[1]), str(b[0]), str(b[1])))

    @staticmethod
    def _observe_check(args):
        # scenario._run_check(sc, cdef, ...): time each check by its kind
        return f"check.{args[1].get('check')}"

    # -- install -------------------------------------------------------------

    def install(self) -> "Tracer":
        import numpy as np

        from twistcheck import expr, tensor

        mods = {name: sys.modules[f"twistcheck.{name}"] for name in SPAN_MODULES}
        replace: dict[int, object] = {}
        observers = {"solve": self._observe_solve, "algebroid_bracket": self._observe_bracket,
                     "_run_check": self._observe_check}
        for short, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_SPANS.get(short, ()))
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and id(fn) not in replace:
                    replace[id(fn)] = self._span_wrapper(f"{short}.{name}", fn, observers.get(name))
        for name in EXPR_FUNCTIONS:
            fn = getattr(expr, name)
            after = self._after_is_zero if name == "is_zero" else None
            replace[id(fn)] = self._expr_wrapper(f"expr.{name}", fn, after)
        # rebind module globals, re-exports and aliases alike
        for modname, mod in list(sys.modules.items()):
            if modname != "twistcheck" and not modname.startswith("twistcheck."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and inspect.isfunction(value):
                    self._patch(mod, attr, replace[id(value)])
        for attr, short in EXPR_METHODS.items():
            fn = expr.Expr.__dict__[attr]
            after = self._after_new if attr == "__init__" else None
            self._patch(expr.Expr, attr, self._expr_wrapper(f"expr.{short}", fn, after))
        for cls_name, attrs in TENSOR_METHODS.items():
            cls = getattr(tensor, cls_name)
            for attr in attrs:
                self._patch(cls, attr, self._span_wrapper(f"tensor.{attr}", cls.__dict__[attr]))
        for attr in ("det", "matrix_rank"):
            self._patch(np.linalg, attr, self._expr_wrapper(f"numpy.{attr}", getattr(np.linalg, attr)))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        # a class attribute is read from __dict__ so that the original, not a
        # bound or inherited lookup, is put back
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def wrap(self, name: str, fn):
        """Trace ``fn`` as a span named ``name``; for the benchmark's own
        units of work, such as one job."""
        return self._span_wrapper(name, fn)

    def write(self, path: str) -> None:
        """Spans, one JSON object a line, then one line of aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
            fh.write(json.dumps({"aggregates": {
                name: {"calls": a.calls, "total_s": a.total, "self_s": a.self}
                for name, a in sorted(self.agg.items())
            }, "traffic": self.traffic()}) + "\n")

    def traffic(self) -> dict:
        new = max(self.agg["expr.new"].calls, 1) if "expr.new" in self.agg else 1
        return {
            "expr.chart_dim_share": {str(d): n / new for d, n in sorted(self.expr_dims.items())},
            "expr.exp_share": self.expr_exp / new,
            "expr.den_share": self.expr_den / new,
            "tensor.nonzero_share": self.tensor_nonzero / max(self.tensor_stored, 1),
        }
