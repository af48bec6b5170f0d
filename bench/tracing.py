"""Per-layer call counts and timings, installed around fanalg from outside.

A boundary is a public function or method of one fanalg module.  Installing
the tracer replaces each boundary's function object in every `fanalg.*`
namespace that binds it (a function imported into another module is bound
there too), and methods are replaced on their class, so calls the library
makes internally are timed as well as calls made by the benchmark.

Spans are not stored.  Each call adds to its boundary:
- `calls`;
- `s`, inclusive seconds, counted only for the outermost active call of
  the boundary so recursion is not counted twice;
- `self_s`, its duration minus the durations of the traced calls it made,
  taken from a stack of open spans.
Layer time `layer.<name>.s` is the time during which at least one boundary of
that layer is open.  Wrappers only measure while `Tracer.on` is set, so the
benchmark's own checks between operations are not counted.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("lattice", "laurent", "linalg", "fan", "algebra", "diagram", "descent", "equivariant", "serialize", "cli")

# (metric name, module, attribute); "*_x" takes every public attribute ending in "_x"
BOUNDARIES = (
    ("lattice.snf", "lattice", "snf"),
    ("lattice.complete_to_basis", "lattice", "complete_to_basis"),
    ("lattice.IntMatrix.inverse", "lattice", "IntMatrix.inverse"),
    ("laurent.divide_by_binomial", "laurent", "divide_by_binomial"),
    ("laurent.monomial_map", "laurent", "monomial_map"),
    ("laurent.LaurentPoly.mul", "laurent", "LaurentPoly.__mul__"),
    ("linalg.QMat.matmul", "linalg", "QMat.__matmul__"),
    ("linalg.QMat.inverse", "linalg", "QMat.inverse"),
    ("linalg.QMat.det", "linalg", "QMat.det"),
    ("linalg.QMat.pow_int", "linalg", "QMat.pow_int"),
    ("linalg.rref", "linalg", "rref"),
    ("fan.build_fan", "fan", "build_fan"),
    ("fan.covering_pairs", "fan", "covering_pairs"),
    ("algebra.AlgebraElement.mul", "algebra", "AlgebraElement.__mul__"),
    ("algebra.membership_report", "algebra", "membership_report"),
    ("algebra.mu", "algebra", "mu"),
    ("algebra.delta", "algebra", "delta"),
    ("diagram.validate", "diagram", "validate"),
    ("diagram.evaluate", "diagram", "evaluate"),
    ("diagram.DiagramModule.monodromy", "diagram", "DiagramModule.monodromy"),
    ("diagram.rep_check", "diagram", "rep_check"),
    ("diagram.hom", "diagram", "hom"),
    ("descent.check_cocycle", "descent", "check_cocycle"),
    ("descent.glue", "descent", "glue"),
    ("equivariant.validate_equivariant", "equivariant", "validate_equivariant"),
    ("equivariant.inflate", "equivariant", "inflate"),
    ("serialize.load", "serialize", "*_from_data"),
    ("serialize.dump", "serialize", "*_to_data"),
    ("cli.main", "cli", "main"),
)

# groups of layers whose joint open time is reported as well
GROUPS = {"lattice_laurent": ("lattice", "laurent")}

COUNTS = (
    "laurent.divide_by_binomial.not_divisible",
    "laurent.divide_by_binomial.distinct_v",
    "linalg.QMat.matmul.mac",
    "linalg.rref.cells",
    "algebra.membership_report.entries",
    "diagram.DiagramModule.monodromy.distinct_keys",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self, fa):
        self.fa = fa
        self.on = False
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in BOUNDARIES}
        self.open_calls = dict.fromkeys(self.stats, 0)
        groups = list(LAYERS) + list(GROUPS)
        self.group_time = dict.fromkeys(groups, 0.0)
        self.open_groups = dict.fromkeys(groups, 0)
        self.stack: list[list[float]] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._divisors: set = set()
        self._mono_keys: set = set()
        self._modules: dict = {}  # keeps modules alive so their ids stay unique
        self._undo: list = []

    # -- counters taken at the boundaries ---------------------------------

    def _pre(self, name, args, kwargs):
        if name == "laurent.divide_by_binomial":
            self._divisors.add(tuple(_arg(args, kwargs, 1, "v")))
        elif name == "linalg.QMat.matmul":
            a, b = args
            self.counts["linalg.QMat.matmul.mac"] += a.m * a.n * b.n
        elif name == "linalg.rref":
            mat = _arg(args, kwargs, 0, "mat")
            self.counts["linalg.rref.cells"] += mat.m * mat.n
        elif name == "algebra.membership_report":
            self.counts["algebra.membership_report.entries"] += len(_arg(args, kwargs, 1, "entries"))
        elif name == "diagram.DiagramModule.monodromy":
            m = args[0]
            self._modules[id(m)] = m
            exponent = args[3] if len(args) > 3 else kwargs.get("exponent")
            key = (id(m), _arg(args, kwargs, 1, "cone"), tuple(_arg(args, kwargs, 2, "w")), exponent is None)
            self._mono_keys.add(key)

    def _post(self, name, result):
        if name == "laurent.divide_by_binomial" and result is None:
            self.counts["laurent.divide_by_binomial.not_divisible"] += 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        layer = name.split(".", 1)[0]
        groups = (layer,) + tuple(g for g, members in GROUPS.items() if layer in members)
        hooked = name in {c.rsplit(".", 1)[0] for c in COUNTS}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stats[0] += 1
            if hooked:
                self._pre(name, args, kwargs)
            outer = self.open_calls[name] == 0
            self.open_calls[name] += 1
            opened = [g for g in groups if self.open_groups[g] == 0]
            for g in groups:
                self.open_groups[g] += 1
            frame = [0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                self.open_calls[name] -= 1
                for g in groups:
                    self.open_groups[g] -= 1
                stats[2] += dt - frame[0]
                if outer:
                    stats[1] += dt
                for g in opened:
                    self.group_time[g] += dt
                if self.stack:
                    self.stack[-1][0] += dt
            if hooked:
                self._post(name, result)
            return result

        return traced

    def _targets(self, module: str, attr: str):
        """(owner, attribute name, function) for every object a boundary names."""
        mod = getattr(self.fa, module)
        if attr.startswith("*"):
            suffix = attr[1:]
            return [(mod, n, getattr(mod, n)) for n in sorted(vars(mod)) if n.endswith(suffix) and not n.startswith("_")]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            return [(cls, meth, cls.__dict__[meth])]
        return [(mod, attr, getattr(mod, attr))]

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "fanalg" or n.startswith("fanalg.")]
        for name, module, attr in BOUNDARIES:
            for owner, key, fn in self._targets(module, attr):
                wrapper = self._wrap(name, fn)
                if isinstance(owner, type):
                    self._undo.append((owner, key, fn))
                    setattr(owner, key, wrapper)
                    continue
                for ns in namespaces:
                    for k, v in list(vars(ns).items()):
                        if v is fn:
                            self._undo.append((ns, k, fn))
                            setattr(ns, k, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, incl, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (incl, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        counts = dict(self.counts)
        counts["laurent.divide_by_binomial.distinct_v"] = len(self._divisors)
        counts["diagram.DiagramModule.monodromy.distinct_keys"] = len(self._mono_keys)
        for name in COUNTS:
            out[name] = (counts[name], "count")
        for g, t in self.group_time.items():
            out[f"layer.{g}.s"] = (t, "s")
        return out
