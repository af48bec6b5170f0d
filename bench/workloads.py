"""Seeded inputs and operations of the benchmark workloads.

Each builder takes `fa`, a namespace holding freshly imported fanalg modules,
a seed and a directory for input files, and returns `(ops, round_len)`.  The
closed loop in run.py repeats `ops` in order; the first `round_len` ops form
one round, which covers every kind of operation the workload has and is what
the traced pass and the reference pass run.

Operations call into fanalg through module attributes (`fa.algebra.mu`, not a
name bound at build time), so the tracer's wrappers see every call.  Inputs are
built only from constructors that live in `src/`; the small random module
generator below is the benchmark's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable


def digest(record: Any) -> str:
    """sha256 of the canonical JSON form of an operation's result."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    """One operation of the closed loop.

    `call(k)` is the timed part; `k` is the loop's running operation index.
    `check(result, exc)` is not timed and returns `(verdict_ok, record)`, where
    `record` is the canonical result whose digest is compared with `expect`.
    When `expect` is None, the first run of the op fixes it, so every later
    run of the same input must reproduce the same bytes.
    """

    label: str
    call: Callable[[int], Any]
    check: Callable[[Any, BaseException | None], tuple[bool, Any]]
    expect: str | None = None
    before: Callable[[], None] | None = None


def stock_fans(fa) -> dict:
    f = fa.fan
    p1 = f.projective_line_fan()
    p2 = f.projective_plane_fan()
    return {
        "C1": f.standard_fan(1),
        "C2": f.standard_fan(2),
        "P1": p1,
        "P2": p2,
        "F1": f.hirzebruch_fan(1),
        "P1xP1": f.product_fan(p1, p1),
        "P2xP1": f.product_fan(p2, p1),
    }


# ---------------------------------------------------------------------------
# small random module generator


# Character scalars.  None is 1, so chi(ray) - 1 != 0 on the first ray
# (1, 0, ...) of every stock fan and corrupted() always finds an arrow pair
# with v u nonzero.  Small heights, and conjugation by unit-spread
# invertibles, keep the cost of a module from depending much on the seed.
SCALARS = tuple(Fraction(x) for x in ("2", "3", "-1", "-2", "1/2", "-1/2", "3/2"))


def character(fa, fan, rng: random.Random):
    return fa.diagram.character_module(fan, [rng.choice(SCALARS) for _ in range(fan.rank)])


def conjugated(fa, m, rng: random.Random):
    return fa.diagram.conjugate(m, {c: fa.linalg.random_invertible(m.dims[c], rng, spread=1) for c in m.fan.cones})


def corrupted(fa, m):
    """Copy of m with one u arrow doubled.

    The arrow is taken where v u is nonzero, so the monodromy axiom
    id + v u can no longer hold and the copy is invalid.
    """
    for key in sorted(m.u):
        if not (m.v[key] @ m.u[key]).is_zero():
            u = dict(m.u)
            u[key] = u[key].scale(2)
            return fa.diagram.DiagramModule(m.fan, m.dims, m.torus, u, m.v)
    raise ValueError("module has no arrow pair with v u nonzero")


# ---------------------------------------------------------------------------
# corner_roundtrip: mu(delta(x)) == x on corner members

CORNER_FANS = ("P2", "P1xP1", "F1")
CORNER_ROUNDS = 8
RANK3_PER_ROUND = 2


def _corner_op(fa, name: str, fan, sigma, tau, rng: random.Random) -> Op:
    x = fa.algebra.random_member(fan, rng, row_cone=sigma, col_cone=tau)

    def call(k: int):
        y = fa.algebra.mu(fa.algebra.delta(x, sigma, tau))
        return y == x, y

    def check(out, exc):
        if exc is not None:
            return False, {"raised": repr(exc)}
        same, y = out
        return same is True, fa.serialize.element_to_data(y)

    label = f"mu(delta) {name} ({fa.fan.cone_key(sigma)})x({fa.fan.cone_key(tau)})"
    return Op(label, call, check, expect=digest(fa.serialize.element_to_data(x)))


def corner_roundtrip(fa, seed: int, workdir: Path):
    fans = stock_fans(fa)
    rng = random.Random(seed)
    rank3 = fans["P2xP1"]
    rank3_pairs = [(s, t) for s in rank3.maximal for t in rank3.maximal]
    ops = []
    for r in range(CORNER_ROUNDS):
        for name in CORNER_FANS:
            fan = fans[name]
            for sigma in fan.maximal:
                for tau in fan.maximal:
                    ops.append(_corner_op(fa, name, fan, sigma, tau, rng))
        for j in range(RANK3_PER_ROUND):
            sigma, tau = rank3_pairs[(r * RANK3_PER_ROUND + j) % len(rank3_pairs)]
            ops.append(_corner_op(fa, "P2xP1", rank3, sigma, tau, rng))
    return ops, len(ops) // CORNER_ROUNDS


# ---------------------------------------------------------------------------
# rep_zoo: rep_check on a fixed zoo of valid modules and corrupted copies

REP_TRIALS = 1
REP_ROUNDS = 3  # zoos drawn per run, so a run averages over several draws


def _rep_zoo_modules(fa, rng: random.Random) -> list:
    """Valid modules on P1, C2, P2, F1 and P1xP1, total dimension 1 to 18."""
    fans = stock_fans(fa)
    d = fa.diagram
    p1, c2, p2, f1, p1p1 = (fans[k] for k in ("P1", "C2", "P2", "F1", "P1xP1"))

    def ch(fan):
        return character(fa, fan, rng)

    def conj(m):
        return conjugated(fa, m, rng)

    def conj_sum(fan, n):
        m = ch(fan)
        for _ in range(n - 1):
            m = d.direct_sum(m, ch(fan))
        return conj(m)

    return [
        d.point_module(p1, (0,)),
        conj_sum(p1, 2),
        conj_sum(p1, 5),
        d.point_module(c2, ()),
        ch(c2),
        conj_sum(c2, 4),
        d.point_module(p2, (0, 1)),
        ch(p2),
        conj_sum(p2, 2),
        ch(f1),
        fa.descent.glue(fa.descent.twisted_datum(ch(f1), rng)),
        conj_sum(f1, 2),
        d.tensor_module(ch(p1), ch(p1)),
        conj(d.direct_sum(d.tensor_module(ch(p1), ch(p1)), ch(p1p1))),
    ]


def _rep_op(fa, m, rejected: bool) -> Op:
    # The trial seed is the call index: every call draws new members, and runs
    # with different workload seeds draw the same ones, so that only the
    # modules differ between them.
    def call(k: int):
        return fa.diagram.rep_check(m, trials=REP_TRIALS, seed=k)

    def check(out, exc):
        if rejected:
            ok = isinstance(exc, ValueError) and str(exc).startswith("invalid module")
            return ok, {"rejected": str(exc) if exc is not None else None}
        if exc is not None:
            return False, {"raised": repr(exc)}
        return out.ok is True, {"ok": out.ok, "trials": out.trials, "failure": out.failure}

    kind = "corrupted" if rejected else "valid"
    label = f"rep_check {kind} dim {m.total_dim()} rank {m.fan.rank} cones {len(m.fan.cones)}"
    expect = None if rejected else digest({"ok": True, "trials": REP_TRIALS, "failure": None})
    return Op(label, call, check, expect=expect)


def rep_zoo(fa, seed: int, workdir: Path):
    rng = random.Random(seed)
    ops = []
    for _ in range(REP_ROUNDS):
        zoo = _rep_zoo_modules(fa, rng)
        # one corrupted copy each of a P2 and an F1 module, at fixed positions
        bad = {5: corrupted(fa, zoo[7]), 11: corrupted(fa, zoo[9])}
        for i, m in enumerate(zoo):
            ops.append(_rep_op(fa, m, rejected=False))
            if i in bad:
                ops.append(_rep_op(fa, bad[i], rejected=True))
    return ops, len(ops) // REP_ROUNDS


# ---------------------------------------------------------------------------
# cli_descent_hom: in-process CLI calls on JSON files written at set-up

CLI_FANS = ("P2", "F1", "P2xP1")
CLI_ROUNDS = 3  # rounds of distinct inputs, so a run averages over several draws


def _cli_module(fa, name: str, fan, rng: random.Random):
    """Conjugated sum of characters: one on P2xP1, whose 21 cones already make
    gluing slow; two on F1; two plus a point module on P2.  The costs of the
    `mod hom` calls on F1 and on P2 then overlap and, with the P2xP1
    `desc glue` calls, make one tail with no gap at p90, so that p90 does not
    jump between two groups of calls from run to run."""
    d = fa.diagram
    m = character(fa, fan, rng)
    if name != "P2xP1":
        m = d.direct_sum(m, character(fa, fan, rng))
    if name == "P2":
        m = d.direct_sum(m, d.point_module(fan, fan.maximal[0]))
    return conjugated(fa, m, rng)


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return str(path)


def _cli_op(fa, argv: list[str], rc: int, output: Path | None = None, output_data=None) -> Op:
    """`rc` is the exit code the CLI contract requires; `output_data`, when
    given, is the JSON the command must write to `output`."""

    def before():
        if output is not None:
            output.unlink(missing_ok=True)

    def call(k: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = fa.cli.main(argv)
            except SystemExit as e:  # argparse rejects the command line
                code = e.code
        return code, buf.getvalue()

    def check(out, exc):
        if exc is not None:
            return False, {"raised": repr(exc)}
        code, text = out
        written = output.read_text(encoding="utf-8") if output is not None and output.exists() else None
        ok = code == rc
        if output is not None and rc == 0:
            ok = ok and written is not None
            if output_data is not None:
                ok = ok and json.loads(written) == output_data
        return ok, {"rc": code, "stdout": text, "file": written}

    args = [a if not a.startswith("/") else Path(a).name for a in argv]
    return Op("fanalg " + " ".join(args), call, check, before=before)


def _cli_round(fa, fans: dict, rng: random.Random, workdir: Path) -> list[Op]:
    s = fa.serialize
    ops = []
    for name in CLI_FANS:
        fan = fans[name]
        m = _cli_module(fa, name, fan, rng)
        other = conjugated(fa, m, rng)
        identity = [[int(i == j) for j in range(fan.rank)] for i in range(fan.rank)]
        eq = fa.equivariant.EqDiagramModule(
            fan, fa.equivariant.quotient_presentation(q=identity), m.dims, m.torus, m.u, m.v
        )
        data = s.module_to_data(m)
        mod = _write(workdir / f"{name}.module.json", data)
        oth = _write(workdir / f"{name}.other.json", s.module_to_data(other))
        taut = _write(workdir / f"{name}.taut.json", s.descent_to_data(fa.descent.tautological_datum(m)))
        twist = _write(workdir / f"{name}.twist.json", s.descent_to_data(fa.descent.twisted_datum(m, rng)))
        eqf = _write(workdir / f"{name}.eq.json", s.eq_module_to_data(eq))
        out = workdir / f"{name}.out.json"
        ops += [
            _cli_op(fa, ["desc", "check", taut], 0),
            _cli_op(fa, ["desc", "check", twist], 0),
            _cli_op(fa, ["desc", "glue", taut, "-o", str(out)], 0, out, data),
            _cli_op(fa, ["desc", "glue", twist, "-o", str(out)], 0, out),
            _cli_op(fa, ["mod", "validate", mod], 0),
            _cli_op(fa, ["mod", "hom", mod, mod], 0),
            _cli_op(fa, ["mod", "hom", mod, oth], 0),
            _cli_op(fa, ["mod", "hom", oth, mod], 0),
            _cli_op(fa, ["equi", "validate", eqf], 0),
            _cli_op(fa, ["equi", "inflate", eqf, "-o", str(out)], 0, out, data),
        ]
    # cyclic quotients of the one-ray fan: valid when s^p = 1 + v u
    c1 = fans["C1"]
    QMat = fa.linalg.QMat
    for p in (2, 3):
        sc = Fraction(rng.choice([2, -2, 3]))
        u, v = Fraction(2), (sc**p - 1) / 2
        eq = fa.equivariant.EqDiagramModule(
            c1, fa.equivariant.quotient_presentation(q=[[p]]), {(): 1, (0,): 1},
            {(): (QMat([[sc]]),), (0,): (QMat([[sc]]),)},
            {((), (0,)): QMat([[u]])}, {((), (0,)): QMat([[v]])},
        )
        eqf = _write(workdir / f"C1.cyclic{p}.json", s.eq_module_to_data(eq))
        out = workdir / f"C1.cyclic{p}.out.json"
        ops += [
            _cli_op(fa, ["equi", "validate", eqf], 0),
            _cli_op(fa, ["equi", "inflate", eqf, "-o", str(out)], 0, out),
        ]
    # negative controls: both must exit 1
    p2 = fans["P2"]
    m = conjugated(fa, character(fa, p2, rng), rng)
    d = fa.descent.tautological_datum(m)
    maps = {key: dict(blocks) for key, blocks in d.glue_maps.items()}
    key = (p2.maximal[0], p2.maximal[1])
    maps[key][()] = maps[key][()].scale(2)
    bad_datum = _write(workdir / "P2.bad_datum.json", s.descent_to_data(fa.descent.DescentDatum(p2, d.charts, maps)))
    bad_module = _write(workdir / "F1.bad_module.json", s.module_to_data(corrupted(fa, character(fa, fans["F1"], rng))))
    out = workdir / "P2.bad_datum.out.json"
    ops += [
        _cli_op(fa, ["desc", "check", bad_datum], 1),
        _cli_op(fa, ["desc", "glue", bad_datum, "-o", str(out)], 1, out),
        _cli_op(fa, ["mod", "validate", bad_module], 1),
    ]
    return ops


def cli_descent_hom(fa, seed: int, workdir: Path):
    rng = random.Random(seed)
    fans = stock_fans(fa)
    ops = []
    for r in range(CLI_ROUNDS):
        (workdir / str(r)).mkdir()
        ops += _cli_round(fa, fans, rng, workdir / str(r))
    return ops, len(ops) // CLI_ROUNDS


WORKLOADS = {
    "corner_roundtrip": corner_roundtrip,
    "rep_zoo": rep_zoo,
    "cli_descent_hom": cli_descent_hom,
}
