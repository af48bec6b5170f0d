"""Command-line interface.

Every command reads UTF-8 JSON files, prints one finding per line as
code<TAB>location<TAB>detail followed by a summary, and exits with 0 on
success, 1 on a mathematical failure, 2 on an input error and 3 on an
internal error.  All runs are deterministic for a fixed --seed; reports are
byte-stable.  A file is an input error only where it is read, in `_read`;
`main` maps every outcome to its exit code once, and prints an internal
error as one line with no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from pathlib import Path

from fanalg import serialize
from fanalg.algebra import (
    central,
    delta,
    matrix_unit,
    membership_report,
    mu,
    random_member,
    required_divisor,
    unit,
)
from fanalg.descent import check_cocycle, glue
from fanalg.diagram import dupont_demo, hom, relation_report, rep_check, validate
from fanalg.equivariant import ag_structure, associativity_report, inflate, validate_equivariant
from fanalg.fan import build_fan, cone_key, covering_pairs, fan_report, projective_line_fan, standard_fan
from fanalg.lattice import snf
from fanalg.laurent import LaurentPoly, binomial
from fanalg.report import InputError, Rejected, Report

PASS, FAIL, BAD_INPUT, INTERNAL = 0, 1, 2, 3

# Measured in process with Python 3.11 on one core of a shared 2-vCPU host.
# `equi structure` builds and prints a table of cones^3 structure constants:
# 32 cones are 32,768 entries, about 1.3 s and 41 MB, and 64 cones took 11 s
# and 185 MB.
MAX_STRUCTURE_CONES = 32
# A trial of `alg mudelta` on maximal cones (sigma, tau) draws a member over
# 2^|sigma| * 2^|tau| cone-pair slots, so a run fills trials * F^2 slots, F
# being the number of faces of the maximal cones counted per cone.  Runs took
# about 14 to 22 us per slot: 3.2 s for P2xP1 at 100 trials (230,400 slots)
# and 4.8 s at the limit, one 8-ray cone at 4 trials.
MAX_MUDELTA_SLOTS = 2**18
# `mod hom` solves for the sum over cones of dim_a * dim_b unknowns, with
# about three times as many equations, in stages: the torus equations of each
# cone alone, then the arrows.  Its elimination grows much faster than that
# count on dense input: conjugated sums of characters took 0.09 s at 252
# unknowns on P2, and 1.3 s at 242 and 3.4 s at 288 on the one-ray fan (one
# elimination over all unknowns took 0.7 s, 4.2 s and 9.7 s).
MAX_HOM_UNKNOWNS = 256


def _read(reader, *args):
    """reader(*args), with a ValueError turned into an InputError of the same
    message: the one place where a file, or a path the user gave, is bad."""
    try:
        return reader(*args)
    except ValueError as e:
        raise InputError(str(e)) from e


def _json_int(numeral: str) -> int | str:
    """A JSON integer literal: its int up to `serialize.MAX_DIGITS` digits, under
    every limit of the interpreter, and past that the numeral, which readers refuse."""
    return int(numeral) if len(numeral.lstrip("-")) <= serialize.MAX_DIGITS else numeral


def _load_json(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_int=_json_int)


def _load(reader, path: str, *args):
    """reader(data, *args) of the JSON file at `path`."""
    return reader(_load_json(path), *args)


def _dump_json(data, path: str | None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _read(Path(path).write_text, text, "utf-8")  # a NUL byte in the path is an input error


def _resolve_fan(data, path: str):
    """The fan of the "fan" slot of the file at `path`: an inline fan object
    or the path of a fan file."""
    slot = serialize.fan_slot(data)
    if isinstance(slot, str):
        return serialize.fan_from_data(_load_json(Path(path).parent / slot))  # an absolute path replaces the folder
    return serialize.fan_from_data(slot, "$.fan")


def _load_with_fan(reader, path: str):
    """reader(data, fan) of the file at `path` and the fan it names."""
    data = _load_json(path)
    return reader(data, _resolve_fan(data, path))


def _fan_source(data, path: str) -> tuple[str, str]:
    """What the "fan" slot of the file at `path` names: the real path of a fan
    file, or the JSON text of a fan object, in which 1, 1.0 and true differ."""
    slot = serialize.fan_slot(data)
    if not isinstance(slot, str):
        return "object", json.dumps(slot, sort_keys=True)
    try:
        return "file", os.path.realpath(Path(path).parent / slot)
    except ValueError:  # a NUL byte or a lone surrogate names no file; reading the fan reports it
        return "unreadable", slot


def _emit(report: Report, label: str) -> int:
    for line in report.lines():
        print(line)
    print(f"{label}: {report.summary()}")
    for what in report.skipped:
        print(f"warning: {what}")
    return PASS if report.ok else FAIL


# ---------------------------------------------------------------------------
# fan commands


def cmd_fan_check(args) -> int:
    fields = _read(_load, serialize.fan_fields, args.fan)  # a malformed file is an input error
    rep = Report()
    try:
        fan = build_fan(*fields)
    except ValueError as e:
        rep.add("build", "fan", str(e))
    else:
        rep = fan_report(fan)
    return _emit(rep, "fan check")


def cmd_fan_faces(args) -> int:
    fan = _read(_load, serialize.fan_from_data, args.fan)
    print(f"rank {fan.rank}, {len(fan.rays)} rays, {len(fan.cones)} cones")
    for c in fan.cone_list():
        star = " max" if c in fan.maximal else ""
        print(f"cone ({cone_key(c)}) dim {len(c)}{star}")
    for tau, sigma, ray in covering_pairs(fan):
        print(f"covering ({cone_key(tau)}) < ({cone_key(sigma)}) new ray {ray} {list(fan.rays[ray])}")
    return PASS


# ---------------------------------------------------------------------------
# algebra commands


def cmd_alg_member(args) -> int:
    fan = _read(_load, serialize.fan_from_data, args.fan)
    rep = membership_report(fan, _read(_load, serialize.entries_from_data, args.element, fan))
    return _emit(rep, "alg member")


def cmd_alg_mul(args) -> int:
    fan = _read(_load, serialize.fan_from_data, args.fan)
    a = _read(_load, serialize.element_from_data, args.a, fan)
    b = _read(_load, serialize.element_from_data, args.b, fan)
    prod = a * b
    _dump_json(serialize.element_to_data(prod), args.output)
    print("alg mul: SUMMARY: pass")
    return PASS


def cmd_alg_mudelta(args) -> int:
    fan = _read(_load, serialize.fan_from_data, args.fan)
    slots = args.trials * sum(2 ** len(c) for c in fan.maximal) ** 2
    if slots > MAX_MUDELTA_SLOTS:
        raise InputError(
            f"--trials {args.trials}: expected at most {MAX_MUDELTA_SLOTS} member slots, "
            f"trials times the squared face count of the maximal cones, got {slots}"
        )
    rng = random.Random(args.seed)
    rep = Report()
    total = 0
    for sigma in fan.maximal:
        for tau in fan.maximal:
            for k in range(args.trials):
                x = random_member(fan, rng, row_cone=sigma, col_cone=tau)
                if mu(delta(x, sigma, tau)) != x:
                    rep.add(
                        "mudelta",
                        f"({cone_key(sigma)})x({cone_key(tau)})",
                        f"trial {k}: mu(delta(x)) != x",
                    )
                total += 1
    print(f"checked {total} members over {len(fan.maximal) ** 2} ordered maximal cone pairs")
    return _emit(rep, "alg mudelta")


# ---------------------------------------------------------------------------
# module commands


def cmd_mod_validate(args) -> int:
    m = _read(_load_with_fan, serialize.module_from_data, args.module)
    return _emit(validate(m), "mod validate")


def cmd_mod_repcheck(args) -> int:
    m = _read(_load_with_fan, serialize.module_from_data, args.module)
    rep = rep_check(m, trials=args.trials, seed=args.seed)
    print(f"checked {rep.trials} random element pairs")
    return _emit(rep, "mod repcheck")


def cmd_mod_relations(args) -> int:
    fan = _read(_load, serialize.fan_from_data, args.fan)
    print(relation_report(fan).render_text())
    return PASS


def cmd_mod_hom(args) -> int:
    data_a = _read(_load_json, args.a)
    fan_a = _read(_resolve_fan, data_a, args.a)
    data_b = _read(_load_json, args.b)
    same = _read(_fan_source, data_b, args.b) == _read(_fan_source, data_a, args.a)
    fan_b = fan_a if same else _read(_resolve_fan, data_b, args.b)
    if fan_a != fan_b:
        raise InputError("fan mismatch between the two modules")
    ma = _read(serialize.module_from_data, data_a, fan_a)
    mb = _read(serialize.module_from_data, data_b, fan_b)
    unknowns = sum(ma.dims[c] * mb.dims[c] for c in fan_a.cones)
    if unknowns > MAX_HOM_UNKNOWNS:
        raise InputError(
            f"{args.a} and {args.b}: expected at most {MAX_HOM_UNKNOWNS} unknowns for hom, "
            f"the sum over cones of dim_a * dim_b, got {unknowns}"
        )
    dim, basis = hom(ma, mb)
    print(f"hom dimension {dim}")
    for i, f in enumerate(basis):
        for c in fan_a.cone_list():
            block = f.blocks[c]
            if not block.is_zero():
                flat = " ".join(str(x) for x in block.flat())
                print(f"basis {i} block ({cone_key(c)}) {block.m}x{block.n}: {flat}")
    return PASS


# ---------------------------------------------------------------------------
# descent commands


def cmd_desc_check(args) -> int:
    d = _read(_load_with_fan, serialize.descent_from_data, args.datum)
    return _emit(check_cocycle(d), "desc check")


def cmd_desc_glue(args) -> int:
    d = _read(_load_with_fan, serialize.descent_from_data, args.datum)
    m = glue(d)
    _dump_json(serialize.module_to_data(m), args.output)
    print("desc glue: SUMMARY: pass")
    return PASS


# ---------------------------------------------------------------------------
# equivariant commands


def _smith_lines(q, u, dmat, v) -> list[str]:
    d = " ".join(str(dmat[i, i]) for i in range(q.rows))
    lines = [f"quotient map: {q.rows} x {q.cols}"]
    lines += ["Q " + " ".join(map(str, row)) for row in q.entries]
    lines += [f"invariant factors d_i: {d or '(none)'}", "coordinates: z_i -> u_i^d_i after the recorded unimodular changes"]
    lines += ["U " + " ".join(map(str, row)) for row in u.entries]
    lines += ["V " + " ".join(map(str, row)) for row in v.entries]
    return lines


def cmd_equi_present(args) -> int:
    """Print Q and its Smith form U @ Q @ V = D.  The report is built through
    `_read` before any of it is printed, so an entry past the interpreter's
    limit for printing an integer is an input error that leaves no partial
    report."""
    q = _read(_load, serialize.quotient_from_data, args.spec).q
    print("\n".join(_read(_smith_lines, q, *snf(q))))
    return PASS


def cmd_equi_structure(args) -> int:
    fan = _read(_load, serialize.fan_from_data, args.fan)
    if len(fan.cones) > MAX_STRUCTURE_CONES:
        raise InputError(
            f"$.max_cones: expected at most {MAX_STRUCTURE_CONES} cones for a table of cones^3 "
            f"structure constants, got {len(fan.cones)}"
        )
    q = _read(_load, serialize.quotient_from_data, args.quotient)
    if q.source_rank != fan.rank:
        raise InputError("quotient matrix does not act on the fan lattice")
    s = ag_structure(fan, q)
    rep = associativity_report(s, samples=None if len(fan.cones) <= 7 else 200, seed=args.seed)
    for (sigma, tau, rho), c in sorted(s.table.items()):
        print(f"f({cone_key(sigma)}|{cone_key(tau)}) f({cone_key(tau)}|{cone_key(rho)}) = [{c}] f({cone_key(sigma)}|{cone_key(rho)})")
    return _emit(rep, "equi structure")


def cmd_equi_validate(args) -> int:
    m = _read(_load_with_fan, serialize.eq_module_from_data, args.eqmodule)
    return _emit(validate_equivariant(m), "equi validate")


def cmd_equi_inflate(args) -> int:
    m = _read(_load_with_fan, serialize.eq_module_from_data, args.eqmodule)
    out = inflate(m)
    _dump_json(serialize.module_to_data(out), args.output)
    print("equi inflate: SUMMARY: pass")
    return PASS


# ---------------------------------------------------------------------------
# demos


def cmd_demo_dupont(args) -> int:
    out = dupont_demo(seed=args.seed)
    print(out.render())
    return PASS if out.ok else FAIL


def cmd_demo_c1(args) -> int:
    fan = standard_fan(1)
    e1 = matrix_unit(fan, (), ())
    e2 = matrix_unit(fan, (0,), (0,))
    u = matrix_unit(fan, (0,), (), binomial((1,)))
    v = matrix_unit(fan, (), (0,))
    one = unit(fan)
    print("generator images on the one-ray fan (zero cone first):")
    print(f"  e1 -> {e1}")
    print(f"  e2 -> {e2}")
    print(f"  u  -> {u}")
    print(f"  v  -> {v}")
    checks = {
        "e1 + e2 = 1": e1 + e2 == one,
        "e1, e2 idempotent": e1 * e1 == e1 and e2 * e2 == e2,
        "e2 u = u = u e1": e2 * u == u and u * e1 == u,
        "e1 v = v = v e2": e1 * v == v and v * e2 == v,
    }
    s = one + v * u + u * v
    t_unit = central(fan, LaurentPoly.monomial((1,)))
    checks["s = 1 + vu + uv -> t*1: unit"] = s == t_unit and all(p.is_unit() for p in s.entries.values())
    ok = True
    for name, val in checks.items():
        print(f"  {name}: {'PASS' if val else 'FAIL'}")
        ok = ok and val
    print(f"demo c1: SUMMARY: {'pass' if ok else 'fail'}")
    return PASS if ok else FAIL


def cmd_demo_p1(args) -> int:
    fan = projective_line_fan()
    cones = fan.cone_list()
    print("forced divisor pattern on the three-cone fan of the projective line:")
    for sigma in cones:
        row = []
        for tau in cones:
            d = required_divisor(fan, sigma, tau)
            row.append("free" if d == LaurentPoly.one(1) else f"({d})*free")
        print("  " + " | ".join(f"{x:>14}" for x in row))
    base = {}
    for sigma in cones:
        for tau in cones:
            base[(sigma, tau)] = required_divisor(fan, sigma, tau)
    ok = membership_report(fan, base).ok
    print(f"  matrix with every slot = its divisor: {'member' if ok else 'rejected'}")
    bad = 0
    for sigma in cones:
        for tau in cones:
            if required_divisor(fan, sigma, tau) == LaurentPoly.one(1):
                continue
            perturbed = dict(base)
            perturbed[(sigma, tau)] = LaurentPoly.one(1)
            rep = membership_report(fan, perturbed)
            witness_ok = (not rep.ok) and f"({cone_key(sigma)})x({cone_key(tau)})" in rep.findings[0].location
            print(
                f"  slot ({cone_key(sigma)})x({cone_key(tau)}) perturbed to 1: "
                f"{'rejected with witness' if witness_ok else 'NOT rejected'}"
            )
            bad += 0 if witness_ok else 1
    good = ok and bad == 0
    print(f"demo p1: SUMMARY: {'pass' if good else 'fail'}")
    return PASS if good else FAIL


# ---------------------------------------------------------------------------


def _trial_count(text: str) -> int:
    """A trial count of at least 1: a check that ran no trial would pass having checked nothing."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _run_flags(q: argparse.ArgumentParser) -> None:
    # also accepted after the subcommand; SUPPRESS keeps the global value
    q.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    q.add_argument("--trials", type=_trial_count, default=argparse.SUPPRESS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` fills a
    new namespace on every call, so no parsed state is kept between calls."""
    p = argparse.ArgumentParser(prog="fanalg", description="fan algebras, diagram modules, descent, equivariant base change")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomized runs")
    p.add_argument("--trials", type=_trial_count, default=100, help="trial count for property runs, at least 1")
    sub = p.add_subparsers(dest="group", required=True)

    fan_p = sub.add_parser("fan").add_subparsers(dest="cmd", required=True)
    q = fan_p.add_parser("check")
    q.add_argument("fan")
    q.set_defaults(func=cmd_fan_check)
    q = fan_p.add_parser("faces")
    q.add_argument("fan")
    q.set_defaults(func=cmd_fan_faces)

    alg_p = sub.add_parser("alg").add_subparsers(dest="cmd", required=True)
    q = alg_p.add_parser("member")
    q.add_argument("fan")
    q.add_argument("element")
    q.set_defaults(func=cmd_alg_member)
    q = alg_p.add_parser("mul")
    q.add_argument("fan")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_alg_mul)
    q = alg_p.add_parser("mudelta")
    q.add_argument("fan")
    _run_flags(q)
    q.set_defaults(func=cmd_alg_mudelta)

    mod_p = sub.add_parser("mod").add_subparsers(dest="cmd", required=True)
    q = mod_p.add_parser("validate")
    q.add_argument("module")
    q.set_defaults(func=cmd_mod_validate)
    q = mod_p.add_parser("repcheck")
    q.add_argument("module")
    _run_flags(q)
    q.set_defaults(func=cmd_mod_repcheck)
    q = mod_p.add_parser("relations")
    q.add_argument("fan")
    q.set_defaults(func=cmd_mod_relations)
    q = mod_p.add_parser("hom")
    q.add_argument("a")
    q.add_argument("b")
    q.set_defaults(func=cmd_mod_hom)

    desc_p = sub.add_parser("desc").add_subparsers(dest="cmd", required=True)
    q = desc_p.add_parser("check")
    q.add_argument("datum")
    q.set_defaults(func=cmd_desc_check)
    q = desc_p.add_parser("glue")
    q.add_argument("datum")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_desc_glue)

    equi_p = sub.add_parser("equi").add_subparsers(dest="cmd", required=True)
    q = equi_p.add_parser("present")
    q.add_argument("spec")
    q.set_defaults(func=cmd_equi_present)
    q = equi_p.add_parser("structure")
    q.add_argument("fan")
    q.add_argument("quotient")
    _run_flags(q)
    q.set_defaults(func=cmd_equi_structure)
    q = equi_p.add_parser("validate")
    q.add_argument("eqmodule")
    q.set_defaults(func=cmd_equi_validate)
    q = equi_p.add_parser("inflate")
    q.add_argument("eqmodule")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_equi_inflate)

    demo_p = sub.add_parser("demo").add_subparsers(dest="cmd", required=True)
    q = demo_p.add_parser("dupont")
    _run_flags(q)
    q.set_defaults(func=cmd_demo_dupont)
    demo_p.add_parser("c1").set_defaults(func=cmd_demo_c1)
    demo_p.add_parser("p1").set_defaults(func=cmd_demo_p1)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Rejected as e:
        return _emit(e.report, f"{args.group} {args.cmd}")
    except (InputError, OSError) as e:
        print(f"ERROR\tinput\t{e}")
        print("SUMMARY: input error")
        return BAD_INPUT
    except Exception as e:
        print(f"ERROR\tinternal\t{type(e).__name__}: {e}")
        print("SUMMARY: internal error")
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
