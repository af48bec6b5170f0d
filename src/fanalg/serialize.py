"""JSON-friendly data forms for every object the CLI reads or writes.

Conventions: rationals are "p/q" strings, matrices are row-major flat lists,
cone keys are comma-joined sorted ray indices with the empty string for the
zero cone.  parse(serialize(x)) must reproduce x exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping

from fanalg.algebra import AlgebraElement
from fanalg.descent import DescentDatum
from fanalg.diagram import DiagramModule
from fanalg.equivariant import EqDiagramModule, QuotientData, quotient_presentation
from fanalg.fan import Cone, Fan, build_fan, cone_key, parse_cone_key
from fanalg.lattice import IntMatrix
from fanalg.laurent import LaurentPoly, poly_from_data, poly_to_data
from fanalg.linalg import QMat


def fan_to_data(fan: Fan) -> dict:
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.maximal],
    }


def _expect(ok: bool, x, path: str, what: str):
    """Return x if ok; otherwise raise a ValueError naming the JSON path."""
    if not ok:
        raise ValueError(f"{path}: expected {what}, got {type(x).__name__}")
    return x


def _object(x, path: str) -> Mapping:
    return _expect(isinstance(x, Mapping), x, path, "an object")


def _list(x, path: str) -> list:
    return _expect(isinstance(x, list), x, path, "a list")


def _str(x, path: str) -> str:
    return _expect(isinstance(x, str), x, path, "a string")


def _int(x, path: str) -> int:
    return _expect(isinstance(x, int) and not isinstance(x, bool), x, path, "an integer")


def _rational(x, path: str) -> Fraction:
    """A rational from an integer, a float or a string such as "p/q"."""
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        try:
            return Fraction(str(x))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{path}: expected a rational, got {x!r}") from None
    raise ValueError(f"{path}: expected a rational, got {type(x).__name__}")


def _int_list(x, path: str) -> list[int]:
    return [_int(n, f"{path}[{i}]") for i, n in enumerate(_list(x, path))]


def _int_rows(x, path: str) -> list[list[int]]:
    return [_int_list(row, f"{path}[{i}]") for i, row in enumerate(_list(x, path))]


def _field(obj: Mapping, key: str, path: str, kind):
    """obj[key], checked by kind against the JSON path path.key."""
    if key not in obj:
        raise ValueError(f"{path}: missing field {key!r}")
    return kind(obj[key], f"{path}.{key}")


def _members(x, path: str) -> list[tuple[str, Any, str]]:
    """(name, value, JSON path of the value) for each member of an object."""
    return [(name, value, f'{path}["{name}"]') for name, value in _object(x, path).items()]


def _cone_pair(name: str, path: str) -> tuple[str, str]:
    """The two cone keys of a "cone|cone" member name."""
    parts = name.split("|")
    if len(parts) != 2:
        raise ValueError(f'{path}: expected a name of the form "cone|cone"')
    return parts[0], parts[1]


def fan_fields(data, path: str = "$") -> tuple[int, list[list[int]], list[list[int]]]:
    """Rank, rays and maximal cones of a fan object at the JSON path `path`,
    checked for shape only."""
    obj = _object(data, path)
    return (_field(obj, "rank", path, _int), _field(obj, "rays", path, _int_rows), _field(obj, "max_cones", path, _int_rows))


def fan_from_data(data: Mapping, path: str = "$") -> Fan:
    return build_fan(*fan_fields(data, path))


def fan_slot(data) -> Mapping | str:
    """The "fan" field of a module, descent or equivariant file: a fan object
    or the path of a fan file."""
    def fan_or_path(x, path: str):
        return _expect(isinstance(x, (Mapping, str)), x, path, "an object or a path")

    return _field(_object(data, "$"), "fan", "$", fan_or_path)


def _mat_to_data(m: QMat) -> list[str]:
    return [str(x) for x in m.flat()]


def _mat_from_data(flat, rows: int, cols: int, path: str) -> QMat:
    return QMat.from_flat(rows, cols, [_rational(x, f"{path}[{i}]") for i, x in enumerate(_list(flat, path))])


def element_to_data(x: AlgebraElement, fan_data: Any | None = None) -> dict:
    return {
        "fan": fan_to_data(x.fan) if fan_data is None else fan_data,
        "entries": [
            {"row": cone_key(sigma), "col": cone_key(tau), "poly": poly_to_data(p)}
            for (sigma, tau), p in sorted(x.entries.items())
        ],
    }


def _poly_records(x, path: str) -> list[Mapping]:
    """Polynomial records {"c": rational, "e": [exponents]}, checked, with each
    coefficient parsed."""
    recs = []
    for i, rec in enumerate(_list(x, path)):
        at = f"{path}[{i}]"
        rec = _object(rec, at)
        _field(rec, "e", at, _int_list)
        recs.append(dict(rec, c=_field(rec, "c", at, _rational)))
    return recs


def entries_from_data(data: Mapping, fan: Fan) -> dict[tuple[Cone, Cone], LaurentPoly]:
    """The entries of an element file by cone pair, not yet checked for
    membership; a cone pair given twice is an input error."""
    entries = {}
    for i, rec in enumerate(_field(_object(data, "$"), "entries", "$", _list)):
        path = f"$.entries[{i}]"
        rec = _object(rec, path)
        sigma = fan.require_cone(parse_cone_key(_field(rec, "row", path, _str)))
        tau = fan.require_cone(parse_cone_key(_field(rec, "col", path, _str)))
        if (sigma, tau) in entries:
            raise ValueError(f"{path}: repeated cone pair ({cone_key(sigma)})x({cone_key(tau)})")
        entries[(sigma, tau)] = poly_from_data(_field(rec, "poly", path, _poly_records), fan.rank)
    return entries


def element_from_data(data: Mapping, fan: Fan) -> AlgebraElement:
    """The element of an element file; its entries are divided, which is the
    membership check, and a non-member raises ValueError."""
    return AlgebraElement(fan, entries_from_data(data, fan))


def _module_body(m: DiagramModule) -> dict:
    return {
        "spaces": {cone_key(c): m.dims[c] for c in m.fan.cone_list()},
        "torus": {cone_key(c): [_mat_to_data(s) for s in m.torus[c]] for c in m.fan.cone_list()},
        "u": {f"{cone_key(tau)}|{cone_key(sigma)}": _mat_to_data(mat) for (tau, sigma), mat in sorted(m.u.items())},
        "v": {f"{cone_key(sigma)}|{cone_key(tau)}": _mat_to_data(m.v[(tau, sigma)]) for (tau, sigma) in sorted(m.v)},
    }


def module_to_data(m: DiagramModule, fan_data: Any | None = None) -> dict:
    out = {"fan": fan_to_data(m.fan) if fan_data is None else fan_data}
    out.update(_module_body(m))
    return out


def _module_parts(data, fan: Fan, nt: int, path: str):
    obj = _object(data, path)
    dims = {}
    for key, d, at in _members(obj.get("spaces", {}), f"{path}.spaces"):
        dims[fan.require_cone(parse_cone_key(key))] = _expect(_int(d, at) >= 0, d, at, "a nonnegative integer")
    torus = {}
    for key, mats, at in _members(obj.get("torus", {}), f"{path}.torus"):
        c = fan.require_cone(parse_cone_key(key))
        d = dims.get(c, 0)
        if len(_list(mats, at)) != nt:
            raise ValueError(f"{at}: expected {nt} torus matrices, got {len(mats)}")
        torus[c] = tuple(_mat_from_data(flat, d, d, f"{at}[{i}]") for i, flat in enumerate(mats))
    u = {}
    for key, flat, at in _members(obj.get("u", {}), f"{path}.u"):
        tau_k, sigma_k = _cone_pair(key, at)
        tau = fan.require_cone(parse_cone_key(tau_k))
        sigma = fan.require_cone(parse_cone_key(sigma_k))
        u[(tau, sigma)] = _mat_from_data(flat, dims.get(sigma, 0), dims.get(tau, 0), at)
    v = {}
    for key, flat, at in _members(obj.get("v", {}), f"{path}.v"):
        sigma_k, tau_k = _cone_pair(key, at)
        sigma = fan.require_cone(parse_cone_key(sigma_k))
        tau = fan.require_cone(parse_cone_key(tau_k))
        v[(tau, sigma)] = _mat_from_data(flat, dims.get(tau, 0), dims.get(sigma, 0), at)
    return dims, torus, u, v


def module_from_data(data: Mapping, fan: Fan) -> DiagramModule:
    dims, torus, u, v = _module_parts(data, fan, fan.rank, "$")
    return DiagramModule(fan, dims, torus, u, v)


def quotient_to_data(q: QuotientData) -> dict:
    return {"Q": [list(r) for r in q.q.entries] if q.q.rows else [], "rank": q.q.cols}


def _quotient(data, path: str) -> QuotientData:
    obj = _object(data, path)
    rank = _field(obj, "rank", path, _int) if "rank" in obj else None
    if "Q" in obj:
        rows = _field(obj, "Q", path, _int_rows)
        if rank is None and not rows:
            raise ValueError("empty Q needs an explicit rank")
        if rank is None:
            rank = len(rows[0])
        mat = IntMatrix([tuple(r) for r in rows], shape=(len(rows), rank))
        return quotient_presentation(q=mat)
    if "characters" in obj:
        return quotient_presentation(characters=_field(obj, "characters", path, _int_rows), rank=rank)
    raise ValueError("quotient data needs a Q matrix or characters")


def quotient_from_data(data: Mapping) -> QuotientData:
    return _quotient(data, "$")


def eq_module_to_data(m: EqDiagramModule, fan_data: Any | None = None) -> dict:
    out = {
        "fan": fan_to_data(m.fan) if fan_data is None else fan_data,
        "quotient": quotient_to_data(m.quotient),
    }
    out.update(_module_body(m))
    return out


def eq_module_from_data(data: Mapping, fan: Fan) -> EqDiagramModule:
    quotient = _field(_object(data, "$"), "quotient", "$", _quotient)
    dims, torus, u, v = _module_parts(data, fan, quotient.target_rank, "$")
    return EqDiagramModule(fan, quotient, dims, torus, u, v)


def descent_to_data(d: DescentDatum, fan_data: Any | None = None) -> dict:
    charts = {cone_key(sigma): _module_body(m) for sigma, m in sorted(d.charts.items())}
    glue = {}
    for (sigma, tau), blocks in sorted(d.glue_maps.items()):
        glue[f"{cone_key(sigma)}|{cone_key(tau)}"] = {
            cone_key(rho): _mat_to_data(b) for rho, b in sorted(blocks.items())
        }
    return {
        "fan": fan_to_data(d.fan) if fan_data is None else fan_data,
        "charts": charts,
        "glue": glue,
    }


def descent_from_data(data: Mapping, fan: Fan) -> DescentDatum:
    obj = _object(data, "$")
    charts = {}
    for key, body, at in _members(_field(obj, "charts", "$", _object), "$.charts"):
        sigma = fan.require_cone(parse_cone_key(key))
        sub = fan.subfan(sigma)
        dims, torus, u, v = _module_parts(body, sub, fan.rank, at)
        charts[sigma] = DiagramModule(sub, dims, torus, u, v)
    glue_maps: dict[tuple[Cone, Cone], dict[Cone, QMat]] = {}
    for key, blocks, at in _members(obj.get("glue", {}), "$.glue"):
        sig_k, tau_k = _cone_pair(key, at)
        sigma = fan.require_cone(parse_cone_key(sig_k))
        tau = fan.require_cone(parse_cone_key(tau_k))
        if sigma not in charts or tau not in charts:
            raise ValueError(f"{at}: glues a cone that has no chart")
        out = {}
        for rho_k, flat, block_at in _members(blocks, at):
            rho = fan.require_cone(parse_cone_key(rho_k))
            out[rho] = _mat_from_data(flat, charts[tau].dims.get(rho, 0), charts[sigma].dims.get(rho, 0), block_at)
        glue_maps[(sigma, tau)] = out
    return DescentDatum(fan, charts, glue_maps)
