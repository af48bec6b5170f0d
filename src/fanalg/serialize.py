"""JSON-friendly data forms for every object the CLI reads or writes.

Conventions: rationals are "p/q" strings, matrices are row-major flat lists,
cone keys are comma-joined sorted ray indices with the empty string for the
zero cone.  parse(serialize(x)) must reproduce x exactly.

The readers do each piece of work once.  Each `*_from_data` call owns, for
its own lifetime, a table from each canonical string entry to the one 1x1
`QMat` of its value, so an entry repeated across a file, such as the few
dozen distinct numbers in the hundreds of 1x1 blocks of a descent file, is
parsed once and a 1x1 block of it is that shared matrix; the table is a
local of the call and is dropped with it.  Only strings in the form
`str(Fraction)` writes are keys, so `1`, `true`, `1.0` and `"1"` never
alias.  An int entry is read straight into integers, and each matrix is
built as integer rows over the lcm of its entries' denominators, which is
canonical as it stands (`linalg._over_lcm`), with no gcd pass.  Any other
entry goes through the one rational coercion, `linalg._frac`, on each
occurrence, so the reader accepts the values and reports the errors that
`Fraction` parsing gives.  The path of a matrix entry is formatted only for
an error.  A cone key is looked up in the table of canonical keys that the
fan owns for its lifetime (`Fan.cone_of_key`); any other key is parsed and
checked.  So is an arrow key, in a table of the canonical keys of the
covering pairs that each module body's read builds and drops.  The writer formats each entry from the integers of its matrix,
with one gcd, and builds no `Fraction`.

Sizes are bounded where data enters, so that a small file cannot ask for an
unbounded amount of work: a Laurent exponent or a ray coordinate has absolute
value at most MAX_COORD, a module space has dimension at most MAX_SPACE_DIM,
and the spaces of one module, descent chart or equivariant module add up to
at most MAX_TOTAL_DIM.  A fan's rank is from 0 to MAX_SPACE_DIM, and its
generating cones have at most MAX_FACES faces, counted per cone, so a cone
has at most log2(MAX_FACES) rays.  A quotient's Q and cutting characters
have entries of absolute value at most MAX_COORD, and at most MAX_SPACE_DIM
rows and columns; a declared quotient rank is at most MAX_SPACE_DIM.  A
rational has at most MAX_DIGITS decimal digits in its numerator and in its
denominator, counted from the characters of its numeral before any integer
is built (`_digits`), so that a short numeral such as "1e2000000" cannot
ask for a 2,000,001-digit integer.  MAX_DIGITS is the lowest limit on
converting a string to an integer that the interpreter accepts
(`sys.int_info.str_digits_check_threshold`, 640 digits), so no numeral
that passes the count meets the limit, and a numeral is accepted or refused
the same way under every limit and with none (PYTHONINTMAXSTRDIGITS=0).  A
value beyond a bound is an input error that names its JSON path, and so is
a `u` or `v` arrow of a module body whose two cones are not a covering pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Mapping

from fanalg import linalg
from fanalg.algebra import AlgebraElement
from fanalg.descent import DescentDatum
from fanalg.diagram import DiagramModule
from fanalg.equivariant import EqDiagramModule, QuotientData, quotient_presentation
from fanalg.fan import Cone, Fan, build_fan, cone_key, covering_pairs
from fanalg.lattice import IntMatrix
from fanalg.laurent import LaurentPoly, poly_from_data, poly_to_data
from fanalg.linalg import QMat

MAX_COORD = 1024
MAX_SPACE_DIM = 256
MAX_TOTAL_DIM = 4096
MAX_FACES = 256
MAX_DIGITS = 640  # sys.int_info.str_digits_check_threshold, the lowest digit limit the interpreter accepts
_PAST_DIGITS = 10**MAX_DIGITS  # the least integer with more than MAX_DIGITS digits


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
    """An integer.  A JSON integer literal of more than MAX_DIGITS digits
    reaches the readers as its numeral (`cli._json_int`), and is refused by
    its digit count, as `_rational` refuses one, under every limit of the
    interpreter; any other string is refused by its type."""
    if type(x) is str:
        digits = x[1:] if x.startswith("-") else x
        if len(digits) > MAX_DIGITS and digits.isdecimal():
            raise ValueError(f"{path}: expected an integer of at most {MAX_DIGITS} digits, got {len(digits)} digits")
    return _expect(isinstance(x, int) and not isinstance(x, bool), x, path, "an integer")


def _rational(x, path: str, index: int | None = None) -> Fraction:
    """A rational from an integer, a float (read as its shortest decimal
    form) or a string such as "p/q", coerced once through `linalg._frac`
    after its digits are counted (`_digits`).  This is where every rational
    of a file is read, but for the canonical entries `_canonical` reads,
    which are short enough to pass the count.  The JSON path, path[index]
    when an index is given, is built only for an error."""
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        numeral = str(x) if isinstance(x, float) else x
        digits = _digits(numeral)
        if digits is None or digits > MAX_DIGITS:
            at = path if index is None else f"{path}[{index}]"
            got = "an exponent of more than 18 digits" if digits is None else f"{digits} digits"
            raise ValueError(f"{at}: expected a rational of at most {MAX_DIGITS} digits, got {got}")
        try:
            return linalg._frac(numeral)
        except (ValueError, ZeroDivisionError):
            what = repr(x)
    else:
        what = type(x).__name__
    at = path if index is None else f"{path}[{index}]"
    raise ValueError(f"{at}: expected a rational, got {what}")


def _digits(x: int | str) -> int | None:
    """The most decimal digits that the numerator or the denominator of the
    rational spelled by x can have, read before any integer is built: those
    of an int; for a string, the digits on the larger side of a "/", or the
    digits of a decimal mantissa plus the absolute value of its exponent.
    None for an exponent of more than 18 digits, which is past the bound.
    A string that `Fraction` does not parse may count anything; the parse
    reports it."""
    if type(x) is int:
        return 1 if -_PAST_DIGITS < x < _PAST_DIGITS else len(str(abs(x)))
    num, slash, den = x.partition("/")
    if slash:
        return max(sum(map(str.isdecimal, num)), sum(map(str.isdecimal, den)))
    mantissa, e, exponent = x.lower().partition("e")
    digits = sum(map(str.isdecimal, mantissa))
    exponent = exponent.strip().replace("_", "")
    exponent = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    if e and exponent.isdecimal():
        exponent = exponent.lstrip("0")
        if len(exponent) > 18:
            return None
        digits += int(exponent or 0)
    return digits


def _int_list(x, path: str) -> list[int]:
    return [_int(n, f"{path}[{i}]") for i, n in enumerate(_list(x, path))]


def _int_rows(x, path: str) -> list[list[int]]:
    return [_int_list(row, f"{path}[{i}]") for i, row in enumerate(_list(x, path))]


def _coords(x, path: str) -> list[int]:
    """A list of integers of absolute value at most MAX_COORD: the exponents
    of a polynomial record or the coordinates of a ray."""
    out = _int_list(x, path)
    for i, n in enumerate(out):
        if abs(n) > MAX_COORD:
            raise ValueError(f"{path}[{i}]: expected an integer of absolute value at most {MAX_COORD}, got {n}")
    return out


def _coord_rows(x, path: str) -> list[list[int]]:
    return [_coords(row, f"{path}[{i}]") for i, row in enumerate(_list(x, path))]


def _field(obj: Mapping, key: str, path: str, kind):
    """obj[key], checked by kind against the JSON path path.key."""
    if key not in obj:
        raise ValueError(f"{path}: missing field {key!r}")
    return kind(obj[key], f"{path}.{key}")


def _members(x, path: str) -> list[tuple[str, Any, str]]:
    """(name, value, JSON path of the value) for each member of an object.
    The path is formatted for every member: one f-string costs less than
    building an object that would format it only for an error."""
    return [(name, value, f'{path}["{name}"]') for name, value in _object(x, path).items()]


def _cone_pair(name: str, path: str) -> tuple[str, str]:
    """The two cone keys of a "cone|cone" member name."""
    parts = name.split("|")
    if len(parts) != 2:
        raise ValueError(f'{path}: expected a name of the form "cone|cone"')
    return parts[0], parts[1]


def _generating_cones(x, path: str) -> list[list[int]]:
    """The generating cones of a fan, whose faces, 2^k for a cone of k rays
    and counted per cone, add up to at most MAX_FACES; this bounds the face
    closure before `build_fan` computes it."""
    cones = _int_rows(x, path)
    faces = 0
    for i, cone in enumerate(cones):
        faces += 1 << min(len(cone), MAX_FACES.bit_length())  # capped: a longer cone is past the bound anyway
        if faces > MAX_FACES:
            raise ValueError(f"{path}[{i}]: expected at most {MAX_FACES} faces over the generating cones, got more up to this cone")
    return cones


def fan_fields(data, path: str = "$") -> tuple[int, list[list[int]], list[list[int]]]:
    """Rank, rays and maximal cones of a fan object at the JSON path `path`,
    checked for shape, and the rank, ray coordinates and faces for size."""
    obj = _object(data, path)
    return (
        _field(obj, "rank", path, _rank),
        _field(obj, "rays", path, _coord_rows),
        _field(obj, "max_cones", path, _generating_cones),
    )


def fan_from_data(data: Mapping, path: str = "$") -> Fan:
    return build_fan(*fan_fields(data, path))


def fan_slot(data) -> Mapping | str:
    """The "fan" field of a module, descent or equivariant file: a fan object
    or the path of a fan file."""
    def fan_or_path(x, path: str):
        return _expect(isinstance(x, (Mapping, str)), x, path, "an object or a path")

    return _field(_object(data, "$"), "fan", "$", fan_or_path)


def _mat_to_data(m: QMat) -> list[str]:
    """The entries as `str(Fraction)` writes them, formatted from the integers."""
    d = m.den
    if d == 1:
        return [str(x) for row in m.num for x in row]
    out = []
    for row in m.num:
        for x in row:
            g = gcd(x, d)
            out.append(str(x // g) if g == d else f"{x // g}/{d // g}")
    return out


def _canonical(x) -> tuple[int, int] | None:
    """(p, q) for an int or for a string in the form that `str(Fraction)`
    writes: "p", or "p/q" in lowest terms with q > 1, in ASCII digits with
    no leading zero, no "+" and no "-0".  None for any other value, which
    the general coercion `_rational` reads instead, among them an int or a
    string too long to be sure of the digit bound, which `_rational`
    counts."""
    if type(x) is int:
        return (x, 1) if -_PAST_DIGITS < x < _PAST_DIGITS else None
    if type(x) is not str or not x.isascii() or len(x) > MAX_DIGITS:
        return None
    p, slash, q = x.partition("/")
    digits = p[1:] if p[:1] == "-" else p
    if not digits.isdigit() or digits[0] == "0" and len(p) > 1:
        return None
    if not slash:
        return int(p), 1
    if q.isdigit() and q[0] != "0":
        n, d = int(p), int(q)
        if d > 1 and gcd(n, d) == 1:
            return n, d
    return None


def _entry(x, path: str, index: int, table: dict[str, QMat]) -> QMat:
    """The 1x1 matrix of one entry that is not in the table: a canonical
    string is added to it, and any other entry is read by `_rational`."""
    pq = _canonical(x)
    if pq is None:
        f = _rational(x, path, index)
        return QMat._of(((f.numerator,),), f.denominator, 1, 1)
    one = QMat._of(((pq[0],),), pq[1], 1, 1)
    if type(x) is str:
        table[x] = one
    return one


def _mat_from_data(flat, rows: int, cols: int, path: str, table: dict[str, QMat] | None = None) -> QMat:
    """The rows x cols matrix of a row-major list of rationals, held as
    integer rows over the lcm of the entries' denominators, each entry in
    lowest terms, so canonical with no gcd pass.  A canonical string is
    looked up in `table`, the reading call's table of entries, and one such
    entry of a 1x1 matrix is the table's matrix; an int is read straight
    into integers, and any other entry goes through `_rational`.  Every
    entry is checked before the count."""
    flat = _list(flat, path)
    if table is None:
        table = {}
    if rows == cols == 1 and len(flat) == 1:
        x = flat[0]
        one = table.get(x) if type(x) is str else None
        return _entry(x, path, 0, table) if one is None else one
    ones = []
    for i, x in enumerate(flat):
        one = table.get(x) if type(x) is str else None
        ones.append(_entry(x, path, i, table) if one is None else one)
    if len(ones) != rows * cols:
        raise ValueError(f"{path}: a {rows}x{cols} matrix cannot have {len(ones)} entries")
    den = lcm(*[one.den for one in ones])
    if den == 1:
        nums = [one.num[0][0] for one in ones]
    else:
        nums = [one.num[0][0] * (den // one.den) for one in ones]
    return QMat._of(tuple(tuple(nums[i * cols : (i + 1) * cols]) for i in range(rows)), den, rows, cols)


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
        _field(rec, "e", at, _coords)
        recs.append(dict(rec, c=_field(rec, "c", at, _rational)))
    return recs


def entries_from_data(data: Mapping, fan: Fan) -> dict[tuple[Cone, Cone], LaurentPoly]:
    """The entries of an element file by cone pair, not yet checked for
    membership; a cone pair given twice is an input error."""
    entries = {}
    for i, rec in enumerate(_field(_object(data, "$"), "entries", "$", _list)):
        path = f"$.entries[{i}]"
        rec = _object(rec, path)
        sigma = fan.cone_of_key(_field(rec, "row", path, _str))
        tau = fan.cone_of_key(_field(rec, "col", path, _str))
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


def _module_parts(data, fan: Fan, nt: int, path: str, table: dict[str, QMat]):
    """Spaces, torus matrices and arrows of a module body, reading matrix
    entries through the calling reader's table."""
    obj = _object(data, path)
    dims = {}
    for key, d, at in _members(obj.get("spaces", {}), f"{path}.spaces"):
        dims[fan.cone_of_key(key)] = _expect(_int(d, at) >= 0, d, at, "a nonnegative integer")
        if d > MAX_SPACE_DIM:
            raise ValueError(f"{at}: expected a dimension of at most {MAX_SPACE_DIM}, got {d}")
    total = sum(dims.values())
    if total > MAX_TOTAL_DIM:
        raise ValueError(f"{path}.spaces: expected a total dimension of at most {MAX_TOTAL_DIM}, got {total}")
    torus = {}
    for key, mats, at in _members(obj.get("torus", {}), f"{path}.torus"):
        c = fan.cone_of_key(key)
        d = dims.get(c, 0)
        if len(_list(mats, at)) != nt:
            raise ValueError(f"{at}: expected {nt} torus matrices, got {len(mats)}")
        torus[c] = tuple(_mat_from_data(flat, d, d, f"{at}[{i}]", table) for i, flat in enumerate(mats))
    # arrows are keyed by covering pairs, "facet|cone" in u and "cone|facet"
    # in v: a canonical key is one probe, and `_arrow` reads any other
    pairs = [(tau, sigma) for tau, sigma, _ in covering_pairs(fan)]
    keys = {c: cone_key(c) for c in fan.cones}
    known = {f"{keys[tau]}|{keys[sigma]}": (tau, sigma) for tau, sigma in pairs}
    u = {}
    for key, flat, at in _members(obj.get("u", {}), f"{path}.u"):
        tau, sigma = known.get(key) or _arrow(fan, known, key, at, True)
        u[(tau, sigma)] = _mat_from_data(flat, dims.get(sigma, 0), dims.get(tau, 0), at, table)
    known = {f"{keys[sigma]}|{keys[tau]}": (tau, sigma) for tau, sigma in pairs}
    v = {}
    for key, flat, at in _members(obj.get("v", {}), f"{path}.v"):
        tau, sigma = known.get(key) or _arrow(fan, known, key, at, False)
        v[(tau, sigma)] = _mat_from_data(flat, dims.get(tau, 0), dims.get(sigma, 0), at, table)
    return dims, torus, u, v


def _arrow(fan: Fan, known: dict[str, tuple[Cone, Cone]], key: str, path: str, upward: bool) -> tuple[Cone, Cone]:
    """The covering pair (tau, sigma) of an arrow key that is not canonical,
    such as "0|1,0", its cones read by `Fan.cone_of_key`.  A pair that is
    not a covering pair is refused: the module has no arrow there, and
    `DiagramModule` would ignore the data."""
    first, second = (fan.cone_of_key(k) for k in _cone_pair(key, path))
    tau, sigma = (first, second) if upward else (second, first)
    if (tau, sigma) not in known.values():
        form = '"facet|cone"' if upward else '"cone|facet"'
        raise ValueError(f"{path}: expected a covering pair {form}, but ({cone_key(tau)}) is not a facet of ({cone_key(sigma)})")
    return tau, sigma


def module_from_data(data: Mapping, fan: Fan) -> DiagramModule:
    dims, torus, u, v = _module_parts(data, fan, fan.rank, "$", {})
    return DiagramModule(fan, dims, torus, u, v)


def quotient_to_data(q: QuotientData) -> dict:
    return {"Q": [list(r) for r in q.q.entries] if q.q.rows else [], "rank": q.q.cols}


def _rank(x, path: str) -> int:
    """A declared lattice rank, of a fan or a quotient, bounded like a space
    dimension."""
    r = _int(x, path)
    if not 0 <= r <= MAX_SPACE_DIM:
        raise ValueError(f"{path}: expected a rank from 0 to {MAX_SPACE_DIM}, got {r}")
    return r


def _lattice_rows(x, path: str) -> list[list[int]]:
    """The rows of Q or of the cutting characters, with entries bounded as
    coordinates.  The Smith form of an r x n matrix builds r x r and n x n
    transforms, so r and n are bounded like a space dimension; it is built
    only by `equi present`, and the `characters` path of
    `quotient_presentation` takes the Hermite form of the characters."""
    rows = _coord_rows(x, path)
    if len(rows) > MAX_SPACE_DIM:
        raise ValueError(f"{path}: expected at most {MAX_SPACE_DIM} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) > MAX_SPACE_DIM:
            raise ValueError(f"{path}[{i}]: expected at most {MAX_SPACE_DIM} entries, got {len(row)}")
    return rows


def _quotient(data, path: str) -> QuotientData:
    obj = _object(data, path)
    rank = _field(obj, "rank", path, _rank) if "rank" in obj else None
    if "Q" in obj:
        rows = _field(obj, "Q", path, _lattice_rows)
        if rank is None and not rows:
            raise ValueError("empty Q needs an explicit rank")
        if rank is None:
            rank = len(rows[0])
        mat = IntMatrix([tuple(r) for r in rows], shape=(len(rows), rank))
        return quotient_presentation(q=mat)
    if "characters" in obj:
        return quotient_presentation(characters=_field(obj, "characters", path, _lattice_rows), rank=rank)
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
    dims, torus, u, v = _module_parts(data, fan, quotient.target_rank, "$", {})
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
    table: dict[str, QMat] = {}
    charts = {}
    for key, body, at in _members(_field(obj, "charts", "$", _object), "$.charts"):
        sigma = fan.cone_of_key(key)
        if sigma not in fan.maximal:
            raise ValueError(f"{at}: expected a maximal cone, got ({cone_key(sigma)})")
        sub = fan.subfan(sigma)
        dims, torus, u, v = _module_parts(body, sub, fan.rank, at, table)
        charts[sigma] = DiagramModule(sub, dims, torus, u, v)
    glue_maps: dict[tuple[Cone, Cone], dict[Cone, QMat]] = {}
    for key, blocks, at in _members(obj.get("glue", {}), "$.glue"):
        sig_k, tau_k = _cone_pair(key, at)
        sigma = fan.cone_of_key(sig_k)
        tau = fan.cone_of_key(tau_k)
        if sigma not in charts or tau not in charts:
            raise ValueError(f"{at}: glues a cone that has no chart")
        dims_s, dims_t = charts[sigma].dims, charts[tau].dims
        common = set(sigma) & set(tau)
        out = {}
        for rho_k, flat, block_at in _members(blocks, at):
            rho = fan.cone_of_key(rho_k)
            if not common.issuperset(rho):
                raise ValueError(f"{block_at}: expected a face of both charts, got ({cone_key(rho)})")
            out[rho] = _mat_from_data(flat, dims_t.get(rho, 0), dims_s.get(rho, 0), block_at, table)
        # after its blocks, so that a bad block is reported first
        if sigma == tau:
            raise ValueError(f"{at}: glues a chart to itself")
        glue_maps[(sigma, tau)] = out
    return DescentDatum(fan, charts, glue_maps)
