"""The algebra of cone-pair-indexed matrices with forced binomial divisors.

An element assigns to each ordered pair of cones (sigma, tau) a Laurent
polynomial divisible by the product of t^v - 1 over the rays v of sigma not
in tau.  The module provides membership checking with witnesses, exact
arithmetic, the distinguished idempotents and generators, factorization of
entries into generator words, the splitting pair mu/delta between corner
bimodules, and transport along a lattice automorphism.

Sign convention: generators use t^v - 1 rather than 1 - t^v.  With this
choice the element 1 + vu + uv of the one-ray fan maps to the central unit
t, which is invertible; divisibility, and hence membership, is unaffected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from fanalg.fan import Cone, Fan, cone_key, covering_pairs
from fanalg.lattice import IntMatrix
from fanalg.laurent import LaurentPoly, binomial, divide_by_product, monomial_map
from fanalg.report import Report


def required_rays(sigma: Cone, tau: Cone) -> tuple[int, ...]:
    """Ray indices of sigma that are not in tau."""
    return tuple(sorted(set(sigma) - set(tau)))


def required_divisor(fan: Fan, sigma: Cone, tau: Cone) -> LaurentPoly:
    out = LaurentPoly.one(fan.rank)
    for i in required_rays(sigma, tau):
        out = out * binomial(fan.rays[i])
    return out


def _pair_key(sigma: Cone, tau: Cone) -> str:
    return f"({cone_key(sigma)})x({cone_key(tau)})"


def membership_report(fan: Fan, entries: Mapping[tuple[Cone, Cone], LaurentPoly]) -> Report:
    """Check the divisibility condition entry by entry, reporting offenders."""
    rep = Report()
    for (sigma, tau), poly in sorted(entries.items()):
        if not fan.is_cone(sigma) or not fan.is_cone(tau):
            raise ValueError(f"malformed cone keys {_pair_key(sigma, tau)}")
        if poly.rank != fan.rank:
            raise ValueError(f"entry at {_pair_key(sigma, tau)} has rank {poly.rank}, fan has rank {fan.rank}")
        rays = [fan.rays[i] for i in required_rays(sigma, tau)]
        if divide_by_product(poly, rays) is None:
            rep.add("membership", _pair_key(sigma, tau), f"entry {poly} lacks the required divisor")
    return rep


class AlgebraElement:
    """Sparse cone-pair-indexed matrix over the Laurent ring.  Entries passed
    in are checked; arithmetic results are members by closure and are not."""

    __slots__ = ("fan", "entries")

    def __init__(self, fan: Fan, entries: Mapping[tuple[Cone, Cone], LaurentPoly], check: bool = True):
        data = {}
        for (sigma, tau), poly in entries.items():
            sigma = tuple(sorted(sigma))
            tau = tuple(sorted(tau))
            if not poly.is_zero():
                data[(sigma, tau)] = poly
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "entries", data)
        if check:
            rep = membership_report(fan, data)
            if not rep.ok:
                raise ValueError("not a member: " + "; ".join(rep.lines()))

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    def entry(self, sigma: Cone, tau: Cone) -> LaurentPoly:
        return self.entries.get((tuple(sorted(sigma)), tuple(sorted(tau))), LaurentPoly.zero(self.fan.rank))

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.fan == other.fan and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.fan, tuple(sorted((k, v.key()) for k, v in self.entries.items()))))

    def is_zero(self) -> bool:
        return not self.entries

    def _same_fan(self, other: "AlgebraElement") -> None:
        if self.fan != other.fan:
            raise ValueError("fan mismatch")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_fan(other)
        out = dict(self.entries)
        for k, p in other.entries.items():
            out[k] = out.get(k, LaurentPoly.zero(self.fan.rank)) + p
        return AlgebraElement(self.fan, out, check=False)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.fan, {k: -p for k, p in self.entries.items()}, check=False)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._same_fan(other)
        out: dict[tuple[Cone, Cone], LaurentPoly] = {}
        by_row: dict[Cone, list[tuple[Cone, LaurentPoly]]] = {}
        for (rho, tau), p in other.entries.items():
            by_row.setdefault(rho, []).append((tau, p))
        for (sigma, rho), p in self.entries.items():
            for tau, q in by_row.get(rho, ()):
                k = (sigma, tau)
                out[k] = out.get(k, LaurentPoly.zero(self.fan.rank)) + p * q
        return AlgebraElement(self.fan, out, check=False)

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.fan, {k: p * c for k, p in self.entries.items()}, check=False)

    def supported_in(self, sigma: Cone, tau: Cone) -> bool:
        """True when all rows are faces of sigma and all columns faces of tau."""
        s, t = set(sigma), set(tau)
        return all(set(r) <= s and set(c) <= t for (r, c) in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for (sigma, tau), p in sorted(self.entries.items()):
            parts.append(f"[{cone_key(sigma)}|{cone_key(tau)}] {p}")
        return "; ".join(parts)

    __repr__ = __str__


def matrix_unit(fan: Fan, sigma: Sequence[int], tau: Sequence[int], poly: LaurentPoly | int | Fraction = 1) -> AlgebraElement:
    if isinstance(poly, (int, Fraction)):
        poly = LaurentPoly.constant(fan.rank, poly)
    sigma = fan.require_cone(sigma)
    tau = fan.require_cone(tau)
    return AlgebraElement(fan, {(sigma, tau): poly})


def idempotent(fan: Fan, sigma: Sequence[int]) -> AlgebraElement:
    """Sum of diagonal matrix units over the faces of sigma."""
    sigma = fan.require_cone(sigma)
    one = LaurentPoly.one(fan.rank)
    return AlgebraElement(fan, {(f, f): one for f in fan.faces_of(sigma)}, check=False)


def unit(fan: Fan) -> AlgebraElement:
    one = LaurentPoly.one(fan.rank)
    return AlgebraElement(fan, {(c, c): one for c in fan.cones}, check=False)


def central(fan: Fan, poly: LaurentPoly) -> AlgebraElement:
    """The scalar matrix poly * 1."""
    return AlgebraElement(fan, {(c, c): poly for c in fan.cones})


@dataclass(frozen=True)
class Generator:
    kind: str  # "idempotent" | "central" | "u" | "v"
    label: str
    cone: Cone | None
    pair: tuple[Cone, Cone] | None  # (tau, sigma) for covering pairs
    ray: int | None
    element: AlgebraElement


def generators(fan: Fan) -> list[Generator]:
    """Diagonal idempotents, central monomials, and the u/v pair per covering pair."""
    out: list[Generator] = []
    for c in fan.cone_list():
        out.append(Generator("idempotent", f"E[{cone_key(c)}]", c, None, None, matrix_unit(fan, c, c)))
    for j in range(fan.rank):
        for sgn in (1, -1):
            e = tuple(sgn if i == j else 0 for i in range(fan.rank))
            label = f"t{j + 1}^{sgn:+d}" if fan.rank > 1 else f"t^{sgn:+d}"
            out.append(Generator("central", label, None, None, None, central(fan, LaurentPoly.monomial(e))))
    for tau, sigma, ray in covering_pairs(fan):
        g = matrix_unit(fan, sigma, tau, binomial(fan.rays[ray]))
        out.append(Generator("u", f"u[{cone_key(tau)}<{cone_key(sigma)}]", None, (tau, sigma), ray, g))
        out.append(Generator("v", f"v[{cone_key(tau)}<{cone_key(sigma)}]", None, (tau, sigma), ray, matrix_unit(fan, tau, sigma)))
    return out


def covering_chain(fan: Fan, lower: Cone, upper: Cone, rng: random.Random | None = None) -> list[tuple[Cone, Cone]]:
    """Covering pairs climbing from a face to a cone, one new ray at a time.

    The default adds rays in increasing index order; passing an rng shuffles
    the order, which downstream results must not depend on.
    """
    lower = tuple(sorted(lower))
    upper = tuple(sorted(upper))
    if not set(lower) <= set(upper):
        raise ValueError(f"({cone_key(lower)}) is not a face of ({cone_key(upper)})")
    new = sorted(set(upper) - set(lower))
    if rng is not None:
        rng.shuffle(new)
    chain = []
    cur = lower
    for i in new:
        nxt = tuple(sorted(cur + (i,)))
        chain.append((cur, nxt))
        cur = nxt
    return chain


@dataclass(frozen=True)
class Word:
    """One factorized entry: central scalar, then u-generators up, then v-generators down."""

    row: Cone
    col: Cone
    scalar: LaurentPoly
    u_chain: tuple[tuple[Cone, Cone], ...]  # climbing row&col meet -> row
    v_chain: tuple[tuple[Cone, Cone], ...]  # descending col -> meet

    def expand(self, fan: Fan) -> AlgebraElement:
        out = central(fan, self.scalar)
        # u-generators step from the meet up to the row cone; the algebra
        # product therefore takes the chain pairs from the top down
        for tau, sigma in reversed(self.u_chain):
            out = out * matrix_unit(fan, sigma, tau, binomial(fan.rays[required_rays(sigma, tau)[0]]))
        # v-generators compose E(meet,c1) E(c1,c2) ... = E(meet, col)
        for low, high in self.v_chain:
            out = out * matrix_unit(fan, low, high, 1)
        if not self.u_chain and not self.v_chain:
            out = out * matrix_unit(fan, self.row, self.col, 1)
        return out


def factorize(x: AlgebraElement, rng: random.Random | None = None) -> list[Word]:
    """Write each entry as scalar * u-chain * v-chain and verify by multiplying out."""
    fan = x.fan
    words = []
    for (sigma, tau), poly in sorted(x.entries.items()):
        rays = [fan.rays[i] for i in required_rays(sigma, tau)]
        y = divide_by_product(poly, rays)
        if y is None:
            raise ValueError(f"entry at {_pair_key(sigma, tau)} is not a member")
        meet = tuple(sorted(set(sigma) & set(tau)))
        w = Word(
            row=sigma,
            col=tau,
            scalar=y,
            u_chain=tuple(covering_chain(fan, meet, sigma, rng)),
            v_chain=tuple(covering_chain(fan, meet, tau, rng)),
        )
        if w.expand(fan) != matrix_unit(fan, sigma, tau, poly):
            raise AssertionError(f"word at {_pair_key(sigma, tau)} does not multiply out to the entry")
        words.append(w)
    return words


@dataclass(frozen=True)
class TensorWord:
    """Normal form of an element of e_sigma A e_meet tensor e_meet A e_tau.

    Each term n E_(alpha, beta) of the source splits as the pure tensor
    n E_(alpha, alpha&beta) (x) E_(alpha&beta, beta); only these normal-form
    tensors are ever materialized.
    """

    fan: Fan
    sigma: Cone
    tau: Cone
    terms: tuple[tuple[Cone, Cone, LaurentPoly], ...]

    def left_factor(self, i: int) -> AlgebraElement:
        alpha, beta, poly = self.terms[i]
        meet = tuple(sorted(set(alpha) & set(beta)))
        return AlgebraElement(self.fan, {(alpha, meet): poly}, check=False)

    def right_factor(self, i: int) -> AlgebraElement:
        alpha, beta, _ = self.terms[i]
        meet = tuple(sorted(set(alpha) & set(beta)))
        return AlgebraElement(self.fan, {(meet, beta): LaurentPoly.one(self.fan.rank)}, check=False)


def delta(x: AlgebraElement, sigma: Sequence[int], tau: Sequence[int]) -> TensorWord:
    """Split an element of e_sigma A e_tau entrywise into normal-form tensors."""
    fan = x.fan
    sigma = fan.require_cone(sigma)
    tau = fan.require_cone(tau)
    if not x.supported_in(sigma, tau):
        raise ValueError(
            f"support violation: element not inside e({cone_key(sigma)}) A e({cone_key(tau)})"
        )
    terms = tuple((alpha, beta, poly) for (alpha, beta), poly in sorted(x.entries.items()))
    return TensorWord(fan, sigma, tau, terms)


def mu(w: TensorWord) -> AlgebraElement:
    """Multiply the tensor factors back together.

    The word comes from `delta` of a member, so the factors, their products
    and the sum are members by closure and none of them is checked again.
    """
    total: dict[tuple[Cone, Cone], LaurentPoly] = {}
    for i in range(len(w.terms)):
        prod = w.left_factor(i) * w.right_factor(i)
        for k, p in prod.entries.items():
            total[k] = total.get(k, LaurentPoly.zero(w.fan.rank)) + p
    return AlgebraElement(w.fan, total, check=False)


def transport(x: AlgebraElement, beta: IntMatrix, target: Fan) -> AlgebraElement:
    """Apply a lattice automorphism: relabel cones and map entry exponents.

    beta must be unimodular and send every ray of the source fan to a ray of
    the target fan, inducing a bijection of cones; it then carries forced
    divisors to forced divisors, so the image of a member is not checked.
    """
    fan = x.fan
    if not beta.is_unimodular():
        raise ValueError("transport requires a unimodular matrix")
    ray_map = {}
    target_index = {r: i for i, r in enumerate(target.rays)}
    for i, r in enumerate(fan.rays):
        img = beta.apply(r)
        if img not in target_index:
            raise ValueError(f"ray {r} maps to {img}, not a ray of the target fan")
        ray_map[i] = target_index[img]

    def cone_image(c: Cone) -> Cone:
        img = tuple(sorted(ray_map[i] for i in c))
        if not target.is_cone(img):
            raise ValueError(f"cone ({cone_key(c)}) does not map onto a cone of the target fan")
        return img

    for c in fan.cones:
        cone_image(c)
    if len({cone_image(c) for c in fan.cones}) != len(target.cones):
        raise ValueError("lattice map does not map the fan onto the target fan")
    out = {}
    for (sigma, tau), poly in x.entries.items():
        out[(cone_image(sigma), cone_image(tau))] = monomial_map(poly, beta)
    return AlgebraElement(target, out, check=False)


def random_poly(rank: int, rng: random.Random, terms: int = 2, emax: int = 1, cmax: int = 3) -> LaurentPoly:
    """Small random polynomial; may degenerate to fewer terms by cancellation."""
    data = []
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(-emax, emax) for _ in range(rank))
        c = Fraction(rng.choice([x for x in range(-cmax, cmax + 1) if x]), rng.randint(1, 2))
        data.append((e, c))
    return LaurentPoly(rank, data)


def random_member(
    fan: Fan,
    rng: random.Random,
    row_cone: Cone | None = None,
    col_cone: Cone | None = None,
    density_pct: int = 35,
    terms: int = 2,
    emax: int = 1,
) -> AlgebraElement:
    """Seeded random member, optionally supported in a corner e_row A e_col.

    density_pct is the percentage chance of filling each cone-pair slot;
    an integer so that sampling stays float-free like everything else.
    """
    rows = fan.cone_list() if row_cone is None else fan.subfan(row_cone).cone_list()
    cols = fan.cone_list() if col_cone is None else fan.subfan(col_cone).cone_list()
    entries = {}
    pairs = [(s, t) for s in rows for t in cols]
    for pair in pairs:
        if rng.randrange(100) >= density_pct:
            continue
        y = random_poly(fan.rank, rng, terms=terms, emax=emax)
        if y.is_zero():
            continue
        entries[pair] = y * required_divisor(fan, *pair)
    if not entries:
        pair = pairs[rng.randrange(len(pairs))]
        entries[pair] = required_divisor(fan, *pair)
    return AlgebraElement(fan, entries, check=False)
