"""The algebra of cone-pair-indexed matrices with forced binomial divisors.

An element assigns to each ordered pair of cones (sigma, tau) a Laurent
polynomial divisible by the product D(sigma, tau) of t^v - 1 over the rays v
of sigma not in tau.  The module provides membership checking with witnesses,
exact arithmetic, the distinguished idempotents and generators,
factorization of entries into generator words, the splitting pair mu/delta
between corner bimodules, and transport along a lattice automorphism.

Elements are kept in divided form: an element stores the quotient y of each
entry D(sigma, tau) * y.  Each D(sigma, tau), and each product cofactor, is
read from the fan's table of binomial products (`Fan.binomial_product`), so
`entries` multiplies the divisors back in on each access without rebuilding
them, and a product multiplies by its cofactor once.  `_product_terms` is
the one definition of the product: the terms (sigma, rho, tau, y1, y2,
cofactor rays) that `AlgebraElement.__mul__` sums into quotients and from
which `diagram.rep_check` builds the image of a product without expanding
it.  Division happens once, where entries enter, in
`AlgebraElement(fan, entries)` and in
`serialize.element_from_data`; an entry that does not divide is a membership
finding there, so a non-member cannot be constructed.  Sums, scaling,
products, evaluation, factorization, mu/delta and transport then read and
build quotients without dividing again.

Sign convention: generators use t^v - 1 rather than 1 - t^v.  With this
choice the element 1 + vu + uv of the one-ray fan maps to the central unit
t, which is invertible; divisibility, and hence membership, is unaffected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterator, Mapping, Sequence

from fanalg.fan import Cone, Fan, cone_key, covering_pairs
from fanalg.lattice import IntMatrix, Vec
from fanalg.laurent import LaurentPoly, divide_by_product, monomial_map
from fanalg.report import Report


def required_rays(sigma: Cone, tau: Cone) -> tuple[int, ...]:
    """Ray indices of sigma that are not in tau."""
    return tuple(sorted(set(sigma) - set(tau)))


def required_divisor(fan: Fan, sigma: Cone, tau: Cone) -> LaurentPoly:
    """D(sigma, tau), the product of t^v - 1 over the rays of sigma not in tau."""
    return fan.binomial_product(required_rays(sigma, tau))


def _pair_key(sigma: Cone, tau: Cone) -> str:
    return f"({cone_key(sigma)})x({cone_key(tau)})"


@dataclass
class MembershipReport(Report):
    """A membership report with the quotient y of each nonzero entry D * y
    that divided, keyed like the entries."""

    quotients: dict[tuple[Cone, Cone], LaurentPoly] = field(default_factory=dict)


def membership_report(fan: Fan, entries: Mapping[tuple[Cone, Cone], LaurentPoly]) -> MembershipReport:
    """Divide each entry by its forced divisor, reporting the entries that do
    not divide and keeping the quotients of those that do."""
    rep = MembershipReport()
    for (sigma, tau), poly in sorted(entries.items()):
        if not fan.is_cone(sigma) or not fan.is_cone(tau):
            raise ValueError(f"malformed cone keys {_pair_key(sigma, tau)}")
        if poly.rank != fan.rank:
            raise ValueError(f"entry at {_pair_key(sigma, tau)} has rank {poly.rank}, fan has rank {fan.rank}")
        y = divide_by_product(poly, [fan.rays[i] for i in required_rays(sigma, tau)])
        if y is None:
            rep.add("membership", _pair_key(sigma, tau), f"entry {poly} lacks the required divisor")
        elif not y.is_zero():
            rep.quotients[(sigma, tau)] = y
    return rep


def cofactor_rays(sigma: Cone, rho: Cone, tau: Cone) -> tuple[int, ...]:
    """Rays i with D(sigma, rho) * D(rho, tau) = D(sigma, tau) * prod(t^v_i - 1)
    for a middle cone rho: those in (sigma - rho) & tau and in (rho - tau) - sigma."""
    s, r, t = set(sigma), set(rho), set(tau)
    return tuple(sorted(((s - r) & t) | ((r - t) - s)))


class AlgebraElement:
    """Sparse cone-pair-indexed matrix over the Laurent ring, in divided form.

    `quotients` maps each cone pair (sigma, tau) with a nonzero entry to the
    quotient y of the entry D(sigma, tau) * y.  Entries passed in are divided
    once, which is the membership check; arithmetic acts on the quotients.
    """

    __slots__ = ("fan", "quotients")

    def __init__(self, fan: Fan, entries: Mapping[tuple[Cone, Cone], LaurentPoly]):
        data = {}
        for (sigma, tau), poly in entries.items():
            key = (tuple(sorted(sigma)), tuple(sorted(tau)))
            if key in data:
                raise ValueError(f"repeated cone pair {_pair_key(*key)}")
            data[key] = poly
        rep = membership_report(fan, data)
        if not rep.ok:
            raise ValueError("not a member: " + "; ".join(rep.lines()))
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "quotients", rep.quotients)

    @classmethod
    def _divided(cls, fan: Fan, quotients: Mapping[tuple[Cone, Cone], LaurentPoly]) -> "AlgebraElement":
        """The element with these quotients, keyed by sorted cone pairs of
        fan; built by the library from quotients it knows, so not checked."""
        x = object.__new__(cls)
        object.__setattr__(x, "fan", fan)
        object.__setattr__(x, "quotients", {k: y for k, y in quotients.items() if not y.is_zero()})
        return x

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def entries(self) -> dict[tuple[Cone, Cone], LaurentPoly]:
        """The entries D(sigma, tau) * y, built on each access from the
        divisors in the fan's table."""
        return {k: y * required_divisor(self.fan, *k) for k, y in self.quotients.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.fan == other.fan and self.quotients == other.quotients

    def __hash__(self) -> int:
        return hash((self.fan, frozenset(self.quotients.items())))

    def is_zero(self) -> bool:
        return not self.quotients

    def _same_fan(self, other: "AlgebraElement") -> None:
        if self.fan != other.fan:
            raise ValueError("fan mismatch")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_fan(other)
        out = dict(self.quotients)
        for k, y in other.quotients.items():
            out[k] = out[k] + y if k in out else y
        return AlgebraElement._divided(self.fan, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._divided(self.fan, {k: -y for k, y in self.quotients.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other) -> "AlgebraElement":
        """The terms of `_product_terms`, collected by output cone pair and
        summed by `_sum_of_products` as integers over one denominator and
        reduced once per pair: no LaurentPoly is multiplied and no
        intermediate polynomial is built."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._same_fan(other)
        terms: dict[tuple[Cone, Cone], list[tuple[LaurentPoly, LaurentPoly, tuple[int, ...]]]] = {}
        for sigma, _, tau, y1, y2, rays in _product_terms(self, other):
            terms.setdefault((sigma, tau), []).append((y1, y2, rays))
        return AlgebraElement._divided(self.fan, {k: _sum_of_products(self.fan, ts) for k, ts in terms.items()})

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement._divided(self.fan, {k: y * c for k, y in self.quotients.items()})

    def supported_in(self, sigma: Cone, tau: Cone) -> bool:
        """True when all rows are faces of sigma and all columns faces of tau."""
        s, t = frozenset(sigma), frozenset(tau)
        return all(s.issuperset(r) and t.issuperset(c) for (r, c) in self.quotients)

    def __str__(self) -> str:
        if not self.quotients:
            return "0"
        parts = []
        for (sigma, tau), p in sorted(self.entries.items()):
            parts.append(f"[{cone_key(sigma)}|{cone_key(tau)}] {p}")
        return "; ".join(parts)

    __repr__ = __str__


def _product_terms(a: AlgebraElement, b: AlgebraElement) -> Iterator[tuple[Cone, Cone, Cone, LaurentPoly, LaurentPoly, tuple[int, ...]]]:
    """The terms of the product a * b, its one definition: for an entry
    (sigma, rho) of a with quotient y1 and an entry (rho, tau) of b with
    quotient y2, the quotient of a * b at (sigma, tau) gains y1 * y2 times
    the binomial product of rays = `cofactor_rays(sigma, rho, tau)`.  Yields
    (sigma, rho, tau, y1, y2, rays) in the order of the entries of a, and of
    b within each; nothing is multiplied.  The rays are taken on the
    bitmasks of the three cones and read from the fan's table of ray sets
    (`Fan._mask`, `Fan._rays_of`), so no set is built per term."""
    fan = a.fan
    mask, rays_of = fan._mask, fan._rays_of
    by_row: dict[Cone, list[tuple[Cone, int, LaurentPoly]]] = {}
    for (rho, tau), y in b.quotients.items():
        by_row.setdefault(rho, []).append((tau, mask(tau), y))
    for (sigma, rho), y1 in a.quotients.items():
        row = by_row.get(rho)
        if row is None:
            continue
        s, r = mask(sigma), mask(rho)
        kept, added = s & ~r, r & ~s  # sigma - rho and rho - sigma
        for tau, t, y2 in row:
            yield sigma, rho, tau, y1, y2, rays_of(kept & t | added & ~t)


def _sum_of_products(fan: Fan, terms: list[tuple[LaurentPoly, LaurentPoly, tuple[int, ...]]]) -> LaurentPoly:
    """The sum of y1 * y2 * binomial_product(rays) over the terms, as integer
    coefficients over the lcm of the terms' denominators y1.den * y2.den (a
    binomial product has denominator 1), reduced by one gcd pass."""
    den = lcm(*(y1.den * y2.den for y1, y2, _ in terms))
    total: dict[Vec, int] = {}
    for y1, y2, rays in terms:
        f = den // (y1.den * y2.den)
        cofactor = fan.binomial_product(rays).num.items()
        for e1, c1 in y1.num.items():
            for e2, c2 in y2.num.items():
                e12 = tuple(map(add, e1, e2))
                c12 = f * c1 * c2
                for e3, c3 in cofactor:
                    e = tuple(map(add, e12, e3))
                    total[e] = total.get(e, 0) + c12 * c3
    return LaurentPoly._reduced(fan.rank, {e: c for e, c in total.items() if c}, den)


def matrix_unit(fan: Fan, sigma: Sequence[int], tau: Sequence[int], poly: LaurentPoly | int | Fraction = 1) -> AlgebraElement:
    if isinstance(poly, (int, Fraction)):
        poly = LaurentPoly.constant(fan.rank, poly)
    sigma = fan.require_cone(sigma)
    tau = fan.require_cone(tau)
    return AlgebraElement(fan, {(sigma, tau): poly})


def _unit_quotient(fan: Fan, sigma: Cone, tau: Cone) -> AlgebraElement:
    """The matrix unit at (sigma, tau) with quotient 1, i.e. entry D(sigma, tau)."""
    return AlgebraElement._divided(fan, {(sigma, tau): LaurentPoly.one(fan.rank)})


def idempotent(fan: Fan, sigma: Sequence[int]) -> AlgebraElement:
    """Sum of diagonal matrix units over the faces of sigma."""
    sigma = fan.require_cone(sigma)
    one = LaurentPoly.one(fan.rank)
    return AlgebraElement._divided(fan, {(f, f): one for f in fan.faces_of(sigma)})


def unit(fan: Fan) -> AlgebraElement:
    return central(fan, LaurentPoly.one(fan.rank))


def central(fan: Fan, poly: LaurentPoly) -> AlgebraElement:
    """The scalar matrix poly * 1; diagonal entries have no forced divisor."""
    if poly.rank != fan.rank:
        raise ValueError(f"central polynomial has rank {poly.rank}, fan has rank {fan.rank}")
    return AlgebraElement._divided(fan, {(c, c): poly for c in fan.cones})


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
        out.append(Generator("idempotent", f"E[{cone_key(c)}]", c, None, None, _unit_quotient(fan, c, c)))
    for j in range(fan.rank):
        for sgn in (1, -1):
            e = tuple(sgn if i == j else 0 for i in range(fan.rank))
            label = f"t{j + 1}^{sgn:+d}" if fan.rank > 1 else f"t^{sgn:+d}"
            out.append(Generator("central", label, None, None, None, central(fan, LaurentPoly.monomial(e))))
    # u has entry t^v - 1 at (sigma, tau) and v entry 1 at (tau, sigma): both quotients are 1
    for tau, sigma, ray in covering_pairs(fan):
        u = _unit_quotient(fan, sigma, tau)
        out.append(Generator("u", f"u[{cone_key(tau)}<{cone_key(sigma)}]", None, (tau, sigma), ray, u))
        out.append(Generator("v", f"v[{cone_key(tau)}<{cone_key(sigma)}]", None, (tau, sigma), ray, _unit_quotient(fan, tau, sigma)))
    return out


def covering_chain(fan: Fan, lower: Cone, upper: Cone) -> list[tuple[Cone, Cone]]:
    """Covering pairs climbing from a face to a cone, one new ray at a time,
    in increasing index order.  Any other order gives the same products on a
    valid module and the same expansions in the algebra, properties the tests
    assert on chains they shuffle themselves.
    """
    lower = tuple(sorted(lower))
    upper = tuple(sorted(upper))
    if not set(lower) <= set(upper):
        raise ValueError(f"({cone_key(lower)}) is not a face of ({cone_key(upper)})")
    chain = []
    cur = lower
    for i in sorted(set(upper) - set(lower)):
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


def factorize(x: AlgebraElement) -> list[Word]:
    """Write each entry as scalar * u-chain * v-chain; the scalar is the
    entry's quotient and the chains are those of `covering_chain`.  The words
    are not multiplied back out: a word expands to its entry whatever the
    order of its chains, a theorem the tests assert as a property."""
    fan = x.fan
    words = []
    for (sigma, tau), y in sorted(x.quotients.items()):
        meet = tuple(sorted(set(sigma) & set(tau)))
        w = Word(
            row=sigma,
            col=tau,
            scalar=y,
            u_chain=tuple(covering_chain(fan, meet, sigma)),
            v_chain=tuple(covering_chain(fan, meet, tau)),
        )
        words.append(w)
    return words


@dataclass(frozen=True)
class TensorWord:
    """Normal form of an element of e_sigma A e_meet tensor e_meet A e_tau.

    Each term n E_(alpha, beta) of the source splits as the pure tensor
    n E_(alpha, m) (x) E_(m, beta) with m = alpha & beta; only these
    normal-form tensors are ever materialized.  A term stores (alpha, beta, y)
    with y the quotient of n; the left factor has the same forced divisor as
    n, so its quotient is y, and the right factor has none.

    The product of a term's two factors has the cofactor of `cofactor_rays`
    through m, ((alpha - m) & beta) | ((m - beta) - alpha), which is empty:
    alpha - m misses beta, and m lies in beta.  So the factors multiply back
    to E_(alpha, beta) with the term's own quotient y, for every term of
    every TensorWord, not only for those `delta` builds.
    """

    fan: Fan
    sigma: Cone
    tau: Cone
    terms: tuple[tuple[Cone, Cone, LaurentPoly], ...]


def delta(x: AlgebraElement, sigma: Sequence[int], tau: Sequence[int]) -> TensorWord:
    """Split an element of e_sigma A e_tau entrywise into normal-form tensors."""
    fan = x.fan
    sigma = fan.require_cone(sigma)
    tau = fan.require_cone(tau)
    if not x.supported_in(sigma, tau):
        raise ValueError(
            f"support violation: element not inside e({cone_key(sigma)}) A e({cone_key(tau)})"
        )
    terms = tuple((alpha, beta, y) for (alpha, beta), y in sorted(x.quotients.items()))
    return TensorWord(fan, sigma, tau, terms)


def mu(w: TensorWord) -> AlgebraElement:
    """Multiply the tensor factors back together.

    The factors of a term (alpha, beta, y) multiply to the quotient y at
    (alpha, beta), since their cofactor is empty (see `TensorWord`), so mu
    is one pass that sums the quotients by cone pair.  No factor is built
    and nothing is multiplied or checked: a theorem, which the tests assert
    as a property against multiplying the factors out.
    """
    total: dict[tuple[Cone, Cone], LaurentPoly] = {}
    for alpha, beta, y in w.terms:
        k = (alpha, beta)
        total[k] = total[k] + y if k in total else y
    return AlgebraElement._divided(w.fan, total)


def transport(x: AlgebraElement, beta: IntMatrix, target: Fan) -> AlgebraElement:
    """Apply a lattice automorphism: relabel cones and map entry exponents.

    beta must be unimodular and send every ray of the source fan to a ray of
    the target fan, inducing a bijection of cones; it then carries forced
    divisors to forced divisors, so the quotients map to the quotients and
    the image of a member is not checked.
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
    for (sigma, tau), y in x.quotients.items():
        out[(cone_image(sigma), cone_image(tau))] = monomial_map(y, beta)
    return AlgebraElement._divided(target, out)


# per (terms, emax, cmax) of `random_poly`: the coefficients a draw picks
# from, each over 1 and over 2 as numerators over 2, and the draw widths with
# their bit lengths; filled on first use, a handful of entries for the process
_POLY_DRAWS: dict[tuple[int, int, int], tuple] = {}


def random_poly(rank: int, rng: random.Random, terms: int = 2, emax: int = 1, cmax: int = 3) -> LaurentPoly:
    """Small random polynomial; may degenerate to fewer terms by cancellation.

    Each coefficient is p / q with q drawn from {1, 2}, summed as integers
    over 2 and reduced by parity.  Every draw of one of n values is
    CPython's rule for `rng.randrange(n)`, inlined: k = n.bit_length(), then
    getrandbits(k) drawn again while it is at least n, so n == 1 still takes
    one bit.  The stream, the values and the state of `rng` afterwards are
    those of `randrange`, which takes the same values as `randint` and
    `choice` over n values, with less overhead.  The constants of each
    (terms, emax, cmax) are read from a table filled on first use."""
    key = (terms, emax, cmax)
    draws = _POLY_DRAWS.get(key)
    if draws is None:
        if terms < 1 or emax < 0 or cmax < 1:
            raise ValueError(f"empty range: terms={terms}, emax={emax}, cmax={cmax}")
        over_two = tuple(x for x in range(-cmax, cmax + 1) if x)
        over_one = tuple(2 * x for x in over_two)
        width, nc = 2 * emax + 1, len(over_two)
        draws = _POLY_DRAWS[key] = (over_one, over_two, width, nc, terms.bit_length(), width.bit_length(), nc.bit_length())
    over_one, over_two, width, nc, kt, kw, kc = draws
    bits = rng.getrandbits
    count = bits(kt)
    while count >= terms:
        count = bits(kt)
    num: dict[tuple[int, ...], int] = {}
    for _ in range(count + 1):
        exponent = []
        for _ in range(rank):
            r = bits(kw)
            while r >= width:
                r = bits(kw)
            exponent.append(r - emax)
        e = tuple(exponent)
        r = bits(kc)
        while r >= nc:
            r = bits(kc)
        q = bits(2)  # one of two values: k = 2
        while q >= 2:
            q = bits(2)
        c = over_two[r] if q else over_one[r]
        num[e] = num.get(e, 0) + c
    num = {e: c for e, c in num.items() if c}
    if any(c & 1 for c in num.values()):
        return LaurentPoly._of(rank, num, 2)
    return LaurentPoly._of(rank, {e: c // 2 for e, c in num.items()}, 1)


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
    an integer so that sampling stays float-free like everything else.  The
    draws are those of `rng.randrange`, by the inlined rule `random_poly`
    states, so the members and the state of `rng` afterwards are those of
    the `randrange` sampler.
    """
    rows = fan.cone_list() if row_cone is None else fan.faces_of(row_cone)
    cols = fan.cone_list() if col_cone is None else fan.faces_of(col_cone)
    bits = rng.getrandbits
    quotients = {}
    pairs = [(s, t) for s in rows for t in cols]
    for pair in pairs:
        r = bits(7)  # one of 100 values: k = 7
        while r >= 100:
            r = bits(7)
        if r >= density_pct:
            continue
        y = random_poly(fan.rank, rng, terms=terms, emax=emax)
        if y.is_zero():
            continue
        quotients[pair] = y
    if not quotients:
        n = len(pairs)
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        quotients[pairs[r]] = LaurentPoly.one(fan.rank)
    return AlgebraElement._divided(fan, quotients)
