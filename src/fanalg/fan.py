"""Regular fans in an integer lattice.

Cones of a regular (hence simplicial) cone are exactly the subsets of its
primitive generators, so the fan stores cones as sorted tuples of ray
indices and computes the face closure combinatorially.  The one genuinely
geometric check, that two maximal cones meet along the cone on their common
rays, is done by exact Fourier-Motzkin elimination: the pair passes exactly
when a rational linear functional is nonnegative on one cone, nonpositive on
the other, and vanishes precisely on the span of the common rays.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from fanalg.lattice import IntMatrix, Vec, _vec, hnf_rows, primitive, snf
from fanalg.laurent import LaurentPoly, binomial
from fanalg.linalg import QMat, nullspace
from fanalg.report import Report

Cone = tuple[int, ...]

# size guard for the exact pairwise verification in fan_report
_VERIFY_MAX_RANK = 4
_VERIFY_MAX_CONES = 64


def cone_key(cone: Sequence[int]) -> str:
    return ",".join(map(str, cone))


def parse_cone_key(key: str) -> Cone:
    if key == "":
        return ()
    return tuple(sorted(int(p) for p in key.split(",")))


class Fan:
    """A fan: primitive rays plus a face-closed set of regular cones.

    A fan is immutable, so it owns five tables for its lifetime, each built
    on first use:
    - `_order`, the cones in the canonical order, which `cone_list` copies;
    - `_pairs`, the covering pairs in their canonical order, which
      `covering_pairs` copies;
    - `_by_key`, the cone of each canonical key, which `cone_of_key` reads
      in one probe;
    - `_products`, binomial products: for a sorted tuple of ray indices, the
      product of t^v - 1 over those rays, filled by `binomial_product`, which
      the forced divisors and product cofactors of the fan algebra read;
    - `_ray_sets`, the bitmask of each cone's rays (`_mask`) and the sorted
      rays of each bitmask (`_rays_of`), filled by `algebra._product_terms`,
      which takes the cofactor rays of each term on bitmasks.  It holds at
      most one entry per cone and one per distinct ray set: over the 18
      fans of a seed-11 `rep_zoo` run after 40 passes, 315 entries.
    `==` and `hash` ignore them, and every fan built from this one, a
    `subfan` included, starts with empty tables.
    """

    __slots__ = ("rank", "rays", "cones", "maximal", "_products", "_order", "_pairs", "_by_key", "_ray_sets")

    def __init__(self, rank: int, rays: Sequence[Vec], cones: frozenset[Cone], maximal: tuple[Cone, ...]):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rays", tuple(map(_vec, rays)))
        object.__setattr__(self, "cones", frozenset(cones))
        object.__setattr__(self, "maximal", tuple(maximal))
        object.__setattr__(self, "_products", {})
        object.__setattr__(self, "_order", None)
        object.__setattr__(self, "_pairs", None)
        object.__setattr__(self, "_by_key", None)
        object.__setattr__(self, "_ray_sets", {})

    def __setattr__(self, *a):
        raise AttributeError("Fan is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Fan)
            and self.rank == other.rank
            and self.rays == other.rays
            and self.cones == other.cones
            and self.maximal == other.maximal
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.rays, self.cones, self.maximal))

    def __repr__(self) -> str:
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, cones={len(self.cones)})"

    def cone_list(self) -> list[Cone]:
        """All cones in the canonical order: by dimension, then lexicographic;
        a fresh list, copied from the fan's table."""
        return list(self._cone_order())

    def _cone_order(self) -> tuple[Cone, ...]:
        if self._order is None:
            object.__setattr__(self, "_order", tuple(sorted(self.cones, key=lambda c: (len(c), c))))
        return self._order

    def _covering_pairs(self) -> tuple[tuple[Cone, Cone, int], ...]:
        if self._pairs is None:
            out = []
            for sigma in self._cone_order():
                for i in sigma:
                    out.append((tuple(x for x in sigma if x != i), sigma, i))
            object.__setattr__(self, "_pairs", tuple(sorted(out, key=lambda p: (len(p[1]), p[1], p[0]))))
        return self._pairs

    def cone_of_key(self, key: str) -> Cone:
        """The cone of a key from a file: one probe in the fan's table for the
        canonical key that `cone_key` writes, and `require_cone` of
        `parse_cone_key` for any other key."""
        if self._by_key is None:
            object.__setattr__(self, "_by_key", {cone_key(c): c for c in self.cones})
        c = self._by_key.get(key)
        return self.require_cone(parse_cone_key(key)) if c is None else c

    def is_cone(self, cone: Sequence[int]) -> bool:
        return tuple(sorted(cone)) in self.cones

    def require_cone(self, cone: Sequence[int]) -> Cone:
        c = tuple(sorted(_vec(cone)))
        if c not in self.cones:
            raise ValueError(f"unknown cone ({cone_key(c)})")
        return c

    def faces_of(self, cone: Sequence[int]) -> list[Cone]:
        c = self.require_cone(cone)
        out = []
        for k in range(len(c) + 1):
            out.extend(tuple(s) for s in combinations(c, k))
        return out

    def binomial_product(self, rays: tuple[int, ...]) -> LaurentPoly:
        """The product of t^v - 1 over the rays with these sorted indices,
        from the fan's table."""
        f = self._products.get(rays)
        if f is None:
            f = LaurentPoly.one(self.rank)
            for i in rays:
                f = f * binomial(self.rays[i])
            self._products[rays] = f
        return f

    def _mask(self, cone: Cone) -> int:
        """The bitmask of a cone's ray indices, from the fan's table."""
        mask = self._ray_sets.get(cone)
        if mask is None:
            mask = self._ray_sets[cone] = sum(1 << i for i in cone)
        return mask

    def _rays_of(self, mask: int) -> tuple[int, ...]:
        """The sorted ray indices of a bitmask, from the fan's table."""
        rays = self._ray_sets.get(mask)
        if rays is None:
            rays = self._ray_sets[mask] = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        return rays

    def subfan(self, cone: Sequence[int]) -> "Fan":
        """The fan of faces of one cone, over the same ambient rays."""
        c = self.require_cone(cone)
        faces = frozenset(self.faces_of(c))
        return Fan(self.rank, self.rays, faces, (c,))


def build_fan(rank: int, rays: Sequence[Sequence[int]], maximal_cones: Sequence[Sequence[int]]) -> Fan:
    """Construct a fan from primitive rays and generating cones.

    Computes the face closure, checks every generating cone for regularity
    (the Hermite form of the rows of its rank x k ray matrix is the k x k
    identity; only a cone that fails gets its Smith divisors, for the
    message), and keeps as maximal the cones not contained in another one.
    """
    rays = tuple(map(_vec, rays))
    for r in rays:
        if not any(r):
            raise ValueError("zero vector is not a ray")
        if primitive(r) != r:
            raise ValueError(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate rays")
    if any(len(r) != rank for r in rays):
        raise ValueError("ray length does not match rank")

    gens = []
    for c in maximal_cones:
        cone = tuple(sorted(_vec(c)))
        if any(i < 0 or i >= len(rays) for i in cone):
            raise ValueError(f"cone ({cone_key(cone)}) references a missing ray")
        if len(set(cone)) != len(cone):
            raise ValueError(f"cone ({cone_key(cone)}) repeats a ray")
        if len(cone) > rank:
            raise ValueError(f"cone ({cone_key(cone)}) has more rays than the rank")
        if cone:
            rows = list(zip(*(rays[i] for i in cone)))
            if hnf_rows(rows) != [tuple(int(i == j) for j in range(len(cone))) for i in range(len(cone))]:
                d = snf(IntMatrix(rows, shape=(rank, len(cone))))[1]
                divisors = [d[i, i] for i in range(len(cone))]
                raise ValueError(f"cone with rays ({cone_key(cone)}) fails SNF test: divisors {divisors}")
        gens.append(cone)

    if not gens:
        gens = [()]
    cones = set()
    for cone in gens:
        for k in range(len(cone) + 1):
            cones.update(tuple(s) for s in combinations(cone, k))
    cones.add(())
    maximal = tuple(sorted(c for c in set(gens) if not any(set(c) < set(d) for d in gens)))
    return Fan(rank, rays, frozenset(cones), maximal)


def _fm_feasible(cons: list[tuple[list[Fraction], Fraction]], nvars: int) -> list[Fraction] | None:
    """Solve the system {coeffs . y >= rhs} by Fourier-Motzkin; None if infeasible."""
    stages = []
    cur = [(list(c), r) for c, r in cons]
    for k in range(nvars):
        stages.append(cur)
        pos = [c for c in cur if c[0][k] > 0]
        neg = [c for c in cur if c[0][k] < 0]
        zero = [c for c in cur if c[0][k] == 0]
        nxt = list(zero)
        for cp, rp in pos:
            for cn, rn in neg:
                a, b = cp[k], -cn[k]
                coeffs = [b * x + a * y for x, y in zip(cp, cn)]
                nxt.append((coeffs, b * rp + a * rn))
        cur = nxt
    for coeffs, rhs in cur:
        if any(x != 0 for x in coeffs):
            raise AssertionError("Fourier-Motzkin elimination left a variable uneliminated")
        if rhs > 0:
            return None
    y = [Fraction(0)] * nvars
    for k in range(nvars - 1, -1, -1):
        lo = None
        hi = None
        for coeffs, rhs in stages[k]:
            ck = coeffs[k]
            if ck == 0:
                continue
            rest = rhs - sum(coeffs[j] * y[j] for j in range(k + 1, nvars))
            bound = rest / ck
            if ck > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            y[k] = Fraction(0)
        elif lo is None:
            y[k] = hi - 1
        elif hi is None:
            y[k] = lo + 1
        else:
            y[k] = (lo + hi) / 2
    return y


def separating_functional(fan: Fan, sigma: Cone, tau: Cone) -> list[Fraction] | None:
    """Rational functional >=1 on sigma-only rays, <=-1 on tau-only rays,
    zero on the common rays; None when no such functional exists."""
    common = sorted(set(sigma) & set(tau))
    sig_only = sorted(set(sigma) - set(tau))
    tau_only = sorted(set(tau) - set(sigma))
    n = fan.rank
    basis = nullspace(QMat([fan.rays[i] for i in common], shape=(len(common), n)))
    if not basis:
        if sig_only or tau_only:
            return None
        return [Fraction(0)] * n
    m = len(basis)
    cons: list[tuple[list[Fraction], Fraction]] = []
    for i in sig_only:
        v = fan.rays[i]
        cons.append(([sum(Fraction(x) * b[j] for j, x in enumerate(v)) for b in basis], Fraction(1)))
    for i in tau_only:
        v = fan.rays[i]
        cons.append(([-sum(Fraction(x) * b[j] for j, x in enumerate(v)) for b in basis], Fraction(1)))
    y = _fm_feasible(cons, m)
    if y is None:
        return None
    return [sum(y[b] * basis[b][j] for b in range(m)) for j in range(n)]


def fan_report(fan: Fan) -> Report:
    """Verify the fan axiom pairwise on maximal cones; the first pair that
    fails is the one finding.

    Large inputs pass with the verification recorded as skipped: polyhedral
    separation is peripheral to the algebraic core and only exercised at
    desk scale.
    """
    rep = Report()
    if fan.rank > _VERIFY_MAX_RANK or len(fan.cones) > _VERIFY_MAX_CONES:
        rep.skip("pairwise cone intersections not fully verified at this size")
        return rep
    for sigma, tau in combinations(fan.maximal, 2):
        if separating_functional(fan, sigma, tau) is None:
            rep.add("fan", f"({cone_key(sigma)})&({cone_key(tau)})", "cones do not meet along a common face")
            break
    return rep


def covering_pairs(fan: Fan) -> list[tuple[Cone, Cone, int]]:
    """All pairs tau < sigma with one extra ray, with that ray's index, by
    the upper cone in the canonical order and then the lower cone; a fresh
    list, copied from the fan's table."""
    return list(fan._covering_pairs())


# ---------------------------------------------------------------------------
# stock fans used throughout the tests, demos and documentation


def standard_fan(rank: int, k: int | None = None) -> Fan:
    """Fan of the cone on the first k basis vectors (affine space times torus)."""
    if k is None:
        k = rank
    rays = [tuple(1 if i == j else 0 for i in range(rank)) for j in range(k)]
    return build_fan(rank, rays, [tuple(range(k))] if k else [()])


def projective_line_fan() -> Fan:
    return build_fan(1, [(1,), (-1,)], [(0,), (1,)])


def projective_plane_fan() -> Fan:
    return build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def hirzebruch_fan(a: int = 1) -> Fan:
    return build_fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])


def product_fan(f1: Fan, f2: Fan) -> Fan:
    """Product fan; rays of the second factor are shifted past the first."""
    n1, n2 = f1.rank, f2.rank
    rays = [tuple(r) + (0,) * n2 for r in f1.rays] + [(0,) * n1 + tuple(r) for r in f2.rays]
    offset = len(f1.rays)
    maxc = []
    for c1 in f1.maximal:
        for c2 in f2.maximal:
            maxc.append(tuple(c1) + tuple(i + offset for i in c2))
    return build_fan(n1 + n2, rays, maxc)
