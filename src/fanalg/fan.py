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

from fanalg.lattice import IntMatrix, Vec, _vec, complete_to_basis, elementary_divisors, primitive
from fanalg.linalg import QMat, nullspace
from fanalg.report import Report

Cone = tuple[int, ...]

# size guard for the exact pairwise verification in fan_report
_VERIFY_MAX_RANK = 4
_VERIFY_MAX_CONES = 64


def cone_key(cone: Sequence[int]) -> str:
    return ",".join(str(i) for i in cone)


def parse_cone_key(key: str) -> Cone:
    if key == "":
        return ()
    return tuple(sorted(int(p) for p in key.split(",")))


class Fan:
    """A fan: primitive rays plus a face-closed set of regular cones."""

    __slots__ = ("rank", "rays", "cones", "maximal")

    def __init__(self, rank: int, rays: Sequence[Vec], cones: frozenset[Cone], maximal: tuple[Cone, ...]):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rays", tuple(map(_vec, rays)))
        object.__setattr__(self, "cones", frozenset(cones))
        object.__setattr__(self, "maximal", tuple(maximal))

    def __setattr__(self, *a):
        raise AttributeError("Fan is immutable")

    def __eq__(self, other) -> bool:
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
        """All cones in the canonical order: by dimension, then lexicographic."""
        return sorted(self.cones, key=lambda c: (len(c), c))

    def is_cone(self, cone: Sequence[int]) -> bool:
        return tuple(sorted(cone)) in self.cones

    def require_cone(self, cone: Sequence[int]) -> Cone:
        c = tuple(sorted(_vec(cone)))
        if c not in self.cones:
            raise ValueError(f"unknown cone ({cone_key(c)})")
        return c

    def ray_vectors(self, cone: Sequence[int]) -> list[Vec]:
        return [self.rays[i] for i in sorted(cone)]

    def faces_of(self, cone: Sequence[int]) -> list[Cone]:
        c = self.require_cone(cone)
        out = []
        for k in range(len(c) + 1):
            out.extend(tuple(s) for s in combinations(c, k))
        return out

    def subfan(self, cone: Sequence[int]) -> "Fan":
        """The fan of faces of one cone, over the same ambient rays."""
        c = self.require_cone(cone)
        faces = frozenset(self.faces_of(c))
        return Fan(self.rank, self.rays, faces, (c,))


def build_fan(rank: int, rays: Sequence[Sequence[int]], maximal_cones: Sequence[Sequence[int]]) -> Fan:
    """Construct a fan from primitive rays and generating cones.

    Computes the face closure, checks every generating cone for regularity
    (all Smith elementary divisors equal to one), and keeps as maximal the
    generating cones not contained in another one.
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
            divs = elementary_divisors(IntMatrix.from_columns([rays[i] for i in cone], rows=rank))
            if any(d != 1 for d in divs):
                raise ValueError(f"cone with rays ({cone_key(cone)}) fails SNF test: divisors {divs}")
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


def is_fan(fan: Fan) -> bool:
    return fan_report(fan).ok


def covering_pairs(fan: Fan) -> list[tuple[Cone, Cone, int]]:
    """All pairs tau < sigma with one extra ray, with that ray's index."""
    out = []
    for sigma in fan.cone_list():
        for i in sigma:
            tau = tuple(x for x in sigma if x != i)
            out.append((tau, sigma, i))
    return sorted(out, key=lambda p: (len(p[1]), p[1], p[0]))


def chart_normalization(fan: Fan, cone: Sequence[int]) -> IntMatrix:
    """Unimodular matrix sending the cone's rays to the first basis vectors,
    rays taken in the cone's canonical (sorted index) order."""
    c = fan.require_cone(cone)
    vecs = fan.ray_vectors(c)
    w = complete_to_basis(vecs, rank=fan.rank)
    beta = w.inverse()
    for j, v in enumerate(vecs):
        if beta.apply(v) != tuple(1 if i == j else 0 for i in range(fan.rank)):
            raise AssertionError(f"chart normalization of ({cone_key(c)}) misses ray {j}")
    return beta


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
