"""Properties over generated inputs for the theorems the library relies on
instead of checking derived results again: closure of the algebra, the
splitting mu(delta(x)) = x, and associativity of the base-changed algebra."""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, configuration, given, settings
from hypothesis import strategies as st

from fanalg.algebra import delta, idempotent, membership_report, mu, random_member, transport, unit
from fanalg.equivariant import ag_structure, associativity_report, quotient_presentation
from fanalg.fan import hirzebruch_fan, product_fan, projective_line_fan, projective_plane_fan, standard_fan
from fanalg.lattice import IntMatrix

# reproducible, and no example database written next to the tests
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=15)

# hypothesis also caches the constants it reads from local source files, at
# collection time, under ./.hypothesis by default; keep that out of the checkout
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "fanalg-hypothesis")

P1xP1 = product_fan(projective_line_fan(), projective_line_fan())
FANS = {"C2": standard_fan(2), "P2": projective_plane_fan(), "P1xP1": P1xP1, "F1": hirzebruch_fan(1)}
SWAP = IntMatrix([[0, 1], [1, 0]])

fan_names = st.sampled_from(sorted(FANS))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
scalars = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@SETTINGS
@given(fan_names, seeds, scalars)
def test_closure(name, seed, c):
    fan = FANS[name]
    rng = random.Random(seed)
    a = random_member(fan, rng)
    b = random_member(fan, rng)
    for x in (a + b, a * b, -a, c * a):
        assert membership_report(fan, x.entries).ok


@pytest.mark.parametrize("name", sorted(FANS))
def test_units_and_idempotents_are_members(name):
    fan = FANS[name]
    assert membership_report(fan, unit(fan).entries).ok
    for sigma in fan.cone_list():
        assert membership_report(fan, idempotent(fan, sigma).entries).ok


@SETTINGS
@given(seeds)
def test_transport_along_factor_swap(seed):
    x = random_member(P1xP1, random.Random(seed))
    y = transport(x, SWAP, P1xP1)
    assert membership_report(P1xP1, y.entries).ok
    assert transport(y, SWAP, P1xP1) == x


@SETTINGS
@given(fan_names, seeds, st.data())
def test_mu_delta_round_trip(name, seed, data):
    fan = FANS[name]
    sigma = data.draw(st.sampled_from(fan.maximal))
    tau = data.draw(st.sampled_from(fan.maximal))
    x = random_member(fan, random.Random(seed), row_cone=sigma, col_cone=tau)
    w = delta(x, sigma, tau)
    for i in range(len(w.terms)):
        assert membership_report(fan, w.left_factor(i).entries).ok
        assert membership_report(fan, w.right_factor(i).entries).ok
    assert mu(w) == x


@settings(SETTINGS, max_examples=8)
@given(
    st.sampled_from(["C2", "P2"]),
    st.integers(min_value=1, max_value=2),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_structure_constants_associative(name, rows, entries):
    fan = FANS[name]
    q = [entries[2 * i : 2 * i + 2] for i in range(rows)]
    try:
        qd = quotient_presentation(q=q)
    except ValueError:
        assume(False)  # not of full row rank
    assert associativity_report(ag_structure(fan, qd), samples=None).ok
