"""Shared fixtures: stock fans and the constructed-module zoo."""

import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import configuration

# the helpers' own asserts, such as the validity check in
# random_valid_module, are rewritten like those of test modules, so they also
# run under python -O; this must come before support is imported
pytest.register_assert_rewrite("support")

from fanalg.descent import glue, twisted_datum
from fanalg.diagram import (
    DiagramModule,
    character_module,
    conjugate,
    direct_sum,
    point_module,
    tensor_module,
    validate,
)
from fanalg.fan import (
    Fan,
    hirzebruch_fan,
    product_fan,
    projective_line_fan,
    projective_plane_fan,
    standard_fan,
)
from fanalg.linalg import QMat, random_invertible

from support import one_ray_module, random_valid_module

# hypothesis also caches the constants it reads from local source files, at
# collection time, under ./.hypothesis by default; keep that out of the checkout
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "fanalg-hypothesis")


@pytest.fixture(scope="session")
def c_fan() -> Fan:
    return standard_fan(1)


@pytest.fixture(scope="session")
def c2_fan() -> Fan:
    return standard_fan(2)


@pytest.fixture(scope="session")
def p1_fan() -> Fan:
    return projective_line_fan()


@pytest.fixture(scope="session")
def p2_fan() -> Fan:
    return projective_plane_fan()


@pytest.fixture(scope="session")
def f1_fan() -> Fan:
    return hirzebruch_fan(1)


@pytest.fixture(scope="session")
def p1xp1_fan() -> Fan:
    return product_fan(projective_line_fan(), projective_line_fan())


def random_one_ray(rng: random.Random, d_lower: int, d_upper: int) -> DiagramModule:
    """Random arrow pair with id + v u invertible; torus matrices forced."""
    while True:
        u = QMat([[Fraction(rng.randint(-2, 2)) for _ in range(d_lower)] for _ in range(d_upper)])
        v = QMat([[Fraction(rng.randint(-2, 2)) for _ in range(d_upper)] for _ in range(d_lower)])
        if (QMat.identity(d_lower) + v @ u).is_invertible():
            return one_ray_module(u, v)


def module_zoo(fan: Fan, rng: random.Random) -> list[DiagramModule]:
    """At least five constructed valid modules for each supported fan."""
    cones = fan.cone_list()
    zoo: list[DiagramModule] = []
    if fan == standard_fan(1):
        zoo.append(point_module(fan, ()))
        zoo.append(point_module(fan, (0,)))
        zoo.append(one_ray_module(QMat([[1]]), QMat([[1]])))
        zoo.append(random_one_ray(rng, 2, 2))
        zoo.append(conjugate(direct_sum(zoo[2], zoo[3]), {c: random_invertible(3, rng) for c in fan.cones}))
        zoo.append(random_one_ray(rng, 2, 1))
    elif fan == standard_fan(2):
        zoo.append(point_module(fan, (0, 1)))
        zoo.append(point_module(fan, ()))
        zoo.append(tensor_module(random_one_ray(rng, 1, 1), random_one_ray(rng, 2, 1)))
        zoo.append(character_module(fan, (Fraction(2), Fraction(-1, 2))))
        six = direct_sum(zoo[3], character_module(fan, (Fraction(3), Fraction(1))))
        zoo.append(conjugate(six, {c: random_invertible(six.dims[c], rng) for c in fan.cones}))
    else:
        zoo.append(point_module(fan, cones[-1]))
        zoo.append(character_module(fan, tuple(Fraction(2) for _ in range(fan.rank))))
        zoo.append(random_valid_module(fan, rng, summands=2))
        zoo.append(random_valid_module(fan, rng, summands=3))
        zoo.append(glue(twisted_datum(random_valid_module(fan, rng, summands=2), rng)))
    for m in zoo:
        assert validate(m).ok
    return zoo
