import numpy as np
import pytest

import dsblo.problem
from dsblo.problem import Polyhedron, QuadraticBilevel, empty_polyhedron, generate_instance


@pytest.fixture(scope="session")
def seed1_instance():
    return generate_instance(10, 10, 5, seed=1)


@pytest.fixture(scope="session")
def small_instance():
    return generate_instance(3, 3, 4, seed=7)


def make_1d_instance(q2: float, q1: float = 0.0, cx: float = 0.0, cy: float = 0.0,
                     A=None, B=None, b=None) -> QuadraticBilevel:
    """1-D instance with g(x,y) = x^2 + q2*x*y + y^2 and optional constraint
    rows; f(x,y) = x^2 + 0.1*q1*x*y + y^2 + cx*x + cy*y."""
    if A is None:
        poly = empty_polyhedron(1, 1)
    else:
        poly = Polyhedron(np.atleast_2d(A), np.atleast_2d(B), np.atleast_1d(b))
    return QuadraticBilevel(
        Q1=[[q1]], Q2=[[q2]], cx=[[cx]], cy=[[cy]], constraints=poly,
        box_radius=None,
    )


def generate(d_u: int, d_l: int, k: int, seed: int, blocks: bool = False, **kwargs):
    """``generate_instance``; with ``blocks`` its box is taken by blocks
    whatever its size, the size rule set to 0 while the instance is built
    (``Polyhedron.box_start`` is decided then)."""
    with pytest.MonkeyPatch.context() as mp:
        if blocks:
            mp.setattr(dsblo.problem, "BOX_BLOCK_ENTRIES", 0)
        return generate_instance(d_u, d_l, k, seed=seed, **kwargs)
