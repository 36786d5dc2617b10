import os
import random
from pathlib import Path

import pytest

from shadowsum.diagrams import build_diagram
from shadowsum.fusion import build_fusion_table
from shadowsum.reps import level_alphabet
from shadowsum.roots import build_root_system


SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """The environment for a subprocess that imports shadowsum from this checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC))


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B2")


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G2")


@pytest.fixture(scope="session")
def a1k4(a1):
    return level_alphabet(a1, 4)


@pytest.fixture(scope="session")
def a1k4_table(a1k4):
    return build_fusion_table(a1k4)


def simple_reflection_matrix(rs, i):
    """Matrix of the i-th simple reflection v -> v - <v, coroot_i> alpha_i in the ambient basis."""
    alpha, coroot = rs.simple_roots[i], rs.simple_coroots[i]
    return [[int(r == c) - rs.form_scale * coroot[c] * alpha[r] for c in range(rs.ambient_dim)]
            for r in range(rs.ambient_dim)]


def random_forest_diagram(rng: random.Random, alphabet, max_circles=6, max_wind=3):
    """Random nesting forest with colors drawn from the alphabet."""
    n = rng.randint(0, max_circles)
    circles = []
    for i in range(n):
        parent = None
        if i > 0 and rng.random() < 0.6:
            parent = str(rng.randrange(i))
        circles.append(
            {
                "id": str(i),
                "parent": parent,
                "winding": rng.randint(-max_wind, max_wind),
                "positive_side": rng.choice(["inside", "outside"]),
                "color": list(rng.choice(alphabet.elements)),
            }
        )
    return build_diagram(circles)
