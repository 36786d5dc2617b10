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


def reflect_simple(rs, shifted, i):
    """The i-th simple reflection of a rho-shifted point in labels: m_j - m_i C_ij."""
    return tuple(m - shifted[i] * c for m, c in zip(shifted, rs.cartan_matrix[i]))


def reflect_affine(rs, k, shifted):
    """Reflection of a rho-shifted point in the wall <x, theta> = k."""
    excess = rs.level_of_labels(shifted) - k
    return tuple(m - excess * t for m, t in zip(shifted, rs.highest_root_labels))


def fold_point(rs, k, shifted):
    """One point folded into the level-k alcove, one reflection at a time:
    (folded point, sign), or (None, 0) on a wall.  The reference for
    `QuantumWeylGroup.fold`."""
    m, sign = tuple(shifted), 1
    while True:
        neg = next((i for i, v in enumerate(m) if v < 0), None)
        if neg is not None:
            m, sign = reflect_simple(rs, m, neg), -sign
        elif 0 in m or rs.level_of_labels(m) == k:
            return None, 0
        elif rs.level_of_labels(m) > k:
            m, sign = reflect_affine(rs, k, m), -sign
        else:
            return m, sign


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


def _parented(**parents):
    """Link-file circles (A1 colour [0]) from id=parent keywords, in keyword order."""
    return [{"id": cid, "parent": p, "winding": 1, "positive_side": "inside", "color": [0]}
            for cid, p in parents.items()]


# Containment cycles that no existing tree check reaches head on, as
# (name, circles, ids of the circles that lie on a cycle).
CYCLE_FORESTS = [
    ("hangs-inside-two-cycle", _parented(c="a", a="b", b="a"), {"a", "b"}),
    ("two-disjoint-cycles", _parented(r=None, a="b", b="a", c="d", d="c"), {"a", "b", "c", "d"}),
    ("self-parent-beside-tree", _parented(r=None, s="r", t="s", x="x"), {"x"}),
]
