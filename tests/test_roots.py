import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simple_reflection_matrix
from shadowsum.errors import PreconditionError
from shadowsum.roots import (
    build_root_system,
    is_regular,
    weyl_group_order,
    weyl_orbit,
)

ALL_TYPES = (
    ["A%d" % r for r in range(1, 9)]
    + ["B%d" % r for r in range(2, 9)]
    + ["C%d" % r for r in range(2, 9)]
    + ["D%d" % r for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

KNOWN_G = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1, "C": lambda n: n + 1,
           "D": lambda n: 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get,
           "F": {4: 9}.get, "G": {2: 4}.get}

KNOWN_DIM = {"A": lambda n: (n + 1) ** 2 - 1, "B": lambda n: n * (2 * n + 1),
             "C": lambda n: n * (2 * n + 1), "D": lambda n: n * (2 * n - 1),
             "E": {6: 78, 7: 133, 8: 248}.get, "F": {4: 52}.get, "G": {2: 14}.get}


@pytest.mark.parametrize("label", ALL_TYPES)
def test_invariants_all_types(label):
    rs = build_root_system(label)
    # positive root count from the known algebra dimension
    assert 2 * len(rs.positive_roots) == KNOWN_DIM[label[0]](rs.rank) - rs.rank
    # short coroots have squared length exactly 2
    assert min(rs.inner(c, c) for c in map(rs.coroot, rs.positive_roots)) == 2
    # dual Coxeter number from <theta, rho>, exactly
    assert rs.dual_coxeter == 1 + rs.inner(rs.highest_root, rs.weyl_vector)
    assert rs.dual_coxeter == KNOWN_G[label[0]](rs.rank)
    # coroot and weight lattices are mutually dual
    for i, w in enumerate(rs.fundamental_weights):
        for j, c in enumerate(rs.simple_coroots):
            assert rs.inner(w, c) == (1 if i == j else 0)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_highest_root_unique_long_dominant(label):
    rs = build_root_system(label)
    long_norm = max(rs.inner(b, b) for b in rs.roots)
    in_chamber = [
        b
        for b in rs.roots
        if rs.inner(b, b) == long_norm
        and all(rs.inner(b, c) >= 0 for c in rs.simple_coroots)
    ]
    assert in_chamber == [rs.highest_root]


def test_example_counts():
    assert len(build_root_system("A", 1).positive_roots) == 1
    assert build_root_system("A", 1).dual_coxeter == 2
    assert len(build_root_system("A", 2).positive_roots) == 3
    assert build_root_system("A", 2).dual_coxeter == 3
    assert len(build_root_system("G", 2).positive_roots) == 6
    assert build_root_system("G", 2).dual_coxeter == 4


@pytest.mark.parametrize("bad", [("A", 0), ("A", 9), ("B", 1), ("D", 3), ("E", 5), ("H", 2), ("F", 3)])
def test_invalid_pairs_rejected(bad):
    with pytest.raises(PreconditionError) as ei:
        build_root_system(*bad)
    assert bad[0] in str(ei.value) and str(bad[1]) in str(ei.value)


def test_inner_examples(a1):
    alpha = a1.positive_roots[0]
    assert a1.inner(a1.coroot(alpha), a1.coroot(alpha)) == 2
    zero = (Q(0),) * a1.ambient_dim
    assert a1.inner(zero, alpha) == 0
    assert a1.inner(a1.weyl_vector, a1.weyl_vector) == Q(1, 2)


def test_inner_dimension_mismatch(a1, a2):
    with pytest.raises(PreconditionError):
        a1.inner(a2.weyl_vector, a2.weyl_vector)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3"])
def test_form_weyl_invariant_on_roots(label):
    rs = build_root_system(label)
    for i in range(rs.rank):
        s = simple_reflection_matrix(rs, i)

        def refl(v):
            return tuple(sum(s[r][c] * v[c] for c in range(rs.ambient_dim))
                         for r in range(rs.ambient_dim))

        for x in rs.positive_roots:
            for y in rs.positive_roots:
                assert rs.inner(refl(x), refl(y)) == rs.inner(x, y)


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _is_identity(m):
    return all(m[i][j] == (1 if i == j else 0) for i in range(len(m)) for j in range(len(m)))


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_coxeter_relations_brute_force(label):
    """(s_i s_j)^m_ij = 1 with m_ij read off the Cartan matrix."""
    rs = build_root_system(label)
    mats = [simple_reflection_matrix(rs, i) for i in range(rs.rank)]
    order_of = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(rs.rank):
        assert _is_identity(_mat_mul(mats[i], mats[i]))
        for j in range(i + 1, rs.rank):
            m = order_of[rs.cartan_matrix[i][j] * rs.cartan_matrix[j][i]]
            prod = _mat_mul(mats[i], mats[j])
            acc = prod
            for _ in range(m - 1):
                acc = _mat_mul(acc, prod)
            assert _is_identity(acc), (label, i, j, m)


def test_is_regular_examples(a1, a2):
    b = a1.from_labels([Q(1, 2)])  # alpha(b) = 1/2
    assert is_regular(a1, b)
    assert not is_regular(a1, (Q(0),) * a1.ambient_dim)
    # alpha1(b) = 1/3, alpha2(b) = 2/3 forces theta(b) = 1
    b2v = a2.from_labels([Q(1, 3), Q(2, 3)])
    assert a2.inner(a2.highest_root, b2v) == 1
    assert not is_regular(a2, b2v)


def test_weyl_orbit_examples(a1, a2):
    half_alpha = (1,)
    orb = weyl_orbit(a1, half_alpha)
    assert len(orb) == 2
    assert {s for _, s in orb} == {1, -1}
    zero_orbit = weyl_orbit(a1, (0,))
    assert len(zero_orbit) == 1 and zero_orbit[0][1] == 1

    orb2 = weyl_orbit(a2, (1, 1))  # rho
    assert len(orb2) == 6
    assert sum(s for _, s in orb2) == 0


def test_weyl_group_orders():
    for label, order in [("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("G2", 12), ("F4", 1152),
                         ("E6", 51_840), ("E7", 2_903_040), ("E8", 696_729_600)]:
        assert weyl_group_order(build_root_system(label)) == order
    # orbit counting stays the oracle of the closed form
    for label in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6"):
        rs = build_root_system(label)
        assert len(weyl_orbit(rs, (1,) * rs.rank)) == weyl_group_order(rs)


@settings(max_examples=40, deadline=None)
@given(labels=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_orbit_size_divides_group_order(labels):
    rs = build_root_system("B2")
    orb = weyl_orbit(rs, labels)
    assert 8 % len(orb) == 0


@settings(max_examples=40, deadline=None)
@given(
    coords=st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=16),
        st.fractions(min_value=-3, max_value=3, max_denominator=16),
    )
)
def test_orbit_preserves_norm(coords, b2):
    v = b2.from_labels(coords)
    n = b2.inner(v, v)
    for w, _ in weyl_orbit(b2, coords):
        u = b2.from_labels(w)
        assert b2.inner(u, u) == n


@pytest.mark.parametrize("label", ["A²", "A١", "", "A", "Z3", "A1.5", "A-1"])
def test_malformed_type_label_rejected(label):
    """Only ASCII digits are a rank: int() of other digit characters fails or surprises."""
    with pytest.raises(PreconditionError):
        build_root_system(label)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "E6", "F4", "G2"])
def test_positive_root_labels_match_ambient_roots(label):
    """The stored labels are <alpha, coroot(alpha_j)> of each positive root, in order."""
    rs = build_root_system(label)
    derived = tuple(
        tuple(rs.inner(alpha, cr) for cr in rs.simple_coroots) for alpha in rs.positive_roots
    )
    assert rs.positive_root_labels == derived
    assert all(type(x) is int for al in rs.positive_root_labels for x in al)
    for labels in [(0,) * rs.rank, (1,) * rs.rank, tuple(range(rs.rank)), *rs.positive_root_labels]:
        level = rs.level_of_labels(labels)
        assert type(level) is int
        assert level == sum(Q(a) * m for a, m in zip(rs.comarks, labels))


# Marks (theta in simple roots) and comarks (coroot(theta) in simple coroots) in
# Bourbaki's numbering: the plates of Lie Groups and Lie Algebras ch. VI, and
# Kac, Infinite-dimensional Lie algebras, Table Aff 1.
MARKS_AND_COMARKS = {
    "A": lambda n: ((1,) * n, (1,) * n),
    "B": lambda n: ((1,) + (2,) * (n - 1), (1,) + (2,) * (n - 2) + (1,)),
    "C": lambda n: ((2,) * (n - 1) + (1,), (1,) * n),
    "D": lambda n: ((1,) + (2,) * (n - 3) + (1, 1), (1,) + (2,) * (n - 3) + (1, 1)),
    "E": {6: ((1, 2, 2, 3, 2, 1),) * 2, 7: ((2, 2, 3, 4, 3, 2, 1),) * 2,
          8: ((2, 3, 4, 6, 5, 4, 3, 2),) * 2}.get,
    "F": {4: ((2, 3, 4, 2), (2, 3, 2, 1))}.get,
    "G": {2: ((3, 2), (1, 2))}.get,
}


@pytest.mark.parametrize("label", ALL_TYPES)
def test_highest_root_and_comarks_match_tables(label):
    rs = build_root_system(label)
    marks, comarks = MARKS_AND_COMARKS[label[0]](rs.rank)
    theta = tuple(
        sum(m * alpha[d] for m, alpha in zip(marks, rs.simple_roots)) for d in range(rs.ambient_dim)
    )
    assert rs.highest_root == theta
    assert rs.comarks == comarks
    assert rs.dual_coxeter == 1 + sum(comarks)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_label_form_is_scaled_ambient_form(label):
    """label_form is the integer weight_form_den <x, y>: on every pair of unit label
    vectors (the Gram data itself) and on a few random label vectors."""
    rs = build_root_system(label)
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    rnd = random.Random(label)
    extra = [tuple(rnd.randint(-4, 4) for _ in range(rs.rank)) for _ in range(4)]
    pairs = [(m, n) for m in units for n in units] + list(zip(extra, extra[::-1]))
    for m, n in pairs:
        value = rs.label_form(m, n)
        assert type(value) is int
        assert value == rs.weight_form_den * rs.inner(rs.from_labels(m), rs.from_labels(n))
