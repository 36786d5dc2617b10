import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alphas, ambient, simple_reflection_matrix
from shadowsum.determinants import det_half, det_k
from shadowsum.errors import PreconditionError
from shadowsum.field import (
    cartan_inverse,
    coweight_coordinates,
    form_scale,
    is_regular,
    root_pairings,
    simple_roots,
)
from shadowsum.roots import (
    build_root_system,
    parse_type_label,
    to_dominant,
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
    rs = ambient(build_root_system(label))
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
    rs = ambient(build_root_system(label))
    long_norm = max(rs.inner(b, b) for b in rs.roots)
    in_chamber = [
        b
        for b in rs.roots
        if rs.inner(b, b) == long_norm
        and all(rs.inner(b, c) >= 0 for c in rs.simple_coroots)
    ]
    assert in_chamber == [rs.highest_root]


def test_example_counts():
    assert len(build_root_system("A1").positive_root_labels) == 1
    assert build_root_system("A1").dual_coxeter == 2
    assert len(build_root_system("A2").positive_root_labels) == 3
    assert build_root_system("A2").dual_coxeter == 3
    assert len(build_root_system("G2").positive_root_labels) == 6
    assert build_root_system("G2").dual_coxeter == 4


@pytest.mark.parametrize("bad", [("A", 0), ("A", 9), ("B", 1), ("D", 3), ("E", 5), ("H", 2), ("F", 3)])
def test_invalid_pairs_rejected(bad):
    with pytest.raises(PreconditionError) as ei:
        build_root_system(f"{bad[0]}{bad[1]}")
    assert bad[0] in str(ei.value) and str(bad[1]) in str(ei.value)


def test_inner_examples(a1):
    a1 = ambient(a1)
    alpha = a1.positive_roots[0]
    assert a1.inner(a1.coroot(alpha), a1.coroot(alpha)) == 2
    zero = (Q(0),) * a1.ambient_dim
    assert a1.inner(zero, alpha) == 0
    assert a1.inner(a1.weyl_vector, a1.weyl_vector) == Q(1, 2)


def test_inner_dimension_mismatch(a1, a2):
    rho2 = ambient(a2).weyl_vector
    with pytest.raises(PreconditionError):
        ambient(a1).inner(rho2, rho2)
    with pytest.raises(PreconditionError, match="needs 2 ambient coordinates, got 3"):
        coweight_coordinates(a1, rho2)
    with pytest.raises(PreconditionError, match="expected 2 coweight coordinates, got 1"):
        root_pairings(a2, (Q(1, 3),))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3"])
def test_form_weyl_invariant_on_roots(label):
    rs = ambient(build_root_system(label))
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
    assert is_regular(alphas(a1, [Q(1, 2)]))  # alpha(b) = 1/2
    assert not is_regular(alphas(a1, [0]))
    # alpha1(b) = 1/3, alpha2(b) = 2/3 forces theta(b) = 1
    amb = ambient(a2)
    b2v = amb.from_labels([Q(1, 3), Q(2, 3)])
    assert amb.inner(amb.highest_root, b2v) == 1
    assert not is_regular(amb.root_pairings(b2v))


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


# |W| in closed form (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates I-IX)
WEYL_ORDER = {"A": lambda n: math.factorial(n + 1), "B": lambda n: 2**n * math.factorial(n),
              "C": lambda n: 2**n * math.factorial(n),
              "D": lambda n: 2 ** (n - 1) * math.factorial(n),
              "E": {6: 51_840, 7: 2_903_040, 8: 696_729_600}.get, "F": {4: 1_152}.get,
              "G": {2: 12}.get}


def test_weyl_group_orders():
    """Macdonald's product over the root heights is the closed form on every type."""
    for label in ALL_TYPES:
        rs = build_root_system(label)
        assert weyl_group_order(rs) == WEYL_ORDER[rs.type_label](rs.rank)
    # orbit counting stays the oracle of the closed form
    for label in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6"):
        rs = build_root_system(label)
        assert len(weyl_orbit(rs, (1,) * rs.rank)) == weyl_group_order(rs)


def _reflected(rs, start, rng, steps):
    """`start` reflected in `steps` simple roots drawn by rng."""
    m = start
    for _ in range(steps):
        i = rng.randrange(rs.rank)
        m = tuple(v - m[i] * c for v, c in zip(m, rs.cartan_matrix[i]))
    return m


# The fundamental weights (label, index from 0) whose orbits hold more than 2 * 10**4
# points, |W| / |W_lambda|: E8's omega_3..omega_6, of 69,120, 483,840, 241,920 and
# 60,480 points.  Their orbits are sampled by random words in the simple reflections.
LARGE_ORBITS = {("E8", 2), ("E8", 3), ("E8", 4), ("E8", 5)}


@pytest.mark.parametrize("label", ALL_TYPES)
def test_to_dominant_maps_each_orbit_to_its_dominant_point(label):
    """Every point of the orbit of a fundamental weight walks back to that weight.
    On types with |W| <= 2 * 10**4 every point of rho's orbit walks to rho with the
    sign `weyl_orbit` gives it, which is canonical as rho is regular; on every type
    rho reflected by a random word of simple reflections walks back with the
    word's parity."""
    rs = build_root_system(label)
    rng = random.Random(label)
    for i in range(rs.rank):
        omega = tuple(int(i == j) for j in range(rs.rank))
        if (label, i) in LARGE_ORBITS:
            points = [_reflected(rs, omega, rng, 300) for _ in range(200)]
        else:
            points = [p for p, _ in weyl_orbit(rs, omega)]
        assert all(to_dominant(rs.cartan_matrix, p)[0] == omega for p in points)
    rho = (1,) * rs.rank
    if weyl_group_order(rs) <= 2 * 10**4:
        orbit = weyl_orbit(rs, rho)
        assert len(orbit) == weyl_group_order(rs)
        assert all(to_dominant(rs.cartan_matrix, p) == (rho, sign) for p, sign in orbit)
    for length in rng.sample(range(200), 50):
        point = _reflected(rs, rho, rng, length)
        assert to_dominant(rs.cartan_matrix, point) == (rho, (-1) ** length)


def test_to_dominant_walks_in_the_first_negative_label():
    """The walk reflects in the first negative label and counts the reflections:
    on A2, (-1, -2) -> (1, -3) -> (-2, 3) -> (2, 1), and 0 is its own point."""
    a2 = build_root_system("A2")
    assert to_dominant(a2.cartan_matrix, (-1, -2)) == ((2, 1), -1)
    assert to_dominant(a2.cartan_matrix, [1, -3]) == ((2, 1), 1)
    assert to_dominant(a2.cartan_matrix, (0, 0)) == ((0, 0), 1)
    assert type(to_dominant(a2.cartan_matrix, [3, -1])[0]) is tuple


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
    b2 = ambient(b2)
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
    rs = ambient(build_root_system(label))
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
    rs = ambient(build_root_system(label))
    marks, comarks = MARKS_AND_COMARKS[label[0]](rs.rank)
    theta = tuple(
        sum(m * alpha[d] for m, alpha in zip(marks, rs.simple_roots)) for d in range(rs.ambient_dim)
    )
    assert rs.highest_root == theta
    assert rs.comarks == comarks
    assert rs.dual_coxeter == 1 + sum(comarks)


def _twice(dim, coeffs):
    """2 sum_i c_i eps_i in R^dim, for coefficients {i: c_i} with 1-indexed i."""
    return tuple(int(2 * coeffs.get(i, 0)) for i in range(1, dim + 1))


def _chain(dim, n):
    """eps_i - eps_{i+1} for i = 1..n, doubled."""
    return [_twice(dim, {i: 1, i + 1: -1}) for i in range(1, n + 1)]


# Twice the simple roots alpha_1..alpha_n in Bourbaki's realizations (Lie Groups
# and Lie Algebras, ch. VI, Plates I-IX), and the form scale c of <x,y> = c dot(x,y).
# E6 and E7 take the first simple roots of E8.
_E8 = [(1, -1, -1, -1, -1, -1, -1, 1), _twice(8, {1: 1, 2: 1})] + [
    _twice(8, {i + 1: 1, i: -1}) for i in range(1, 7)]
PLATES = {
    **{f"A{n}": (_chain(n + 1, n), 1) for n in range(1, 9)},
    **{f"B{n}": (_chain(n, n - 1) + [_twice(n, {n: 1})], 1) for n in range(2, 9)},
    **{f"C{n}": (_chain(n, n - 1) + [_twice(n, {n: 2})], Q(1, 2)) for n in range(2, 9)},
    **{f"D{n}": (_chain(n, n - 1) + [_twice(n, {n - 1: 1, n: 1})], 1) for n in range(4, 9)},
    **{f"E{n}": (_E8[:n], 1) for n in (6, 7, 8)},
    "F4": ([(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)], 1),
    "G2": ([(2, -2, 0), (-4, 2, 2)], Q(1, 3)),
}


@pytest.mark.parametrize("label", ALL_TYPES)
def test_realization_is_bourbakis(label):
    """The simple roots and the form scale are the plates' literally: the ambient
    oracle is built from them, so only this test sees a change of realization
    (reversed C_n coordinates flip the sign of det_half on C2)."""
    rs = build_root_system(label)
    doubled, scale = PLATES[label]
    assert form_scale(rs) == scale and rs.ambient_dim == len(doubled[0])
    assert [tuple(2 * a for a in alpha) for alpha in simple_roots(rs)] == doubled
    assert all(type(a) is Q for alpha in simple_roots(rs) for a in alpha)


# det(C) in closed form (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates I-IX)
CARTAN_DET = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2, "D": lambda n: 4,
              "E": {6: 3, 7: 2, 8: 1}.get, "F": lambda n: 1, "G": lambda n: 1}


@pytest.mark.parametrize("label", ALL_TYPES)
def test_cartan_adjugate_is_exact(label):
    """C adj(C) = det(C) I in integers, det(C) is its closed form, and
    `cartan_inverse` reads adj(C) / det(C) as Fractions."""
    rs = build_root_system(label)
    c, adj, det = rs.cartan_matrix, rs.cartan_adjugate, rs.cartan_det
    assert det > 0 and det == CARTAN_DET[label[0]](rs.rank)
    assert all(type(v) is int for row in adj for v in row)
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)] for row in c] == [
        [det * (i == j) for j in range(rs.rank)] for i in range(rs.rank)]
    assert cartan_inverse(rs) == tuple(tuple(Q(a, det) for a in row) for row in adj)
    assert all(type(v) is Q for row in cartan_inverse(rs) for v in row)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_affine_cartan_matrix_is_of_affine_type(label):
    """The affine Cartan matrix extends C by row and column 0 for alpha_0 = delta - theta:
    2 on its diagonal, no positive entry off it, and it annihilates (1, comarks) on the
    right and (1, marks) on the left, the marks being theta in simple roots (Kac, 4.8)."""
    rs = build_root_system(label)
    aff, r = rs.affine_cartan_matrix, rs.rank
    assert tuple(row[1:] for row in aff[1:]) == rs.cartan_matrix
    assert all(aff[i][j] == 2 if i == j else aff[i][j] <= 0
               for i in range(r + 1) for j in range(r + 1))
    marks = [sum(t * row[j] for t, row in zip(rs.highest_root_labels, rs.cartan_adjugate))
             // rs.cartan_det for j in range(r)]
    assert [sum(a * c for a, c in zip(row, (1, *rs.comarks))) for row in aff] == [0] * (r + 1)
    assert [sum(a * c for a, c in zip(col, (1, *marks))) for col in zip(*aff)] == [0] * (r + 1)
    if label == "A1":
        assert aff == ((2, -2), (-2, 2))


def test_name_reads_back():
    """`name` is the label `parse_type_label` reads, for every type."""
    for label in ALL_TYPES:
        rs = build_root_system(label.lower())
        assert rs.name == label and parse_type_label(rs.name) == (rs.type_label, rs.rank)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_label_form_is_scaled_ambient_form(label):
    """label_form is the integer weight_form_den <x, y>: on every pair of unit label
    vectors (the Gram data itself) and on a few random label vectors."""
    rs = ambient(build_root_system(label))
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    rnd = random.Random(label)
    extra = [tuple(rnd.randint(-4, 4) for _ in range(rs.rank)) for _ in range(4)]
    pairs = [(m, n) for m in units for n in units] + list(zip(extra, extra[::-1]))
    for m, n in pairs:
        value = rs.label_form(m, n)
        assert type(value) is int
        assert value == rs.weight_form_den * rs.inner(rs.from_labels(m), rs.from_labels(n))


@pytest.mark.parametrize("label", ALL_TYPES)
def test_root_forms_tabulate_label_form(label):
    """root_forms holds one int row per positive root, in positive_root_labels order,
    and m . row is label_form(m, alpha) for every unit label vector m and for rho."""
    rs = build_root_system(label)
    assert len(rs.root_forms) == len(rs.positive_root_labels)
    probes = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    probes.append((1,) * rs.rank)
    for alpha, row in zip(rs.positive_root_labels, rs.root_forms):
        assert len(row) == rs.rank and all(type(v) is int for v in row)
        for m in probes:
            assert sum(a * r for a, r in zip(m, row)) == rs.label_form(m, alpha)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_coweight_coordinates_meet_the_ambient_oracle(label):
    """An ambient b enters the library once, as x = coweight_coordinates(b): x is
    <omega_j, b>, the root pairings of x are the ambient alpha(b) exactly and in
    the same order, and det_k and det_half are the ambient-order float products
    bit for bit."""
    rs = build_root_system(label)
    amb = ambient(rs)
    rnd = random.Random(label)
    for _ in range(3):
        b = tuple(Q(rnd.randint(-40, 40), rnd.randint(1, 30)) for _ in range(rs.ambient_dim))
        x = coweight_coordinates(rs, b)
        assert x == amb.weight_pairings(b)
        pairings = amb.root_pairings(b)
        assert root_pairings(rs, x) == pairings
        full = half = 1.0
        for v in pairings:
            full *= 4.0 * math.sin(math.pi * float(v)) ** 2
            half *= 2.0 * math.sin(math.pi * float(v))
        assert det_k(pairings) == full and det_half(pairings) == half


# Ambient vectors orthogonal to every root.  In the E8 basis, E7 (alpha_1..alpha_7)
# forces v_1 = .. = v_6 = 0 and v_7 = v_8; E6 (alpha_1..alpha_6) v_1 = .. = v_5 = 0
# and v_8 = v_6 + v_7.
ROOT_COMPLEMENT = [(f"A{n}", [(1,) * (n + 1)]) for n in range(1, 9)] + [
    ("G2", [(1, 1, 1)]),
    ("E6", [(0, 0, 0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 0, 0, 1, 1)]),
    ("E7", [(0, 0, 0, 0, 0, 0, 1, 1)]),
]


@pytest.mark.parametrize("label,vectors", ROOT_COMPLEMENT, ids=[t for t, _ in ROOT_COMPLEMENT])
def test_coweight_coordinates_ignore_the_root_complement(label, vectors):
    rs = build_root_system(label)
    amb = ambient(rs)
    rnd = random.Random(label)
    b = tuple(Q(rnd.randint(-40, 40), rnd.randint(1, 30)) for _ in range(rs.ambient_dim))
    for v in vectors:
        assert all(amb.inner(v, alpha) == 0 for alpha in simple_roots(rs))
        shifted = tuple(c + Q(7, 3) * vi for c, vi in zip(b, v))
        assert coweight_coordinates(rs, shifted) == coweight_coordinates(rs, b)
