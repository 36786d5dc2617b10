import itertools
import math
import re
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_weights_multiplicities, ambient, character_eval, level_rank_dual,
                      simple_reflection_matrix)
from shadowsum import reps
from shadowsum.errors import OracleError, PreconditionError
from shadowsum.reps import (
    MAX_ALPHABET_PAIRS,
    level_alphabet,
    quantum_dimension,
    weight_multiplicities,
    weyl_dimension,
)
from shadowsum.roots import build_root_system
from test_roots import ALL_TYPES


class TestLevelAlphabet:
    def test_a1_counts(self, a1):
        assert level_alphabet(a1, 4).elements == ((0,), (1,), (2,))
        assert level_alphabet(a1, 3).elements == ((0,), (1,))

    def test_boundary_level(self, a1):
        # k = g + 1 keeps n = 0, 1 and drops n = 2
        al = level_alphabet(a1, 3)
        assert (2,) not in al

    def test_index_and_membership(self, a2):
        al = level_alphabet(a2, 6)
        for i, lam in enumerate(al.elements):
            assert al.index(lam) == i and al.index(list(lam)) == i
            assert lam in al and list(lam) in al
        assert (9, 9) not in al
        with pytest.raises(OracleError, match=r"\(9, 9\) is not in the level alphabet"):
            al.index((9, 9))

    def test_level_bound_rejected(self, a1):
        with pytest.raises(PreconditionError) as ei:
            level_alphabet(a1, 2)
        msg = str(ei.value)
        assert "k > g" in msg and "2" in msg

    @pytest.mark.parametrize("label,k", [
        ("A2", 5), ("B2", 6), ("G2", 6), ("C3", 6), ("C3", 8), ("D5", 9), ("D5", 11),
        ("E6", 13), ("E6", 15), ("E7", 19), ("E7", 22), ("F4", 10), ("F4", 13)])
    def test_exhaustive_scan(self, label, k):
        """Independent bounded box scan finds exactly the same set."""
        rs = build_root_system(label)
        al = level_alphabet(rs, k)
        lvl = k - rs.dual_coxeter
        box = [
            c
            for c in itertools.product(range(lvl + 1), repeat=rs.rank)
            if sum(a * x for a, x in zip(rs.comarks, c)) <= lvl
        ]
        assert sorted(box) == list(al.elements)
        assert len(set(al.elements)) == len(al.elements)
        amb = ambient(rs)
        theta = amb.highest_root
        for lam in al.elements:
            assert amb.inner(amb.from_labels(lam), theta) <= lvl


class TestMultiplicities:
    def test_a1_triplet(self, a1):
        ws = weight_multiplicities(a1, (2,))
        assert ws.multiplicities == {(2,): 1, (0,): 1, (-2,): 1}

    def test_trivial(self, a2):
        ws = weight_multiplicities(a2, (0, 0))
        assert ws.multiplicities == {(0, 0): 1}

    def test_a2_adjoint(self, a2):
        ws = weight_multiplicities(a2, (1, 1))
        assert ws.dimension() == 8
        assert ws.multiplicities[(0, 0)] == 2
        amb = ambient(a2)
        roots = [tuple(int(amb.inner(b, c)) for c in amb.simple_coroots) for b in amb.roots]
        for r in roots:
            assert ws.multiplicities[r] == 1

    def test_non_dominant_rejected(self, a1):
        with pytest.raises(PreconditionError):
            weight_multiplicities(a1, (-1,))

    @pytest.mark.parametrize("label,cap", [("A1", 40), ("A2", 7), ("B2", 6), ("G2", 4)])
    def test_total_equals_weyl_dimension(self, label, cap):
        rs = build_root_system(label)
        for labels in itertools.product(range(cap + 1), repeat=rs.rank):
            if weyl_dimension(rs, labels) > 10_000:
                continue
            ws = weight_multiplicities(rs, labels)
            assert ws.dimension() == weyl_dimension(rs, labels)

    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_weyl_invariance(self, label):
        rs = build_root_system(label)
        ws = weight_multiplicities(rs, (2, 1))
        for beta, m in ws.multiplicities.items():
            for i in range(rs.rank):
                refl = tuple(
                    b - beta[i] * rs.cartan_matrix[i][j] for j, b in enumerate(beta)
                )
                assert ws.multiplicities.get(refl) == m


# The largest dim V |R+| of a fundamental module compared with the oracle
ORACLE_PAIRS = 30_000


@pytest.mark.parametrize("label", ALL_TYPES)
def test_dominant_recursion_equals_the_all_weights_oracle(label):
    """The multiplicities equal, weight for weight, those of Freudenthal's recursion
    over every weight (`all_weights_multiplicities`): on each fundamental weight with
    dim V |R+| at most ORACLE_PAIRS, 124 of the 163 and at least one per type (on E8
    only the adjoint omega_8, 248 x 120 = 29,760 pairs), and at rank <= 3 also on
    each 2 omega_i and on rho."""
    rs = build_root_system(label)
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    weights = [w for w in units if weyl_dimension(rs, w) * len(rs.root_forms) <= ORACLE_PAIRS]
    assert weights
    if rs.rank <= 3:
        weights += [tuple(2 * v for v in w) for w in units] + [(1,) * rs.rank]
    for w in weights:
        assert weight_multiplicities(rs, w).multiplicities == all_weights_multiplicities(rs, w), w


# Every circle colour of the benchmark's `shadow` slots and every colour of its
# `holonomy` slots, as bench/workloads.py held them at commit 520ed0f
BENCH_COLOURS = [
    ("A1", (1,)), ("A1", (2,)), ("A1", (3,)), ("A1", (4,)),
    ("A2", (0, 1)), ("A2", (1, 0)), ("A2", (1, 1)), ("A2", (2, 2)),
    ("A3", (0, 1, 0)), ("A3", (1, 0, 0)),
    ("B2", (0, 1)), ("B2", (0, 2)), ("B2", (1, 0)), ("B2", (1, 1)),
    ("B3", (0, 0, 1)), ("B3", (1, 0, 0)),
    ("C3", (0, 1, 0)), ("C3", (1, 0, 0)),
    ("G2", (0, 1)), ("G2", (1, 0)), ("G2", (1, 1)),
]


def test_bench_colours_equal_the_all_weights_oracle():
    """The same comparison on the benchmark's colours (BENCH_COLOURS): a list held
    here, so an edit of a benchmark slot changes neither its count nor a comparison."""
    assert len(set(BENCH_COLOURS)) == len(BENCH_COLOURS) == 21
    for group, colour in BENCH_COLOURS:
        rs = build_root_system(group)
        assert (weight_multiplicities(rs, colour).multiplicities
                == all_weights_multiplicities(rs, colour)), (group, colour)


class TestWeylDimension:
    def test_examples(self, a1, a2):
        assert weyl_dimension(a1, (1,)) == 2
        assert weyl_dimension(a1, (0,)) == 1
        assert weyl_dimension(a2, (1, 1)) == 8

    def test_non_dominant_rejected(self, a2):
        with pytest.raises(PreconditionError):
            weyl_dimension(a2, (1, -1))


@pytest.mark.parametrize("label", ALL_TYPES)
def test_dimensions_equal_the_label_form_products(label):
    """weyl_dimension and quantum_dimension, which read root_forms, equal exactly the
    same products formed through label_form on each positive root, on every weight
    of the level-3 alphabet."""
    rs = build_root_system(label)
    k = rs.dual_coxeter + 3
    alphabet = level_alphabet(rs, k)
    rho = (1,) * rs.rank
    for lam in alphabet.elements:
        lam_rho = tuple(a + 1 for a in lam)
        forms = [(rs.label_form(lam_rho, al), rs.label_form(rho, al))
                 for al in rs.positive_root_labels]
        dim, rem = divmod(math.prod(n for n, _ in forms), math.prod(d for _, d in forms))
        assert rem == 0 and weyl_dimension(rs, lam) == dim
        qdim = 1.0
        for n, d in forms:
            qdim *= (math.sin(math.pi * (n / rs.weight_form_den) / k)
                     / math.sin(math.pi * (d / rs.weight_form_den) / k))
        assert quantum_dimension(alphabet, lam) == qdim


class TestCharacter:
    def test_at_zero_is_dimension(self, a2):
        ws = weight_multiplicities(a2, (2, 0))
        v = character_eval(ws, (Q(0),) * a2.ambient_dim)
        assert abs(v - weyl_dimension(a2, (2, 0))) < 1e-12

    def test_a1_fundamental_vanishes(self, a1):
        ws = weight_multiplicities(a1, (1,))
        b = ambient(a1).from_labels([Q(1, 2)])  # alpha(b) = 1/2
        assert abs(character_eval(ws, b)) < 1e-12

    def test_periodic_under_coroot_lattice(self, a1):
        ws = weight_multiplicities(a1, (3,))
        b = ambient(a1).from_labels([Q(2, 7)])
        gamma = ambient(a1).simple_coroots[0]
        shifted = tuple(x + y for x, y in zip(b, gamma))
        assert character_eval(ws, shifted) == character_eval(ws, b)

    @settings(max_examples=30, deadline=None)
    @given(
        num=st.fractions(min_value=-2, max_value=2, max_denominator=12),
        num2=st.fractions(min_value=-2, max_value=2, max_denominator=12),
        ints=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    def test_periodicity_property(self, num, num2, ints):
        rs = build_root_system("B2")
        ws = weight_multiplicities(rs, (1, 1))
        b = ambient(rs).from_labels([num, num2])
        gamma = tuple(
            ints[0] * x + ints[1] * y
            for x, y in zip(ambient(rs).simple_coroots[0], ambient(rs).simple_coroots[1])
        )
        shifted = tuple(x + y for x, y in zip(b, gamma))
        assert character_eval(ws, shifted) == character_eval(ws, b)

    def test_weyl_invariance(self, a2):
        ws = weight_multiplicities(a2, (1, 2))
        b = ambient(a2).from_labels([Q(1, 5), Q(3, 7)])
        s = simple_reflection_matrix(a2, 0)
        sb = tuple(
            sum(s[i][j] * b[j] for j in range(a2.ambient_dim))
            for i in range(a2.ambient_dim)
        )
        assert abs(character_eval(ws, sb) - character_eval(ws, b)) < 1e-12


# the weight-root pairs each refusal of test_alphabet_budget_refuses_before_scanning states
REFUSED_PAIRS = {("A1", 10**12): "999999999999", ("E8", 10**6): "59998320",
                 ("A8", 10**40): "about 10^42", ("E8", 10**600): "about 10^602",
                 ("A2", 1000): "300003"}


@pytest.mark.parametrize("label,k", [("A1", 10**12), ("E8", 10**6), ("A8", 10**40),
                                     pytest.param("E8", 10**600, id="E8-10^600"), ("A2", 1000)])
def test_alphabet_budget_refuses_before_scanning(label, k):
    """The first label alone takes (k - g) // a_1 + 1 values, a lower bound on |A| that
    refuses a level before any prefix is built, with that bound times |R+|.  Past it
    (A2 at k = 1000: 998 first labels), the enumeration stops at the first label whose
    prefixes pass the budget, with the lower bound (MAX_ALPHABET_PAIRS // |R+| + 1) |R+|
    it reached."""
    reached = re.escape(REFUSED_PAIRS[label, k])
    with pytest.raises(PreconditionError, match=f": {reached} weight-root pairs or more; "
                                                 f"the budget is {MAX_ALPHABET_PAIRS}$"):
        level_alphabet(build_root_system(label), k)


def test_alphabet_refuses_before_building_a_prefix(monkeypatch):
    """A level whose first label alone passes the budget builds no prefix: A2 at
    k = 10^4000 once built 100,001 prefixes of 4,000-digit arithmetic.  A level the
    first label admits builds at most MAX_ALPHABET_PAIRS // |R+| + 1 per label."""
    built = []

    def counted(prefixes, n):
        return (built.append(p) or p for p in itertools.islice(prefixes, n))

    monkeypatch.setattr(reps, "itertools", SimpleNamespace(islice=counted))
    a2 = build_root_system("A2")
    with pytest.raises(PreconditionError, match=r"about 10\^4000 weight-root pairs or more"):
        level_alphabet(a2, 10**4000)
    assert built == []
    with pytest.raises(PreconditionError, match=": 300003 weight-root pairs or more"):
        level_alphabet(a2, 1000)
    assert len(built) == 998 + MAX_ALPHABET_PAIRS // 3 + 1
    built.clear()
    assert len(level_alphabet(a2, 6).elements) == 10  # 4 first labels, then 10 weights
    assert len(built) == 4 + 10


def test_alphabet_budget_edge():
    """The budget admits |A| |R+| up to MAX_ALPHABET_PAIRS: A1 at k = 300001 holds
    300,000 weights, and k = 300002 is refused; G2 at k = 449 (49,952 weights, the
    most weight-root pairs, 299,712, of any level a box of 10^5 label vectors
    admitted) is admitted, as is E8 at k = 49 (1,976 weights), the last E8 level."""
    assert MAX_ALPHABET_PAIRS == 300_000
    a1, g2, e8 = (build_root_system(label) for label in ("A1", "G2", "E8"))
    assert len(level_alphabet(a1, 300_001).elements) == 300_000
    with pytest.raises(PreconditionError, match="budget"):
        level_alphabet(a1, 300_002)
    assert len(level_alphabet(g2, 449).elements) == 49_952
    assert len(level_alphabet(e8, 49).elements) == 1_976
    with pytest.raises(PreconditionError, match="budget"):
        level_alphabet(e8, 50)


def test_level_rank_duality_of_quantum_dimensions():
    """dim_q of SU(N) at level K on lambda equals dim_q of SU(K) at level N on its
    level-rank dual (`level_rank_dual`), both at k = N + K, to 1e-12 relative, for
    every weight of every (N, K) in 2..9 but (8, 9), (9, 8) and (9, 9), where both
    alphabets (A7 at level 9, A8 at levels 8 and 9) pass MAX_ALPHABET_PAIRS."""
    checked = 0
    for n, level in itertools.product(range(2, 10), repeat=2):
        su_n, su_k = (build_root_system(f"A{m - 1}") for m in (n, level))
        if (n, level) in ((8, 9), (9, 8), (9, 9)):
            for rs in (su_n, su_k):
                with pytest.raises(PreconditionError, match="budget"):
                    level_alphabet(rs, n + level)
            continue
        at_n, at_k = level_alphabet(su_n, n + level), level_alphabet(su_k, n + level)
        for lam in at_n.elements:
            dual = level_rank_dual(lam, level)
            assert math.isclose(quantum_dimension(at_k, dual), quantum_dimension(at_n, lam),
                                rel_tol=1e-12), (n, level, lam)
        checked += 1
    assert checked == 61
