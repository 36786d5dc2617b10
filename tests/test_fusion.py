import cmath
import itertools
import json
import math
import operator
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowsum import cli, fusion, fusion_table, reps
from shadowsum.diagrams import build_diagram, contract_state_sum, prepare_terms
from shadowsum.errors import BudgetError, OracleError, PreconditionError
from shadowsum.fusion import (
    MAX_FUSION_COEFFS,
    MAX_MULTIPLICITY_PAIRS,
    QuantumWeylGroup,
    fusion_matrices,
)
from shadowsum.fusion_table import (
    MAX_VERLINDE_ORBIT_TERMS,
    build_fusion_table,
    table_lines,
    verify_against_verlinde,
    verlinde_table,
)
from shadowsum.reps import level_alphabet, quantum_dimension
from shadowsum.roots import build_root_system, weyl_orbit

from conftest import (
    densify,
    flat_forest,
    fold_point,
    fusion_rows,
    reflect_affine,
    reflect_simple,
    table_array,
    verlinde_link_value,
)


class TestQuantumDimension:
    def test_a1_k4_values(self, a1k4):
        assert quantum_dimension(a1k4, (0,)) == pytest.approx(1.0)
        assert quantum_dimension(a1k4, (1,)) == pytest.approx(math.sqrt(2.0))
        assert quantum_dimension(a1k4, (2,)) == pytest.approx(1.0)

    def test_outside_alphabet_rejected(self, a1k4):
        with pytest.raises(PreconditionError):
            quantum_dimension(a1k4, (3,))

    def test_fractional_labels_rejected(self, a1k4):
        """A label is read exactly, as `weyl_dimension` reads it: 1.5 is not (1,), and
        a colour of 1.9 is not folded as (1,)."""
        with pytest.raises(PreconditionError, match=r"lambda = \(1\.5,\)"):
            quantum_dimension(a1k4, (1.5,))
        with pytest.raises(PreconditionError, match=r"gamma = \(1\.9,\)"):
            fusion_matrices(a1k4, [(1.9,)])
        assert fusion_matrices(a1k4, [(1,), (1.0,)]).keys() == {(1,)}

    @pytest.mark.parametrize("label,k", [("A2", 5), ("B2", 6), ("G2", 6), ("C3", 6)])
    def test_strictly_positive(self, label, k):
        al = level_alphabet(build_root_system(label), k)
        for lam in al.elements:
            assert quantum_dimension(al, lam) > 0


class TestFusionCoefficient:
    """Through fusion_matrices: N_mu[a, b] = N^{A[b]}_{mu A[a]}; at A1, A[i] = (i,)."""

    def test_trivial_mu_is_delta(self, a1k4):
        rows = fusion_rows(a1k4, (0,))
        assert all(type(b) is int and type(c) is int for row in rows for b, c in row.items())
        assert (densify(rows, 3) == np.eye(3, dtype=int)).all()

    def test_a1_k4_examples(self, a1k4):
        n = densify(fusion_rows(a1k4, (1,)), 3)
        assert n[0, 1] == 1
        assert n[1, 1] == 0
        assert n[2, 1] == 1

    def test_a1_k5_example(self, a1):
        assert densify(fusion_rows(level_alphabet(a1, 5), (1,)), 4)[1, 2] == 1

    def test_outside_alphabet_rejected(self, a1k4):
        with pytest.raises(PreconditionError):
            fusion_rows(a1k4, (3,))

    @pytest.mark.parametrize("label,k", [("A1", 30), ("A2", 12), ("B2", 9), ("G2", 11), ("A3", 8)])
    def test_triples_sorted_merged_nonzero(self, label, k):
        """One row per alphabet weight, one key per nonzero entry: keys strictly
        increasing, coefficients positive Python ints."""
        al = level_alphabet(build_root_system(label), k)
        for gamma in al.elements[:: max(1, len(al.elements) // 6)]:
            rows = fusion_rows(al, gamma)
            assert len(rows) == len(al.elements)
            assert all(list(row) == sorted(row) for row in rows)
            assert all(type(c) is int and c > 0 for row in rows for c in row.values())

    @pytest.mark.parametrize("label,k,gammas", [
        ("A2", 12, [(1, 0), (0, 1), (1, 1)]),
        ("G2", 11, [(1, 0), (0, 1)]),
        ("C3", 7, [(1, 0, 0), (0, 1, 0)]),
        ("E6", 14, None)])
    def test_each_point_is_folded_once(self, monkeypatch, label, k, gammas):
        """The fold cache of one call folds every point nu + rho - beta (nu in the
        alphabet, beta a weight of some colour) exactly once, for all the colours
        together: on the `fusion_wide` colour sets through `fusion_matrices`, and on
        the fundamentals that `build_fusion_table` folds (gammas None)."""
        al = level_alphabet(build_root_system(label), k)
        points = []
        fold = QuantumWeylGroup.fold

        def counting_fold(qwg, point):
            points.append(tuple(point))
            return fold(qwg, point)

        monkeypatch.setattr(QuantumWeylGroup, "fold", counting_fold)
        if gammas is None:
            gammas = [w for w in al.elements if sum(w) == 1]
            build_fusion_table(al)
        else:
            fusion_matrices(al, gammas)
        expected = {tuple(v + 1 - b for v, b in zip(nu, beta)) for gamma in gammas
                    for beta in reps.weight_multiplicities(al.rs, gamma).multiplicities
                    for nu in al.elements}
        assert len(points) == len(set(points)) == len(expected)
        assert set(points) == expected

    def test_budget_refuses_before_building(self, a1):
        """|A|^2 = 1001^2 coefficients at A1 k=1002 exceeds the budget."""
        al = level_alphabet(a1, 1002)
        assert len(al.elements) ** 2 > MAX_FUSION_COEFFS
        with pytest.raises(PreconditionError, match="budget"):
            fusion_rows(al, (1,))

    @pytest.mark.parametrize("label,k,pairs", [
        ("E7", 20, 166_320), ("E6", 16, 135_324),
        ("E7", 21, 2_453_787), ("E7", 22, 25_496_037), ("E8", 33, 21_810_360)])
    def test_multiplicity_budget_counts_the_fundamentals(self, monkeypatch, label, k, pairs):
        """A full table's fundamentals count sum dim V |R+| against
        MAX_MULTIPLICITY_PAIRS: the E7 k=20 and E6 k=16 dumps are admitted, and the
        others are refused before the first Freudenthal recursion."""
        al = level_alphabet(build_root_system(label), k)
        fundamentals = [w for w in al.elements if sum(w) == 1]
        assert len(al.elements) ** 2 * len(fundamentals) <= MAX_FUSION_COEFFS
        assert sum(reps.weyl_dimension(al.rs, w) for w in fundamentals) \
            * len(al.rs.root_forms) == pairs
        if pairs <= MAX_MULTIPLICITY_PAIRS:
            return
        monkeypatch.setattr(fusion, "weight_multiplicities", _no_freudenthal)
        with pytest.raises(BudgetError, match=f"{pairs} dimension-root pairs"):
            fusion_matrices(al, fundamentals)

    def test_colours_are_checked_before_the_multiplicity_budget(self, monkeypatch, a1k4):
        """A colour outside the alphabet is refused by name, before any Freudenthal."""
        monkeypatch.setattr(fusion, "weight_multiplicities", _no_freudenthal)
        with pytest.raises(PreconditionError, match=re.escape("gamma = (3,) is not integrable")):
            fusion_matrices(a1k4, [(1,), (3,)])

    @pytest.mark.parametrize("argv,files", [
        (["fusion", "--group", "E8", "--k", "33"], {}),
        (["shadow", "link.json"], {"link.json": {"group": "E8", "k": 33, "circles": [
            {"id": "a", "parent": None, "winding": 1, "positive_side": "inside",
             "color": [0, 0, 0, 0, 0, 0, 1, 0]}]}})])
    def test_multiplicity_budget_exits_3(self, monkeypatch, capsys, tmp_path, argv, files):
        """E8 k=33: its table's fundamentals (21,810,360 pairs) and one circle coloured
        omega_7 (dim 30,380: 3,645,600 pairs) are refused before any Freudenthal."""
        monkeypatch.setattr(fusion, "weight_multiplicities", _no_freudenthal)
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))
        rc = cli.main([str(tmp_path / a) if a in files else a for a in argv])
        error = json.loads(capsys.readouterr().out)["error"]
        assert rc == 3 and error["message"].endswith(
            f"dimension-root pairs (dim V |R+|); the budget is {MAX_MULTIPLICITY_PAIRS}")


def _no_freudenthal(rs, lam):
    raise AssertionError(f"Freudenthal ran on {lam}")


def weyl_sum_row(al, b):
    """s[b][a] for every a, from the Weyl orbit of A[b] + rho alone, by the phase
    rule of `fusion_table._s_matrix`: sgn(w) exp(-2 pi i <w(x), y> / k), with
    weight_form_den <w(x), y> the integer w(x) G y reduced modulo k weight_form_den."""
    rs = al.rs
    period = al.k * rs.weight_form_den
    unit = [cmath.exp(-2j * math.pi * p / period) for p in range(period)]
    orbit = weyl_orbit(rs, [v + 1 for v in al.elements[b]])
    row = []
    for lam in al.elements:
        gy = [sum(g * (v + 1) for g, v in zip(gram, lam)) for gram in rs.weight_gram_num]
        row.append(sum(sign * unit[sum(map(operator.mul, p, gy)) % period] for p, sign in orbit))
    return row


class TestVerlindeOracle:
    def test_a1_k4_against_explicit_sine_matrix(self, a1k4):
        # S_mn ~ sin(pi (m+1)(n+1)/4) for su(2) at k = 4: direct 3x3 computation
        s = [[math.sin(math.pi * (m + 1) * (n + 1) / 4) for n in range(3)] for m in range(3)]
        norm = sum(s[0][sig] ** 2 for sig in range(3))

        def direct(l, m, n):
            val = sum(s[l][sig] * s[m][sig] * s[n][sig] / s[0][sig] for sig in range(3))
            return round(val / norm)

        v = table_array(verlinde_table(a1k4))
        for l in range(3):
            for m in range(3):
                for n in range(3):
                    assert v[l, m, n] == direct(l, m, n)

    def test_a1_k5_example(self, a1):
        al = level_alphabet(a1, 5)
        assert table_array(verlinde_table(al))[1, 1, 2] == 1

    def test_trivial_row_orthogonality(self, a1k4):
        v = table_array(verlinde_table(a1k4))
        for l, lam in enumerate(a1k4.elements):
            for n, nu in enumerate(a1k4.elements):
                expect = 1 if lam == nu else 0
                assert v[l, a1k4.index((0,)), n] == expect

    def test_rounding_residue_reported(self, monkeypatch, a1k4):
        monkeypatch.setattr(fusion_table, "ORACLE_TOL", 1e-30)
        with pytest.raises(OracleError):
            verlinde_table(a1k4)

    def test_rounding_residue_names_the_first_triple(self, monkeypatch, a2):
        """One S-matrix column scaled by 1.1 spoils unitarity.  The message names
        the first far triple in index order of the full contraction, (0,0) (0,0)
        (0,1); the symmetric sum's first far value is the one it places at
        (0,0) (0,0) (1,0)."""
        al = level_alphabet(a2, 6)
        rows, dual = fusion_table._s_matrix(al)
        s = np.array(rows)
        s[:, 0] *= 1.1
        monkeypatch.setattr(fusion_table, "_s_matrix", lambda alphabet: (s.tolist(), dual))
        s0 = s[al.index((0, 0))]
        full = np.einsum("ls,ms,ns->lmn", s, s, s.conj() / s0) / np.sum(np.abs(s0) ** 2)
        l, m, n = np.argwhere(np.abs(full - np.rint(full.real)) > fusion_table.ORACLE_TOL)[0]
        first = tuple(al.elements[i] for i in (l, m, n))
        assert first == ((0, 0), (0, 0), (0, 1))
        with pytest.raises(OracleError, match=re.escape(f"for {first} at A2, k=6")):
            verlinde_table(al)

    @pytest.mark.parametrize(
        "label,k",
        [*(("A1", k) for k in range(3, 11)), *(("A2", k) for k in range(4, 7)),
         *(("B2", k) for k in range(4, 7)),
         ("B2", 8), ("C2", 8), ("G2", 10), ("A1", 30), ("A2", 9), ("B3", 7), ("A3", 7)],
    )
    def test_margin_below_the_gate(self, monkeypatch, label, k):
        """The acceptance sweep and the export alphabets round within 1e-9, a
        thousandth of ORACLE_TOL (measured worst 3.8e-14), so an S-matrix that
        loses accuracy fails here long before it meets the gate."""
        monkeypatch.setattr(fusion_table, "ORACLE_TOL", 1e-9)
        verlinde_table(level_alphabet(build_root_system(label), k))

    def test_budget_refuses_before_building(self, a1):
        """|A|^3 = 199^3 at A1 k=200 exceeds the budget; the S-matrix is never built."""
        with pytest.raises(PreconditionError, match="budget"):
            verlinde_table(level_alphabet(a1, 200))

    @pytest.mark.parametrize(
        "label,k,terms",
        [("D4", 9, 110_592), ("F4", 12, 93_312), ("E6", 13, 466_560),
         ("E7", 19, 11_612_160), ("E8", 31, 696_729_600)],
    )
    def test_orbit_budget(self, monkeypatch, label, k, terms):
        """|W| |A|^2 above MAX_VERLINDE_ORBIT_TERMS is refused before the S-matrix
        is built; every E-type is, and the largest admitted jobs still reach it."""
        def built(alphabet):
            raise AssertionError("S-matrix built")

        monkeypatch.setattr(fusion_table, "_s_matrix", built)
        with pytest.raises(AssertionError if terms <= MAX_VERLINDE_ORBIT_TERMS
                           else PreconditionError, match=f"{terms} Weyl-orbit|built"):
            verlinde_table(level_alphabet(build_root_system(label), k))

    @pytest.mark.parametrize("label,k", [("A2", 6), ("G2", 10)])
    def test_one_orbit_per_weight(self, monkeypatch, label, k):
        """The S row of each weight and its dual come from one Weyl-orbit pass."""
        al = level_alphabet(build_root_system(label), k)
        expected = build_fusion_table(al)
        calls = []

        def counted(rs, labels):
            calls.append(tuple(labels))
            return weyl_orbit(rs, labels)

        monkeypatch.setattr(fusion_table, "weyl_orbit", counted)
        assert verlinde_table(al) == expected
        assert sorted(calls) == sorted(tuple(v + 1 for v in lam) for lam in al.elements)

    @pytest.mark.parametrize("label,k", [
        ("A1", 10), ("A2", 7), ("A3", 7), ("A4", 7), ("B2", 7), ("B3", 8), ("B4", 9),
        ("C3", 7), ("C4", 7), ("D4", 8), ("D5", 10), ("F4", 12), ("G2", 9), ("E6", 13)])
    def test_s_matrix_is_symmetric(self, label, k):
        """`_s_matrix` forms s[a][b] for b >= a from the orbit of A[a] + rho and copies
        it into s[b][a]; the Weyl sum over the orbit of A[b] + rho gives the same
        value, to 1e-12 max|s[0]|."""
        al = level_alphabet(build_root_system(label), k)
        s, _ = fusion_table._s_matrix(al)
        tol = 1e-12 * max(map(abs, s[al.index((0,) * al.rs.rank)]))
        for b in range(1, len(s)):
            own = weyl_sum_row(al, b)
            assert all(abs(s[b][a] - own[a]) <= tol for a in range(b))

    @pytest.mark.parametrize("label,k", [("B2", 8), ("A3", 7)])
    def test_shares_nothing_with_folding(self, monkeypatch, label, k):
        """With fold, fusion_matrices and Freudenthal disabled, the oracle still
        gives the folded table, and the whole-link oracle the state sum."""
        al = level_alphabet(build_root_system(label), k)
        expected = build_fusion_table(al)
        lam, mu = al.elements[1], al.elements[-1]  # lam lam* mu mu* holds an invariant
        components = [(lam, 1, "inside"), (lam, -1, "outside"), (mu, 1, "inside"), (mu, -1, "inside")]
        link = contract_state_sum(prepare_terms(flat_forest(components), al))

        def disabled(*args, **kwargs):
            raise AssertionError("the Verlinde oracle used the folding path")

        monkeypatch.setattr(QuantumWeylGroup, "fold", disabled)
        monkeypatch.setattr(fusion_table, "fusion_matrices", disabled)
        monkeypatch.setattr(reps, "weight_multiplicities", disabled)
        monkeypatch.setattr(fusion, "weight_multiplicities", disabled)
        assert verlinde_table(al) == expected
        assert abs(verlinde_link_value(al, components) - link.value) <= 1e-12 * link.abs_sum

    def test_int_table_of_the_alphabet(self, a1k4, a1k4_table):
        """Both tables are flat lists of |A|^3 Python ints."""
        for v in (verlinde_table(a1k4), a1k4_table):
            assert len(v) == 3 ** 3 and all(type(x) is int for x in v)

    @pytest.mark.parametrize(
        "label,k",
        [("B2", 8), ("C2", 8), ("G2", 10), ("A1", 30), ("A2", 9), ("B3", 7), ("A3", 7)],
    )
    def test_equals_fusion_table_on_export_alphabets(self, label, k):
        """The alphabets the benchmark's `fusion --verify` exports."""
        al = level_alphabet(build_root_system(label), k)
        assert verlinde_table(al) == build_fusion_table(al)


def _sine_product(rs, x, ell, period):
    """prod_alpha sin(pi ell <x, alpha>/k) for labels x, with period = 2k weight_form_den:
    each argument is 2 pi (ell weight_form_den <x, alpha> mod period)/period, reduced
    exactly."""
    return math.prod(math.sin(2 * math.pi * (ell * sum(map(operator.mul, x, r)) % period)
                              / period) for r in rs.root_forms)


class TestQuantumWeylGroup:
    @pytest.mark.parametrize("label,k", [("A1", 5), ("A2", 5), ("B2", 6), ("G2", 7)])
    def test_alphabet_shifts_are_alcove_interior(self, label, k):
        rs = build_root_system(label)
        qwg = QuantumWeylGroup(rs=rs, k=k)
        for lam in level_alphabet(rs, k).elements:
            shifted = tuple(v + 1 for v in lam)
            assert qwg.fold(shifted) == (shifted, 1)

    @settings(max_examples=60, deadline=None)
    @given(word=st.lists(st.integers(0, 2), max_size=8))
    def test_sign_character_multiplicative(self, word):
        """Every shifted alphabet point, moved by one reflection word, folds back
        with sign (-1)^len(word)."""
        rs = build_root_system("B2")
        starts = [tuple(x + 1 for x in lam) for lam in level_alphabet(rs, 6).elements]
        qwg = QuantumWeylGroup(rs=rs, k=6)
        for start in starts:
            point = start
            for gen in word:
                point = reflect_simple(rs, point, gen) if gen < 2 else reflect_affine(rs, 6, point)
            assert qwg.fold(point) == (start, (-1) ** len(word))

    @settings(max_examples=40, deadline=None)
    @given(label=st.sampled_from(["A2", "B2", "G2", "A3", "B3", "C3", "D4", "E6", "E7", "E8",
                                  "F4"]), k=st.integers(4, 12),
           data=st.data())
    def test_equals_one_point_at_a_time(self, label, k, data):
        rs = build_root_system(label)
        k += rs.dual_coxeter
        coords = st.lists(st.integers(-3 * k, 3 * k), min_size=rs.rank, max_size=rs.rank)
        points = data.draw(st.lists(coords, min_size=1, max_size=50))
        qwg = QuantumWeylGroup(rs=rs, k=k)
        for point in points:
            assert qwg.fold(point) == fold_point(rs, k, point)

    @pytest.mark.parametrize("label,k", [
        ("A1", 9), ("A2", 7), ("A4", 8), ("B3", 9), ("B4", 10), ("C3", 7), ("C4", 8),
        ("D4", 8), ("D5", 10), ("G2", 14), ("F4", 12), ("E6", 14), ("E7", 20), ("E8", 32)])
    def test_galois_symmetry_of_the_fold(self, label, k):
        """Galois symmetry (Coste and Gannon, Phys. Lett. B 323, 1994): for l coprime to
        M = 2k weight_form_den, fold(l(lam + rho)) = (sigma_l(lam) + rho, eps) lies off
        every wall, sigma_l permutes the level alphabet, and
        prod_alpha sin(pi l <lam+rho, alpha>/k) = eps prod_alpha sin(pi <sigma_l(lam)+rho,
        alpha>/k), to 1e-10 of the larger side.  The alphabet is enumerated here from the
        comarks, and each sine's argument reduced exactly modulo 2 pi."""
        rs = build_root_system(label)
        period = 2 * k * rs.weight_form_den  # <x, alpha> = x . root_form / weight_form_den
        top = k - rs.dual_coxeter
        alphabet = [lam for lam in itertools.product(
                        *(range(top // a + 1) for a in rs.comarks))
                    if sum(map(operator.mul, rs.comarks, lam)) <= top]

        qwg = QuantumWeylGroup(rs=rs, k=k)
        units = [u for u in range(2, period) if math.gcd(u, period) == 1][:6]
        assert len(units) == 6
        for ell in units:
            images = []
            for lam in alphabet:
                x = tuple(v + 1 for v in lam)
                folded, eps = qwg.fold(tuple(ell * v for v in x))
                assert folded is not None, (ell, lam)
                images.append(tuple(v - 1 for v in folded))
                lhs = _sine_product(rs, x, ell, period)
                rhs = eps * _sine_product(rs, folded, 1, period)
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs)), (ell, lam)
            assert sorted(images) == sorted(alphabet), ell

    @pytest.mark.parametrize("label,k", [("A2", 6), ("B2", 6), ("G2", 7)])
    def test_walls_get_sign_zero(self, label, k):
        """Points with a zero label or at level exactly k, and their reflections,
        lie on a wall."""
        rs = build_root_system(label)
        box = itertools.product(range(k + 1), repeat=rs.rank)
        walls = [m for m in box if 0 in m or rs.level_of_labels(m) == k]
        walls += [reflect_simple(rs, m, i) for m in walls for i in range(rs.rank)]
        walls += [reflect_affine(rs, k, m) for m in walls]
        qwg = QuantumWeylGroup(rs=rs, k=k)
        assert len(walls) > 3 * k and all(qwg.fold(m) == (None, 0) for m in walls)

    def test_fold_walks_the_affine_labels(self, a1, a2):
        """The fold walks the affine labels (k - <x, theta>, x) to the affine dominant
        chamber, one reflection in each negative label it meets.  On A1 at k = 5, where
        the affine wall is x = 5, x runs -7 -> 7 -> 3, -13 -> 13 -> -3 -> 3 and
        23 -> -13 -> 13 -> -3 -> 3; on A2 at k = 10 the finite walk (-1, -2) -> (1, -3)
        -> (-2, 3) -> (2, 1) of three reflections ends inside the alcove."""
        qwg = QuantumWeylGroup(rs=a1, k=5)
        assert qwg.fold((-7,)) == ((3,), 1)
        assert qwg.fold((-13,)) == ((3,), -1)
        assert qwg.fold((23,)) == ((3,), 1)
        assert qwg.fold((2,)) == ((2,), 1)
        assert QuantumWeylGroup(rs=a2, k=10).fold((-1, -2)) == ((2, 1), -1)

    def test_folded_point_outside_the_alphabet_is_a_bug(self, monkeypatch, a1k4):
        def outside(self, point):
            return (4,) * len(point), 1

        monkeypatch.setattr(QuantumWeylGroup, "fold", outside)
        with pytest.raises(OracleError, match="not in the alphabet"):
            fusion_rows(a1k4, (1,))

    @pytest.mark.parametrize("c", [1, 500, 998])
    def test_a1_k1000_truncated_clebsch_gordan(self, a1, c):
        """N^a_{c b} = 1 iff |a - b| <= c <= min(a + b, 2(k - 2) - a - b) and a + b + c
        is even.  At c = 998 about 10^6 candidate points go through the fold cache;
        the Verlinde oracle is over budget here."""
        k = 1000
        mat = densify(fusion_rows(level_alphabet(a1, k), (c,)), k - 1)
        a, b = np.ogrid[: k - 1, : k - 1]
        rule = ((abs(a - b) <= c) & (c <= np.minimum(a + b, 2 * (k - 2) - a - b))
                & ((a + b + c) % 2 == 0))
        assert (mat == rule).all()

    @pytest.mark.parametrize("label,k,size", [("A8", 13, 495), ("E6", 22, 861), ("D8", 20, 444)])
    def test_ring_identity_on_one_fundamental(self, label, k, size):
        """sum_b N_omega[a, b] dim_q(b) = dim_q(omega) dim_q(a) for every a, to 1e-12
        relative, with omega the first fundamental weight, on high-rank alphabets too
        large for the full table; one fusion matrix stays within MAX_FUSION_COEFFS."""
        rs = build_root_system(label)
        al = level_alphabet(rs, k)
        assert len(al.elements) == size
        omega = (1,) + (0,) * (rs.rank - 1)
        dims = [quantum_dimension(al, lam) for lam in al.elements]
        d = quantum_dimension(al, omega)
        for a, row in enumerate(fusion_rows(al, omega)):
            lhs = sum(n * dims[b] for b, n in row.items())
            assert lhs == pytest.approx(d * dims[a], rel=1e-12), al.elements[a]


class TestTableAndExport:
    def test_verify_and_symmetry(self, a1k4, a1k4_table):
        verify_against_verlinde(a1k4, a1k4_table)
        table = table_array(a1k4_table)
        assert table.shape == (3, 3, 3)
        assert (table == table.transpose(1, 0, 2)).all()  # lambda <-> mu exchange

    def test_slices_are_the_matrices(self, a1k4, a1k4_table):
        table = table_array(a1k4_table)
        for m, mu in enumerate(a1k4.elements):
            assert (table[:, m, :] == densify(fusion_rows(a1k4, mu), 3)).all()

    def test_ring_property(self, a1k4, a1k4_table):
        table = table_array(a1k4_table)
        for l, lam in enumerate(a1k4.elements):
            for m, mu in enumerate(a1k4.elements):
                lhs = sum(
                    table[l, m, n] * quantum_dimension(a1k4, nu)
                    for n, nu in enumerate(a1k4.elements)
                )
                rhs = quantum_dimension(a1k4, lam) * quantum_dimension(a1k4, mu)
                assert abs(lhs - rhs) < 1e-9

    def test_verify_reports_a_wrong_entry(self, a1k4, a1k4_table):
        bad = table_array(a1k4_table)
        bad[2, 1, 1] = 0
        with pytest.raises(OracleError, match="disagrees"):
            verify_against_verlinde(a1k4, bad.ravel().tolist())

    def test_verify_names_the_first_wrong_entry(self, a2):
        """Two corrupted entries: the message names the earlier one in index order."""
        al = level_alphabet(a2, 6)
        bad = table_array(build_fusion_table(al))
        n = len(al.elements)
        bad[n - 1, 1, 2] += 5
        bad[1, n - 1, 0] += 7
        lam, mu, nu = (al.elements[i] for i in (1, n - 1, 0))
        with pytest.raises(OracleError) as err:
            verify_against_verlinde(al, bad.ravel().tolist())
        assert str(err.value) == (
            f"fusion table entry N^{nu}_({lam},{mu}) = {bad[1, n - 1, 0]} disagrees with "
            f"Verlinde oracle value {bad[1, n - 1, 0] - 7}")

    def test_index_convention_on_a2(self):
        """T[l, m, n] = N^{A[n]}_{A[l] A[m]}: (2,0) lies in (1,0) x (1,0), the 6 in
        3 x 3, but (1,0) does not lie in (2,0) x (1,0) = 10 + 8.  The two
        readings differ because (1,0) is not self-dual."""
        al = level_alphabet(build_root_system("A2"), 5)
        table = table_array(build_fusion_table(al))
        fund, sym = al.index((1, 0)), al.index((2, 0))
        assert table[fund, fund, sym] == 1
        assert table[sym, fund, fund] == 0
        lines = table_lines(al, build_fusion_table(al))
        assert "1,0 1,0 2,0 1" in lines and "2,0 1,0 1,0 0" in lines

    def test_text_export(self, a1k4, a1k4_table):
        lines = table_lines(a1k4, a1k4_table)
        assert len(lines) == 27
        assert lines[0].split() == ["0", "0", "0", "1"]
        for line in lines:
            lam, mu, nu, n = line.split()
            assert int(n) >= 0


def test_fusion_table_budget_refuses_before_building(a1):
    """|A|^3 = 199^3 coefficients at A1 k=200 exceeds the budget; nothing is built."""
    with pytest.raises(PreconditionError, match="budget"):
        build_fusion_table(level_alphabet(a1, 200))


def _double_fundamental_rows(monkeypatch):
    """Make `build_fusion_table` read every fundamental matrix doubled."""
    build = fusion_table.fusion_matrices
    monkeypatch.setattr(fusion_table, "fusion_matrices", lambda al, gs: {
        g: [{b: 2 * c for b, c in row.items()} for row in rows]
        for g, rows in build(al, gs).items()})


class TestRingRecursion:
    """`build_fusion_table` folds the fundamental weights and builds every other
    matrix by the fusion-ring recursion."""

    @pytest.mark.parametrize("label,k", [
        ("A2", 12), ("A3", 8), ("A4", 8), ("D5", 10), ("E6", 13), ("E6", 14), ("B3", 9),
        ("C3", 8), ("F4", 12), ("G2", 14)])
    def test_equals_per_colour_folding(self, label, k):
        """The table equals the one assembled from a folded N_mu for every mu, on
        types with weights that are not self-dual and on multiply-laced types;
        E6 k=13 holds only the trivial and two fundamental weights."""
        al = level_alphabet(build_root_system(label), k)
        n = len(al.elements)
        folded = [0] * n ** 3
        for m, rows in enumerate(fusion_matrices(al, al.elements).values()):
            for l, row in enumerate(rows):
                for nu, c in row.items():
                    folded[(l * n + m) * n + nu] = c
        assert build_fusion_table(al) == folded

    @pytest.mark.parametrize("label,k,flags,fundamentals", [
        ("A3", 7, ["--dump", "--verify"], 3), ("G2", 10, ["--dump", "--verify"], 2),
        ("B3", 7, ["--dump", "--format", "text"], 3), ("E6", 14, [], 5)])
    def test_job_runs_freudenthal_on_fundamental_weights_only(
            self, monkeypatch, capsys, label, k, flags, fundamentals):
        """A `fusion` job computes one weight system per fundamental weight of the
        alphabet, at most rank of them (E6 k=14: all but omega_4, of comark 3)."""
        computed = []
        multiplicities = fusion.weight_multiplicities
        monkeypatch.setattr(fusion, "weight_multiplicities",
                            lambda rs, lam: computed.append(lam) or multiplicities(rs, lam))
        assert cli.main(["fusion", "--group", label, "--k", str(k), *flags]) == 0
        capsys.readouterr()
        rank = build_root_system(label).rank
        assert len(computed) == fundamentals <= rank
        assert all(sum(lam) == 1 for lam in computed)

    def test_corrupted_coefficient_is_caught(self, monkeypatch):
        """Doubled fundamental matrices give N_(0,2) the coefficient 2 in
        N_(0,1) N_(0,1) = N_(0,2) + N_(1,0)."""
        al = level_alphabet(build_root_system("A2"), 6)
        _double_fundamental_rows(monkeypatch)
        with pytest.raises(OracleError, match=re.escape("N_(0, 2) has coefficient 2")):
            build_fusion_table(al)

    def test_corrupted_coefficient_exits_4(self, monkeypatch, capsys):
        """A broken invariant ends a job as an oracle failure: exit 4, one JSON error of
        code `oracle` on stdout and one `shadowsum: oracle:` line on stderr."""
        _double_fundamental_rows(monkeypatch)
        assert cli.main(["fusion", "--group", "A2", "--k", "5"]) == 4
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["error"]["code"] == "oracle" and doc["error"]["exit"] == 4
        assert "has coefficient 2" in doc["error"]["message"]
        assert err.splitlines() == [f"shadowsum: oracle: {doc['error']['message']}"]

    def test_corrupted_entry_is_caught(self, monkeypatch):
        """A spurious N^(0,0)_{(1,0) (1,0)} = 1 is subtracted with N_(1,0) from
        N_(0,1) N_(0,1), which leaves -1 in N_(0,2)."""
        al = level_alphabet(build_root_system("A2"), 6)
        build = fusion_table.fusion_matrices

        def spurious(al, gs):
            matrices = build(al, gs)
            rows, fund = matrices[1, 0], al.index((1, 0))
            rows[fund] = {al.index((0, 0)): 1, **rows[fund]}
            return matrices

        monkeypatch.setattr(fusion_table, "fusion_matrices", spurious)
        with pytest.raises(OracleError, match=re.escape("negative fusion coefficient for "
                                                        "gamma = (0, 2)")):
            build_fusion_table(al)


class TestModularData:
    """Oracles of the modular data that need no S-matrix, so they reach the E types."""

    @pytest.mark.parametrize("label,k", [
        ("A1", 3), ("A1", 40), ("A2", 9), ("A3", 8), ("A4", 8), ("A8", 13),
        ("B2", 9), ("B3", 30), ("B4", 10), ("B8", 17), ("C2", 8), ("C3", 10), ("C4", 8),
        ("C8", 12), ("D4", 8), ("D5", 10), ("D8", 16), ("E6", 14), ("E6", 24), ("E7", 20),
        ("E8", 32), ("E8", 34), ("F4", 12), ("G2", 14), ("G2", 40)])
    def test_gauss_sum(self, label, k):
        """sum_a d_a^2 theta_a = D exp(2 pi i c/8), with D^2 = sum_a d_a^2, the twist
        theta_a = exp(i pi <a, a + 2 rho>/k) and the central charge c = (k - h) dim g/k
        at the shifted level k (Kac, Infinite-Dimensional Lie Algebras, 3rd ed., ch. 13;
        Bakalov and Kirillov, Lectures on Tensor Categories and Modular Functors, 3.1),
        to 1e-13 D^2.  d and theta are the state sum's own, `prepare_terms`' qdims and
        phase_q = weight_form_den <a, a + 2 rho>."""
        rs = build_root_system(label)
        data = prepare_terms(build_diagram([]), level_alphabet(rs, k))
        period = 2 * k * data.form_den
        total = sum(d * d * cmath.exp(2j * math.pi * (p % period) / period)
                    for d, p in zip(data.qdims, data.phase_q))
        d2 = math.fsum(d * d for d in data.qdims)
        c = Fraction((k - rs.dual_coxeter) * (rs.rank + 2 * len(rs.root_forms)), k)
        gap = abs(total - math.sqrt(d2) * cmath.exp(2j * math.pi * (c % 8) / 8))
        assert gap <= 1e-13 * d2, (len(data.qdims), gap / d2)

    @pytest.mark.parametrize("label,k", [
        ("G2", 14), ("F4", 12), ("E6", 14), ("E7", 20), ("E8", 32), ("A4", 8), ("B4", 10)])
    def test_galois_characters_of_the_table(self, label, k):
        """For l coprime to M = 2k weight_form_den, q_l(a) = prod_alpha sin(pi l <a+rho,
        alpha>/k) / prod_alpha sin(pi l <rho, alpha>/k) is a character of the fusion ring
        (Coste and Gannon, Phys. Lett. B 323, 1994): sum_c N^c_{ab} q_l(c) = q_l(a) q_l(b)
        on `build_fusion_table`, to 1e-11 of sum_c N^c_{ab} |q_l(c)| + |q_l(a) q_l(b)|,
        for one l of each distinct character."""
        al = level_alphabet(build_root_system(label), k)
        rs, n = al.rs, len(al.elements)
        period = 2 * k * rs.weight_form_den
        table = build_fusion_table(al)
        characters = {}
        for ell in range(1, period // 2):
            if math.gcd(ell, period) == 1:
                rho = _sine_product(rs, [1] * rs.rank, ell, period)
                q = [_sine_product(rs, [v + 1 for v in lam], ell, period) / rho
                     for lam in al.elements]
                characters.setdefault(tuple(round(v, 9) for v in q), q)
        assert len(characters) >= 2
        for q in characters.values():
            for a, b in itertools.product(range(n), repeat=2):
                row = table[(a * n + b) * n:(a * n + b + 1) * n]
                lhs = math.fsum(c * v for c, v in zip(row, q))
                scale = math.fsum(c * abs(v) for c, v in zip(row, q)) + abs(q[a] * q[b])
                assert abs(lhs - q[a] * q[b]) <= 1e-11 * scale, (a, b)
