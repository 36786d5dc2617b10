import math
from fractions import Fraction as Q

import numpy as np
import pytest

from conftest import from_labels
from shadowsum.determinants import det_rig_constant
from shadowsum.diagrams import build_diagram
from shadowsum.errors import PreconditionError
from shadowsum.regularize import (
    CUTOFF_FLOOR,
    SteppedField,
    bump,
    det_rig_n,
    det_rig_step,
    exp_poly,
    log_poly,
    regularized_indicator,
    total_cells,
    trig_cutoff,
)
from shadowsum.roots import build_root_system


def one_circle_field(rs, inner, outer):
    d = build_diagram(
        [{"id": "c", "parent": None, "winding": 1, "positive_side": "inside", "color": [0]}]
    )
    return SteppedField(diagram=d, values=(from_labels(rs, [outer]), from_labels(rs, [inner])))


class TestBump:
    def test_vanishes_on_integers(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 5.0])
        assert np.all(bump(3, x) == 0.0)

    def test_one_away_from_integers(self):
        n = 4
        x = np.array([0.3, 0.5, 1.0 / (4 * n) + 1e-9, 1 - 1.0 / (4 * n) - 1e-9])
        assert np.all(bump(n, x) == 1.0)

    def test_monotone_window(self):
        x = np.linspace(0.0, 0.25, 200)
        v = bump(2, x)
        assert np.all(np.diff(v) >= -1e-12)


class TestTrigCutoff:
    def test_exact_zero_at_integer_fractions(self):
        cut = trig_cutoff(3)
        for m in (-3, -1, 0, 2, 11):
            assert cut(Q(m)) == 0.0

    def test_sup_error_within_target(self):
        for n in range(1, 15):
            cut = trig_cutoff(n)
            assert cut.sup_error <= 1e-9

    def test_close_to_one_away_from_integers(self):
        n = 3
        cut = trig_cutoff(n)
        for x in (Q(1, 2), Q(1, 3), Q(2, 5), Q(-1, 2)):
            assert abs(cut(x) - 1.0) < 1e-9


class TestIndicator:
    def test_singular_face_gives_exact_zero(self, a1):
        f = one_circle_field(a1, inner=Q(1, 2), outer=Q(2))
        for n in range(1, 9):
            assert regularized_indicator(a1, n, f) == 0.0

    def test_coroot_lattice_value_gives_zero(self, a1):
        f = SteppedField.constant(from_labels(a1, [2]))  # b = coroot
        assert regularized_indicator(a1, 1, f) == 0.0

    def test_regular_constant_converges_to_one(self, a1):
        f = SteppedField.constant(from_labels(a1, [Q(1, 2)]))
        errs = [abs(regularized_indicator(a1, n, f) - 1.0) for n in range(1, 9)]
        assert errs[-1] < 1e-6
        assert max(errs[4:]) < 1e-8  # deep stages sit at the float floor

    def test_regular_step_converges_to_one(self, a1):
        f = one_circle_field(a1, inner=Q(1, 2), outer=Q(1, 3))
        assert abs(regularized_indicator(a1, 8, f) - 1.0) < 1e-6

    def test_product_bound_certified_regime(self, a1):
        """|value - 1| <= 1/N_n^2 away from the singular set, small n."""
        f = SteppedField.constant(from_labels(a1, [Q(1, 2)]))
        for n in (1, 2, 3, 4):
            nn = total_cells(f, n)
            assert abs(regularized_indicator(a1, n, f) - 1.0) <= 1.0 / nn**2

    def test_bad_index_rejected(self, a1):
        with pytest.raises(PreconditionError):
            regularized_indicator(a1, 0, SteppedField.constant(from_labels(a1, [Q(1, 2)])))

    def test_large_stage_refused_before_building_a_cutoff(self, a1, monkeypatch):
        """From N_n |R+| >= 1/CUTOFF_FLOOR on, no cutoff is built and no 4^n float formed."""
        import shadowsum.regularize as reg

        monkeypatch.setattr(reg, "trig_cutoff", None)
        f = one_circle_field(a1, inner=Q(1, 2), outer=Q(1, 3))  # two faces
        n = next(n for n in range(1, 40) if total_cells(f, n) >= 1 / CUTOFF_FLOOR)
        for stage in (n, 600):
            with pytest.raises(PreconditionError, match="cannot be trusted"):
                regularized_indicator(a1, stage, f)

    @pytest.mark.parametrize("group, one_face, five_faces",
                             [("A1", 15, 14), ("B2", 14, 13), ("G2", 14, 13), ("E8", 13, 12)])
    def test_largest_trusted_stage(self, group, one_face, five_faces):
        """The last stage whose bound N_n |R+| sup_error stays below 1, with one face
        and with five (four side-by-side circles)."""
        rs = build_root_system(group)
        x = tuple(Q(1, 7 + j) for j in range(rs.rank))
        for faces, last in ((1, one_face), (5, five_faces)):
            d = build_diagram([{"id": f"c{i}", "parent": None, "winding": 1,
                                "positive_side": "inside", "color": [0] * rs.rank}
                               for i in range(faces - 1)])
            f = SteppedField(diagram=d, values=(x,) * faces)
            regularized_indicator(rs, last, f)
            with pytest.raises(PreconditionError, match="cannot be trusted"):
                regularized_indicator(rs, last + 1, f)


class TestLogExpPolys:
    def test_exp_poly_converges(self):
        z = 1.25 + 0.5j
        assert abs(exp_poly(20, z) - np.exp(z)) < 1e-12

    def test_log_poly_positive_branch(self):
        lp = log_poly(12)
        assert abs(lp(2.0) - math.log(2.0)) < 1e-5
        assert abs(lp(1.0)) < 1e-5

    def test_log_poly_negative_branch(self):
        lp = log_poly(12)
        want = math.log(2.0) + 1j * math.pi
        assert abs(lp(-2.0) - want) < 1e-5

    @pytest.mark.parametrize("n", [2, 8, 14])
    def test_log_poly_branches_mirror(self, n):
        """Re p(-x) = Re p(x) and Im p(x) + Im p(-x) = pi: the error at -x has the
        modulus of the error at x, so sup_error measured on x > 0 bounds both branches."""
        lp = log_poly(n)
        for x in np.linspace(1.0 / n, 2.0, 101):
            p, q = lp(x), lp(-x)
            assert abs(q.real - p.real) <= 1e-12
            assert abs(p.imag + q.imag - math.pi) <= 1e-12

    def test_uniform_error_decreases(self):
        errs = [log_poly(n).sup_error for n in (2, 4, 8)]
        assert errs[2] < errs[0]

    def test_chosen_degrees(self):
        """The y-degree is fixed by n: ceil(n ln(2/target)), target = max(4^-n, 2e-11),
        capped at 1000; the x-degree is twice it plus one."""
        got = [len(log_poly(n).coeffs) - 1 for n in range(1, 17)]
        assert got == [3, 7, 15, 25, 39, 55, 73, 95, 119, 146, 176, 208, 244, 282, 323, 366]

    def test_sup_error_meets_target(self):
        for n in range(1, 19):
            assert log_poly(n).sup_error <= max(4.0 ** (-n), 2e-11)

    def test_value_at_zero_decreases(self):
        """log^(n)(0) = q_e(0) is read 1/n^2 below the interval of interpolation in
        y = x^2, so it follows ln(1/n) down as the gap [-1/n, 1/n] closes."""
        re0 = [log_poly(n)(0.0).real for n in range(1, 17)]
        assert all(b < a for a, b in zip(re0, re0[1:]))


class TestDetRigN:
    def test_constant_convergence_by_n12(self, a1):
        f = SteppedField.constant(from_labels(a1, [Q(1, 2)]))
        target = det_rig_constant(a1, from_labels(a1, [Q(1, 2)]), 2)
        err12 = abs(det_rig_n(a1, 12, f) - target)
        assert err12 <= 1e-3
        errs = [abs(det_rig_n(a1, n, f) - target) for n in (2, 4, 8, 12)]
        assert errs[-1] < errs[0]

    def test_step_field_converges_to_det_rig_step(self, a1):
        f = one_circle_field(a1, inner=Q(1, 2), outer=Q(1, 3))
        target = det_rig_step(a1, f)
        assert abs(det_rig_n(a1, 12, f) - target) < 1e-6

    def test_finite_for_singular_bounded_field(self, a1):
        f = SteppedField.constant(from_labels(a1, [2]))  # b = coroot: singular value
        v = det_rig_n(a1, 1, f)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_bad_index_rejected(self, a1):
        with pytest.raises(PreconditionError):
            det_rig_n(a1, 0, SteppedField.constant(from_labels(a1, [Q(1, 2)])))

    def test_rank_two_constant(self, b2):
        b = from_labels(b2, [Q(1, 5), Q(1, 7)])
        f = SteppedField.constant(b)
        target = det_rig_constant(b2, b, 2)
        assert abs(det_rig_n(b2, 12, f) - target) < 1e-2 * max(1.0, abs(target))
