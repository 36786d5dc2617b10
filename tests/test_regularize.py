import functools
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from conftest import alphas, ambient, det_rig_step, stage_indicator
from shadowsum.determinants import det_rig_constant
from shadowsum.diagrams import build_diagram
from shadowsum.errors import PreconditionError
from shadowsum.regularize import (
    CUTOFF_FLOOR,
    CUTOFF_SUP_ERRORS,
    LogPoly,
    _bump,
    constant_field,
    det_rig_n,
    exp_poly,
    log_poly,
    require_stage,
    stepped_field,
    total_cells,
    trig_cutoff,
)
from shadowsum.roots import build_root_system

K = 1 << 13  # bump samples per period of the cutoff


def np_bump(n, x):
    """psi_n on an array: the C^infinity step of sin^2(pi x) / sin^2(pi/(4n))."""
    t = np.clip(np.sin(np.pi * x) ** 2 / math.sin(math.pi * 0.25 / n) ** 2, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        g = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return f / (f + g)


@functools.lru_cache(maxsize=None)
def fft_cutoff(n):
    """The oracle of `trig_cutoff`: the cosine coefficients of pbar_n from one K-point
    rfft of psi_n (Nyquist term at full weight, constant recentred so that pbar_n(0) =
    0), and max(sup |pbar_n - psi_n|, CUTOFF_FLOOR) over the 4K-point grid."""
    spectrum = np.fft.rfft(np_bump(n, np.arange(K) / K)) / K
    a = 2.0 * spectrum.real  # psi is even: cosine series
    a[0] = spectrum[0].real
    a[0] -= a.sum()
    dense_n = 4 * K
    z = np.zeros(dense_n // 2 + 1, dtype=complex)
    z[0] = a[0] * dense_n
    z[1 : len(a)] = a[1:] * (dense_n / 2.0)
    vals = np.fft.irfft(z, n=dense_n)
    err = float(np.max(np.abs(vals - np_bump(n, np.arange(dense_n) / dense_n))))
    return a, max(err, CUTOFF_FLOOR)


def fft_series(a, x):
    """sum_m a_m cos(2 pi m x) at a rational x, each m x reduced mod 1 exactly."""
    m = np.arange(len(a))
    return float(a @ np.cos(2.0 * np.pi * (m * x.numerator % x.denominator) / x.denominator))


@functools.lru_cache(maxsize=None)
def log_sup_error(n):
    """The largest |log^(n)(x) - ln x| on 4000 equispaced points of [1/n, 2]; by parity
    the error at -x has the modulus of the error at x, so it bounds [-2, -1/n] too."""
    lp = log_poly(n)
    return max(abs(lp(float(x)) - math.log(x)) for x in np.linspace(1.0 / n, 2.0, 4000))


def one_circle_field(rs, inner, outer):
    d = build_diagram(
        [{"id": "c", "parent": None, "winding": 1, "positive_side": "inside", "color": [0]}]
    )
    return stepped_field(d.faces, (alphas(rs, [outer]), alphas(rs, [inner])))


class TestBump:
    def test_vanishes_on_integers(self):
        assert all(_bump(3, x) == 0.0 for x in (-2.0, -1.0, 0.0, 1.0, 5.0))

    def test_one_away_from_integers(self):
        n = 4
        x = [0.3, 0.5, 1.0 / (4 * n) + 1e-9, 1 - 1.0 / (4 * n) - 1e-9]
        assert all(_bump(n, v) == 1.0 for v in x)

    def test_monotone_window(self):
        v = [_bump(2, x) for x in np.linspace(0.0, 0.25, 200)]
        assert all(b - a >= -1e-12 for a, b in zip(v, v[1:]))

    def test_matches_the_array_bump(self):
        """The scalar samples are the oracle's, to rounding of sin and exp."""
        for n in (1, 8, 14):
            x = np.arange(-K // (4 * n) - 1, K // (4 * n) + 2) / K
            assert max(abs(_bump(n, v) - w) for v, w in zip(x, np_bump(n, x))) <= 1e-15


class TestTrigCutoff:
    def test_exact_zero_at_integer_fractions(self):
        cut = trig_cutoff(3)
        for m in (-3, -1, 0, 2, 11):
            assert cut(Q(m)) == 0.0

    def test_sup_error_within_target(self):
        for n in range(1, 15):
            cut = trig_cutoff(n)
            assert cut.sup_error <= 1e-9

    def test_sup_error_table_is_the_grid_measurement(self):
        """Each tabulated sup error is the oracle's measurement on the 4K-point grid, to
        2 ulp of 1."""
        for n, err in CUTOFF_SUP_ERRORS.items():
            assert abs(err - fft_cutoff(n)[1]) <= 4.4e-16, n

    def test_table_holds_exactly_the_admitted_stages(self):
        """The table covers every stage the CUTOFF_FLOOR check admits for the smallest
        N_n |R+| there is (A1, one face: 4^n), and no other."""
        admitted = {n for n in range(1, 40) if total_cells(1, n) * CUTOFF_FLOOR < 1}
        assert set(CUTOFF_SUP_ERRORS) == admitted
        for n in range(max(admitted) + 1, 601):
            with pytest.raises(PreconditionError, match="cannot be trusted"):
                require_stage(1, n, 1)

    # Rational points on the plateau |x - round(x)| >= 1/(4n) and in the transition
    # below it.  Measured gaps to the FFT series: <= 1.3e-15 on the plateau and <= 9.7e-15
    # in the transition, where a 40-digit evaluation of the same trigonometric polynomial
    # puts the production value within 2.3e-16 (at 1/40, -487/27520 and 3/16384): the gap
    # there is the rounding of the FFT coefficients.
    CUTOFF_POINTS = [Q(1, 3), Q(-1, 2), Q(2, 7), Q(5, 11), Q(7, 9), Q(1, 40), Q(-1, 57),
                     Q(1, 1000), Q(999, 1000), Q(-487, 27520), Q(3, 16384), Q(1, 8192),
                     Q(13, 1024), Q(-7, 3)]

    def test_matches_the_fft_series(self):
        for n in range(1, 20):
            a, _ = fft_cutoff(n)
            cut = trig_cutoff(n)
            for x in self.CUTOFF_POINTS:
                plateau = abs(x - round(x)) >= Q(1, 4 * n)
                assert abs(cut(x) - fft_series(a, x)) <= (2e-15 if plateau else 2e-14), (n, x)

    def test_close_to_one_away_from_integers(self):
        n = 3
        cut = trig_cutoff(n)
        for x in (Q(1, 2), Q(1, 3), Q(2, 5), Q(-1, 2)):
            assert abs(cut(x) - 1.0) < 1e-9


class TestIndicator:
    def test_singular_face_gives_exact_zero(self, a1):
        f = one_circle_field(a1, inner=Q(1, 2), outer=Q(2))
        for n in range(1, 9):
            assert stage_indicator(n, f) == 0.0

    def test_coroot_lattice_value_gives_zero(self, a1):
        f = constant_field(alphas(a1, [2]))  # b = coroot
        assert stage_indicator(1, f) == 0.0

    def test_regular_constant_converges_to_one(self, a1):
        f = constant_field(alphas(a1, [Q(1, 2)]))
        errs = [abs(stage_indicator(n, f) - 1.0) for n in range(1, 9)]
        assert errs[-1] < 1e-6
        assert max(errs[4:]) < 1e-8  # deep stages sit at the float floor

    def test_regular_step_converges_to_one(self, a1):
        f = one_circle_field(a1, inner=Q(1, 2), outer=Q(1, 3))
        assert abs(stage_indicator(8, f) - 1.0) < 1e-6

    def test_product_bound_certified_regime(self, a1):
        """|value - 1| <= 1/N_n^2 away from the singular set, small n."""
        f = constant_field(alphas(a1, [Q(1, 2)]))
        for n in (1, 2, 3, 4):
            nn = total_cells(len(f), n)
            assert abs(stage_indicator(n, f) - 1.0) <= 1.0 / nn**2

    def test_bad_index_rejected(self, a1):
        with pytest.raises(PreconditionError):
            stage_indicator(0, constant_field(alphas(a1, [Q(1, 2)])))

    def test_large_stage_refused_before_building_a_cutoff(self, a1, monkeypatch):
        """From N_n |R+| >= 1/CUTOFF_FLOOR on, no cutoff is built and no 4^n float formed."""
        import shadowsum.regularize as reg

        monkeypatch.setattr(reg, "trig_cutoff", None)
        f = one_circle_field(a1, inner=Q(1, 2), outer=Q(1, 3))  # two faces
        n = next(n for n in range(1, 40) if total_cells(2, n) >= 1 / CUTOFF_FLOOR)
        for stage in (n, 600):
            with pytest.raises(PreconditionError, match="cannot be trusted"):
                stage_indicator(stage, f)

    def test_cutoff_budget_refuses_many_faces_before_building_a_cutoff(self, monkeypatch):
        """Five E8 faces at n = 1 pass the trust check but hold 5 * 120 * (2 (K/4 + 1) + 1)
        = 2,459,400 Dirichlet terms, past MAX_CUTOFF_TERMS: refused, no cutoff built."""
        import shadowsum.regularize as reg

        monkeypatch.setattr(reg, "trig_cutoff", None)
        rs = build_root_system("E8")
        d = build_diagram([{"id": f"c{i}", "parent": None, "winding": 1,
                            "positive_side": "inside", "color": [0] * 8} for i in range(4)])
        f = stepped_field(d.faces, (alphas(rs, [Q(1, 7 + j) for j in range(8)]),) * 5)
        with pytest.raises(PreconditionError, match="2459400 Dirichlet terms; the budget is"):
            stage_indicator(1, f)

    def test_stage_is_refused_by_its_face_count_alone(self):
        """`require_stage` reads no field value: the face count decides the trust check
        and the cutoff budget, so two faces of E8 at n = 1 are admitted and five are
        refused with the indicator's own message."""
        rs = build_root_system("E8")
        roots = len(rs.positive_root_labels)
        require_stage(roots, 1, 2)
        with pytest.raises(PreconditionError, match="2459400 Dirichlet terms; the budget is"):
            require_stage(roots, 1, 5)
        with pytest.raises(PreconditionError, match="cannot be trusted"):
            require_stage(roots, 14, 1)

    @pytest.mark.parametrize("group, one_face, five_faces",
                             [("A1", 15, 14), ("B2", 14, 13), ("G2", 14, 13), ("E8", 13, 12)])
    def test_largest_trusted_stage(self, group, one_face, five_faces):
        """The last stage whose bound N_n |R+| sup_error stays below 1, with one face
        and with five (four side-by-side circles)."""
        rs = build_root_system(group)
        a = alphas(rs, [Q(1, 7 + j) for j in range(rs.rank)])
        for faces, last in ((1, one_face), (5, five_faces)):
            d = build_diagram([{"id": f"c{i}", "parent": None, "winding": 1,
                                "positive_side": "inside", "color": [0] * rs.rank}
                               for i in range(faces - 1)])
            f = stepped_field(d.faces, (a,) * faces)
            stage_indicator(last, f)
            with pytest.raises(PreconditionError, match="cannot be trusted"):
                stage_indicator(last + 1, f)


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
        errs = [log_sup_error(n) for n in (2, 4, 8)]
        assert errs[2] < errs[0]

    def test_chosen_degrees(self):
        """The y-degree is fixed by n: ceil(n ln(2/target)), target = max(4^-n, 2e-11),
        capped at 1000; the x-degree is twice it plus one."""
        got = [log_poly(n).degree for n in range(1, 17)]
        assert got == [3, 7, 15, 25, 39, 55, 73, 95, 119, 146, 176, 208, 244, 282, 323, 366]

    def test_sup_error_meets_target(self):
        for n in range(1, 19):
            assert log_sup_error(n) <= max(4.0 ** (-n), 2e-11)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 14, 16, 18])
    def test_matches_chebval(self, n):
        """The barycentric interpolant against numpy's Chebyshev coefficients of the same
        interpolant, evaluated by Clenshaw, on [1/n, 2]: within eps * degree^2, of which
        the measured gaps take 0.11-0.52 (the most at n = 1 and 18), mostly numpy's: at
        x = 2, n = 14, chebval is 9.9e-13 from a 50-digit value of the interpolant."""
        lp = log_poly(n)
        lo = 1.0 / (n * n)
        mid, half = (4.0 + lo) / 2.0, (4.0 - lo) / 2.0
        cheb = np.polynomial.chebyshev
        coeffs = np.stack([cheb.chebinterpolate(lambda t: 0.5 * np.log(mid + half * t), lp.degree),
                           cheb.chebinterpolate(lambda t: 1.0 / np.sqrt(mid + half * t), lp.degree)],
                          axis=1)
        x = np.linspace(1.0 / n, 2.0, 400)
        even, odd = cheb.chebval((2.0 * x * x - 4.0 - lo) / (4.0 - lo), coeffs)
        want = even + 0.5j * math.pi * (1.0 - x * odd)
        gap = max(abs(lp(float(v)) - w) for v, w in zip(x, want))
        assert gap <= 2.0 ** -52 * lp.degree ** 2

    def test_value_at_zero_decreases(self):
        """log^(n)(0) = q_e(0) is read 1/n^2 below the interval of interpolation in
        y = x^2, so it follows ln(1/n) down as the gap [-1/n, 1/n] closes."""
        re0 = [log_poly(n)(0.0).real for n in range(1, 17)]
        assert all(b < a for a, b in zip(re0, re0[1:]))

    def test_value_at_a_node_is_the_sample(self):
        """Where t, the image of y = x^2 in [-1, 1], is a node t_k, the barycentric
        quotient is 0/0, so `_parts` returns that node's samples (e_k, x o_k) as they
        are.  At n = 1, x = +-1 and x = +-2 map to t = -1 and t = 1 exactly; the two
        nodes hold the samples (1/2) ln y and y^(-1/2) at y = 1 and y = 4."""
        lp = LogPoly(1, 1, [(-1.0, 0.5, 0.0, 1.0), (1.0, -0.5, math.log(2.0), 0.5)])
        assert lp._parts(1.0) == (0.0, 1.0)
        assert lp._parts(2.0) == (math.log(2.0), 1.0)
        assert lp(-2.0) == complex(math.log(2.0), math.pi)


class TestDetRigN:
    def test_constant_convergence_by_n12(self, a1):
        f = constant_field(alphas(a1, [Q(1, 2)]))
        target = det_rig_constant(alphas(a1, [Q(1, 2)]), 2)
        err12 = abs(det_rig_n(12, f)[0] - target)
        assert err12 <= 1e-3
        errs = [abs(det_rig_n(n, f)[0] - target) for n in (2, 4, 8, 12)]
        assert errs[-1] < errs[0]

    def test_step_field_converges_to_det_rig_step(self, a1):
        f = one_circle_field(a1, inner=Q(1, 2), outer=Q(1, 3))
        target = det_rig_step(f)
        assert abs(det_rig_n(12, f)[0] - target) < 1e-6

    def test_finite_for_singular_bounded_field(self, a1):
        f = constant_field(alphas(a1, [2]))  # b = coroot: singular value
        v = det_rig_n(1, f)[0]
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_bad_index_rejected(self, a1):
        with pytest.raises(PreconditionError):
            det_rig_n(0, constant_field(alphas(a1, [Q(1, 2)])))

    def test_rank_two_constant(self, b2):
        b = alphas(b2, [Q(1, 5), Q(1, 7)])
        f = constant_field(b)
        target = det_rig_constant(b, 2)
        assert abs(det_rig_n(12, f)[0] - target) < 1e-2 * max(1.0, abs(target))


class TestDetRigNBound:
    @pytest.mark.parametrize("n", [6, 8, 12, 14])
    @pytest.mark.parametrize("group, b", [
        ("A1", [Q(1, 3)]), ("A1", [Q(5, 3)]), ("G2", [Q(5, 7), Q(1, 11), Q(-3, 13)])],
        ids=["A1-1/3", "A1-5/3", "G2"])
    def test_bounds_the_distance_to_the_limit(self, group, b, n):
        """|det_rig_n - det_rig_step| <= bound |det_rig_step|; A1 values are alpha(b), G2's
        ambient coordinates.  At n = 6 the G2 stage is 1.8e6 times its limit away."""
        rs = build_root_system(group)
        f = constant_field(alphas(rs, b) if group == "A1" else ambient(rs).root_pairings(b))
        limit = det_rig_step(f)
        value, bound = det_rig_n(n, f)
        assert abs(value - limit) <= bound * abs(limit)
        if group == "G2" and n == 6:
            assert bound >= 1.0

    def test_bounds_a_step_field(self, a1):
        f = one_circle_field(a1, inner=Q(1, 2), outer=Q(1, 3))
        limit = det_rig_step(f)
        for n in (4, 8, 12):
            value, bound = det_rig_n(n, f)
            assert abs(value - limit) <= bound * abs(limit)

    @pytest.mark.parametrize("middle", [Q(1, 4), Q(1), Q(0), Q(1, 1000)])
    def test_a_face_of_chi_zero_is_not_read(self, a1, middle):
        """A face of chi = 0 is a factor 1 of the stage and of its limit, so the stage
        and its bound are those of the other faces, whatever its value, singular (1, 0)
        or near a wall (1/1000) included, and wherever it stands.  A field of such
        faces alone is the empty product: 1, exactly."""
        outer, inner = (1, alphas(a1, [Q(1, 3)])), (1, alphas(a1, [Q(1, 2)]))
        zero = (0, alphas(a1, [middle]))
        for n in (1, 4, 8, 12):
            value, bound = det_rig_n(n, (outer, inner))
            assert det_rig_n(n, (outer, zero, inner)) == (value, bound)
            assert det_rig_n(n, (zero, outer, inner)) == (value, bound)
            limit = det_rig_step((outer, inner))
            assert abs(value - limit) <= bound * abs(limit)
        assert det_rig_n(4, (zero,)) == (1, 0.0)

    def test_none_where_log_has_no_stated_accuracy(self, a1):
        """A root sine below 1/n in modulus (singular values included), or a stage past
        n = 18, where log^(n) no longer meets its target; and a bound that is no finite
        double: a face of chi = -999 at alpha(b) = 1/3 puts the Taylor remainder of
        exp^(4) past every double, while the stage itself stays finite."""
        near = constant_field(alphas(a1, [Q(1, 1000)]))  # |2 sin(pi/1000)| = 0.0063
        assert det_rig_n(6, near)[1] is None
        assert det_rig_n(1, near)[1] is None
        assert det_rig_n(6, constant_field(alphas(a1, [2])))[1] is None
        assert det_rig_n(19, constant_field(alphas(a1, [Q(1, 3)])))[1] is None
        value, bound = det_rig_n(4, ((-999, (Q(1, 3),)),))
        assert math.isfinite(value.real) and math.isfinite(value.imag) and bound is None
        assert det_rig_n(4, ((-1, (Q(1, 3),)),))[1] is not None
        with pytest.raises(PreconditionError):
            det_rig_n(0, near)
