import cmath
import itertools
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from shadowsum.errors import PreconditionError
from shadowsum.holonomy import MAX_REP_DIM, require_rep_dim, weight_phases, wilson_closed_form
from conftest import ambient, character_eval, from_labels, run_main
from shadowsum.reps import weight_multiplicities, weyl_dimension
from shadowsum.roots import build_root_system


def ribbon_holonomy(loop_family, connection, n, u_nodes=16):
    """Direct ordered product of n ribbon factors, the oracle for the closed form.

    Factor j is exp((1/n) a_j), where a_j is the Gauss-Legendre u-average of
    connection(loop_family(j/n, u)).  The samplers take the whole (t, u) grid
    as arrays; the connection returns weight-phase rows (or one broadcast
    row).  Weight-phase factors are diagonal, so the n factors are multiplied
    entry by entry, one after another.
    """
    x, w = np.polynomial.legendre.leggauss(u_nodes)
    t, u = np.meshgrid(np.arange(1, n + 1) / n, 0.5 * (x + 1.0), indexing="ij")
    phases = np.asarray(connection(loop_family(t.ravel(), u.ravel())), dtype=complex)
    phases = np.broadcast_to(phases, (n * u_nodes, phases.shape[-1])).reshape(n, u_nodes, -1)
    factors = np.exp(np.einsum("u,jud->jd", 0.5 * w, phases) / n)
    return np.prod(factors, axis=0)


def loop_holonomy(connection, n):
    """The n-factor ordered product of a connection that varies along the loop: the
    u-free ribbon, whose one Gauss-Legendre u-node has weight 1.  `connection(t)` gets
    the n parameters t = j/n as an array and returns (n, dim) weight-phase rows."""
    return ribbon_holonomy(lambda t, u: t, connection, n, u_nodes=1)


def ribbon_closed_form(ribbons, colors, a_form, b_field, t_nodes=256, u_nodes=16):
    """prod_i Tr_{rho_i} exp( int_0^1 ( oint_{(R_i^(s))_u} (A_c + B dt) ) du ): the closed
    form for ribbons that move across a non-constant field.

    Each ribbon sampler maps the (t, u) grid to (sigma, dsigma/dt, dtau/dt), dtau/dt a
    number or one per node; a_form(sigma, dsigma) and b_field(sigma) * dtau/dt are
    t-valued, in coweight coordinates.  The double integral is a uniform Riemann sum
    over t_nodes in t (exact for vertical ribbons) and Gauss-Legendre over u_nodes in u.
    """
    x, w = np.polynomial.legendre.leggauss(u_nodes)
    t, u = np.meshgrid(np.arange(1, t_nodes + 1) / t_nodes, 0.5 * (x + 1.0), indexing="ij")
    weights = np.broadcast_to(0.5 * w / t_nodes, t.shape).ravel()
    total = 1.0 + 0j
    for ribbon, ws in zip(ribbons, colors, strict=True):
        sigma, dsigma, dtau = ribbon(t.ravel(), u.ravel())
        form = np.asarray(dtau, dtype=float)[..., None] * np.asarray(b_field(sigma), dtype=float)
        if a_form is not None:
            form = form + a_form(sigma, dsigma)
        integral = weights @ np.broadcast_to(form, (weights.size, ws.rs.rank))
        total *= np.exp(integral @ phase_map(ws)).sum()
    return total


def product_trace(capsys, rs, labels, color, n):
    """The trace of the n-factor product as `holonomy` prints it, winding once at
    b = sum_j labels_j omega_j, given by its ambient coordinates."""
    b = ",".join(map(str, ambient(rs).from_labels(labels)))
    rc, doc = run_main(capsys, "holonomy", "--group", rs.name, f"--b={b}",
                       "--color", ",".join(map(str, color)), "--n", n)
    assert rc == 0, doc
    return complex(doc["product_trace"]["re"], doc["product_trace"]["im"])


def phase_map(ws):
    """The linear map x -> weight_phases(ws, x) as a matrix, so rows of coweight
    coordinates map to rows of weight phases: phases = rows @ phase_map(ws)."""
    return np.stack([weight_phases(ws, e) for e in np.eye(ws.rs.rank)])


def scaled_ribbon(loop_family, s):
    """The width-s subribbon R^(s)(t, u) = R(t, s (u - 1/2) + 1/2)."""
    return lambda t, u: loop_family(t, s * (u - 0.5) + 0.5)


def circling_ribbon(t, u):
    """sigma moves once around the unit circle while tau winds once."""
    ang = 2.0 * math.pi * np.asarray(t)
    sigma = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    dsigma = 2.0 * math.pi * np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
    return sigma, dsigma, 1.0


class TestHolonomy:
    def test_vertical_constant_is_exact_for_every_n(self, a1, capsys):
        """The printed trace of the n-factor product is the trace of exp of the weight
        phases and the character at b, the same for every n."""
        ws = weight_multiplicities(a1, (1,))
        phases = weight_phases(ws, from_labels(a1, [Q(1, 3)]))
        want = np.exp(phases).sum()
        got = [product_trace(capsys, a1, [Q(1, 3)], (1,), n) for n in (1, 2, 7, 64)]
        assert got == [got[0]] * 4
        assert abs(got[0] - want) < 1e-12
        assert abs(got[0] - character_eval(ws, ambient(a1).from_labels([Q(1, 3)]))) < 1e-12

    def test_abelian_limit_and_richardson(self, a1):
        # smooth t-valued connection with mean v: product tends to exp(v)
        v = 0.4

        def conn(t):
            return (2j * math.pi * (v + 0.3 * np.cos(2 * math.pi * np.asarray(t))))[:, None]

        want = cmath.exp(2j * math.pi * v)
        e64 = abs(loop_holonomy(conn, 64)[0] - want)
        e128 = abs(loop_holonomy(conn, 128)[0] - want)
        assert e128 <= e64 + 1e-12

    def test_sawtooth_error_slope_is_one(self):
        # A(t) = c t has a jump at the basepoint: the Riemann sum error is c/(2n)
        c = 0.37

        def conn(t):
            return (2j * math.pi * c * np.asarray(t))[:, None]

        want = cmath.exp(2j * math.pi * c * 0.5)
        ns = [16, 32, 64, 128, 256]
        errs = [abs(loop_holonomy(conn, n)[0] - want) for n in ns]
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_bad_n_rejected(self, capsys):
        """n = 0 is refused first, before the colour and the field are read: here beside
        a field value of the wrong length."""
        for argv in (["--group", "A1", "--alpha-b", "1/3"], ["--group", "A2", "--b=1/3,1/5"]):
            rc, doc = run_main(capsys, "holonomy", *argv, "--n", "0")
            assert rc == 3
            assert doc["error"]["message"] == "holonomy needs n >= 1, got 0"

    def test_weight_phases_trace_is_the_character(self, a2):
        ws = weight_multiplicities(a2, (1, 1))
        b = ambient(a2).from_labels([Q(1, 5), Q(1, 7)])
        phases = weight_phases(ws, from_labels(a2, [Q(1, 5), Q(1, 7)]))
        assert len(phases) == 8
        assert abs(np.exp(phases).sum() - character_eval(ws, b)) < 1e-12

    def test_exact_phases_are_reduced_residues(self, a1):
        """An exact beta(b) enters as its residue in [-1/2, 1/2]; a float one as it is."""
        ws = weight_multiplicities(a1, (2,))
        x = from_labels(a1, [Q(2, 3)])  # x = 1/3: beta(b) = -2/3, 0, 2/3 in label order
        exact = weight_phases(ws, x)
        assert exact == [2j * math.pi * v for v in (1 / 3, 0.0, -1 / 3)]
        assert weight_phases(ws, [float(v) for v in x]) == [
            2j * math.pi * float(v) for v in (Q(-2, 3), 0, Q(2, 3))]
        assert np.max(np.abs(np.exp(exact) - np.exp(weight_phases(ws, [1 / 3])))) < 1e-15

    def test_wrong_coordinate_count_rejected(self, a2):
        with pytest.raises(PreconditionError, match="expected 2 coweight coordinates, got 1"):
            weight_phases(weight_multiplicities(a2, (1, 0)), (Q(1, 3),))

    def test_rep_dim_budget(self, a1):
        """A1 colour (m,) has Weyl dimension m + 1; the budget admits up to MAX_REP_DIM."""
        require_rep_dim(a1, (MAX_REP_DIM - 1,))
        for color in ((MAX_REP_DIM,), (100000,)):
            with pytest.raises(PreconditionError, match="budget"):
                require_rep_dim(a1, color)

    def test_rep_dim_budget_stops_at_the_budget(self, a2):
        """The Weyl dimension is multiplied out only until it passes MAX_REP_DIM; a
        count that stopped early says "or more".  On A2, (21, 0) has dimension 253 and
        (22, 0) 276, passed only by the last ratio, so its count is exact; dominance
        is refused first.  On colours of small labels the refusal agrees with
        `weyl_dimension`: admitted iff dim <= MAX_REP_DIM, else a count past the budget
        and at most dim, equal to it unless it says "or more"."""
        require_rep_dim(a2, (21, 0))
        with pytest.raises(PreconditionError, match=r": 276 dimensions; the budget is 256$"):
            require_rep_dim(a2, (22, 0))
        with pytest.raises(PreconditionError, match=r": about 10\^4000 dimensions or more;"):
            require_rep_dim(a2, (10**4000, 0))
        with pytest.raises(PreconditionError, match="not dominant"):
            require_rep_dim(a2, (10**4000, -1))
        for label in ("A2", "B3", "G2", "F4"):
            rs = build_root_system(label)
            for color in itertools.product(range(4), repeat=rs.rank):
                dim = weyl_dimension(rs, color)
                if dim <= MAX_REP_DIM:
                    require_rep_dim(rs, color)
                    continue
                with pytest.raises(PreconditionError) as refused:
                    require_rep_dim(rs, color)
                count, unit = str(refused.value).split(": ")[-1].split(";")[0].split(" ", 1)
                assert MAX_REP_DIM < int(count) <= dim
                assert unit == "dimensions or more" or (unit, int(count)) == ("dimensions", dim)


class TestRibbonHolonomy:
    def test_vertical_ribbon_matches_loop(self, a1, capsys):
        """The direct ribbon product of a constant connection against the trace the
        `holonomy` command prints at the same n."""
        b = from_labels(a1, [Q(2, 7)])
        ws = weight_multiplicities(a1, (1,))
        phases = weight_phases(ws, b)
        got = ribbon_holonomy(lambda t, u: None, lambda _: phases, 16)
        assert got.shape == (2,)
        assert abs(got.sum() - product_trace(capsys, a1, [Q(2, 7)], (1,), 16)) < 1e-12

    def test_scaled_ribbon_limit_recovers_core(self, a1):
        """s -> 0 shrinks the ribbon onto its core loop for a smooth connection."""
        ws = weight_multiplicities(a1, (1,))
        phases = weight_phases(ws, [float(x) for x in from_labels(a1, [Q(1, 5)])])

        def family(t, u):
            return u - 0.5

        def conn(du):
            scale = 1.0 + du * du  # nonlinear profile across the ribbon width
            return scale[:, None] * phases

        core = loop_holonomy(lambda t: np.tile(phases, (len(t), 1)), 64)
        diffs = []
        for s in (1.0, 0.5, 0.25, 0.125):
            h = ribbon_holonomy(scaled_ribbon(family, s), conn, 64)
            diffs.append(float(np.max(np.abs(h - core))))
        assert diffs[-1] < diffs[0]
        assert all(diffs[i + 1] <= 0.3 * diffs[i] for i in range(len(diffs) - 1))


class TestWilsonClosedForm:
    def test_vertical_ribbon_constant_field(self, a1):
        b = ambient(a1).from_labels([Q(1, 3)])
        ws = weight_multiplicities(a1, (1,))
        got = wilson_closed_form(ws, from_labels(a1, [Q(1, 3)]), 1)
        assert abs(got - character_eval(ws, b)) < 1e-9

    def test_trivial_color_gives_one(self, a1):
        ws = weight_multiplicities(a1, (0,))
        got = wilson_closed_form(ws, [0.5], 3)
        assert got == pytest.approx(1.0)

    def test_step_field_winding_w(self, a1):
        # ribbon inside one face with wind w: the trace argument is w * b_face
        ws = weight_multiplicities(a1, (2,))
        b = ambient(a1).from_labels([Q(1, 5)])
        bf = [float(x) for x in from_labels(a1, [Q(1, 5)])]

        def field(sigma):
            inside = np.asarray(sigma)[..., 0] > 0.25
            return np.where(inside[..., None], bf, 0.0)

        point = (0.5, 0.5)  # the ribbon's one sphere point
        for w in (-2, 1, 3):
            got = wilson_closed_form(ws, list(field(point)), w)
            want = character_eval(ws, tuple(w * x for x in b))
            assert abs(got - want) < 1e-9

    @pytest.mark.parametrize(
        "label, color, labels",
        [("A1", (1,), [Q(2, 11)]), ("B2", (1, 1), [Q(1, 13), Q(-2, 17)]),
         ("A2", (2, 2), [Q(3, 19), Q(-1, 23)]), ("G2", (1, 1), [Q(1, 29), Q(2, 31)])],
    )
    def test_vertical_windings_match_the_exact_character(self, label, color, labels):
        """Closed form at wind = ±1..3 against character_eval at the exact wind * b."""
        rs = build_root_system(label)
        ws = weight_multiplicities(rs, color)
        b = ambient(rs).from_labels(labels)
        x = from_labels(rs, labels)
        dim = weyl_dimension(rs, color)
        for wind in (-3, -2, -1, 1, 2, 3):
            got = wilson_closed_form(ws, x, wind)
            want = character_eval(ws, tuple(wind * x for x in b))
            assert abs(got - want) <= 1e-12 * dim, (label, wind)

    def test_matches_direct_ribbon_product(self, a1):
        """The ribbon closed form vs a high-n ordered product in the weight representation."""
        ws1 = weight_multiplicities(a1, (1,))
        ws2 = weight_multiplicities(a1, (2,))
        b = np.array([float(x) for x in from_labels(a1, [Q(1, 3)])])
        omega = np.array([float(x) for x in from_labels(a1, [1])])

        def a_form(sigma, dsigma):
            return 0.15 * dsigma[:, :1] * omega

        colors = [ws1, ws2]
        # nonvertical ribbon: sigma moves around a circle while tau winds once
        closed = ribbon_closed_form(
            [circling_ribbon, circling_ribbon], colors, a_form, lambda s: b
        )

        direct = 1.0 + 0j
        for ws in colors:
            def conn(sample, m=phase_map(ws)):
                sigma, dsigma, dtau = sample
                return (a_form(sigma, dsigma) + dtau * b) @ m

            direct *= ribbon_holonomy(circling_ribbon, conn, 4096).sum()
        assert abs(closed - direct) < 1e-6
