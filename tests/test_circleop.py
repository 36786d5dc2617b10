import math
from fractions import Fraction as Q

import numpy as np
import pytest

from conftest import ambient
from shadowsum.circleop import (
    CircleOperatorData,
    apply_operator,
    circle_inverse_apply,
    random_admissible_series,
)
from shadowsum.errors import PreconditionError


def data_a1(a1, order=16):
    return CircleOperatorData(rs=a1, b=ambient(a1).from_labels([Q(1, 3)]), order=order)


class TestConstruction:
    def test_singular_b_rejected(self, a1):
        with pytest.raises(PreconditionError):
            CircleOperatorData(rs=a1, b=ambient(a1).from_labels([1]), order=4)

    def test_singular_message_shows_rationals(self, a1):
        with pytest.raises(PreconditionError) as ei:
            CircleOperatorData(rs=a1, b=ambient(a1).from_labels([1]), order=4)
        assert "(1/2, -1/2)" in str(ei.value) and "Fraction(" not in str(ei.value)

    def test_pairings_split(self, a1):
        d = data_a1(a1)
        # Cartan coordinates first, then one pairing per root
        assert d.dim == a1.rank + len(ambient(a1).roots)
        assert sorted(d.pairings) == pytest.approx([-1.0 / 3.0, 1.0 / 3.0])


class TestInverse:
    def test_single_root_mode(self, a1):
        d = data_a1(a1)
        c = np.zeros((33, d.dim), dtype=complex)
        c[16 + 3, 1] = 1.0  # mode n = 3 on the first root coordinate
        out = circle_inverse_apply(d, c)
        expect = 1.0 / (2j * math.pi * (3 + d.pairings[0]))
        assert out[16 + 3, 1] == pytest.approx(expect)
        back = apply_operator(d, out)
        assert np.max(np.abs(back - c)) < 1e-14

    def test_zero_maps_to_zero(self, a1):
        d = data_a1(a1)
        c = np.zeros((33, d.dim), dtype=complex)
        assert np.all(circle_inverse_apply(d, c) == 0)

    def test_constant_root_valued_mode(self, a1):
        # n = 0 on a root coordinate: the inverse is division by the ad(b) eigenvalue
        d = data_a1(a1)
        c = np.zeros((33, d.dim), dtype=complex)
        c[16, 1] = 2.0
        out = circle_inverse_apply(d, c)
        assert out[16, 1] == pytest.approx(2.0 / (2j * math.pi * d.pairings[0]))
        assert np.max(np.abs(apply_operator(d, out) - c)) < 1e-14

    def test_nonzero_cartan_mode_inverted(self, a1):
        d = data_a1(a1)
        c = np.zeros((33, d.dim), dtype=complex)
        c[16 + 5, 0] = 1.0  # Cartan coordinate, mode 5
        out = circle_inverse_apply(d, c)
        assert out[16 + 5, 0] == pytest.approx(1.0 / (2j * math.pi * 5))
        assert np.max(np.abs(apply_operator(d, out) - c)) < 1e-14

    def test_mean_cartan_component_rejected(self, a1):
        d = data_a1(a1)
        c = np.zeros((33, d.dim), dtype=complex)
        c[16, 0] = 1.0  # zero mode with a Cartan component
        with pytest.raises(PreconditionError) as ei:
            circle_inverse_apply(d, c)
        assert "constraint" in str(ei.value)

    def test_wrong_shape_rejected(self, a1):
        d = data_a1(a1)
        with pytest.raises(PreconditionError):
            circle_inverse_apply(d, np.zeros((5, d.dim), dtype=complex))

    @pytest.mark.parametrize("label,seed", [("A1", 0), ("A2", 1)])
    def test_composition_residual(self, label, seed, a1, a2):
        rs = {"A1": a1, "A2": a2}[label]
        rng = np.random.default_rng(seed)
        for trial in range(25):
            labels = [Q(int(rng.integers(-12, 13)), 25) for _ in range(rs.rank)]
            b = ambient(rs).from_labels(labels)
            try:
                d = CircleOperatorData(rs=rs, b=b, order=16)
            except PreconditionError:
                continue
            f = random_admissible_series(d, rng)
            g = circle_inverse_apply(d, f)
            res = np.max(np.abs(apply_operator(d, g) - f))
            assert res <= 1e-10
