"""The package's own standard normal CDF and hazard ratio against scipy.

``variance.std_normal_cdf`` and ``variance._hazard_pos`` replaced
``scipy.special.ndtr`` and a ``log_ndtr`` form; scipy stays the oracle here.
"""
import numpy as np
import pytest

from vflkit.variance import _hazard_pos, std_normal_cdf

special = pytest.importorskip("scipy.special")


def _rel_err(got, want):
    return float(np.max(np.abs(got / want - 1.0)))


def _hazard_reference(x):
    log_phi = -0.5 * x * x - np.log(np.sqrt(2.0 * np.pi))
    return np.exp(log_phi - special.log_ndtr(x))


class TestStdNormalCdf:
    def test_array_against_ndtr(self):
        x = np.linspace(-37.0, 37.0, 40001)
        assert _rel_err(std_normal_cdf(x), special.ndtr(x)) <= 1e-12

    @pytest.mark.parametrize("x", [-37.0, -20.5, -1.0, 0.0, 0.3, 6.0, 37.0])
    def test_scalar_against_ndtr(self, x):
        got = std_normal_cdf(x)
        assert isinstance(got, np.float64)
        assert abs(got / special.ndtr(x) - 1.0) <= 1e-12

    def test_keeps_shape_and_float64(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        got = std_normal_cdf(x)
        assert got.shape == (3, 4) and got.dtype == np.float64
        assert std_normal_cdf(np.arange(3)).dtype == np.float64
        assert std_normal_cdf(np.empty((0, 2))).shape == (0, 2)


class TestHazard:
    def test_direct_range(self):
        x = np.linspace(-30.0, 8.0, 40001)
        assert _rel_err(_hazard_pos(x), _hazard_reference(x)) <= 1e-12

    def test_series_range(self):
        # The reference's own rounding grows with x^2, hence the looser bound.
        x = np.linspace(-1000.0, -30.0, 40001)[:-1]
        assert _rel_err(_hazard_pos(x), _hazard_reference(x)) <= 1e-9

    def test_continuous_at_switch(self):
        below = _hazard_pos(np.nextafter(-30.0, -np.inf))
        assert abs(below / _hazard_pos(-30.0) - 1.0) <= 1e-11
