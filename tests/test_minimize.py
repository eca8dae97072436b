"""Batched golden-section minimizer: brackets, stalls, and accuracy."""

import numpy as np
import pytest

import lincore.minimize
from lincore import BracketSearchError, DomainError
from lincore.minimize import minimize_convex


class TestQuadratics:
    def test_batch_of_shifted_parabolas(self):
        centers = np.linspace(-3, 7, 40)

        def f(u):
            return (u - centers) ** 2 + 1.0

        def fp(u):
            return 2 * (u - centers)

        res = minimize_convex(f, fp, np.full(40, -1.0), np.full(40, 1.0))
        np.testing.assert_allclose(res.argmin, centers, atol=1e-8)
        np.testing.assert_allclose(res.value, 1.0, atol=1e-12)
        assert not res.at_edge.any()

    def test_value_accuracy_beats_1e10(self):
        def f(u):
            return np.cosh(u - 0.7)

        def fp(u):
            return np.sinh(u - 0.7)

        res = minimize_convex(f, fp, np.array([-10.0]), np.array([10.0]))
        assert abs(res.value[0] - 1.0) < 1e-10

    def test_hard_bounds_mode_stays_inside(self):
        """expand=False treats the interval as a constraint."""

        def f(u):
            return (u - 5.0) ** 2

        def fp(u):
            return 2 * (u - 5.0)

        res = minimize_convex(f, fp, np.array([-1.0]), np.array([1.0]), expand=False)
        assert res.argmin[0] == pytest.approx(1.0, abs=1e-8)
        assert res.value[0] == pytest.approx(16.0, abs=1e-7)


class TestAsymptotes:
    def test_decaying_exponential_reports_edge_infimum(self):
        """Objectives whose infimum is a tail asymptote stall and return it."""

        def f(u):
            return np.exp(-u)

        def fp(u):
            return -np.exp(-u)

        res = minimize_convex(f, fp, np.array([-1.0]), np.array([1.0]))
        assert res.at_edge[0]
        assert res.value[0] < 1e-12

    def test_mixed_batch_edge_and_interior(self):
        which = np.array([0.0, 1.0])  # 0: asymptote, 1: interior minimum

        def f(u):
            return np.where(which == 0, np.exp(-u), (u - 2.0) ** 2)

        def fp(u):
            return np.where(which == 0, -np.exp(-u), 2 * (u - 2.0))

        res = minimize_convex(f, fp, np.full(2, -1.0), np.full(2, 1.0))
        assert res.at_edge[0] and not res.at_edge[1]
        assert res.value[0] < 1e-12
        assert res.argmin[1] == pytest.approx(2.0, abs=1e-8)

    def test_linear_objective_hits_width_cap(self, monkeypatch):
        """A function decreasing forever at a constant rate cannot bracket."""
        monkeypatch.setattr(lincore.minimize, "_MAX_WIDTH", 1e4)

        def f(u):
            return -u

        def fp(u):
            return np.full_like(u, -1.0)

        with pytest.raises(BracketSearchError):
            minimize_convex(f, fp, np.array([-1.0]), np.array([1.0]))


def test_flat_core_objective():
    """A flat bottom (affine core summed both ways) still minimizes exactly."""

    def f(u):
        return np.maximum(np.abs(u) - 1.0, 0.0) + 2.0

    def fp(u):
        return np.sign(u) * (np.abs(u) > 1.0)

    res = minimize_convex(f, fp, np.array([-9.0]), np.array([9.0]))
    assert res.value[0] == pytest.approx(2.0, abs=1e-12)
    assert abs(res.argmin[0]) <= 1.0 + 1e-6


def test_empty_bracket_raises_domain_error():
    with pytest.raises(DomainError, match="lo < hi"):
        minimize_convex(np.abs, np.sign, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
