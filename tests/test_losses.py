"""Scalar base losses and linear-core surrogates: closed forms and smoothness."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincore import (
    BaseLoss,
    DomainError,
    EvaluationOverflowError,
    LEFT,
    LinearCoreSpec,
    ONE_SIDED,
    RIGHT,
    SYMMETRIC,
    base_derivative,
    base_second_derivative,
    base_value,
    lc_branch_second_derivative,
    lc_derivative,
    lc_value,
    linear_core_margin_loss,
    mc_sum_loss,
    mc_sum_loss_gradient,
    plain_margin_loss,
)

ALL_BASES = [BaseLoss.logistic(), BaseLoss.exponential(), BaseLoss.quartic_linear()]
ALL_SPECS = [LinearCoreSpec(base, side=side) for base in ALL_BASES for side in (SYMMETRIC, ONE_SIDED)]


def spec_grid(spec, n=1001, span=6.0):
    tau = spec.tau
    return np.concatenate([np.linspace(-span - tau, span + tau, n), [-tau, tau, 0.0]])


class TestBaseClosedForms:
    def test_logistic_at_zero(self):
        assert base_value(BaseLoss.logistic(), 0.0) == pytest.approx(math.log(2), abs=1e-15)
        assert base_derivative(BaseLoss.logistic(), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_exponential_values(self):
        assert base_value(BaseLoss.exponential(), 1.0) == pytest.approx(math.e, rel=1e-15)
        assert base_derivative(BaseLoss.exponential(), 0.0) == 1.0

    def test_quartic_linear_curvature_vanishes_at_zero(self):
        base = BaseLoss.quartic_linear()
        assert base_second_derivative(base, 0.0) == 0.0
        assert base_derivative(base, 0.0) == 1.0
        assert base_value(base, 0.0) == 0.0

    def test_quartic_linear_offset_shifts_value_only(self):
        base = BaseLoss.quartic_linear(a=2.0, offset=3.0)
        assert base_value(base, 1.5) == pytest.approx(2 * 1.5 + 1.5**4 / 12 + 3.0)
        assert base_derivative(base, 1.5) == pytest.approx(2 + 1.5**3 / 3)

    def test_derivatives_match_finite_differences(self):
        grid = np.linspace(-4, 4, 301)
        h = 1e-6
        for base in ALL_BASES:
            fd = (base_value(base, grid + h) - base_value(base, grid - h)) / (2 * h)
            np.testing.assert_allclose(base_derivative(base, grid), fd, atol=1e-7)
            fd2 = (base_derivative(base, grid + h) - base_derivative(base, grid - h)) / (2 * h)
            np.testing.assert_allclose(base_second_derivative(base, grid), fd2, atol=1e-6)

    def test_invalid_kind_and_slope_rejected(self):
        with pytest.raises(DomainError):
            BaseLoss("huber")
        with pytest.raises(DomainError):
            BaseLoss.quartic_linear(a=0.0)


class TestSurrogateClosedForms:
    """Branch values of the canonical tau = 1 surrogates."""

    def test_exponential_symmetric_branches(self):
        spec = LinearCoreSpec(BaseLoss.exponential())
        assert lc_value(spec, 0.0) == pytest.approx(2.0, abs=1e-15)
        assert lc_value(spec, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert lc_value(spec, -2.0) == pytest.approx(math.e + 2.0, rel=1e-15)
        # Knot value agrees with the right-tail formula evaluated at the knot.
        assert lc_value(spec, 1.0) == pytest.approx(math.exp(1.0 - 1.0), abs=1e-15)

    def test_logistic_symmetric_center(self):
        spec = LinearCoreSpec(BaseLoss.logistic())
        assert lc_value(spec, 0.0) == pytest.approx(1.0 + 2.0 * math.log(2.0), abs=1e-14)

    def test_core_slope_and_one_sided_left_extension(self):
        exp_spec = LinearCoreSpec(BaseLoss.exponential())
        assert lc_derivative(exp_spec, 0.0) == -1.0
        assert lc_derivative(exp_spec, 1.0) == -1.0
        one = LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED)
        assert lc_derivative(one, -5.0) == -1.0
        # The one-sided variant stays affine left of the knot.
        assert lc_value(one, -5.0) == pytest.approx(5.0 + 1.0 + 2.0 * math.log(2.0))

    def test_generalized_width_branches(self):
        spec = LinearCoreSpec(BaseLoss.exponential(), tau=2.5)
        c0 = 1.0
        assert lc_value(spec, 0.0) == pytest.approx(2.5 + c0)
        assert lc_value(spec, 3.5) == pytest.approx(math.exp(2.5 - 3.5))
        assert lc_value(spec, -4.0) == pytest.approx(math.exp(-2.5 + 4.0) + 5.0)

    def test_second_derivative_branches(self):
        quartic = LinearCoreSpec(BaseLoss.quartic_linear())
        assert lc_branch_second_derivative(quartic, 1.0, LEFT) == 0.0
        assert lc_branch_second_derivative(quartic, 1.0, RIGHT) == 0.0
        exp_spec = LinearCoreSpec(BaseLoss.exponential())
        assert lc_branch_second_derivative(exp_spec, 1.0, LEFT) == 0.0
        assert lc_branch_second_derivative(exp_spec, 1.0, RIGHT) == pytest.approx(1.0)
        log_spec = LinearCoreSpec(BaseLoss.logistic())
        assert lc_branch_second_derivative(log_spec, 0.0, LEFT) == 0.0
        assert lc_branch_second_derivative(log_spec, 0.0, RIGHT) == 0.0


class TestSmoothness:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.base.kind}-{s.side}")
    def test_first_derivative_continuous(self, spec):
        """Central finite differences track the derivative across the knots."""
        grid = spec_grid(spec)
        h = 1e-6
        fd = (lc_value(spec, grid + h) - lc_value(spec, grid - h)) / (2 * h)
        np.testing.assert_allclose(lc_derivative(spec, grid), fd, atol=1e-4)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.base.kind}-{s.side}")
    def test_convex_on_random_triples(self, spec):
        rng = np.random.default_rng(11)
        triples = np.sort(rng.uniform(-9, 9, size=(100_000, 3)), axis=1)
        keep = (triples[:, 2] - triples[:, 0]) > 1e-9
        triples = triples[keep]
        lam = (triples[:, 1] - triples[:, 0]) / (triples[:, 2] - triples[:, 0])
        mid = lc_value(spec, triples[:, 1])
        chord = (1 - lam) * lc_value(spec, triples[:, 0]) + lam * lc_value(spec, triples[:, 2])
        assert np.all(mid <= chord + 1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.base.kind}-{s.side}")
    def test_derivative_monotone(self, spec):
        grid = np.linspace(-8, 8, 4001)
        slopes = lc_derivative(spec, grid)
        assert np.all(np.diff(slopes) >= -1e-12)

    @pytest.mark.parametrize("base", ALL_BASES, ids=lambda b: b.kind)
    def test_second_derivative_matches_slope_differences(self, base):
        spec = LinearCoreSpec(base)
        grid = np.linspace(-5, 5, 801)
        grid = grid[np.abs(np.abs(grid) - spec.tau) > 1e-2]
        h = 1e-5
        fd = (lc_derivative(spec, grid + h) - lc_derivative(spec, grid - h)) / (2 * h)
        got = lc_branch_second_derivative(spec, grid, LEFT)
        np.testing.assert_allclose(got, fd, atol=1e-3)

    def test_curvature_jump_at_knots_equals_normalized_base_curvature(self):
        """C2 holds exactly when the base has no curvature at the origin."""
        for base in ALL_BASES:
            spec = LinearCoreSpec(base)
            jump = lc_branch_second_derivative(spec, spec.tau, RIGHT) - lc_branch_second_derivative(
                spec, spec.tau, LEFT
            )
            expected = base.curvature_at_zero / base.slope_at_zero
            assert jump == pytest.approx(expected, abs=1e-12)

    def test_sides_agree_on_core_and_right_tail(self):
        for base in ALL_BASES:
            sym = LinearCoreSpec(base, side=SYMMETRIC)
            one = LinearCoreSpec(base, side=ONE_SIDED)
            grid = np.linspace(-1.0, 6.0, 500)
            np.testing.assert_array_equal(lc_value(sym, grid), lc_value(one, grid))
            left = np.linspace(-6.0, -1.001, 200)
            assert np.all(lc_value(sym, left) != lc_value(one, left))


# The six public functions as (spec, u) -> value, and the input forms they accept.
PUBLIC = {
    "base_value": lambda spec, u: base_value(spec.base, u),
    "base_derivative": lambda spec, u: base_derivative(spec.base, u),
    "base_second_derivative": lambda spec, u: base_second_derivative(spec.base, u),
    "lc_value": lc_value,
    "lc_derivative": lc_derivative,
    "lc_branch_second_derivative": lambda spec, u: lc_branch_second_derivative(spec, u, LEFT),
}
FORMS = {"array": lambda v: np.array([0.0, v]), "float": float, "float64": np.float64}


class TestGuards:
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("name", PUBLIC)
    def test_non_finite_input_rejected(self, name, form):
        for spec in ALL_SPECS:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError, match="must be finite"):
                    PUBLIC[name](spec, FORMS[form](bad))

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("name", PUBLIC)
    def test_exponential_overflow_is_checked(self, name, form):
        """A base rejects u > 700; a surrogate rejects |u| > 700 on either side."""
        fn, make = PUBLIC[name], FORMS[form]
        surrogate = name.startswith("lc_")
        for side in (SYMMETRIC, ONE_SIDED):
            spec = LinearCoreSpec(BaseLoss.exponential(), side=side)
            for point in (701.0, np.nextafter(700.0, np.inf)) + ((-701.0,) if surrogate else ()):
                with pytest.raises(EvaluationOverflowError):
                    fn(spec, make(point))
            for point in (700.0, -700.0) + (() if surrogate else (-701.0,)):
                assert np.all(np.isfinite(fn(spec, make(point))))
            # Logistic evaluates stably at the same magnitudes.
            spec = LinearCoreSpec(BaseLoss.logistic(), side=side)
            assert np.all(np.isfinite(fn(spec, make(-701.0))))
            assert np.all(np.isfinite(fn(spec, make(701.0))))

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("name", PUBLIC)
    @pytest.mark.parametrize("a", [1.0, 0.01])
    def test_quartic_overflow_is_checked(self, name, form, a):
        """Beyond ``1e77 * min(a, 1) ** 0.25`` a quartic-linear base and both
        surrogates raise; up to it they are finite, without a warning."""
        fn, make = PUBLIC[name], FORMS[form]
        limit = 1e77 * min(a, 1.0) ** 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for side in (SYMMETRIC, ONE_SIDED):
                spec = LinearCoreSpec(BaseLoss.quartic_linear(a=a), side=side)
                beyond = np.nextafter(limit, np.inf)
                for point in (beyond, -beyond, 1e200, -1e200):
                    with pytest.raises(EvaluationOverflowError):
                        fn(spec, make(point))
                for point in (limit, -limit, 0.5):
                    assert np.all(np.isfinite(fn(spec, make(point))))

    def test_quartic_tail_overflow_raises_instead_of_warning(self):
        """On [1e200, -1e200, 0.5] the quartic tail used to warn "overflow
        encountered in power" and return inf."""
        spec = LinearCoreSpec(BaseLoss.quartic_linear(), side=SYMMETRIC)
        u = np.array([1e200, -1e200, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: lc_value(spec, u),
                lambda: lc_derivative(spec, u),
                lambda: mc_sum_loss(spec, u, 0),
                lambda: mc_sum_loss_gradient(spec, u, 0),
            ):
                with pytest.raises(EvaluationOverflowError):
                    call()

    def test_degenerate_width_rejected(self):
        with pytest.raises(DomainError):
            LinearCoreSpec(BaseLoss.logistic(), tau=1e-13)
        with pytest.raises(DomainError):
            LinearCoreSpec(BaseLoss.logistic(), tau=0.0)

    def test_half_width_is_capped_where_the_core_stays_finite(self):
        """``tau = 1e308`` used to warn "overflow encountered in add" at
        ``u = -1.1e308``; past the cap it is rejected, and at the cap every
        finite ``u`` evaluates without a warning, down to the most negative float."""
        with pytest.raises(DomainError, match="core half-width"):
            LinearCoreSpec(BaseLoss.logistic(), tau=1e308)
        with pytest.raises(DomainError, match="core half-width"):
            LinearCoreSpec(BaseLoss.logistic(), tau=np.nextafter(1e290, np.inf))
        most = np.finfo(np.float64).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cases = ((ONE_SIDED, [-most, -1.1e308, 0.0, most]), (SYMMETRIC, [-8.9e307, 0.0, most]))
            for side, u in cases:
                spec = LinearCoreSpec(BaseLoss.logistic(), side=side, tau=1e290)
                for fn in (lc_value, lc_derivative):
                    assert np.isfinite(fn(spec, np.array(u))).all()

    def test_logistic_left_tail_overflow_raises_instead_of_warning(self):
        """``[-1e308, 0.5]`` used to warn "overflow encountered in divide" in
        the symmetric logistic left tail and return inf.  Its value raises
        past ``u = -8.9e307``; its bounded derivatives and the one-sided core
        stay finite there."""
        spec = LinearCoreSpec(BaseLoss.logistic())
        u = np.array([-1e308, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: lc_value(spec, u),
                lambda: lc_value(spec, -1e308),
                lambda: linear_core_margin_loss(spec).kernel(u, 0),
                lambda: lc_value(spec, np.array([np.nextafter(-8.9e307, -np.inf)])),
            ):
                with pytest.raises(EvaluationOverflowError, match="left-tail"):
                    call()
            assert np.isfinite(lc_value(spec, np.array([-8.9e307, 0.5]))).all()
            assert lc_derivative(spec, u).tolist() == [-2.0, lc_derivative(spec, 0.5)]
            assert np.isfinite(lc_branch_second_derivative(spec, u, LEFT)).all()
            assert np.isfinite(lc_value(LinearCoreSpec(BaseLoss.logistic(), side=ONE_SIDED), u)).all()

    def test_bad_side_and_side_limit(self):
        with pytest.raises(DomainError):
            LinearCoreSpec(BaseLoss.logistic(), side="both")
        with pytest.raises(DomainError):
            lc_branch_second_derivative(LinearCoreSpec(BaseLoss.logistic()), 0.0, "middle")


@given(
    u=st.floats(-50, 50),
    tau=st.floats(0.01, 5.0),
    kind=st.sampled_from(["logistic", "exponential", "quartic_linear"]),
)
@settings(max_examples=300, deadline=None)
def test_knot_continuity_property(u, tau, kind):
    """Values from adjacent branches meet at the knots for every width."""
    base = BaseLoss(kind)
    spec = LinearCoreSpec(base, tau=tau)
    eps = 1e-9
    for knot in (-tau, tau):
        lo = lc_value(spec, knot - eps)
        hi = lc_value(spec, knot + eps)
        assert abs(hi - lo) < 1e-6
    value = lc_value(spec, u)
    assert np.isfinite(value)


def _masked_lc_value(spec, u):
    """The surrogate with the core written through a boolean gather, as a reference."""
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    tau, slope0 = spec.tau, spec.base.slope_at_zero
    c0 = spec.base.value_at_zero / slope0
    out = np.empty_like(arr)
    right = arr > tau
    left = (arr < -tau) if spec.side == SYMMETRIC else np.zeros_like(right)
    core = ~(right | left)
    out[core] = -arr[core] + tau + c0
    if np.any(left):
        out[left] = base_value(spec.base, -tau - arr[left]) / slope0 + 2.0 * tau
    if np.any(right):
        out[right] = base_value(spec.base, tau - arr[right]) / slope0
    return out


def _masked_lc_derivative(spec, u):
    """The first derivative through boolean gathers, as a reference."""
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    tau, slope0 = spec.tau, spec.base.slope_at_zero
    out = np.full_like(arr, -1.0)
    right = arr > tau
    if np.any(right):
        out[right] = -base_derivative(spec.base, tau - arr[right]) / slope0
    left = (arr < -tau) if spec.side == SYMMETRIC else np.zeros_like(right)
    if np.any(left):
        out[left] = -base_derivative(spec.base, -tau - arr[left]) / slope0
    return out


def _masked_lc_second_derivative(spec, u, side_limit):
    """The second derivative of the branch approached from ``side_limit``, as a reference.

    At a knot, the left limit takes the branch just below the point and the
    right limit the branch just above it.
    """
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    tau, slope0 = spec.tau, spec.base.slope_at_zero
    out = np.zeros_like(arr)
    right = (arr >= tau) if side_limit == RIGHT else (arr > tau)
    left = ((arr <= -tau) if side_limit == LEFT else (arr < -tau)) & (spec.side == SYMMETRIC)
    if np.any(right):
        out[right] = base_second_derivative(spec.base, tau - arr[right]) / slope0
    if np.any(left):
        out[left] = base_second_derivative(spec.base, -tau - arr[left]) / slope0
    return out


# Each surrogate quantity with its masked reference, both as (spec, u) -> value.
MASKED = {
    "value": (lc_value, _masked_lc_value),
    "derivative": (lc_derivative, _masked_lc_derivative),
    "second_left": (
        lambda spec, u: lc_branch_second_derivative(spec, u, LEFT),
        lambda spec, u: _masked_lc_second_derivative(spec, u, LEFT),
    ),
    "second_right": (
        lambda spec, u: lc_branch_second_derivative(spec, u, RIGHT),
        lambda spec, u: _masked_lc_second_derivative(spec, u, RIGHT),
    ),
}


@pytest.mark.parametrize("quantity", MASKED)
@pytest.mark.parametrize(
    "spec",
    ALL_SPECS
    + [
        LinearCoreSpec(BaseLoss.logistic(), tau=0.3),
        LinearCoreSpec(BaseLoss.quartic_linear(a=0.7, offset=0.3), tau=1.3),
    ],
)
def test_surrogate_matches_masked_reference_bitwise(spec, quantity):
    """Every input layout gives the reference's bytes in a C-contiguous array.

    The tails scatter by flat index into the output, so a layout where that
    scatter landed in a copy would return core values in the tails; each
    layout below holds entries of both tails, and the check that the tail
    entries differ from the core expression makes such a loss visible
    even where a tail meets the core."""
    fn, reference = MASKED[quantity]
    rng = np.random.default_rng(17)
    flat = np.concatenate([spec_grid(spec), rng.normal(scale=5.0, size=500)])
    u = flat.reshape(-1, 8)
    cube = flat[:1500].reshape(10, 15, 10)
    layouts = {
        "1-d": flat,
        "2-d": u,
        "3-d": cube,
        "transposed": u.T,
        "strided": flat[::2],
        "strided 3-d": cube[:, ::2, 1::3],
        "fortran": np.asfortranarray(u),
        "fortran 3-d": np.asfortranarray(cube),
    }
    for name, arr in layouts.items():
        got, want = fn(spec, arr), reference(spec, arr).reshape(arr.shape)
        assert got.shape == arr.shape and got.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name
        tails = (arr > spec.tau + 1.0) | ((arr < -spec.tau - 1.0) & (spec.side == SYMMETRIC))
        assert np.any(arr > spec.tau + 1.0) and np.any(arr < -spec.tau - 1.0), name
        core = {"value": spec.tau - arr + spec.intercept, "derivative": -1.0}.get(quantity, 0.0)
        assert np.all((got != core)[tails]), name
    for point in (0.0, spec.tau, -spec.tau, 0.5 * spec.tau, -3.0 - spec.tau, 2.0 + spec.tau):
        for value in (point, np.float64(point), np.array(point)):
            got = fn(spec, value)
            assert type(got) is float
            assert np.float64(got).tobytes() == reference(spec, point).tobytes()


@pytest.mark.parametrize("base", ALL_BASES + [BaseLoss.quartic_linear(a=0.7, offset=0.3)])
def test_intercept_is_computed_once_per_spec(base):
    """The cached intercept is ``Phi(0)/Phi'(0)`` and leaves equality and hashing alone."""
    spec = LinearCoreSpec(base, tau=0.8)
    assert "intercept" not in vars(spec)
    want = base.value_at_zero / base.slope_at_zero
    assert np.float64(spec.intercept).tobytes() == np.float64(want).tobytes()
    assert vars(spec)["intercept"] is spec.intercept
    twin = LinearCoreSpec(base, tau=0.8)
    assert spec == twin and hash(spec) == hash(twin)


@pytest.mark.parametrize("spec", ALL_SPECS + [LinearCoreSpec(BaseLoss.exponential(), tau=900.0)])
def test_float_derivative_fast_path_matches_array_path(spec):
    """Every float returns the same value or raises the same error as a 1-element array."""
    rng = np.random.default_rng(18)
    points = list(spec_grid(spec, n=201)) + list(rng.normal(scale=4.0, size=200))
    points += [np.nextafter(spec.tau, np.inf), np.nextafter(-spec.tau, -np.inf), -800.0, 800.0, -0.0]
    for point in points:
        for value in (float(point), np.float64(point)):
            try:
                want = lc_derivative(spec, np.array([value]))[0]
            except EvaluationOverflowError:
                with pytest.raises(EvaluationOverflowError):
                    lc_derivative(spec, value)
                continue
            got = lc_derivative(spec, value)
            assert type(got) is float and np.float64(got).tobytes() == want.tobytes()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            lc_derivative(spec, bad)


# ----------------------------------------------------------------------
# MarginLoss: one unchecked kernel behind the checked value and derivative
# ----------------------------------------------------------------------

_KERNEL_BASES = ALL_BASES + [BaseLoss.quartic_linear(a=0.7, offset=0.3)]
_KERNEL_TAUS = [0.05, 0.5, 1.0, 5.0]


def _public_pair(base, side, tau):
    """A margin loss and its value and derivative through the public checked functions."""
    if side == "plain":
        return (
            plain_margin_loss(base),
            lambda u: base_value(base, -u),
            lambda u: -base_derivative(base, -u),
        )
    spec = LinearCoreSpec(base, side=side, tau=tau)
    return linear_core_margin_loss(spec), partial(lc_value, spec), partial(lc_derivative, spec)


def _result(fn):
    try:
        return np.asarray(fn())
    except EvaluationOverflowError:
        return EvaluationOverflowError


@given(
    base=st.sampled_from(_KERNEL_BASES),
    side=st.sampled_from([SYMMETRIC, ONE_SIDED, "plain"]),
    tau=st.sampled_from(_KERNEL_TAUS),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_margin_loss_kernel_matches_the_public_functions_bitwise(base, side, tau, data):
    """``loss.kernel(arr, k)`` gives the bits of ``lc_value``/``lc_derivative``
    (or ``Phi(-u)``/``-Phi'(-u)`` for a plain loss), as do the checked
    ``loss.value``/``loss.derivative``, and all raise
    ``EvaluationOverflowError`` on the same exponential inputs."""
    loss, value, derivative = _public_pair(base, side, tau)
    special = [tau, -tau, 0.0, -0.0, 700.0, -700.0, np.nextafter(700.0, 701.0), -700.5]
    point = st.one_of(st.sampled_from(special), st.floats(-700.0, 700.0))
    u = np.array(data.draw(st.lists(point, min_size=1, max_size=12)))
    before = u.tobytes()
    for order, (public, checked) in enumerate(((value, loss.value), (derivative, loss.derivative))):
        want = _result(lambda: public(u))
        for got in (_result(lambda: loss.kernel(u, order)), _result(lambda: checked(u))):
            if want is EvaluationOverflowError:
                assert got is EvaluationOverflowError
            else:
                assert got is not EvaluationOverflowError
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        if want is not EvaluationOverflowError:
            first = checked(float(u[0]))
            assert type(first) is float and np.float64(first).tobytes() == want[:1].tobytes()
    assert u.tobytes() == before


@pytest.mark.parametrize("side", [SYMMETRIC, "plain"])
def test_margin_loss_checked_wrappers_reject_non_finite_input(side):
    loss, _, _ = _public_pair(BaseLoss.exponential(), side, 1.0)
    for bad in (math.nan, math.inf, [0.0, -math.inf]):
        with pytest.raises(DomainError):
            loss.value(bad)
        with pytest.raises(DomainError):
            loss.derivative(bad)
