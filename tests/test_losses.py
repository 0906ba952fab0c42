import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothbench import (
    LossSpec,
    NonSmoothLossError,
    make_absolute,
    make_piecewise_quadlin,
    make_smooth_ramp,
    make_squared,
    make_squared_unhalved,
    pair_bound_residual,
    self_bound_residual,
)

from probes import probe_smoothness

SMOOTH_LOSSES = [
    make_squared(),
    make_squared_unhalved(),
    make_smooth_ramp(1.0),
    make_smooth_ramp(0.5),
    make_piecewise_quadlin(),
]


def random_domain_points(loss, rng, m):
    t = rng.uniform(*loss.t_domain, size=m)
    y = rng.uniform(*loss.y_domain, size=m)
    return t, y


class TestSquared:
    def test_values(self):
        sq = make_squared()
        assert float(sq.value(3, 1)) == 2.0
        assert float(sq.derivative(3, 1)) == 2.0
        ys = np.linspace(-1, 1, 17)
        assert np.all(sq.value(ys, ys) == 0.0)

    def test_metadata(self):
        sq = make_squared()
        assert sq.smoothness_H == 1.0
        assert sq.range_bound_b == 12.5  # corner (4, -1)
        assert sq.is_smooth and sq.is_convex


class TestSmoothRamp:
    def test_bridge_values(self):
        ramp = make_smooth_ramp(1.0)
        assert float(ramp.value(0.5, 1.0)) == pytest.approx(0.5, abs=1e-15)
        assert float(ramp.value(0.0, 1.0)) == 1.0
        assert float(ramp.value(1.0, 1.0)) == 0.0

    def test_margin_form(self):
        # the loss acts on the margin y*t: flipping both leaves it unchanged
        ramp = make_smooth_ramp(1.0)
        assert float(ramp.value(-0.3, -1.0)) == float(ramp.value(0.3, 1.0))

    def test_smoothness_constant_vs_second_difference_oracle(self):
        ramp = make_smooth_ramp(1.0)
        t = np.linspace(-0.5, 1.5, 1_000_001)
        h = t[1] - t[0]
        vals = ramp.value(t, 1.0)
        second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
        assert float(np.max(np.abs(second))) == pytest.approx(
            math.pi**2 / 2, abs=1e-3
        )
        assert ramp.smoothness_H == math.pi**2 / 2

    def test_sandwiches_zero_one_losses(self):
        ramp = make_smooth_ramp(0.7)
        t = np.linspace(-2, 2, 401)
        margins = t  # y = 1
        vals = ramp.value(t, 1.0)
        zero_one = (margins <= 0).astype(float)
        margin_loss = (margins < 0.7).astype(float)
        assert np.all(vals >= zero_one - 1e-15)
        assert np.all(vals <= margin_loss + 1e-15)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            make_smooth_ramp(0.0)
        with pytest.raises(ValueError):
            make_smooth_ramp(-1.0)


class TestPiecewiseQuadlin:
    def test_branch_values(self):
        ql = make_piecewise_quadlin()
        assert float(ql.value(0.25, 0)) == 0.0625
        assert float(ql.value(1, 0)) == 0.75

    def test_c1_junction(self):
        ql = make_piecewise_quadlin()
        assert float(ql.derivative(0.5, 0)) == 1.0
        for eps in (1e-6, 1e-9, 1e-12):
            assert float(ql.derivative(0.5 + eps, 0)) == 1.0
            assert float(ql.derivative(0.5 - eps, 0)) == pytest.approx(1.0, abs=3e-6)

    def test_declared_smoothness(self):
        assert make_piecewise_quadlin().smoothness_H == 2.0


class TestAbsolute:
    def test_values(self):
        ab = make_absolute()
        assert float(ab.value(0.5, 0.2)) == pytest.approx(0.3, abs=1e-15)
        assert float(ab.derivative(1, 0)) == 1.0
        assert float(ab.derivative(0.3, 0.3)) == 0.0  # sign(0) = 0

    def test_smoothness_query_signals(self):
        ab = make_absolute()
        with pytest.raises(NonSmoothLossError):
            ab.smoothness_H
        with pytest.raises(NonSmoothLossError):
            self_bound_residual(ab, 1.0, 0.0)
        with pytest.raises(NonSmoothLossError):
            pair_bound_residual(ab, 1.0, 0.0, 0.0)
        with pytest.raises(NonSmoothLossError):
            probe_smoothness(ab, 100)


class TestSelfBound:
    def test_hand_values(self):
        sq = make_squared()
        assert float(self_bound_residual(sq, 3, 1)) == pytest.approx(
            2 * math.sqrt(2) - 2, abs=1e-12
        )
        # at a zero of phi with phi' = 0 the residual vanishes
        assert float(self_bound_residual(sq, 0.7, 0.7)) == 0.0
        ramp = make_smooth_ramp(1.0)
        assert float(self_bound_residual(ramp, 0.5, 1.0)) == pytest.approx(
            math.pi - math.pi / 2, abs=1e-12
        )

    @pytest.mark.parametrize("loss", SMOOTH_LOSSES, ids=lambda l: l.name)
    def test_nonnegative_on_random_grid(self, loss):
        rng = np.random.default_rng(7)
        t, y = random_domain_points(loss, rng, 10_000)
        res = self_bound_residual(loss, t, y)
        assert float(np.min(res)) >= -1e-9


class TestPairBound:
    def test_hand_values(self):
        sq = make_squared()
        assert float(pair_bound_residual(sq, 2, 0, 0)) == 44.0
        assert float(pair_bound_residual(sq, 1.3, 1.3, 0.2)) == 0.0

    def test_ramp_grid(self):
        ramp = make_smooth_ramp(1.0)
        rng = np.random.default_rng(11)
        t = rng.uniform(-2, 2, size=10_000)
        r = rng.uniform(-2, 2, size=10_000)
        res = pair_bound_residual(ramp, t, r, 1.0)
        assert float(np.min(res)) >= -1e-9

    @pytest.mark.parametrize("loss", SMOOTH_LOSSES, ids=lambda l: l.name)
    def test_nonnegative_on_random_triples(self, loss):
        rng = np.random.default_rng(13)
        t, y = random_domain_points(loss, rng, 10_000)
        r = rng.uniform(*loss.t_domain, size=10_000)
        res = pair_bound_residual(loss, t, r, y)
        assert float(np.min(res)) >= -1e-9


class TestProbeSmoothness:
    def test_squared_exact(self):
        assert probe_smoothness(make_squared(), 1001) == pytest.approx(1.0, abs=1e-12)

    def test_ramp(self):
        assert probe_smoothness(make_smooth_ramp(2.0), 200_001) == pytest.approx(
            math.pi**2 / 8, abs=1e-3
        )

    def test_quadlin(self):
        assert probe_smoothness(make_piecewise_quadlin(), 200_001) == pytest.approx(
            2.0, abs=1e-6
        )

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            probe_smoothness(make_squared(), 9)

    @pytest.mark.parametrize("loss", SMOOTH_LOSSES, ids=lambda l: l.name)
    def test_declared_constant_is_valid_and_tight(self, loss):
        probed = probe_smoothness(loss, 20_001)
        assert probed <= loss.smoothness_H * (1 + 1e-6)
        assert probed >= 0.5 * loss.smoothness_H


@pytest.mark.parametrize("loss", SMOOTH_LOSSES, ids=lambda l: l.name)
def test_finite_difference_derivative(loss):
    rng = np.random.default_rng(17)
    h = 1e-5
    lo, hi = loss.t_domain
    t = rng.uniform(lo + 2 * h, hi - 2 * h, size=2_000)
    y = rng.uniform(*loss.y_domain, size=2_000)
    central = (loss.value(t + h, y) - loss.value(t - h, y)) / (2 * h)
    err = np.abs(central - loss.derivative(t, y))
    assert float(np.max(err)) <= loss.smoothness_H * h + 1e-8


@pytest.mark.parametrize("loss", SMOOTH_LOSSES, ids=lambda l: l.name)
def test_values_nonnegative_and_bounded(loss):
    rng = np.random.default_rng(19)
    t, y = random_domain_points(loss, rng, 10_000)
    vals = loss.value(t, y)
    assert float(np.min(vals)) >= 0.0
    assert float(np.max(np.abs(vals))) <= loss.range_bound_b + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(-4.0, 4.0),
    y=st.floats(-1.0, 1.0),
    loss=st.sampled_from(
        [make_squared(), make_piecewise_quadlin(), make_smooth_ramp(1.0), make_smooth_ramp(0.25)]
    ),
)
def test_self_bound_property(t, y, loss):
    assert float(self_bound_residual(loss, t, y)) >= -1e-9


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(-4.0, 4.0),
    r=st.floats(-4.0, 4.0),
    y=st.floats(-1.0, 1.0),
    loss=st.sampled_from([make_squared(), make_piecewise_quadlin(), make_smooth_ramp(1.0)]),
)
def test_pair_bound_property(t, r, y, loss):
    assert float(pair_bound_residual(loss, t, r, y)) >= -1e-9


def test_factories_build_each_spec_once():
    assert make_squared() is make_squared()
    assert make_smooth_ramp(0.5) is make_smooth_ramp(0.5)
    assert make_smooth_ramp(0.5) is not make_smooth_ramp(0.25)
    assert make_piecewise_quadlin() is make_piecewise_quadlin()


@pytest.mark.parametrize(
    "make", [make_squared, make_squared_unhalved, make_piecewise_quadlin, make_absolute]
)
def test_range_bound_is_the_grid_max(make):
    # the reference: max |phi| over a 201 x 201 grid of the domain
    spec = make()
    tt, yy = np.meshgrid(np.linspace(*spec.t_domain, 201), np.linspace(*spec.y_domain, 201))
    assert spec.range_bound_b == float(np.max(np.abs(spec.value(tt, yy))))


# closed forms in r = t - y: (value, derivative), written independently of the module
DIFFERENCE_CLOSED_FORMS = {
    make_squared: (lambda r: r**2 / 2, lambda r: r),
    make_squared_unhalved: (lambda r: r**2, lambda r: 2 * r),
    make_piecewise_quadlin: (
        lambda r: np.where(np.abs(r) <= 0.5, r**2, np.abs(r) - 0.25),
        lambda r: np.where(np.abs(r) <= 0.5, 2 * r, np.sign(r)),
    ),
    make_absolute: (np.abs, np.sign),
}


@pytest.mark.parametrize("make", DIFFERENCE_CLOSED_FORMS, ids=lambda m: m().name)
def test_difference_losses_match_closed_forms_bit_for_bit(make):
    # quarter steps: r = t - y hits 0, the quadlin seam +-1/2 and the corner (4, -1)
    t = np.linspace(-4.0, 4.0, 33)[:, None]
    y = np.linspace(-1.0, 1.0, 9)[None, :]
    value, derivative = DIFFERENCE_CLOSED_FORMS[make]
    spec = make()
    r = t - y
    assert {0.0, 0.5, -0.5, 5.0} <= set(r.ravel().tolist())
    assert np.array_equal(spec.value(t, y), value(r))
    assert np.array_equal(spec.derivative(t, y), derivative(r))
    assert spec.range_bound_b == float(value(np.float64(5.0)))


def test_smoothness_is_declared_by_the_constant_alone():
    sq = make_squared()
    undeclared = LossSpec("x", sq.value, sq.derivative, 12.5)
    assert not undeclared.is_smooth
    with pytest.raises(NonSmoothLossError):
        undeclared.smoothness_H
    assert sq.is_smooth and not make_absolute().is_smooth
