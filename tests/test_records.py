import math

import numpy as np
import pytest

from conewise import InvalidSpecError, records
from conewise.records import LyapunovSamples, PersistenceCurve, log_tau_grid


def test_empty_curve_is_typed():
    with pytest.raises(InvalidSpecError, match="Q0"):
        PersistenceCurve.from_first_change_times([1, 2, 3], 5, grid=[])
    with pytest.raises(InvalidSpecError, match="Q0"):
        PersistenceCurve(tau=[], q0=[], stderr=[])


@pytest.mark.parametrize(
    "q0, stderr, match",
    [
        ([1.0, 0.5, 0.4, np.nan], [0.0, 0.1, 0.1, 0.1], "lie in"),
        ([1.0, 0.5, 0.4, np.inf], [0.0, 0.1, 0.1, 0.1], "lie in"),
        ([1.0, 0.5, 0.4, -0.1], [0.0, 0.1, 0.1, 0.1], "lie in"),
        ([1.0, 0.5, 0.4, 0.3], [0.0, 0.1, -0.1, 0.1], "standard errors"),
        ([1.0, 0.5, 0.4, 0.3], [0.0, 0.1, np.nan, 0.1], "standard errors"),
        ([1.0, 0.5, 0.4, 0.3], [0.0, np.inf, 0.1, 0.1], "standard errors"),
    ],
    ids=["q0-nan", "q0-inf", "q0-negative", "stderr-negative", "stderr-nan", "stderr-inf"],
)
def test_curve_values_are_checked(q0, stderr, match):
    # a NaN q0 passed the monotone check, and positive_part then dropped it
    with pytest.raises(InvalidSpecError, match=match):
        PersistenceCurve(tau=[0, 1, 2, 3], q0=q0, stderr=stderr)


def test_grid_must_increase_within_horizon():
    # 3 of the 5 realizations survive the horizon; nothing is known past it
    times = [1, 2, 11, 11, 11]
    # a 2-D grid used to fail with a bare ValueError (truth value of an array)
    for grid in ([0, 5, 10, 11, 20], [0, 5, 5, 10], [0, 7, 3], [[0, 1]]):
        with pytest.raises(InvalidSpecError, match="grid"):
            PersistenceCurve.from_first_change_times(times, horizon=10, grid=grid)
    curve = PersistenceCurve.from_first_change_times(times, horizon=10, grid=[0, 5, 10])
    assert curve.q0.tolist() == [1.0, 0.6, 0.6]


def test_grid_points_must_be_integers():
    times = [1, 2, 11, 11, 11]
    # [0, 2.2, 2.7] would otherwise read as a repeated point 2
    for grid in ([0, 2.5, 9.9], [0, 2.2, 2.7], [0, 3, float("nan")], [0, 3, float("inf")]):
        with pytest.raises(InvalidSpecError, match="grid points must be finite integers"):
            PersistenceCurve.from_first_change_times(times, horizon=10, grid=grid)
    curve = PersistenceCurve.from_first_change_times(times, horizon=10, grid=[0.0, 2.0, 10.0])
    assert curve.tau.tolist() == [0, 2, 10] and curve.q0.tolist() == [1.0, 0.6, 0.6]


@pytest.mark.parametrize(
    "tau, shown",
    [
        ([0, 1.5, 3], "finite integers"),
        ([0, math.nan, 3], "finite integers"),
        ([0, 3, 1], "strictly increase"),
        ([0, 1, 1], "strictly increase"),
        ([[0, 1, 2]], "1-D"),
    ],
    ids=["fractional", "nan", "decreasing", "repeated", "two-d"],
)
def test_curve_tau_follows_the_grid_rule(tau, shown):
    # [0, 1.5, 3] used to be read as [0, 1, 3]; decreasing and repeated
    # points passed; NaN and 2-D raised a bare ValueError
    shape = np.shape(tau)
    q0, stderr = np.reshape([1.0, 0.5, 0.2], shape), np.reshape([0.0, 0.1, 0.1], shape)
    with pytest.raises(InvalidSpecError, match=shown):
        PersistenceCurve(tau, q0, stderr)


@pytest.mark.parametrize(
    "times, shown",
    [
        ([1.5, 2, 3], "finite integers"),
        ([math.nan, 2, 3], "finite integers"),
        ([0, 2, 3], ">= 1"),
        ([-1, 2, 3], ">= 1"),
        ([[1, 2, 3]], "1-D"),
    ],
    ids=["fractional", "nan", "zero", "negative", "two-d"],
)
def test_first_change_times_are_integers_from_one(times, shown):
    # [1.5, 2, 3] built a curve, a NaN counted as a survivor, and [0, 2, 3]
    # raised "curves start at Q0(0) = 1"
    with pytest.raises(InvalidSpecError, match=shown):
        PersistenceCurve.from_first_change_times(times, 5)


def test_grid_is_checked_once_per_curve(monkeypatch):
    calls = []
    check = records._grid_points
    monkeypatch.setattr(records, "_grid_points", lambda grid: calls.append(1) or check(grid))
    curve = PersistenceCurve.from_first_change_times([1, 2, 11], 10, grid=[0, 2, 10])
    assert len(calls) == 1 and curve.q0.tolist() == [1.0, 1 / 3, 1 / 3]


def test_log_tau_grid_arguments():
    assert log_tau_grid(0).tolist() == [0]
    assert log_tau_grid(1).tolist() == [0, 1]
    assert log_tau_grid(10, points=2).tolist() == [0, 1, 10]
    for horizon, shown in ((2.5, "2.5"), (-1, "-1"), (True, "True")):
        with pytest.raises(InvalidSpecError, match=f"integer >= 0, got {shown}"):
            log_tau_grid(horizon)
    for points in (0, 1, 2.0):
        with pytest.raises(InvalidSpecError, match=f"integer >= 2 points, got {points}"):
            log_tau_grid(100, points=points)


def test_lyapunov_samples_normalize_from_their_rates():
    none = np.zeros(3, dtype=bool)
    samples = LyapunovSamples([1.0, 2.0, 3.0], (1.0, 3.0), none, none)
    assert samples.rates == (1.0, 3.0)
    assert np.array_equal(samples.normalized, [0.0, 0.5, 1.0])
    same = LyapunovSamples([1.0, 2.0, 3.0], (2.0, 2.0), none, none)
    assert np.array_equal(same.normalized, np.zeros(3))


@pytest.mark.parametrize(
    "rates", [(math.inf, 1.0), (math.nan, 1.0), (0.0, -math.inf), (1, 2, 3), 1.0, ("a", 1.0)]
)
def test_lyapunov_rates_must_be_finite(rates):
    # (inf, 1) raised a bare RuntimeWarning under -W error; (nan, 1) gave NaN
    # normalized values; three rates or one raised a bare ValueError or
    # TypeError
    none = np.zeros(3, dtype=bool)
    with pytest.raises(InvalidSpecError, match="edge rates must be finite"):
        LyapunovSamples([1.0, 2.0, 3.0], rates, none, none)


@pytest.mark.parametrize("trapped, cycling", [(np.zeros(2), np.zeros(3)), (np.zeros(3), np.zeros(4))])
def test_lyapunov_flags_share_the_values_shape(trapped, cycling):
    with pytest.raises(InvalidSpecError, match="shape"):
        LyapunovSamples([1.0, 2.0, 3.0], (1.0, 3.0), trapped, cycling)
