import json
from pathlib import Path

import numpy as np
import pytest
from conftest import NoOscillationError, estimate_frequency, spectral_bin_width
from hypothesis import given, settings
from hypothesis import strategies as st

from singletsim.analysis import (
    FitInputError,
    _exponential_report,
    _lorentzian,
    _oscillation,
    _rabi_report,
    _ramsey_report,
    evaluate_model,
    fit_exponential,
    fit_lorentzian,
    fit_rabi,
    fit_ramsey,
    levenberg_marquardt,
)
from singletsim.cli import load_config
from singletsim.sequences import run_protocol

RABI_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "glutamate_rabi.json"


def rabi_model(t, amp, freq, off, t_decay, mode="sin2"):
    osc = np.sin(np.pi * freq * t) ** 2 if mode == "sin2" else np.cos(np.pi * freq * t) ** 2
    return amp * (osc + off) * np.exp(-t / t_decay)


def ramsey_model(t, amp, freq, phi, off, t2, ts, sign=1):
    return amp * (sign * np.cos(2 * np.pi * freq * t - phi) * np.exp(-t / t2) + off) * np.exp(-t / ts)


def finite_difference_jacobian(model_fn, x, p, eps=1e-7):
    """Central-difference Jacobian of model_fn(x, p); the oracle for the analytic ones."""
    p = np.asarray(p, dtype=float)
    cols = []
    for j in range(p.size):
        dp = np.zeros_like(p)
        dp[j] = eps * max(1.0, abs(p[j]))
        cols.append((model_fn(x, p + dp) - model_fn(x, p - dp)) / (2 * dp[j]))
    return np.column_stack(cols)


class TestEstimateFrequency:
    def test_pure_cosine(self):
        t = np.arange(0.0, 4.0, 0.02)  # 50 Hz sampling for 4 s
        y = np.cos(2 * np.pi * 2.57 * t + 0.3)
        assert abs(estimate_frequency((t, y)) - 2.57) < 0.02

    def test_constant_trace(self):
        t = np.linspace(0, 1, 64)
        with pytest.raises(NoOscillationError):
            estimate_frequency((t, np.full(64, 0.7)))

    def test_sin_squared_peaks_at_f_not_2f(self):
        t = np.arange(0.0, 4.0, 0.02)
        y = np.sin(np.pi * 2.0 * t) ** 2
        assert abs(estimate_frequency((t, y)) - 2.0) < 0.02

    def test_needs_uniform_sampling(self):
        t = np.array([0.0, 0.1, 0.15, 0.4, 0.5, 0.6, 0.7, 0.8])
        with pytest.raises(FitInputError, match="uniform"):
            estimate_frequency((t, np.sin(t)))

    def test_too_few_samples(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(FitInputError):
            estimate_frequency((t, np.sin(t)))


class TestNoiselessRoundTrips:
    def test_rabi(self):
        t = np.linspace(0.01, 3.0, 200)
        truth = dict(amp=1.0, freq=2.57, off=0.1, t_decay=1.6)
        y = rabi_model(t, **truth)
        fit = fit_rabi((t, y))
        assert fit.converged
        assert abs(fit.params["amplitude"] - 1.0) < 1e-6
        assert abs(fit.params["frequency_hz"] / 2.57 - 1) < 1e-6
        assert abs(fit.params["offset"] / 0.1 - 1) < 1e-6
        assert abs(fit.params["t_rabi_s"] / 1.6 - 1) < 1e-6

    def test_rabi_cos2_mode(self):
        t = np.linspace(0.01, 3.0, 200)
        y = rabi_model(t, 0.8, 2.0, 0.05, 2.5, mode="cos2")
        fit = fit_rabi((t, y), mode="cos2")
        assert abs(fit.params["frequency_hz"] / 2.0 - 1) < 1e-6

    def test_ramsey(self):
        # parameter point matching the documented coherence measurement
        t = np.linspace(0.01, 8.0, 400)
        y = ramsey_model(t, 1.0, 2.33, np.deg2rad(20.0), 0.2, 1.3, 4.4)
        fit = fit_ramsey((t, y), sign=1)
        assert fit.converged
        for key, value in [
            ("amplitude", 1.0),
            ("frequency_hz", 2.33),
            ("phase_rad", np.deg2rad(20.0)),
            ("offset", 0.2),
            ("t2s_star_s", 1.3),
            ("t_s_s", 4.4),
        ]:
            assert abs(fit.params[key] / value - 1) < 1e-6, key

    def test_ramsey_sign_variants_agree_in_frequency(self):
        t = np.linspace(0.01, 6.0, 300)
        y_plus = ramsey_model(t, 0.9, 2.3, 0.2, 0.1, 1.3, 4.4, sign=1)
        y_minus = ramsey_model(t, 0.9, 2.3, 0.2, 0.1, 1.3, 4.4, sign=-1)
        f_plus = fit_ramsey((t, y_plus), sign=1).params["frequency_hz"]
        f_minus = fit_ramsey((t, y_minus), sign=-1).params["frequency_hz"]
        assert abs(f_plus - f_minus) < 1e-9

    def test_lorentzian(self):
        x = np.linspace(-8.0, 12.0, 81)
        g = (4.3 / 2) ** 2
        y = 0.03 + 0.9 * g / ((x - 2.25) ** 2 + g)
        fit = fit_lorentzian((x, y))
        assert abs(fit.params["center"] / 2.25 - 1) < 1e-6
        assert abs(fit.params["fwhm"] / 4.3 - 1) < 1e-6
        assert abs(fit.params["height"] / 0.9 - 1) < 1e-6

    def test_lorentzian_dip(self):
        # a dip starts from its bottom, not as a peak at the sweep's edge
        x = np.linspace(-8.0, 12.0, 81)
        g = (4.3 / 2) ** 2
        y = 1.0 - 0.9 * g / ((x - 2.25) ** 2 + g) + np.random.default_rng(0).normal(0.0, 0.05, x.size)
        fit = fit_lorentzian((x, y))
        assert fit.converged and fit.params["height"] < 0
        assert abs(fit.params["center"] - 2.25) < 0.3
        assert abs(fit.params["fwhm"] / 4.3 - 1) < 0.2

    def test_lorentzian_symmetric_data_centers_midpoint(self):
        x = np.linspace(-5.0, 5.0, 41)
        y = 1.0 / (x**2 + 1.0)
        fit = fit_lorentzian((x, y))
        assert abs(fit.params["center"]) < 1e-9

    def test_exponential(self):
        t = np.linspace(0.0, 1.0, 100)
        y = 1.0 * np.exp(-t / 0.205) + 0.1
        fit = fit_exponential((t, y))
        assert abs(fit.params["t_s"] / 0.205 - 1) < 1e-6
        assert abs(fit.params["amplitude"] / 1.0 - 1) < 1e-6

    def test_two_level_contrast_curve_is_lorentzian(self):
        # transfer contrast vs detuning is exactly Lorentzian with FWHM 4C
        from conftest import EffectiveTwoLevel

        c = 1.285
        detunings = np.linspace(-12.0, 12.0, 97)
        contrast = np.array(
            [EffectiveTwoLevel(de / 2, -de / 2, c).transfer_contrast for de in detunings]
        )
        fit = fit_lorentzian((detunings, contrast))
        assert abs(fit.params["fwhm"] / (4 * c) - 1) < 1e-6
        assert abs(fit.params["center"]) < 1e-9
        assert abs(fit.params["height"] - 1.0) < 1e-6

    def test_randomized_round_trips(self):
        # every model recovers its own noiseless data over random
        # physical-range parameter draws
        rng = np.random.default_rng(11)
        t = np.linspace(0.01, 4.0, 300)
        for _ in range(10):
            truth = dict(
                amp=rng.uniform(0.3, 2.0),
                freq=rng.uniform(0.8, 6.0),
                off=rng.uniform(0.0, 0.4),
                t_decay=rng.uniform(0.8, 6.0),
            )
            fit = fit_rabi((t, rabi_model(t, **truth)))
            assert abs(fit.params["frequency_hz"] / truth["freq"] - 1) < 1e-6
            assert abs(fit.params["t_rabi_s"] / truth["t_decay"] - 1) < 1e-6
        for _ in range(10):
            amp = rng.uniform(0.3, 2.0)
            freq = rng.uniform(0.8, 4.0)
            phi = rng.uniform(-1.0, 1.0)
            off = rng.uniform(0.0, 0.4)
            t2 = rng.uniform(0.8, 3.0)
            ts = rng.uniform(2.0, 8.0)
            fit = fit_ramsey((t, ramsey_model(t, amp, freq, phi, off, t2, ts)))
            assert abs(fit.params["frequency_hz"] / freq - 1) < 1e-6
            assert abs(fit.params["t2s_star_s"] / t2 - 1) < 1e-6
            assert abs(fit.params["t_s_s"] / ts - 1) < 1e-6
        x = np.linspace(-10.0, 14.0, 97)
        for _ in range(10):
            center = rng.uniform(-2.0, 5.0)
            fwhm = rng.uniform(1.0, 6.0)
            height = rng.uniform(0.3, 2.0)
            base = rng.uniform(-0.2, 0.3)
            y = base + height * (fwhm / 2) ** 2 / ((x - center) ** 2 + (fwhm / 2) ** 2)
            fit = fit_lorentzian((x, y))
            assert abs(fit.params["center"] - center) < 1e-6 * max(1, abs(center))
            assert abs(fit.params["fwhm"] / fwhm - 1) < 1e-6
        te = np.linspace(0.0, 2.0, 200)
        for _ in range(10):
            amp = rng.uniform(0.3, 2.0)
            t_const = rng.uniform(0.1, 1.5)
            off = rng.uniform(-0.2, 0.4)
            fit = fit_exponential((te, amp * np.exp(-te / t_const) + off))
            assert abs(fit.params["t_s"] / t_const - 1) < 1e-6
            assert abs(fit.params["amplitude"] / amp - 1) < 1e-6


class TestDegenerateData:
    def test_flat_rabi_reports_zero_amplitude(self):
        t = np.linspace(0, 1, 50)
        fit = fit_rabi((t, np.full(50, 0.3)))
        assert fit.params["amplitude"] == 0.0
        assert fit.converged

    def test_constant_exponential_reports_zero_amplitude(self):
        t = np.linspace(0, 1, 50)
        fit = fit_exponential((t, np.full(50, 0.4)))
        assert fit.params["amplitude"] == 0.0
        assert abs(fit.params["offset"] - 0.4) < 1e-12

    def test_profiled_grid_skips_singular_points(self):
        # at late times the fast decay columns underflow, some to subnormals, and their normal
        # equations are singular: those grid points are skipped, with no warning
        from singletsim.analysis import _grid_start

        t = np.linspace(0.0, 5.0, 60) + 300.0
        rates = np.geomspace(0.05, 50.0, 64) / 5.0
        assert np.exp(-rates[-1] * t[0]) == 0.0
        y = 0.5 * np.exp(-(t - t[0]) / 0.7) + 0.1
        q = _grid_start(t, y, np.zeros(1), rates, np.zeros_like(rates))
        amp, off, rate = q[0], q[2], q[4]
        assert np.isfinite(amp) and np.isfinite(off) and rate in rates[:-1]

    def test_sample_count_preconditions(self):
        t = np.linspace(0, 1, 6)
        y = np.sin(t)
        with pytest.raises(FitInputError):
            fit_rabi((t, y))
        with pytest.raises(FitInputError):
            fit_ramsey((np.linspace(0, 1, 10), np.sin(np.linspace(0, 1, 10))))
        with pytest.raises(FitInputError):
            fit_lorentzian((t[:4], y[:4]))

    TIME_SERIES = {
        "rabi": (fit_rabi, lambda t: np.sin(np.pi * 2.57 * t) ** 2),
        "ramsey": (fit_ramsey, lambda t: np.cos(2 * np.pi * 2.33 * t - 0.3) * np.exp(-t / 1.3) + 0.2),
        "exponential": (fit_exponential, lambda t: np.exp(-t / 0.205) + 0.1),
    }

    @pytest.mark.parametrize("order", ["reversed", "doubled"])
    @pytest.mark.parametrize("model", list(TIME_SERIES))
    def test_time_series_must_be_strictly_increasing(self, model, order):
        fitter, curve = self.TIME_SERIES[model]
        t = np.linspace(0.01, 3.0, 150)
        t = t[::-1] if order == "reversed" else np.repeat(t, 2)
        with pytest.raises(FitInputError, match="strictly increasing"):
            fitter((t, curve(t)))

    @pytest.mark.parametrize("order", ["rising", "falling"])
    def test_lorentzian_takes_any_order(self, order):
        # a scan's detunings fall; one point above half maximum, so the width seed is the grid step
        x = np.linspace(-10.0, 10.0, 21)
        x = x if order == "rising" else x[::-1]
        fit = fit_lorentzian((x, 0.1 + 0.8 * 0.25 / ((x - 0.2) ** 2 + 0.25)))
        assert fit.converged
        assert fit.params["center"] == pytest.approx(0.2, abs=1e-9)
        assert fit.params["fwhm"] == pytest.approx(1.0, abs=1e-9)


# q = (a, b, k, f, r2, rs) of Rabi (A = 0.9, c = 0.15), Ramsey (A = 0.8, phi = 0.4, c = 0.1) and the exponential
RABI_Q = [-0.45, 0.0, 0.585, 2.4, 0.0, 0.6]  # sin2: a = -A/2, k = A (1/2 + c)
RAMSEY_Q = [0.8 * np.cos(0.4), 0.8 * np.sin(0.4), 0.08, 2.3, 0.7, 0.25]  # s = 1: (a, b) = s A (cos phi, sin phi)
EXPONENTIAL_Q = [0.9, 0.0, 0.1, 0.0, 3.0, 0.0]


def flip(q, *entries):
    q = np.array(q)
    q[list(entries)] *= -1
    return q


class TestAnalyticJacobians:
    # finite differences as the oracle for the analytic Jacobians
    @pytest.mark.parametrize(
        "function, p, x",
        [
            (_oscillation, RABI_Q, np.linspace(0.01, 3.0, 60)),
            (_oscillation, RABI_Q[:5] + [0.0], np.linspace(0.01, 3.0, 60)),
            (_oscillation, flip(RABI_Q, 0), np.linspace(0.01, 3.0, 60)),
            (_oscillation, flip(RABI_Q[:5] + [0.0], 0), np.linspace(0.01, 3.0, 60)),
            (_oscillation, RAMSEY_Q, np.linspace(0.01, 4.0, 80)),
            (_oscillation, flip(RAMSEY_Q, 0, 1), np.linspace(0.01, 4.0, 80)),
            (_lorentzian, [1.5, 2.2, 0.9, 0.05], np.linspace(-6.0, 9.0, 61)),
            (_oscillation, EXPONENTIAL_Q, np.linspace(0.0, 1.5, 50)),
        ],
        ids=[
            "rabi_sin2_decay", "rabi_sin2", "rabi_cos2_decay", "rabi_cos2",
            "ramsey_plus", "ramsey_minus", "lorentzian", "exponential",
        ],
    )
    def test_model_jacobian(self, function, p, x):
        p = np.array(p)
        values, analytic = function(x, p)
        numeric = finite_difference_jacobian(lambda xv, q: function(xv, q)[0], x, p)
        assert analytic.shape == (x.size, p.size)
        assert np.max(np.abs(analytic - numeric)) < 1e-6 * max(1.0, np.max(np.abs(values)))

    @pytest.mark.parametrize(
        "report, q, sign, curve",
        [
            (_rabi_report, RABI_Q, 1, lambda t, p: rabi_model(t, *p[:3], 1 / p[3], "sin2")),
            (_rabi_report, flip(RABI_Q, 0), -1, lambda t, p: rabi_model(t, *p[:3], 1 / p[3], "cos2")),
            (_ramsey_report, RAMSEY_Q, 1, lambda t, p: ramsey_model(t, *p[:4], 1 / p[4], 1 / p[5], 1)),
            (_ramsey_report, flip(RAMSEY_Q, 0, 1), -1, lambda t, p: ramsey_model(t, *p[:4], 1 / p[4], 1 / p[5], -1)),
            (_exponential_report, EXPONENTIAL_Q, 1, lambda t, p: p[0] * np.exp(-p[1] * t) + p[2]),
        ],
        ids=["rabi_sin2", "rabi_cos2", "ramsey_plus", "ramsey_minus", "exponential"],
    )
    def test_report_map(self, report, q, sign, curve):
        # the reported parameters draw the curve q draws, and the map's Jacobian is its derivative
        q, t = np.array(q), np.linspace(0.01, 4.0, 80)
        values, analytic = report(q, sign)
        assert np.allclose(curve(t, values), _oscillation(t, q)[0], rtol=0, atol=1e-14)
        numeric = finite_difference_jacobian(lambda _, p: report(p, sign)[0], None, q)
        assert analytic.shape == (values.size, q.size)
        assert np.max(np.abs(analytic - numeric)) < 1e-6 * max(1.0, np.max(np.abs(values)))

    def test_reported_uncertainties_are_those_of_the_reported_parameters(self):
        # the delta method through a report map gives sqrt(diag((J^T J)^-1) chi2_red), J the
        # Jacobian of the model in its reported parameters, taken at the reported point
        rng = np.random.default_rng(29)
        t_rabi, t_ramsey = np.linspace(0.01, 3.2, 240), np.linspace(0.01, 8.0, 700)
        y_rabi = rabi_model(t_rabi, 1.0, 2.57, 0.1, 1.6) + rng.normal(0, 0.05, t_rabi.size)
        y_ramsey = ramsey_model(t_ramsey, 1.0, 2.33, 0.4, 0.2, 1.3, 4.4, sign=-1) + rng.normal(0, 0.05, t_ramsey.size)
        cases = [
            (t_rabi, fit_rabi((t_rabi, y_rabi)), lambda x, p: rabi_model(x, *p),
             ["amplitude", "frequency_hz", "offset", "t_rabi_s"]),
            (t_ramsey, fit_ramsey((t_ramsey, y_ramsey), sign=-1), lambda x, p: ramsey_model(x, *p, sign=-1),
             ["amplitude", "frequency_hz", "phase_rad", "offset", "t2s_star_s", "t_s_s"]),
        ]
        for t, fit, model, names in cases:
            jac = finite_difference_jacobian(model, t, [fit.params[k] for k in names])
            expected = np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)) * fit.reduced_chi_square)
            assert [fit.uncertainties[k] for k in names] == pytest.approx(expected, rel=1e-6), fit.model

    def test_fitted_jacobians_match_finite_differences(self):
        # drive each fitter once and compare its internal model against a
        # finite-difference evaluation through evaluate_model
        t = np.linspace(0.01, 5.0, 200)
        y = ramsey_model(t, 0.7, 1.9, 0.4, 0.1, 1.1, 3.0)
        fit = fit_ramsey((t, y))
        curve = evaluate_model(fit, t)
        assert np.max(np.abs(curve - y)) < 1e-6

        x = np.linspace(-4, 8, 61)
        yl = 0.1 + 0.5 * 1.0 / ((x - 1.5) ** 2 + 1.0)
        fl = fit_lorentzian((x, yl))
        assert np.max(np.abs(evaluate_model(fl, x) - yl)) < 1e-6


class TestFitProperties:
    def test_vertical_scaling_leaves_shape_parameters(self):
        t = np.linspace(0.01, 3.0, 200)
        y = rabi_model(t, 1.0, 2.57, 0.1, 1.6)
        a = fit_rabi((t, y))
        b = fit_rabi((t, 7.3 * y))
        assert abs(a.params["frequency_hz"] - b.params["frequency_hz"]) < 1e-9
        assert abs(a.params["t_rabi_s"] - b.params["t_rabi_s"]) < 1e-7
        assert abs(b.params["amplitude"] / a.params["amplitude"] - 7.3) < 1e-6

    def test_fit_agrees_with_spectral_estimate(self):
        t = np.linspace(0.0, 4.0, 240)
        y = rabi_model(t, 1.0, 2.57, 0.1, 100.0)
        fit = fit_rabi((t, y))
        est = estimate_frequency((t, y))
        assert abs(fit.params["frequency_hz"] - est) <= spectral_bin_width((t, y))

    def test_uncertainty_scales_inversely_with_snr(self):
        t = np.linspace(0.01, 3.2, 240)
        y0 = rabi_model(t, 1.0, 2.57, 0.1, 1.6)
        sigmas = {}
        for snr in (5, 100):
            errs = []
            for seed in range(12):
                noise = np.random.default_rng(seed).normal(0, 1.0 / snr, t.size)
                fit = fit_rabi((t, y0 + noise))
                errs.append(fit.params["frequency_hz"] - 2.57)
            sigmas[snr] = np.std(errs)
        ratio = sigmas[5] / sigmas[100]
        assert 10.0 < ratio < 40.0  # 20x within a factor of 2

    def test_phase_unbiased_at_high_snr(self):
        t = np.linspace(0.01, 6.0, 400)
        y0 = ramsey_model(t, 1.0, 2.33, 0.0, 0.2, 1.3, 4.4)
        for seed in range(5):
            y = y0 + np.random.default_rng(seed).normal(0, 1.0 / 50, t.size)
            fit = fit_ramsey((t, y))
            assert abs(np.rad2deg(fit.params["phase_rad"])) < 2.0

    def test_ramsey_fits_are_canonical_over_the_phase_circle(self):
        # A >= 0 and phi in (-pi, pi] for every fit, whatever the true phase
        t = np.linspace(0.01, 6.0, 240)
        rng = np.random.default_rng(20)
        for k in range(40):
            phi = -np.pi + 2 * np.pi * (k + rng.uniform()) / 40
            sign = 1 if k % 2 == 0 else -1
            y0 = ramsey_model(t, 1.0, rng.uniform(2.0, 2.6), phi, 0.2, 1.3, 4.4, sign=sign)
            fit = fit_ramsey((t, y0 + rng.normal(0, 1.0 / 20, t.size)), sign=sign)
            assert fit.sign == sign
            assert fit.params["amplitude"] >= 0.0
            assert -np.pi < fit.params["phase_rad"] <= np.pi
            miss = np.angle(np.exp(1j * (fit.params["phase_rad"] - phi)))
            assert abs(miss) < 6 * fit.uncertainties["phase_rad"]

    @pytest.mark.parametrize("mode", ["sin2", "cos2"])
    @pytest.mark.parametrize("with_decay", [True, False], ids=["decay", "no_decay"])
    def test_flat_rabi_trace_draws_its_level(self, mode, with_decay):
        # reported as no transfer, but the stored vector draws the level
        t = np.linspace(0.0, 2.0, 40)
        fit = fit_rabi((t, np.full(t.size, 0.3)), mode=mode, with_decay=with_decay)
        assert fit.params["amplitude"] == 0.0 and fit.params["frequency_hz"] == 0.0
        assert fit.params["offset"] == pytest.approx(0.3, rel=1e-15)
        assert ("t_rabi_s" in fit.params) == with_decay
        assert np.allclose(evaluate_model(fit, np.linspace(0.0, 3.0, 17)), 0.3, rtol=1e-15, atol=0)

    def test_flat_exponential_trace_draws_its_level(self):
        t = np.linspace(0.0, 2.0, 40)
        fit = fit_exponential((t, np.full(t.size, -0.2)))
        assert fit.params == {"amplitude": 0.0, "t_s": np.inf, "offset": pytest.approx(-0.2)}
        assert np.allclose(evaluate_model(fit, t), -0.2, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_flat_ramsey_trace_draws_its_level(self, sign):
        # no amplitude, so no phase and no times: the level is the offset, with exact zero uncertainties
        t = np.linspace(0.0, 2.0, 60)
        fit = fit_ramsey((t, np.full(t.size, 0.3)), sign=sign)
        assert fit.converged and fit.sign == sign
        assert fit.params == {"amplitude": 0.0, "frequency_hz": 0.0, "phase_rad": 0.0,
                              "offset": pytest.approx(0.3, rel=1e-15), "t2s_star_s": np.inf, "t_s_s": np.inf}
        assert fit.uncertainties == dict.fromkeys(fit.params, 0.0)
        assert np.allclose(evaluate_model(fit, np.linspace(0.0, 3.0, 17)), 0.3, rtol=1e-15, atol=0)

    def test_levenberg_marquardt_return_contract(self, monkeypatch):
        # perfbench's tracer wraps analysis.levenberg_marquardt by name and
        # reads items 3 (converged) and 4 (iterations) of its return; each
        # time-series fit calls it once, from the best point of its grid
        import singletsim.analysis as analysis

        t = np.linspace(0.01, 3.2, 240)
        traces = {
            fit_rabi: rabi_model(t, 1.0, 2.57, 0.1, 1.6),
            fit_ramsey: ramsey_model(t, 1.0, 2.33, 0.4, 0.2, 1.3, 4.4),
            fit_exponential: 0.9 * np.exp(-t / 0.7) + 0.1,
        }
        real_lm = analysis.levenberg_marquardt
        calls = []

        def counted(*args, **kwargs):
            out = real_lm(*args, **kwargs)
            calls.append(out)
            return out

        monkeypatch.setattr(analysis, "levenberg_marquardt", counted)
        for fitter, y in traces.items():
            calls.clear()
            fit = fitter((t, y))
            assert len(calls) == 1, fitter.__name__
            out = calls[0]
            assert len(out) == 5
            assert type(out[3]) is bool and type(out[4]) is int
            assert out[3] and fit.converged, fitter.__name__

    def test_phase_wrap_keeps_pi_and_maps_minus_pi_to_pi(self):
        from singletsim.analysis import _wrap_phase

        assert _wrap_phase(np.pi) == np.pi
        assert _wrap_phase(-np.pi) == np.pi
        assert abs(_wrap_phase(-6 * np.pi - 0.0033) + 0.0033) < 1e-12
        assert abs(_wrap_phase(3 * np.pi / 2) + np.pi / 2) < 1e-12

    def test_evaluate_model_honours_negative_ramsey_sign(self):
        t = np.linspace(0.01, 6.0, 300)
        y = ramsey_model(t, 0.9, 2.3, 0.2, 0.1, 1.3, 4.4, sign=-1)
        fit = fit_ramsey((t, y), sign=-1)
        assert fit.sign == -1
        assert np.max(np.abs(evaluate_model(fit, t) - y)) < 1e-6

    def test_negative_ramsey_sign_curve_file(self, tmp_path):
        from singletsim.cli import cmd_fit

        t = np.linspace(0.01, 6.0, 300)
        truth = (0.9, 2.3, 0.2, 0.1, 1.3, 4.4)
        trace = tmp_path / "trace.csv"
        y = ramsey_model(t, *truth, sign=-1)
        trace.write_text("\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(t, y)) + "\n")
        cmd_fit(trace, "ramsey", tmp_path / "fit.json", sign=-1)
        assert json.loads((tmp_path / "fit.json").read_text())["sign"] == -1
        curve = np.loadtxt(tmp_path / "fit_curve.csv", delimiter=",", comments="#")
        expected = ramsey_model(curve[:, 0], *truth, sign=-1)
        assert np.max(np.abs(curve[:, 1] - expected)) < 1e-6

    def test_reported_uncertainty_tracks_ensemble_scatter(self):
        t = np.linspace(0.01, 3.2, 240)
        y0 = rabi_model(t, 1.0, 2.57, 0.1, 1.6)
        reported, observed = [], []
        for seed in range(20):
            y = y0 + np.random.default_rng(seed).normal(0, 0.05, t.size)
            fit = fit_rabi((t, y))
            reported.append(fit.uncertainties["frequency_hz"])
            observed.append(fit.params["frequency_hz"] - 2.57)
        assert 0.3 < np.mean(reported) / np.std(observed) < 3.0


RAMSEY_CASES = settings(max_examples=12, deadline=None, derandomize=True)


class TestRamseyPhaseProperties:
    t = np.linspace(0.01, 6.0, 240)

    @RAMSEY_CASES
    @given(
        amp=st.floats(0.3, 2.0),
        freq=st.floats(1.5, 3.5),
        phi=st.floats(-np.pi, np.pi),
        shift=st.floats(-12.0, 12.0),
        sign=st.sampled_from([1, -1]),
    )
    def test_phase_shift_leaves_frequency_and_amplitude(self, amp, freq, phi, shift, sign):
        fits = [
            fit_ramsey((self.t, ramsey_model(self.t, amp, freq, p, 0.1, 1.3, 4.4, sign)), sign=sign)
            for p in (phi, phi + shift)
        ]
        for key in ("frequency_hz", "amplitude"):
            assert fits[1].params[key] == pytest.approx(fits[0].params[key], rel=1e-6), key

    @RAMSEY_CASES
    @given(phi=st.floats(-40.0, 40.0), sign=st.sampled_from([1, -1]))
    def test_fitted_phase_is_wrapped(self, phi, sign):
        fit = fit_ramsey((self.t, ramsey_model(self.t, 0.9, 2.3, phi, 0.1, 1.3, 4.4, sign)), sign=sign)
        assert -np.pi < fit.params["phase_rad"] <= np.pi
        assert abs(np.angle(np.exp(1j * (fit.params["phase_rad"] - phi)))) < 1e-6


class TestNonUniformSweeps:
    """Fits on sorted random sweep times find the true frequency: the start grid needs no uniform step."""

    def test_rabi_on_random_times(self):
        misses = []
        for seed in range(50):
            rng = np.random.default_rng([seed, 125])
            t = np.sort(rng.uniform(0.02, 2.5, 125))
            freq = rng.uniform(2.0, 3.0)
            y = 0.8 * rabi_model(t, 1.0, freq, 0.1, 1.6) + rng.normal(0, 0.01, t.size)
            fit = fit_rabi((t, y))
            if not (fit.converged and abs(fit.params["frequency_hz"] / freq - 1) < 0.02):
                misses.append((seed, freq, fit.params["frequency_hz"]))
        assert misses == []

    def test_ramsey_on_random_times(self):
        misses = []
        for seed in range(30):
            rng = np.random.default_rng([seed, 300])
            t = np.sort(rng.uniform(0.01, 8.0, 300))
            freq, phi = rng.uniform(2.0, 2.6), rng.uniform(-np.pi, np.pi)
            y = ramsey_model(t, 1.0, freq, phi, 0.2, 1.3, 4.4) + rng.normal(0, 0.05, t.size)
            fit = fit_ramsey((t, y))
            if not (fit.converged and abs(fit.params["frequency_hz"] / freq - 1) < 0.02):
                misses.append((seed, freq, fit.params["frequency_hz"]))
        assert misses == []


class TestBounds:
    """A parameter on a bound whose descent points out of the box is held there, with a zero step."""

    def test_levenberg_marquardt_holds_a_rate_at_zero(self):
        # a rising trace asks for a negative decay rate; the fit stops at r = 0 and converges
        x = np.linspace(0.0, 1.0, 30)

        def decay(x, p):
            e = np.exp(-p[1] * x)
            return p[0] * e, np.column_stack([e, -p[0] * x * e])

        p, rss, _, converged, iterations = levenberg_marquardt(
            decay, x, 1.0 + 0.3 * x, np.array([1.0, 0.5]), np.array([-np.inf, 0.0]), np.full(2, np.inf))
        assert converged and iterations < 20
        assert p[1] == 0.0
        assert p[0] == pytest.approx(1.15, rel=1e-9)  # the mean of the trace

    def test_rabi_decay_fit_of_an_undamped_trace(self, tmp_path):
        # the shipped Rabi config without its envelope: the fitted decay rate ends on its bound r = 0,
        # and the other parameters are those of the fit without decay
        cfg = json.loads(RABI_CONFIG.read_text())
        del cfg["envelope"]
        (tmp_path / "rabi.json").write_text(json.dumps(cfg))
        config = load_config(tmp_path / "rabi.json")
        trace = run_protocol(config.system, config.protocol, config.envelope)
        fit, plain = fit_rabi(trace), fit_rabi(trace, with_decay=False)
        assert fit.converged
        assert fit.params["t_rabi_s"] == np.inf
        for key, value in plain.params.items():
            assert fit.params[key] == pytest.approx(value, rel=1e-9), key
        assert fit.rss == pytest.approx(plain.rss, rel=1e-12)
