import json

import numpy as np
import pytest
from conftest import NoOscillationError, estimate_frequency, spectral_bin_width
from hypothesis import given, settings
from hypothesis import strategies as st

from singletsim.analysis import (
    EXPONENTIAL,
    LORENTZIAN,
    RABI,
    RAMSEY,
    FitInputError,
    evaluate_model,
    fit_exponential,
    fit_lorentzian,
    fit_rabi,
    fit_ramsey,
)


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
        from singletsim.hamiltonian import EffectiveTwoLevel

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

    def test_sample_count_preconditions(self):
        t = np.linspace(0, 1, 6)
        y = np.sin(t)
        with pytest.raises(FitInputError):
            fit_rabi((t, y))
        with pytest.raises(FitInputError):
            fit_ramsey((np.linspace(0, 1, 10), np.sin(np.linspace(0, 1, 10))))
        with pytest.raises(FitInputError):
            fit_lorentzian((t[:4], y[:4]))


class TestAnalyticJacobians:
    # finite differences as the oracle for the analytic Jacobians
    @pytest.mark.parametrize(
        "model, p, sign, x",
        [
            (RABI, [0.9, 2.4, 0.15, 0.6], 1, np.linspace(0.01, 3.0, 60)),
            (RABI, [0.9, 2.4, 0.15], 1, np.linspace(0.01, 3.0, 60)),
            (RABI, [0.9, 2.4, 0.15, 0.6], -1, np.linspace(0.01, 3.0, 60)),
            (RABI, [0.9, 2.4, 0.15], -1, np.linspace(0.01, 3.0, 60)),
            (RAMSEY, [0.8, 2.3, 0.4, 0.1, 0.7, 0.25], 1, np.linspace(0.01, 4.0, 80)),
            (RAMSEY, [0.8, 2.3, 0.4, 0.1, 0.7, 0.25], -1, np.linspace(0.01, 4.0, 80)),
            (LORENTZIAN, [1.5, 2.2, 0.9, 0.05], 1, np.linspace(-6.0, 9.0, 61)),
            (EXPONENTIAL, [0.9, 3.0, 0.1], 1, np.linspace(0.0, 1.5, 50)),
        ],
        ids=[
            "rabi_sin2_decay", "rabi_sin2", "rabi_cos2_decay", "rabi_cos2",
            "ramsey_plus", "ramsey_minus", "lorentzian", "exponential",
        ],
    )
    def test_model_jacobian(self, model, p, sign, x):
        p = np.array(p)
        values, analytic = model.function(x, p, sign)
        numeric = finite_difference_jacobian(lambda xv, q: model.function(xv, q, sign)[0], x, p)
        assert analytic.shape == (x.size, p.size)
        assert np.max(np.abs(analytic - numeric)) < 1e-6 * max(1.0, np.max(np.abs(values)))

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

    def test_negative_amplitude_answer_is_folded(self, monkeypatch):
        # hand fit_ramsey the A < 0 twin of the least-squares answer, several
        # turns away in phase, and check that it comes back canonical
        import singletsim.analysis as analysis

        t = np.linspace(0.01, 6.0, 300)
        y = ramsey_model(t, 0.9, 2.3, 2.8, 0.1, 1.3, 4.4)
        plain = fit_ramsey((t, y))
        real_multi_start = analysis._multi_start
        raw = {}

        def twin_multi_start(*args, **kwargs):
            p, rss, cov, converged, iters = real_multi_start(*args, **kwargs)
            flip = np.array([-1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
            p = p * flip + np.array([0.0, 0.0, np.pi - 6 * np.pi, 0.0, 0.0, 0.0])
            raw["p"] = p
            return p, rss, flip[:, None] * cov * flip[None, :], converged, iters

        monkeypatch.setattr(analysis, "_multi_start", twin_multi_start)
        fit = fit_ramsey((t, y))
        assert raw["p"][0] < 0 and raw["p"][2] < -np.pi
        assert fit.params["amplitude"] > 0
        for key in ("amplitude", "phase_rad", "offset"):
            assert abs(fit.params[key] - plain.params[key]) < 1e-9, key
        for key in plain.params:
            assert fit.uncertainties[key] == pytest.approx(plain.uncertainties[key], rel=1e-12), key
        assert np.allclose(fit.covariance, plain.covariance, rtol=1e-12, atol=0)
        assert np.max(np.abs(evaluate_model(fit, t) - y)) < 1e-6

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
