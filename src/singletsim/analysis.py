"""Least-squares fitting of the transfer/coherence model functions.

Model set:

* rabi:        I(t) = A [sin^2(pi f t) + c] exp(-t / T)        (or cos^2)
* ramsey:      I(t) = A [s cos(2 pi f t - phi) exp(-t / T2s) + c] exp(-t / Ts)
* lorentzian:  I(x) = b + h (w/2)^2 / ((x - x0)^2 + (w/2)^2)
* exponential: I(t) = A exp(-t / T) + c

Each model is stated once, as a ``FitModel`` record (``RABI``, ``RAMSEY``,
``LORENTZIAN``, ``EXPONENTIAL``) that drives both its fit and
``evaluate_model``.  Fits use a damped (Levenberg-Marquardt) least-squares
loop with analytic Jacobians; decay times are handled internally as rates
so that "no decay" is the well-behaved point r = 0.  The oscillatory fits
start from up to three local maxima of the zero-padded discrete spectrum
(`_spectral_peak_candidates`), or from sub-period frequencies when it has
none.

Ramsey fits are returned in canonical form: A >= 0 and phi in (-pi, pi].
A fit with A < 0 is the same curve as (-A, phi + pi, -c), and phi is only
defined modulo 2 pi.  The sign s is fixed by the caller, not fitted, and is
recorded in ``FitResult.sign``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .trace import Trace

MAX_ITERATIONS = 200
RSS_REL_TOL = 1e-12
STEP_NORM_TOL = 1e-12


class FitInputError(ValueError):
    """Raised for data that does not meet a fit's preconditions."""


@dataclass
class FitResult:
    """Parameter estimates with 1-sigma uncertainties and fit diagnostics."""

    model: str
    params: dict[str, float]
    uncertainties: dict[str, float]
    rss: float
    reduced_chi_square: float
    converged: bool
    n_iterations: int
    covariance: np.ndarray | None = None
    sign: int = 1  # fixed model sign s: Ramsey s, -1 for a cos2 Rabi fit, else 1


@dataclass(frozen=True)
class FitModel:
    """A fit model, stated once.

    function(x, p, sign) returns the model values and the Jacobian columns
    for the internal parameter vector p, whose entries ``names`` labels.
    Decay times are fitted as rates; ``times`` maps each rate to the time
    it is reported as (T = 1/r, infinite for r = 0).
    """

    function: Callable[..., tuple[np.ndarray, np.ndarray]]
    names: tuple[str, ...]
    times: dict[str, str] = field(default_factory=dict)

    def internal(self, params: dict[str, float]) -> np.ndarray:
        """Internal vector for reported params (T -> 1/T, inf -> 0).

        A rate whose time is absent from params was not fitted and is left
        out, as in a Rabi fit without decay.
        """
        values = []
        for name in self.names:
            reported = self.times.get(name, name)
            if reported not in params:
                continue
            value = params[reported]
            if name in self.times:
                value = 1.0 / value if np.isfinite(value) else 0.0
            values.append(value)
        return np.array(values)


def _rabi(x, p, sign=1):
    """A [sin^2(pi f x) + c] exp(-r x), cos^2 for sign -1; r = 0 when p has no rate."""
    amp, freq, off = p[:3]
    rate = p[3] if len(p) == 4 else 0.0
    phase = np.pi * freq * x
    osc = np.sin(phase) ** 2 if sign > 0 else np.cos(phase) ** 2
    decay = np.exp(-rate * x)
    model = amp * (osc + off) * decay
    d_osc_df = sign * np.pi * x * np.sin(2 * phase)
    cols = [(osc + off) * decay, amp * d_osc_df * decay, amp * decay]
    if len(p) == 4:
        cols.append(-x * model)
    return model, np.column_stack(cols)


def _ramsey(x, p, sign=1):
    """A [s cos(2 pi f x - phi) exp(-r2 x) + c] exp(-rs x)."""
    amp, freq, phi, off, r2, rs = p
    theta = 2 * np.pi * freq * x - phi
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    d2, ds = np.exp(-r2 * x), np.exp(-rs * x)
    osc = sign * cos_t * d2
    model = amp * (osc + off) * ds
    cols = [
        (osc + off) * ds,
        amp * (-sign * sin_t * 2 * np.pi * x) * d2 * ds,
        amp * (sign * sin_t) * d2 * ds,
        amp * ds,
        amp * (-x) * sign * cos_t * d2 * ds,
        -x * model,
    ]
    return model, np.column_stack(cols)


def _lorentzian(x, p, sign=1):
    """b + h (w/2)^2 / ((x - x0)^2 + (w/2)^2); the sign is unused."""
    center, fwhm, height, baseline = p
    half = fwhm / 2.0
    g = half**2
    dx = x - center
    denom = dx**2 + g
    lor = g / denom
    model = baseline + height * lor
    cols = [
        height * g * 2 * dx / denom**2,
        height * half * dx**2 / denom**2,
        lor,
        np.ones_like(x),
    ]
    return model, np.column_stack(cols)


def _exponential(x, p, sign=1):
    """A exp(-r x) + c; the sign is unused."""
    amp, rate, off = p
    decay = np.exp(-rate * x)
    model = amp * decay + off
    return model, np.column_stack([decay, -amp * x * decay, np.ones_like(x)])


RABI = FitModel(_rabi, ("amplitude", "frequency_hz", "offset", "rate"), {"rate": "t_rabi_s"})
RAMSEY = FitModel(
    _ramsey,
    ("amplitude", "frequency_hz", "phase_rad", "offset", "rate2", "rate_s"),
    {"rate2": "t2s_star_s", "rate_s": "t_s_s"},
)
LORENTZIAN = FitModel(_lorentzian, ("center", "fwhm", "height", "baseline"))
EXPONENTIAL = FitModel(_exponential, ("amplitude", "rate", "offset"), {"rate": "t_s"})

# FitResult.model -> record
MODELS = {
    "sin2": RABI,
    "cos2": RABI,
    "ramsey": RAMSEY,
    "lorentzian": LORENTZIAN,
    "exponential": EXPONENTIAL,
}


def _trace_xy(trace) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(trace, Trace):
        return trace.sweep_values, trace.observable
    x, y = trace
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def _spectral_peak_candidates(t: np.ndarray, y: np.ndarray, k: int = 3) -> list[float]:
    """Up to k local spectral maxima by decreasing power (fit seeds)."""
    steps = np.diff(t)
    if t.size < 8 or steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.max():
        return []
    dt = steps.mean()
    n_pad = 8 * t.size
    power = np.abs(np.fft.rfft(y - y.mean(), n_pad)) ** 2
    freqs = np.fft.rfftfreq(n_pad, dt)
    lo = np.searchsorted(freqs, 0.5 / (t[-1] - t[0]))
    peaks = [
        (power[i], freqs[i])
        for i in range(max(lo, 1), power.size - 1)
        if power[i] >= power[i - 1] and power[i] > power[i + 1]
    ]
    peaks.sort(reverse=True)
    out: list[float] = []
    for _, f in peaks:
        if all(abs(f - g) > 0.5 / (t[-1] - t[0]) for g in out):
            out.append(float(f))
        if len(out) == k:
            break
    return out


def levenberg_marquardt(
    model_and_jacobian,
    x: np.ndarray,
    y: np.ndarray,
    p0: np.ndarray,
    lower_bounds: np.ndarray | None = None,
    upper_bounds: np.ndarray | None = None,
):
    """Damped least squares on y - model(x; p).

    Returns (params, rss, unscaled_covariance, converged, iterations).
    Terminates on relative RSS change < 1e-12, step norm < 1e-12, or the
    iteration cap.  Bounds are enforced by projection.
    """

    def clip(q):
        if lower_bounds is not None:
            q = np.maximum(q, lower_bounds)
        if upper_bounds is not None:
            q = np.minimum(q, upper_bounds)
        return q

    p = clip(np.array(p0, dtype=float))
    model, jac = model_and_jacobian(x, p)
    residual = y - model
    rss = float(residual @ residual)
    lam = 1e-3
    converged = False
    iterations = 0
    while iterations < MAX_ITERATIONS:
        iterations += 1
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1e-30
        jtr = jac.T @ residual
        try:
            step = np.linalg.solve(jtj + lam * np.diag(diag), jtr)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        p_new = clip(p + step)
        model_new, jac_new = model_and_jacobian(x, p_new)
        residual_new = y - model_new
        rss_new = float(residual_new @ residual_new)
        if rss_new <= rss:
            drop = rss - rss_new
            p, model, jac, residual, rss = p_new, model_new, jac_new, residual_new, rss_new
            lam = max(lam / 9.0, 1e-12)
            if drop <= RSS_REL_TOL * max(rss, 1e-300) or np.linalg.norm(step) < STEP_NORM_TOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    return p, rss, cov, converged, iterations


def _finish(
    model_name: str,
    model: FitModel,
    p: np.ndarray,
    rss: float,
    cov_unscaled: np.ndarray,
    converged: bool,
    iterations: int,
    n_points: int,
    sign: int = 1,
) -> FitResult:
    """Assemble a FitResult, converting internal rates to reported times."""
    dof = max(n_points - p.size, 1)
    reduced = rss / dof
    cov = cov_unscaled * reduced
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    params: dict[str, float] = {}
    uncertainties: dict[str, float] = {}
    for name, value, err in zip(model.names, p, sigma):
        if name in model.times:
            name = model.times[name]
            if value > 0:
                params[name] = 1.0 / value
                uncertainties[name] = err / value**2
            else:
                params[name] = math.inf
                uncertainties[name] = math.inf
        else:
            params[name] = float(value)
            uncertainties[name] = float(err)
    return FitResult(
        model=model_name,
        params=params,
        uncertainties=uncertainties,
        rss=rss,
        reduced_chi_square=reduced,
        converged=converged,
        n_iterations=iterations,
        covariance=cov,
        sign=sign,
    )


def _multi_start(model_and_jacobian, x, y, starts, lower_bounds=None, upper_bounds=None):
    best = None
    for p0 in starts:
        fit = levenberg_marquardt(
            model_and_jacobian, x, y, np.asarray(p0, float), lower_bounds, upper_bounds
        )
        if best is None or fit[1] < best[1]:
            best = fit
    return best


def _nyquist(x: np.ndarray) -> float:
    gaps = np.diff(x)
    return 0.5 / max(gaps.min(), 1e-30)


def _frequency_starts(x, y) -> list[float]:
    span = x[-1] - x[0]
    candidates = _spectral_peak_candidates(x, y)
    if not candidates:
        # slow or truncated oscillation: scan sub-period seeds
        return [0.125 / span, 0.25 / span, 0.5 / span, 1.0 / span]
    return candidates


def _is_flat(y: np.ndarray) -> bool:
    return np.ptp(y) <= 1e-12 * max(1.0, np.max(np.abs(y)))


def fit_rabi(trace, mode: str = "sin2", with_decay: bool = True) -> FitResult:
    """Fit A [sin^2(pi f t) + c] exp(-t/T_Rabi) (or the cos^2 variant, sign -1)."""
    if mode not in ("sin2", "cos2"):
        raise FitInputError(f"mode must be sin2 or cos2, got {mode!r}")
    t, y = _trace_xy(trace)
    if t.size < 8:
        raise FitInputError("rabi fit needs at least 8 samples")
    sign = 1 if mode == "sin2" else -1

    if _is_flat(y):
        params = {"amplitude": 0.0, "frequency_hz": 0.0, "offset": float(y.mean())}
        if with_decay:
            params["t_rabi_s"] = math.inf
        zeros = {k: 0.0 for k in params}
        return FitResult(mode, params, zeros, 0.0, 0.0, True, 0, None, sign)

    amp0 = max(np.ptp(y), 1e-12)
    off0 = max(y.min(), 0.0) / amp0
    span = t[-1] - t[0]
    starts = []
    for f0 in _frequency_starts(t, y):
        if with_decay:
            for r0 in (0.0, 1.0 / span):
                starts.append([amp0, f0, off0, r0])
        else:
            starts.append([amp0, f0, off0])
    lb = np.array([-np.inf, 0.0, -np.inf] + ([0.0] if with_decay else []))
    ub = np.array([np.inf, _nyquist(t), np.inf] + ([np.inf] if with_decay else []))
    p, rss, cov, converged, iters = _multi_start(partial(_rabi, sign=sign), t, y, starts, lb, ub)
    return _finish(mode, RABI, p, rss, cov, converged, iters, t.size, sign)


def _wrap_phase(phi: float) -> float:
    """Map an angle into (-pi, pi]."""
    wrapped = math.remainder(phi, 2 * math.pi)
    return math.pi if wrapped == -math.pi else wrapped


# flips (A, c) of the Ramsey vector (A, f, phi, c, r2, rs); phi + pi leaves cov alone
_RAMSEY_FOLD = np.array([-1.0, 1.0, 1.0, -1.0, 1.0, 1.0])


def _canonical_ramsey(p: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold A < 0 into (-A, phi + pi, -c) and wrap phi into (-pi, pi].

    The covariance is transformed as D cov D with D = diag(_RAMSEY_FOLD), so
    the reported uncertainties are unchanged.
    """
    p = p.copy()
    if p[0] < 0:
        p *= _RAMSEY_FOLD
        p[2] += math.pi
        cov = cov * np.outer(_RAMSEY_FOLD, _RAMSEY_FOLD)
    p[2] = _wrap_phase(p[2])
    return p, cov


def fit_ramsey(trace, sign: int = 1) -> FitResult:
    """Fit A [s cos(2 pi f t - phi) exp(-t/T_2S*) + c] exp(-t/T_S), s = +/-1.

    The result is canonical: amplitude A >= 0 and phase_rad in (-pi, pi].
    The sign s is held fixed and recorded as ``FitResult.sign``.
    """
    if sign not in (1, -1):
        raise FitInputError("sign must be +1 or -1")
    t, y = _trace_xy(trace)
    if t.size < 12:
        raise FitInputError("ramsey fit needs at least 12 samples")

    amp0 = max(np.ptp(y) / 2.0, 1e-12)
    off0 = y.mean() / amp0
    span = t[-1] - t[0]
    starts = []
    for f0 in _frequency_starts(t, y):
        z = np.sum((y - y.mean()) * np.exp(-2j * np.pi * f0 * t))
        phi0 = float(-np.angle(sign * z))
        for r0 in (0.0, 1.0 / span):
            starts.append([amp0, f0, phi0, off0, r0, r0 / 2.0])
    lb = np.array([-np.inf, 0.0, -np.inf, -np.inf, 0.0, 0.0])
    ub = np.array([np.inf, _nyquist(t), np.inf, np.inf, np.inf, np.inf])
    p, rss, cov, converged, iters = _multi_start(partial(_ramsey, sign=sign), t, y, starts, lb, ub)
    p, cov = _canonical_ramsey(p, cov)
    return _finish("ramsey", RAMSEY, p, rss, cov, converged, iters, t.size, sign)


def fit_lorentzian(trace) -> FitResult:
    """Fit baseline + height (w/2)^2 / ((x - center)^2 + (w/2)^2)."""
    x, y = _trace_xy(trace)
    if x.size < 5:
        raise FitInputError("lorentzian fit needs at least 5 points")

    base0 = float(np.min(y))
    height0 = max(float(np.max(y) - base0), 1e-12)
    center0 = float(x[np.argmax(y)])
    above = x[y > base0 + height0 / 2.0]
    width0 = float(above.max() - above.min()) if above.size >= 2 else (x[-1] - x[0]) / 4.0
    width0 = max(width0, (x[1] - x[0]))
    p0 = [center0, width0, height0, base0]
    p, rss, cov, converged, iters = _multi_start(
        _lorentzian, x, y, [p0], np.array([-np.inf, 0.0, -np.inf, -np.inf])
    )
    return _finish("lorentzian", LORENTZIAN, p, rss, cov, converged, iters, x.size)


def fit_exponential(trace) -> FitResult:
    """Fit A exp(-t/T) + c."""
    t, y = _trace_xy(trace)
    if t.size < 5:
        raise FitInputError("exponential fit needs at least 5 samples")

    if _is_flat(y):
        params = {"amplitude": 0.0, "t_s": math.inf, "offset": float(y.mean())}
        zeros = {k: 0.0 for k in params}
        return FitResult("exponential", params, zeros, 0.0, 0.0, True, 0, None)

    c0 = float(y[-1])
    a0 = float(y[0] - c0)
    span = t[-1] - t[0]
    starts = [[a0, r0, c0] for r0 in (0.5 / span, 2.0 / span, 8.0 / span)]
    # log-linear seed when the signal is one-signed above its tail
    shifted = (y - c0) * np.sign(a0 if a0 != 0 else 1.0)
    good = shifted > 1e-12 * max(abs(a0), 1.0)
    if np.count_nonzero(good) >= 3:
        slope = np.polyfit(t[good], np.log(shifted[good]), 1)[0]
        if slope < 0:
            starts.insert(0, [a0, -slope, c0])
    p, rss, cov, converged, iters = _multi_start(
        _exponential, t, y, starts, np.array([-np.inf, 0.0, -np.inf])
    )
    return _finish("exponential", EXPONENTIAL, p, rss, cov, converged, iters, t.size)


MODEL_FITTERS = {
    "rabi": fit_rabi,
    "ramsey": fit_ramsey,
    "lorentzian": fit_lorentzian,
    "exponential": fit_exponential,
}


def evaluate_model(result: FitResult, x: np.ndarray) -> np.ndarray:
    """Evaluate a fitted model on a grid (for fitted-curve output files)."""
    model = MODELS.get(result.model)
    if model is None:
        raise ValueError(f"unknown model {result.model!r}")
    x = np.asarray(x, dtype=float)
    return model.function(x, model.internal(result.params), result.sign)[0]
