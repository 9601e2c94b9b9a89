"""Least-squares fitting of the transfer/coherence model functions.

Model set:

* rabi:        I(t) = A [sin^2(pi f t) + c] exp(-t / T)        (or cos^2)
* ramsey:      I(t) = A [s cos(2 pi f t - phi) exp(-t / T2s) + c] exp(-t / Ts)
* lorentzian:  I(x) = b + h (w/2)^2 / ((x - x0)^2 + (w/2)^2)
* exponential: I(t) = A exp(-t / T) + c

Each model is stated once, as a ``FitModel`` record (``RABI``, ``RAMSEY``,
``LORENTZIAN``, ``EXPONENTIAL``) that drives both its fit and
``evaluate_model``.  Every fitter ends in one call to ``_fit``, and its
``FitResult`` keeps the fitted internal vector that ``evaluate_model``
draws.  Non-finite data is a ``FitInputError``, and so is a time series
(rabi, ramsey, exponential) whose times are not strictly increasing; a
Lorentzian takes its points in any order.  Fits use a damped
(Levenberg-Marquardt) least-squares loop with analytic Jacobians; decay
times are handled internally as rates so that "no decay" is the
well-behaved point r = 0.  The oscillatory fits
start from up to three local maxima of the zero-padded discrete spectrum
(`_spectral_peak_candidates`), or from sub-period frequencies when it has
none.

Ramsey fits are returned in canonical form (``RAMSEY.fold``): A >= 0 and
phi in (-pi, pi].  A fit with A < 0 is the same curve as (-A, phi + pi, -c),
and phi is only defined modulo 2 pi.  The sign s is fixed by the caller, not
fitted, and is recorded in ``FitResult.sign``.
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
    vector: np.ndarray  # the fitted internal vector (rates, not times) that evaluate_model draws
    covariance: np.ndarray | None = None
    sign: int = 1  # fixed model sign s: Ramsey s, -1 for a cos2 Rabi fit, else 1


@dataclass(frozen=True)
class FitModel:
    """A fit model, stated once.

    function(x, p, sign) returns the model values and the Jacobian columns
    for the internal parameter vector p, whose entries ``names`` labels.
    Decay times are fitted as rates; ``times`` maps each rate to the time
    it is reported as (T = 1/r, infinite for r = 0).  ``fold``, when given,
    is the canonical form of a model with a phase: it flips the signs of p
    that turn A < 0 into the same curve at phase_rad + pi.
    """

    function: Callable[..., tuple[np.ndarray, np.ndarray]]
    names: tuple[str, ...]
    times: dict[str, str] = field(default_factory=dict)
    fold: tuple[float, ...] | None = None


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
    fold=(-1.0, 1.0, 1.0, -1.0, 1.0, 1.0),  # (A, c) -> (-A, -c)
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
        x, y = trace.sweep_values, trace.observable
    else:
        x, y = (np.asarray(v, dtype=float) for v in trace)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise FitInputError("fit data must be finite (no nan or inf)")
    return x, y


def _time_series(trace) -> tuple[np.ndarray, np.ndarray]:
    """The (t, y) of a time-series fit; t must be strictly increasing."""
    t, y = _trace_xy(trace)
    if np.any(np.diff(t) <= 0):
        raise FitInputError("sweep times must be strictly increasing")
    return t, y


def _spectral_peak_candidates(t: np.ndarray, y: np.ndarray, k: int = 3) -> list[float]:
    """Up to k local spectral maxima by decreasing power (fit seeds)."""
    steps = np.diff(t)
    if t.size < 8 or (steps.max() - steps.min()) > 1e-9 * steps.max():
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
    lower_bounds: np.ndarray,
    upper_bounds: np.ndarray,
):
    """Damped least squares on y - model(x; p).

    Returns (params, rss, unscaled_covariance, converged, iterations).
    Terminates on relative RSS change < 1e-12, step norm < 1e-12, or the
    iteration cap.  Bounds are enforced by projection.
    """

    def clip(q):
        return np.minimum(np.maximum(q, lower_bounds), upper_bounds)

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


def _fit(name: str, model: FitModel, x, y, starts, lower, upper, sign: int = 1) -> FitResult:
    """Fit from each start, keep the first with the lowest RSS, and report it.

    The winning vector is folded into the model's canonical form, if it has
    one, and its rates are reported as times.
    """
    function = partial(model.function, sign=sign)
    best = None
    for p0 in starts:
        fit = levenberg_marquardt(function, x, y, np.asarray(p0, float), lower, upper)
        if best is None or fit[1] < best[1]:
            best = fit
    p, rss, cov, converged, iterations = best
    if model.fold is not None:  # A >= 0 and phase in (-pi, pi]; D cov D keeps the uncertainties
        k = model.names.index("phase_rad")
        if p[0] < 0:
            flip = np.array(model.fold)
            p, cov = p * flip, cov * np.outer(flip, flip)
            p[k] += math.pi
        p[k] = _wrap_phase(p[k])
    reduced = rss / max(x.size - p.size, 1)
    cov = cov * reduced
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    params: dict[str, float] = {}
    uncertainties: dict[str, float] = {}
    for key, value, err in zip(model.names, p, sigma):
        if key in model.times:
            key = model.times[key]
            if value > 0:
                params[key] = 1.0 / value
                uncertainties[key] = err / value**2
            else:
                params[key] = math.inf
                uncertainties[key] = math.inf
        else:
            params[key] = float(value)
            uncertainties[key] = float(err)
    return FitResult(name, params, uncertainties, rss, reduced, converged, iterations, p, cov, sign)


def _nyquist(x: np.ndarray) -> float:
    return 0.5 / np.diff(x).min()


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
    t, y = _time_series(trace)
    if t.size < 8:
        raise FitInputError("rabi fit needs at least 8 samples")
    sign = 1 if mode == "sin2" else -1

    if _is_flat(y):
        # reported as no transfer (A = 0); the vector draws the level as A with f = 0
        level = float(y.mean())
        params = {"amplitude": 0.0, "frequency_hz": 0.0, "offset": level}
        vector = [level, 0.0, 1.0 if sign > 0 else 0.0]
        if with_decay:
            params["t_rabi_s"] = math.inf
            vector.append(0.0)
        zeros = {k: 0.0 for k in params}
        return FitResult(mode, params, zeros, 0.0, 0.0, True, 0, np.array(vector), None, sign)

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
    return _fit(mode, RABI, t, y, starts, lb, ub, sign)


def _wrap_phase(phi: float) -> float:
    """Map an angle into (-pi, pi]."""
    wrapped = math.remainder(phi, 2 * math.pi)
    return math.pi if wrapped == -math.pi else wrapped


def fit_ramsey(trace, sign: int = 1) -> FitResult:
    """Fit A [s cos(2 pi f t - phi) exp(-t/T_2S*) + c] exp(-t/T_S), s = +/-1.

    The result is canonical: amplitude A >= 0 and phase_rad in (-pi, pi].
    The sign s is held fixed and recorded as ``FitResult.sign``.
    """
    if sign not in (1, -1):
        raise FitInputError("sign must be +1 or -1")
    t, y = _time_series(trace)
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
    return _fit("ramsey", RAMSEY, t, y, starts, lb, ub, sign)


def fit_lorentzian(trace) -> FitResult:
    """Fit baseline + height (w/2)^2 / ((x - center)^2 + (w/2)^2)."""
    x, y = _trace_xy(trace)
    if x.size < 5:
        raise FitInputError("lorentzian fit needs at least 5 points")

    base0 = float(np.min(y))
    height0 = max(float(np.max(y) - base0), 1e-12)
    center0 = float(x[np.argmax(y)])
    above = x[y > base0 + height0 / 2.0]
    width0 = float(above.max() - above.min()) if above.size >= 2 else np.ptp(x) / 4.0
    width0 = max(width0, abs(x[1] - x[0]))  # x may fall, as a scan's detunings do
    p0 = [center0, width0, height0, base0]
    lb = np.array([-np.inf, 0.0, -np.inf, -np.inf])
    return _fit("lorentzian", LORENTZIAN, x, y, [p0], lb, np.full(4, np.inf))


def fit_exponential(trace) -> FitResult:
    """Fit A exp(-t/T) + c."""
    t, y = _time_series(trace)
    if t.size < 5:
        raise FitInputError("exponential fit needs at least 5 samples")

    if _is_flat(y):
        params = {"amplitude": 0.0, "t_s": math.inf, "offset": float(y.mean())}
        zeros = {k: 0.0 for k in params}
        vector = np.array([0.0, 0.0, params["offset"]])
        return FitResult("exponential", params, zeros, 0.0, 0.0, True, 0, vector)

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
    lb = np.array([-np.inf, 0.0, -np.inf])
    return _fit("exponential", EXPONENTIAL, t, y, starts, lb, np.full(3, np.inf))


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
    return model.function(x, result.vector, result.sign)[0]
