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
well-behaved point r = 0.  The Rabi, Ramsey and exponential fits each
start once, from the best point of a profiled grid (`_grid_start`): the
models are linear in their amplitudes, so at each grid frequency and rate
those come from a small least-squares solve, on any sweep, uniform or not.

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
_GRID_BLOCK = 2**13  # frequency x sample entries of the profiled grid evaluated at once (128 KiB)


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


def _fit(name: str, model: FitModel, x, y, p0, lower, upper, sign: int = 1) -> FitResult:
    """Fit from the start p0 and report the result.

    The fitted vector is folded into the model's canonical form, if it has
    one, and its rates are reported as times.
    """
    function = partial(model.function, sign=sign)
    p, rss, cov, converged, iterations = levenberg_marquardt(function, x, y, np.asarray(p0, float), lower, upper)
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


def _frequency_grid(t: np.ndarray) -> np.ndarray:
    """(1/4 + k/2) / span below (n - 1) / (2 span), the Nyquist frequency of a uniform sweep."""
    return np.arange(0.25, 0.5 * (t.size - 1), 0.5) / (t[-1] - t[0])


def _grid_start(t, y, freqs, r2, rs, sine: bool = False):
    """The least-RSS point (coefficients, f, r2, rs) of a profiled grid.

    Rabi, Ramsey and the exponential are linear in the columns cos(2 pi f t) d,
    [sin(2 pi f t) d,] s, with d = exp(-(r2 + rs) t) and s = exp(-rs t).  Each
    frequency of the uniform grid ``freqs`` and rate pair (r2[j], rs[j]) gets
    its coefficients from the 2 x 2 (3 x 3 with ``sine``) normal equations; a
    point whose equations are singular is skipped.  The phasors z = exp(2 pi i
    f t) step from one frequency to the next by a product, and cos^2, cos sin
    and sin^2 are read off z^2, so one frequency's phasors serve every rate.
    """
    d, s = np.exp(-np.outer(t, r2 + rs)), np.exp(-np.outer(t, rs))
    dd, ds, yd = d * d, d * s, y[:, None] * d
    sums = np.empty((3, freqs.size, r2.size), complex)  # z^2 d^2, z d s and z y d, summed over t
    rows = min(freqs.size, max(1, _GRID_BLOCK // t.size))
    turn = np.exp(2j * np.pi * (freqs[1] - freqs[0] if freqs.size > 1 else 0.0) * t)
    turns = np.ones((rows + 1, t.size), complex)  # row k: exp(2 pi i k step t)
    for k in range(rows):
        turns[k + 1] = turns[k] * turn
    z = np.exp(2j * np.pi * freqs[0] * t)  # the phasors of a block's first frequency
    for first in range(0, freqs.size, rows):
        block = turns[:min(rows, freqs.size - first)] * z
        sums[:, first:first + rows] = [(block * block) @ dd, block @ ds, block @ yd]
        z = z * turns[rows]
    zzdd, zds, zyd = sums
    cc, ss, cs = (dd.sum(axis=0) + zzdd.real) / 2, (dd.sum(axis=0) - zzdd.real) / 2, zzdd.imag / 2
    s2, ys = np.broadcast_to((s * s).sum(axis=0), cc.shape), np.broadcast_to(y @ s, cc.shape)
    g = np.stack([cc, cs, zds.real, cs, ss, zds.imag, zds.real, zds.imag, s2], -1).reshape(cc.shape + (3, 3))
    keep = [0, 1, 2] if sine else [0, 2]
    g, h = g[..., keep, :][..., keep], np.stack([zyd.real, zyd.imag, ys], -1)[..., keep]
    with np.errstate(divide="ignore", invalid="ignore"):  # an underflowed decay column makes g singular
        ok = np.linalg.det(g) > 1e-12 * np.prod(np.diagonal(g, axis1=-2, axis2=-1), axis=-1)
    coef = np.linalg.solve(np.where(ok[..., None, None], g, np.eye(len(keep))), h[..., None])[..., 0]
    rss = np.where(ok, y @ y - np.sum(h * coef, axis=-1), np.inf)
    i, j = np.unravel_index(np.argmin(rss), rss.shape)
    return coef[i, j], freqs[i], r2[j], rs[j]


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

    rates = np.array([0.0, 0.5, 1.0, 2.0] if with_decay else [0.0]) / (t[-1] - t[0])
    (a_cos, a_decay), f0, _, r0 = _grid_start(t, y, _frequency_grid(t), np.zeros_like(rates), rates)
    amp0 = -2.0 * sign * a_cos  # sin^2 = (1 - cos 2 theta) / 2, cos^2 = (1 + cos 2 theta) / 2
    p0 = [amp0, f0, a_decay / amp0 - 0.5] + ([r0] if with_decay else [])
    lb = np.array([-np.inf, 0.0, -np.inf] + ([0.0] if with_decay else []))
    ub = np.array([np.inf, _nyquist(t), np.inf] + ([np.inf] if with_decay else []))
    return _fit(mode, RABI, t, y, p0, lb, ub, sign)


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

    span = t[-1] - t[0]
    r2, rs = np.array([0.0, 1.0, 2.0, 4.0]) / span, np.array([0.0, 0.5, 0.5, 0.5]) / span
    (b_cos, b_sin, b_s), f0, r20, rs0 = _grid_start(t, y, _frequency_grid(t), r2, rs, sine=True)
    amp0 = max(math.hypot(b_cos, b_sin), 1e-12)  # s A cos(theta - phi) = b_cos cos theta + b_sin sin theta
    p0 = [amp0, f0, math.atan2(sign * b_sin, sign * b_cos), b_s / amp0, r20, rs0]
    lb = np.array([-np.inf, 0.0, -np.inf, -np.inf, 0.0, 0.0])
    ub = np.array([np.inf, _nyquist(t), np.inf, np.inf, np.inf, np.inf])
    return _fit("ramsey", RAMSEY, t, y, p0, lb, ub, sign)


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
    return _fit("lorentzian", LORENTZIAN, x, y, p0, lb, np.full(4, np.inf))


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

    rates = np.geomspace(0.05, 50.0, 64) / (t[-1] - t[0])
    (amp0, off0), _, r0, _ = _grid_start(t, y, np.zeros(1), rates, np.zeros_like(rates))
    lb = np.array([-np.inf, 0.0, -np.inf])
    return _fit("exponential", EXPONENTIAL, t, y, [amp0, r0, off0], lb, np.full(3, np.inf))


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
