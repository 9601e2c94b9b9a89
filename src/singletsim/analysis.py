"""Least-squares fitting of the transfer/coherence model functions.

Model set:

* rabi:        I(t) = A [sin^2(pi f t) + c] exp(-t / T)        (or cos^2)
* ramsey:      I(t) = A [s cos(2 pi f t - phi) exp(-t / T2s) + c] exp(-t / Ts)
* lorentzian:  I(x) = b + h (w/2)^2 / ((x - x0)^2 + (w/2)^2)
* exponential: I(t) = A exp(-(t - t0) / T) + c, t0 the first sample's time

Rabi, Ramsey and the exponential are one model, fitted in the coordinates of
its profiled grid (`_grid_start`), whose best point q is the fit's one start:
y = (a cos 2 pi f t + b sin 2 pi f t) exp(-(r2 + rs) t) + k exp(-rs t), with
q = (a, b, k, f, r2, rs).  Each fit frees some entries of q, holds the rest
at 0 and reports its parameters from q (T = 1/r for each decay rate r):

* rabi frees (a, k, f[, rs]): A = -2 s a, c = k / A - 1/2, since sin^2 and
  cos^2 are (1 -/+ cos 2 pi f t) / 2, s = 1 and -1;
* ramsey frees all six: A = |(a, b)|, phi = atan2(s b, s a), c = k / A, so
  every fit is canonical, A >= 0 and phi in (-pi, pi];
* exponential frees (a, k, r2), with f = 0: A = a, c = k.

The uncertainties follow through each report map's Jacobian (the delta
method), which at the same point gives the covariance of a fit in the
reported parameters.  The sign s is fixed by the caller, not fitted, and is
recorded in ``FitResult.sign``.  The exponential is fitted in t - t0 and
reports A at t0; ``FitResult.origin`` holds t0.  A constant trace reports
amplitude 0, its level as the offset and every time infinite; a constant
Lorentzian has no centre or width and is a ``FitInputError``.

Each model is stated once, as a ``FitModel`` record (``RABI``, ``RAMSEY``,
``LORENTZIAN``, ``EXPONENTIAL``) of its free entries and its report map (the
Lorentzian frees all four and reports them as they are), which drives both
its fit and ``evaluate_model``.  Every fit runs one path: the three
time-series fitters check their own arguments, then share one body
(`_fit_series`: the sample floor, the flat trace, the grid start) that ends,
as the Lorentzian does, in ``_fit``.  The Lorentzian starts from the peak or
the dip of its data.  Non-finite data is a ``FitInputError``, and so is a
time series whose times are not strictly increasing; a Lorentzian takes its
points in any order.  Fits use a damped (Levenberg-Marquardt) least-squares
loop with analytic Jacobians; decay times are fitted as rates, so that "no
decay" is the well-behaved point r = 0 on a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    vector: np.ndarray  # the fitted q of a time series (the Lorentzian's own vector) that evaluate_model draws
    sign: int = 1  # fixed model sign s: Ramsey s, -1 for a cos2 Rabi fit, else 1
    origin: float = 0.0  # the x at which q's model starts: evaluate_model draws it at x - origin


@dataclass(frozen=True)
class FitModel:
    """A fit model, stated once.

    function(x, q) returns the model values and their Jacobian in the
    vector q.  The entries ``free`` of q (``np.s_[:]`` for all) are fitted,
    and the others are held at their start.  report(q, sign) returns the
    reported parameters and their Jacobian in q, whose leading rows
    ``names`` labels.  Decay times are fitted as rates; ``times`` maps each
    rate to the time it is reported as (T = 1/r, infinite for r = 0).
    """

    function: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    names: tuple[str, ...]
    times: dict[str, str]
    report: Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]
    free: slice | np.ndarray


def _oscillation(x, q):
    """(a cos 2 pi f x + b sin 2 pi f x) exp(-(r2 + rs) x) + k exp(-rs x), q = (a, b, k, f, r2, rs)."""
    a, b, k, f, r2, rs = q
    theta = 2 * np.pi * f * x
    s, d = np.exp(-rs * x), np.exp(-(r2 + rs) * x)
    cos_d, sin_d = np.cos(theta) * d, np.sin(theta) * d
    osc = a * cos_d + b * sin_d
    model = osc + k * s
    return model, np.column_stack([cos_d, sin_d, s, 2 * np.pi * x * (b * cos_d - a * sin_d), -x * osc, -x * model])


def _lorentzian(x, p):
    """b + h (w/2)^2 / ((x - x0)^2 + (w/2)^2)."""
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


def _rabi_report(q, sign):
    """(A, f, c, rate) = (-2 s a, f, k / A - 1/2, rs)."""
    a, _, k, f, _, rs = q
    amp = -2.0 * sign * a
    jac = np.zeros((4, 6))
    jac[0, 0], jac[1, 3], jac[3, 5] = -2.0 * sign, 1.0, 1.0
    jac[2, 0], jac[2, 2] = 2.0 * sign * k / amp**2, 1.0 / amp
    return np.array([amp, f, k / amp - 0.5, rs]), jac


def _ramsey_report(q, sign):
    """(A, f, phi, c, rate2, rate_s) = (|(a, b)|, f, atan2(s b, s a), k / A, r2, rs)."""
    a, b, k, f, r2, rs = q
    amp = math.hypot(a, b)
    jac = np.zeros((6, 6))
    jac[0, :2] = a / amp, b / amp
    jac[2, :2] = -b / amp**2, a / amp**2
    jac[3, :3] = -k * a / amp**3, -k * b / amp**3, 1.0 / amp
    jac[1, 3] = jac[4, 4] = jac[5, 5] = 1.0
    phase = _wrap_phase(math.atan2(sign * b, sign * a))
    return np.array([amp, f, phase, k / amp, r2, rs]), jac


def _exponential_report(q, sign):
    """(A, rate, c) = (a, r2, k)."""
    return q[[0, 4, 2]], np.eye(6)[[0, 4, 2]]


RABI = FitModel(_oscillation, ("amplitude", "frequency_hz", "offset", "rate"), {"rate": "t_rabi_s"},
                _rabi_report, np.array([0, 2, 3, 5]))
RAMSEY = FitModel(_oscillation, ("amplitude", "frequency_hz", "phase_rad", "offset", "rate2", "rate_s"),
                  {"rate2": "t2s_star_s", "rate_s": "t_s_s"}, _ramsey_report, np.s_[:])
LORENTZIAN = FitModel(_lorentzian, ("center", "fwhm", "height", "baseline"), {}, lambda q, sign: (q, np.eye(4)),
                      np.s_[:])
EXPONENTIAL = FitModel(_oscillation, ("amplitude", "rate", "offset"), {"rate": "t_s"}, _exponential_report,
                       np.array([0, 2, 4]))

# FitResult.model -> record
MODELS = {"sin2": RABI, "cos2": RABI, "ramsey": RAMSEY, "lorentzian": LORENTZIAN, "exponential": EXPONENTIAL}


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
    iteration cap.  Bounds are enforced by projection, and a parameter that
    sits on a bound while its descent direction (its entry of J^T r) points
    out of the box is left out of the damped solve, with a zero step.
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
        jtj, jtr = jac.T @ jac, jac.T @ residual
        held = ((p <= lower_bounds) & (jtr < 0)) | ((p >= upper_bounds) & (jtr > 0))
        jtj[held] = jtj[:, held] = jtr[held] = 0.0  # decoupled from the rest, with a zero step
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1e-30
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


def _fit(name: str, model: FitModel, x, y, q0, lower, upper, sign: int = 1) -> FitResult:
    """Fit the free entries of q from the start q0, holding the others, and report the result.

    The reported parameters come from the fitted q through the model's report
    map, and their covariance through its Jacobian (the delta method); rates
    are reported as times.
    """
    q, free = np.array(q0, dtype=float), model.free

    def function(x, p):
        q[free] = p
        values, jac = model.function(x, q)
        return values, jac[:, free]

    p, rss, cov, converged, iterations = levenberg_marquardt(function, x, y, q[free], lower[free], upper[free])
    q[free] = p
    reduced = rss / max(x.size - p.size, 1)
    values, jac = model.report(q, sign)
    variance = np.einsum("ij,jk,ik->i", jac[:, free], cov, jac[:, free])
    sigma = np.sqrt(np.clip(variance * reduced, 0.0, None))
    params: dict[str, float] = {}
    uncertainties: dict[str, float] = {}
    for key, value, err in zip(model.names, values, sigma):
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
    return FitResult(name, params, uncertainties, rss, reduced, converged, iterations, q, sign)


def _flat(name: str, model: FitModel, y: np.ndarray, sign: int = 1) -> FitResult:
    """A constant trace: amplitude 0, its level as the offset, every time infinite, all exact."""
    level = float(y.mean())
    params = {model.times.get(key, key): math.inf if key in model.times else 0.0 for key in model.names}
    params["offset"] = level
    vector = np.array([0.0, 0.0, level, 0.0, 0.0, 0.0])
    return FitResult(name, params, dict.fromkeys(params, 0.0), 0.0, 0.0, True, 0, vector, sign)


def _constant(y: np.ndarray) -> bool:
    """Whether y spans no more than its rounding: 1e-12 of its largest magnitude, or of 1."""
    return np.ptp(y) <= 1e-12 * max(1.0, np.max(np.abs(y)))


def _bounds(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bounds on q: f from 0 to the Nyquist frequency of the finest step, rates >= 0."""
    return np.array([-np.inf] * 3 + [0.0] * 3), np.array([np.inf] * 3 + [0.5 / np.diff(t).min(), np.inf, np.inf])


def _frequency_grid(t: np.ndarray) -> np.ndarray:
    """(1/4 + k/2) / span below (n - 1) / (2 span), the Nyquist frequency of a uniform sweep."""
    return np.arange(0.25, 0.5 * (t.size - 1), 0.5) / (t[-1] - t[0])


def _grid_start(t, y, freqs, r2, rs, sine: bool = False) -> np.ndarray:
    """The least-RSS point q of a profiled grid, b = 0 without ``sine``.

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
    q = np.zeros(6)
    q[keep], q[3:] = coef[i, j], (freqs[i], r2[j], rs[j])
    return q


def _fit_series(kind: str, least: int, t, y, name: str, model: FitModel, r2, rs, sign: int = 1) -> FitResult:
    """Fit a time series (t, y) of at least ``least`` samples once, from the best point of its profiled grid.

    The grid's decay rates r2 and rs are in units of 1 / span; it profiles
    the frequency and the sine column only where the model frees them (q[3]
    and q[1]).  A flat trace is reported exactly.
    """
    if t.size < least:
        raise FitInputError(f"{kind} fit needs at least {least} samples")
    if _constant(y):
        return _flat(name, model, y, sign)
    free, span = np.arange(6)[model.free], t[-1] - t[0]
    freqs = _frequency_grid(t) if 3 in free else np.zeros(1)
    q0 = _grid_start(t, y, freqs, r2 / span, rs / span, sine=1 in free)
    return _fit(name, model, t, y, q0, *_bounds(t), sign)


def fit_rabi(trace, mode: str = "sin2", with_decay: bool = True) -> FitResult:
    """Fit A [sin^2(pi f t) + c] exp(-t/T_Rabi) (or the cos^2 variant, sign -1)."""
    if mode not in ("sin2", "cos2"):
        raise FitInputError(f"mode must be sin2 or cos2, got {mode!r}")
    model = RABI if with_decay else replace(RABI, names=RABI.names[:3], free=RABI.free[:3])
    rates = np.array([0.0, 0.5, 1.0, 2.0] if with_decay else [0.0])
    return _fit_series("rabi", 8, *_time_series(trace), mode, model, np.zeros_like(rates), rates,
                       1 if mode == "sin2" else -1)


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
    r2, rs = np.array([0.0, 1.0, 2.0, 4.0]), np.array([0.0, 0.5, 0.5, 0.5])
    return _fit_series("ramsey", 12, *_time_series(trace), "ramsey", RAMSEY, r2, rs, sign)


def _peak_start(x, y) -> list[float]:
    """(center, fwhm, height, baseline) of y's peak: its top, its width at half height above min(y)."""
    base0 = float(np.min(y))
    height0 = max(float(np.max(y) - base0), 1e-12)
    above = x[y > base0 + height0 / 2.0]
    width0 = float(above.max() - above.min()) if above.size >= 2 else np.ptp(x) / 4.0
    width0 = max(width0, abs(x[1] - x[0]))  # x may fall, as a scan's detunings do
    return [float(x[np.argmax(y)]), width0, height0, base0]


def fit_lorentzian(trace) -> FitResult:
    """Fit baseline + height (w/2)^2 / ((x - center)^2 + (w/2)^2), a peak or a dip.

    It starts from the peak of y or the dip (the peak of -y), whichever
    leaves the lower RSS with its height and baseline fitted linearly.
    """
    x, y = _trace_xy(trace)
    if x.size < 5:
        raise FitInputError("lorentzian fit needs at least 5 points")
    if _constant(y):
        raise FitInputError("lorentzian fit needs data that is not constant")

    def profiled_rss(p):
        columns = np.column_stack([_lorentzian(x, [p[0], p[1], 1.0, 0.0])[0], np.ones_like(x)])
        residual = y - columns @ np.linalg.lstsq(columns, y, rcond=None)[0]
        return residual @ residual

    center, width, height, base = _peak_start(x, -y)
    p0 = min(_peak_start(x, y), [center, width, -height, -base], key=profiled_rss)
    lb = np.array([-np.inf, 0.0, -np.inf, -np.inf])
    return _fit("lorentzian", LORENTZIAN, x, y, p0, lb, np.full(4, np.inf))


def fit_exponential(trace) -> FitResult:
    """Fit A exp(-(t - t0)/T) + c in the time since the first sample t0; A is the amplitude at t0.

    ``FitResult.origin`` is t0.  Carried back to t = 0, A would grow as
    exp(t0 / T) and overflow for a trace that starts many times T late.
    """
    t, y = _time_series(trace)
    origin = float(t[0]) if t.size else 0.0
    rates = np.geomspace(0.05, 50.0, 64)
    fit = _fit_series("exponential", 5, t - origin, y, "exponential", EXPONENTIAL, rates, np.zeros_like(rates))
    return replace(fit, origin=origin)


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
    return model.function(np.asarray(x, dtype=float) - result.origin, result.vector)[0]
