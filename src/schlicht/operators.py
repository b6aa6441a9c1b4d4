"""The integral operators from Taylor coefficients or radial quadrature.

Everything reduces to one bracket

    V(z) = alpha * int_0^1 t^(alpha-1) * Phi(z t)^beta * w(z t) dt,

where Phi(u) = g(u)/u (equal to 1 at the origin) and w is f' or 1.  The
full integral is then alpha * int_0^z g^(alpha-1) f' du = z^alpha V(z) and
the operator value is z * V(z)^(1/alpha).

Two paths compute V, and :func:`bracket_final` picks one per batch of
endpoints, before any ray is integrated.

The coefficient path.  When log Phi is analytic on the closed unit disk,
so is H = exp(beta log Phi) w = sum h_n u^n, and termwise integration
gives V(z) = alpha * sum h_n z^n / (n + alpha) for every Re(alpha) > 0.
g and w are sampled at N roots of unity; log Phi comes from unwrapping
the phase of Phi around the circle, with the constant fixed so that
log Phi(0) is the principal log of Phi(0) (0 for normalized g); one FFT
each gives the coefficients of log Phi and of H (the trapezoidal rule,
exponentially convergent for analytic data).  N doubles from
``_SERIES_START`` up to ``_SERIES_MAX``.  The FFT slots n >= N/2 hold
only aliasing, rounding and any negative Laurent powers, so their sum is
the error level; coefficients are trimmed from the top while the dropped
sum stays within it, and twice (error level + dropped sum), which also
covers the aliasing of the kept ones, bounds the error at |u| <= 1.
Horner evaluates V and log Phi at u = sigma z on the ladder
sigma = ``_initial_tau_edges()[1:]**q``, the quadrature's initial panel
edges, so the result is the same :class:`RadialBracket`.

The gate.  Coefficients are used only if g and w are finite on |u| = 1,
Phi has no zero there and winding number 0 (with analytic g this rules
out zeros inside), both coefficient errors fit ``_ABS_TOLERANCE``,
the outer continuation of V over the ladder keeps every step below pi/2,
and a cross-check passes: the ``_CROSS_CHECK_POINTS`` endpoints of
largest modulus (lowest index on ties) are integrated by quadrature, and
V must agree within the sum of the two error bounds plus rounding, on the
same branches of log V and log Phi.  Otherwise the whole batch is
integrated by quadrature, and the reason is recorded: a singularity of g
or w on the circle (Koebe, z/(1-z)), a zero of g/z in the disk, a slow
coefficient tail, an unresolved ladder step, or a failed or raising
cross-check.  :func:`continued_gz_log` evaluates the log Phi series the
same way, cross-checked against the anchor ladder.

Every branch here is continued by one rule from the value 1 at the
origin: :func:`_continued_log` takes one principal log step per entry and
flags steps that turn the argument by pi/2 or more.  :class:`_Ladder`
carries it for Phi = g(u)/u over anchors shared by the rays and bisects
unresolved gaps.  The quadrature path (:func:`iter_radial_brackets`) thus
continues Phi^beta on the ladder, and the outer 1/alpha power over the
partial integrals at the panel edges, halving every panel until each step
resolves.  The chains continue their brackets from ``log_value`` at the
endpoint (``chains``).

The derivative of the operator needs no further quadrature.  Since
G(z)^alpha = z^alpha V(z) = alpha * int_0^z g^(alpha-1) f' du,

    G'(z) = f'(z) * Phi(z)^(alpha-1) * V(z)^(-(alpha-1)/alpha),

where both powers take the continued logarithms of one bracket pass at the
endpoint (``logphi_end`` and ``log_value``), the same branches that define
the integrand and G itself.  At the origin Phi = V = 1, so G'(0) = f'(0)
and no ray is integrated.

Panels are Gauss-Legendre with ``_NODES_PER_PANEL`` nodes; the error of
each panel is estimated by doubling the node count, and panels are bisected,
at most ``_MAX_DEPTH`` times, until the estimate fits into the panel's share
of ``_ABS_TOLERANCE``.  These three constants are the one numerical budget
of every operator value; they are read at call time.  For
Re(alpha) < 1 the substitution t = tau^q with q = ceil(1/Re(alpha))
removes the endpoint singularity of t^(alpha-1) before panels are laid
down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import (
    AlphaTooSmall,
    IntegrandSingular,
    NonvanishingViolation,
    ParameterError,
    SchlichtError,
    ToleranceNotMet,
)
from .expr import Expr, Var, _ev, _raise_at_first, differentiate

__all__ = [
    "OperatorValue", "RadialBracket", "BracketFinal", "iter_radial_brackets",
    "bracket_final",
    "operator_values", "operator_values_with_derivative", "operator_g_alpha",
    "operator_pascu", "operator_moldoveanu_pascu", "operator_mocanu",
    "continued_gz_log",
]

_HALF_PI = math.pi / 2
_ZERO_RADIUS = 1e-100
_CHUNK = 2048
_SERIES_START = 64         # samples on |u| = 1 at first
_SERIES_MAX = 1 << 14      # cap of the sample doubling
_CROSS_CHECK_POINTS = 16   # endpoints integrated by quadrature per batch
_ROUNDING = 100 * np.finfo(float).eps
_NODES_PER_PANEL = 16      # Gauss-Legendre nodes; the error estimate uses twice as many
_ABS_TOLERANCE = 1e-10     # absolute error budget of V
_MAX_DEPTH = 60            # bisections of one panel before ToleranceNotMet
_LADDER_ROUNDS = 64        # anchor insertion rounds of one branch ladder


@dataclass(frozen=True)
class OperatorValue:
    value: complex
    estimated_error: float
    branch_ok: bool


@dataclass
class RadialBracket:
    """Bracket data for one batch of rays sharing a panel layout.

    ``sigmas`` are fractions of |z|; column j of ``values`` holds
    V(sigmas[j] * z).  ``logphi_edges`` is the continued logarithm of
    Phi = g(u)/u at the edge points and ``log_value`` that of V at z.
    ``error`` bounds V at z, and ``branch_ok`` says whether the
    continuation of log V resolved, whatever the error.
    """

    sigmas: np.ndarray
    values: np.ndarray
    log_value: np.ndarray
    logphi_edges: np.ndarray
    error: np.ndarray
    branch_ok: np.ndarray

    @property
    def value(self) -> np.ndarray:
        return self.values[:, -1]

    @property
    def logphi_end(self) -> np.ndarray:
        return self.logphi_edges[:, -1]


@dataclass
class BracketFinal:
    """Flat per-point bracket results (prefix columns dropped).

    ``path`` is "coefficients" or "quadrature"; ``fallback_reason`` says
    why the coefficient path was not taken (None when it was), and
    ``cross_check_gap`` is the largest |V| gap of the cross-check (None
    when it did not run).
    """

    value: np.ndarray
    log_value: np.ndarray
    logphi_end: np.ndarray
    error: np.ndarray
    branch_ok: np.ndarray
    path: str
    fallback_reason: str | None = None
    cross_check_gap: float | None = None


@lru_cache(maxsize=None)
def _leg(n: int):
    return np.polynomial.legendre.leggauss(n)


def _continued_log(vals: np.ndarray, start_log=0j, start=None):
    """Continued log along the last axis of ``vals``: the one continuation step.

    Each entry takes the principal log of its ratio to the entry on its
    left, and the first entry its ratio to ``start`` (by default
    exp(start_log)), whose log is ``start_log``; ``start_log`` broadcasts
    to the shape of ``vals[..., 0]``, which ``start`` has.  Returns (logs,
    resolved); ``resolved`` flags the steps that turned the argument by
    less than pi/2.
    """
    start_log = np.broadcast_to(np.asarray(start_log, dtype=complex), vals.shape[:-1])
    start = np.exp(start_log) if start is None else start
    steps = np.log(vals / np.concatenate([start[..., None], vals[..., :-1]], axis=-1))
    return start_log[..., None] + np.cumsum(steps, axis=-1), np.abs(steps.imag) < _HALF_PI


class _Ladder:
    """Anchor ladder carrying log Phi per ray from its value 1 at t = 0.

    ``fn(ts)`` returns Phi = g(u)/u, one row per ray, at the sorted
    fractions ``ts``; each row equals 1 at t = 0, which anchors the
    continuation.  The anchors ``ts`` are shared by all rows; ``vals`` and
    ``logs`` hold the rows and their continued logs there.  A gap whose
    step reaches pi/2 in argument on any row is bisected, for at most
    ``_LADDER_ROUNDS`` evaluations.
    """

    def __init__(self, fn, ts: np.ndarray):
        self.fn = fn
        self.ts = np.asarray(ts, dtype=float)
        self._rebuild()

    def _rebuild(self) -> None:
        for _ in range(_LADDER_ROUNDS):
            self.vals = self.fn(self.ts)
            self.logs, resolved = _continued_log(self.vals)
            bad_gaps = ~np.all(resolved, axis=0)
            if not np.any(bad_gaps):
                return
            lefts = np.concatenate([[0.0], self.ts[:-1]])
            mids = 0.5 * (lefts[bad_gaps] + self.ts[bad_gaps])
            merged = np.unique(np.concatenate([self.ts, mids]))
            if len(merged) == len(self.ts):
                break
            self.ts = merged
        raise ToleranceNotMet(
            "argument of g(u)/u jumps >= pi/2 between anchors; branch unresolved")

    def log_at(self, ts: np.ndarray) -> np.ndarray:
        """Continued log at query fractions: the stored log at an anchor, else
        one step from the nearest anchor on the left; a query whose step
        reaches pi/2 becomes an anchor."""
        vals = self.fn(ts)
        for _ in range(_LADDER_ROUNDS):
            idx = np.searchsorted(self.ts, ts, side="right") - 1
            has_anchor = idx >= 0
            left = np.maximum(idx, 0)
            anchor_val = np.where(has_anchor, self.vals[:, left], 1.0)
            anchor_log = np.where(has_anchor, self.logs[:, left], 0.0)
            logs, resolved = _continued_log(vals[..., None], anchor_log, anchor_val)
            bad = ~np.all(resolved[..., 0], axis=0)
            if not np.any(bad):
                return np.where(has_anchor & (self.ts[left] == ts), anchor_log,
                                logs[..., 0])
            self.ts = np.unique(np.concatenate([self.ts, ts[bad]]))
            self._rebuild()
        raise ToleranceNotMet("argument of g(u)/u jumps >= pi/2 from anchor "
                              "to node; branch unresolved")


def _phi_ladder(g: Expr, z: np.ndarray, ts: np.ndarray) -> _Ladder:
    """The ladder of Phi = g(u)/u on the rays to ``z``; a zero or non-finite
    g raises IntegrandSingular at that u."""
    def phi(t: np.ndarray) -> np.ndarray:
        u = z[:, None] * t[None, :]
        gu = _ev(g, u)
        _raise_at_first((gu == 0) | ~np.isfinite(gu.real) | ~np.isfinite(gu.imag),
                        u, IntegrandSingular)
        return gu / u

    return _Ladder(phi, ts)


def _unwrap_prefix(vals: np.ndarray, start_log, rays: np.ndarray,
                   sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continued log along axis 1 of ``vals`` from exp(start_log) on the left.

    ``vals[i, j]`` is a prefix bracket at the point ``rays[i] * sigmas[j]``.
    Its first zero or non-finite value, innermost column first, raises
    NonvanishingViolation at that point.  Returns (log at the last column,
    ok); ok flags rows whose every principal step stayed below pi/2 in
    argument.
    """
    bad = (vals == 0) | ~np.isfinite(vals.real) | ~np.isfinite(vals.imag)
    if np.any(bad):
        j = int(np.flatnonzero(np.any(bad, axis=0))[0])
        i = int(np.flatnonzero(bad[:, j])[0])
        raise NonvanishingViolation(complex(rays[i] * sigmas[j]))
    logs, resolved = _continued_log(vals, start_log)
    return logs[:, -1], np.all(resolved, axis=1)


def _substitution_order(alpha: complex) -> int:
    if alpha.real >= 1.0:
        return 1
    return min(16, int(math.ceil(1.0 / alpha.real)))


def _initial_tau_edges() -> np.ndarray:
    geom = [2.0 ** -j for j in range(10, 2, -1)]  # 2^-10 .. 2^-3
    lin = list(np.arange(0.25, 1.0 + 1e-12, 1.0 / 16.0))
    return np.array([0.0] + geom + lin, dtype=float)


def _bracket_chunk(g: Expr, weight: Expr | None, alpha: complex, beta: complex,
                   q: int, zc: np.ndarray) -> RadialBracket:
    xlo, wlo = _leg(_NODES_PER_PANEL)
    xhi, whi = _leg(2 * _NODES_PER_PANEL)
    qa = q * alpha
    nz = len(zc)

    ladder = (None if isinstance(g, Var)
              else _phi_ladder(g, zc, _initial_tau_edges()[1:] ** q))

    def phi_power(t: np.ndarray) -> np.ndarray:
        """Branch-continued Phi(z t)^beta at shared fractions t, per ray."""
        if ladder is None:
            return np.ones((nz, len(t)), dtype=complex)
        return np.exp(beta * ladder.log_at(t))

    def rule_values(tau_nodes: np.ndarray) -> np.ndarray:
        # tau_nodes is (panels, nodes); result is (nz, panels, nodes)
        k, nn = tau_nodes.shape
        t = (tau_nodes ** q).ravel()
        vals = phi_power(t)
        if weight is not None:
            u = zc[:, None] * t[None, :]
            wt = _ev(weight, u)
            # bound to a name, the mask lives to the end of this call; freed
            # before the product below, glibc's heap reuse raised the peak
            # RSS of benchmark runs by 5-9 MB
            bad = ~np.isfinite(wt.real) | ~np.isfinite(wt.imag)
            _raise_at_first(bad, u, IntegrandSingular)
            vals = vals * wt
        vals = vals.reshape(nz, k, nn)
        tpow = np.exp((qa - 1) * np.log(tau_nodes))[None, :, :]
        return q * tpow * vals

    edges = _initial_tau_edges()
    panels = [(edges[i], edges[i + 1], 0) for i in range(len(edges) - 1)]
    accepted: list[tuple[float, float, int, np.ndarray, np.ndarray]] = []

    for _outer in range(8):
        while panels:
            a_arr = np.array([p[0] for p in panels])
            b_arr = np.array([p[1] for p in panels])
            depths = [p[2] for p in panels]
            mid = 0.5 * (a_arr + b_arr)
            half = 0.5 * (b_arr - a_arr)
            f_lo = rule_values(mid[:, None] + half[:, None] * xlo[None, :])
            f_hi = rule_values(mid[:, None] + half[:, None] * xhi[None, :])
            i_lo = half[None, :] * np.einsum("zkn,n->zk", f_lo, wlo)
            i_hi = half[None, :] * np.einsum("zkn,n->zk", f_hi, whi)
            err = np.abs(i_hi - i_lo)
            scale = 1.0 / max(1.0, abs(alpha))
            thresh = 0.25 * _ABS_TOLERANCE * scale * (b_arr - a_arr)
            # the cascade toward the endpoint singularity at 0 converges
            # slower than panel length shrinks, so it gets a geometric
            # budget (summable, and beaten by the 2^-Re(q alpha) decay)
            at_zero = a_arr == 0.0
            depth_arr = np.array(depths, dtype=float)
            thresh[at_zero] = (0.1 * _ABS_TOLERANCE * scale
                               * 0.75 ** depth_arr[at_zero])
            # rule differences bottom out at rounding noise of the panel sums
            noise = 100 * np.finfo(float).eps * (np.abs(i_lo) + np.abs(i_hi))
            converged = np.all(err <= np.maximum(thresh[None, :], noise), axis=0)
            splits = []
            for j, okp in enumerate(converged):
                if okp:
                    accepted.append((a_arr[j], b_arr[j], depths[j],
                                     i_hi[:, j], err[:, j]))
                    continue
                if depths[j] >= _MAX_DEPTH:
                    raise ToleranceNotMet(
                        f"panel [{a_arr[j]:.3g},{b_arr[j]:.3g}] above tolerance "
                        f"at depth {depths[j]}"
                    )
                splits.append((a_arr[j], mid[j], depths[j] + 1))
                splits.append((mid[j], b_arr[j], depths[j] + 1))
            panels = splits

        accepted.sort(key=lambda p: p[0])
        b_edges = np.array([p[1] for p in accepted])
        partial = np.stack([p[3] for p in accepted], axis=1)
        err_panels = np.stack([p[4] for p in accepted], axis=1)
        sigmas = b_edges ** q
        prefix = np.cumsum(partial, axis=1)
        v_pref = alpha * prefix * np.exp(-alpha * np.log(sigmas))[None, :]
        log_end, ok = _unwrap_prefix(v_pref, 0j, zc, sigmas)
        if np.all(ok):
            break
        # outer continuation needs denser prefix edges: halve every panel
        panels = []
        for a, b, depth, _, _ in accepted:
            m_ = 0.5 * (a + b)
            panels.append((a, m_, depth + 1))
            panels.append((m_, b, depth + 1))
        accepted = []
    else:
        raise ToleranceNotMet("outer branch continuation unresolved")

    if ladder is None:
        logphi_edges = np.zeros((nz, len(sigmas)), dtype=complex)
    else:
        logphi_edges = ladder.log_at(sigmas)
    return RadialBracket(
        sigmas=sigmas, values=v_pref, log_value=log_end,
        logphi_edges=logphi_edges,
        error=abs(alpha) * np.sum(err_panels, axis=1), branch_ok=ok,
    )


def _validate_alpha(alpha) -> complex:
    alpha = complex(alpha)
    if abs(alpha) < 1e-9:
        raise AlphaTooSmall(alpha)
    if alpha.real <= 0:
        raise AlphaTooSmall(alpha, reason="Re(alpha) <= 0 makes the integral diverge")
    return alpha


def _prepare(z) -> np.ndarray:
    zarr = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    if np.any(np.abs(zarr) > 1 + 1e-9):
        raise ParameterError("quadrature endpoints must satisfy |z| <= 1")
    return zarr


def iter_radial_brackets(g: Expr, alpha, z, phi_exponent=None,
                         weight: Expr | None = None,
                         ) -> Iterator[tuple[np.ndarray, RadialBracket]]:
    """Yield (flat indices, RadialBracket) per processing chunk.

    Endpoints with |z| below 1e-100 are skipped; there V = 1 exactly.
    """
    alpha = _validate_alpha(alpha)
    beta = complex(phi_exponent) if phi_exponent is not None else alpha - 1
    zarr = _prepare(z)
    q = _substitution_order(alpha)
    idx_nonzero = np.flatnonzero(np.abs(zarr) > _ZERO_RADIUS)
    for start in range(0, len(idx_nonzero), _CHUNK):
        sel = idx_nonzero[start:start + _CHUNK]
        yield sel, _bracket_chunk(g, weight, alpha, beta, q, zarr[sel])


@dataclass(frozen=True)
class _CircleSeries:
    """Taylor coefficients of log Phi and of H = exp(beta log Phi) w on
    |u| <= 1 with their error bounds, or the reason there are none."""

    logphi: np.ndarray | None = None
    h: np.ndarray | None = None
    logphi_error: float = 0.0
    h_error: float = 0.0
    reason: str | None = None


def _trim(coef: np.ndarray, tol: float):
    """Kept coefficients and their error bound, or (None, bound) above ``tol``.

    The slots n >= N/2 hold no Taylor term of a function analytic on the
    closed disk, only aliasing and rounding, so their sum is the error
    level.  Terms are dropped from the top of the lower half while the
    dropped sum stays within that level.
    """
    half = len(coef) // 2
    mag = np.abs(coef)
    upper = float(np.sum(mag[half:]))
    dropped = np.cumsum(mag[half - 1::-1])
    k = int(np.searchsorted(dropped, upper, side="right"))
    error = 2 * (upper + (float(dropped[k - 1]) if k else 0.0))
    if error > tol:
        return None, error
    return coef[:max(half - k, 1)], error


def _sample_circle(e: Expr, u: np.ndarray, what: str):
    """Values of ``e`` on the sample circle, or the reason they are unusable."""
    try:
        v = _ev(e, u)
    except SchlichtError as exc:
        return None, f"{what} cannot be evaluated on |u| = 1 ({type(exc).__name__})"
    if not np.all(np.isfinite(v)):
        return None, f"{what} is not finite on |u| = 1"
    return v, None


def _roots_of_unity(n: int) -> np.ndarray:
    """exp(2 pi i k / n), with u[n - k] = conj(u[k]) exactly."""
    half = np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    half[-1] = -1
    return np.concatenate([half, np.conj(half[-2:0:-1])])


def _coefficients(samples: np.ndarray) -> np.ndarray:
    """Taylor coefficients from samples at ``_roots_of_unity``, by one FFT.

    Samples that are exactly conjugate-symmetric come from a function with
    real coefficients, which are then taken real, so that such a subject
    keeps its symmetry about the real axis to the last bit.
    """
    coef = np.fft.fft(samples) / len(samples)
    if np.array_equal(samples, np.conj(np.roll(samples[::-1], 1))):
        coef = coef.real.astype(complex)
    return coef


@lru_cache(maxsize=64)
def _circle_series(g: Expr, weight: Expr | None, beta: complex,
                   tol: float) -> _CircleSeries:
    n = _SERIES_START
    while True:
        u = _roots_of_unity(n)
        if isinstance(g, Var):
            phi = np.ones(n, dtype=complex)
        else:
            gv, reason = _sample_circle(g, u, "g")
            if reason:
                return _CircleSeries(reason=reason)
            phi = gv / u
            if np.any(phi == 0):
                return _CircleSeries(reason="g(u)/u vanishes on |u| = 1")
        wv = np.ones(n, dtype=complex)
        if weight is not None:
            wv, reason = _sample_circle(weight, u, "the weight")
            if reason:
                return _CircleSeries(reason=reason)
        steps = np.angle(np.roll(phi, -1) / phi)
        resolved = np.max(np.abs(steps)) < _HALF_PI
        if resolved:
            winding = int(round(float(np.sum(steps)) / (2 * np.pi)))
            if winding != 0:
                return _CircleSeries(
                    reason=f"g(u)/u winds {winding} times around 0 on |u| = 1")
            theta = np.angle(phi[0]) + np.concatenate([[0.0], np.cumsum(steps[:-1])])
            # the branch with log Phi(0) = Log Phi(0), Phi(0) being the mean
            theta -= 2 * np.pi * round((np.mean(theta) - np.angle(np.mean(phi)))
                                       / (2 * np.pi))
            # the principal phase plus whole turns: conjugate samples of phi
            # get exactly opposite phases
            theta = np.angle(phi) + 2 * np.pi * np.round((theta - np.angle(phi))
                                                         / (2 * np.pi))
            logphi = np.log(np.abs(phi)) + 1j * theta
            ell, ell_err = _trim(_coefficients(logphi), tol)
            h, h_err = _trim(_coefficients(np.exp(beta * logphi) * wv), tol)
            if ell is not None and h is not None:
                ell.flags.writeable = h.flags.writeable = False  # cached
                return _CircleSeries(ell, h, ell_err, h_err)
        if n >= _SERIES_MAX:
            if not resolved:
                return _CircleSeries(
                    reason=f"phase of g(u)/u unresolved at {n} samples")
            return _CircleSeries(
                reason=f"coefficient tail {max(ell_err, h_err):.1e} above "
                       f"tolerance {tol:.1e} at {n} samples")
        n *= 2


def _horner(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.full(u.shape, coef[-1], dtype=complex)
    for c in coef[-2::-1]:
        out *= u
        out += c
    return out


def _series_chunk(series: _CircleSeries, alpha: complex, q: int,
                  zc: np.ndarray) -> RadialBracket:
    """The quadrature's bracket data from the coefficients, on its initial ladder."""
    sigmas = _initial_tau_edges()[1:] ** q
    u = zc[:, None] * sigmas[None, :]
    v_coef = alpha * series.h / (np.arange(len(series.h)) + alpha)
    values = _horner(v_coef, u)
    log_end, ok = _unwrap_prefix(values, 0j, zc, sigmas)
    # |alpha / (n + alpha)| <= 1 for Re(alpha) > 0, so V inherits H's bound
    return RadialBracket(
        sigmas=sigmas, values=values, log_value=log_end,
        logphi_edges=_horner(series.logphi, u),
        error=np.full(len(zc), series.h_error), branch_ok=ok,
    )


def _largest(zarr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The cross-check sample: entries of ``idx`` of largest |z|, lowest index on ties."""
    order = np.argsort(-np.abs(zarr[idx]), kind="stable")
    return idx[order[:_CROSS_CHECK_POINTS]]


def _cross_check(series: _CircleSeries, g: Expr, weight: Expr | None,
                 alpha: complex, beta: complex, q: int, zs: np.ndarray):
    """(largest |V| gap, reason or None) of the sample against quadrature."""
    try:
        (_, quad), = iter_radial_brackets(g, alpha, zs, beta, weight)
    except SchlichtError as exc:
        return None, f"cross-check quadrature raised {type(exc).__name__}: {exc}"
    ser = _series_chunk(series, alpha, q, zs)
    gap = np.abs(ser.value - quad.value)
    bound = ser.error + quad.error + _ROUNDING * (1 + np.abs(quad.value))
    same_branch = ((np.abs(ser.log_value - quad.log_value) < _HALF_PI)
                   & (np.abs(ser.logphi_end - quad.logphi_end) < _HALF_PI))
    worst = float(np.max(gap))
    if np.all(gap <= bound) and np.all(same_branch):
        return worst, None
    return worst, f"cross-check gap {worst:.1e} outside the error bounds"


def bracket_final(g: Expr, alpha, z, phi_exponent=None,
                  weight: Expr | None = None) -> BracketFinal:
    """Flat bracket values over a batch of endpoints, from coefficients, or
    by quadrature if the gate (module docstring) rejects them.  Endpoints
    with |z| below 1e-100 take V = 1 exactly, and a batch of only such
    endpoints integrates nothing.
    """
    zarr = _prepare(z)
    alpha = _validate_alpha(alpha)
    beta = complex(phi_exponent) if phi_exponent is not None else alpha - 1
    q = _substitution_order(alpha)
    nonzero = np.flatnonzero(np.abs(zarr) > _ZERO_RADIUS)
    series = _circle_series(g, weight, beta, _ABS_TOLERANCE)
    reason, gap = series.reason, None
    if reason is None:
        chunks = [(sel, _series_chunk(series, alpha, q, zarr[sel]))
                  for sel in (nonzero[s:s + _CHUNK]
                              for s in range(0, len(nonzero), _CHUNK))]
        if not all(np.all(br.branch_ok) for _, br in chunks):
            reason = "outer continuation of V unresolved on the ladder"
        elif len(nonzero):
            gap, reason = _cross_check(series, g, weight, alpha, beta, q,
                                       zarr[_largest(zarr, nonzero)])
    if reason is not None:
        chunks = iter_radial_brackets(g, alpha, zarr, beta, weight)
    nz = len(zarr)
    out = BracketFinal(
        value=np.ones(nz, dtype=complex),
        log_value=np.zeros(nz, dtype=complex),
        logphi_end=np.zeros(nz, dtype=complex),
        error=np.zeros(nz, dtype=float),
        branch_ok=np.ones(nz, dtype=bool),
        path="coefficients" if reason is None else "quadrature",
        fallback_reason=reason, cross_check_gap=gap,
    )
    for sel, br in chunks:
        out.value[sel] = br.value
        out.log_value[sel] = br.log_value
        out.logphi_end[sel] = br.logphi_end
        out.error[sel] = br.error
        out.branch_ok[sel] = br.branch_ok
    return out


def _operator_from(zarr: np.ndarray, alpha: complex, fin: BracketFinal):
    """Operator values z V^(1/alpha) and their error bounds from one bracket pass."""
    vals = zarr * np.exp(fin.log_value / alpha)
    scale = np.abs(vals) / np.maximum(np.abs(alpha * fin.value), 1e-300)
    return vals, fin.error * scale


def operator_values_with_derivative(f: Expr, g: Expr, alpha, z):
    """Operator values and closed-form G' from one bracket pass.

    Returns (values, derivatives, errors, branch_ok), vectorized over z.
    """
    alpha = _validate_alpha(alpha)
    zarr = _prepare(z)
    fp = differentiate(f)
    fin = bracket_final(g, alpha, zarr, phi_exponent=alpha - 1, weight=fp)
    vals, errs = _operator_from(zarr, alpha, fin)
    derivs = _ev(fp, zarr) * np.exp((alpha - 1) * (fin.logphi_end
                                                   - fin.log_value / alpha))
    return vals, derivs, errs, fin.branch_ok


def operator_values(f: Expr, g: Expr, alpha, z):
    """Vectorized operator evaluation; returns (values, errors, branch_ok)."""
    vals, _, errs, ok = operator_values_with_derivative(f, g, alpha, z)
    return vals, errs, ok


def _scalar_operator(vals, errs, ok) -> OperatorValue:
    return OperatorValue(complex(vals[0]), float(errs[0]), bool(ok[0]))


def operator_g_alpha(f: Expr, g: Expr, alpha, z) -> OperatorValue:
    """[alpha * int_0^z g^(alpha-1)(u) f'(u) du]^(1/alpha), branch continued."""
    return _scalar_operator(*operator_values(f, g, alpha, complex(z)))


def operator_pascu(f: Expr, alpha, z) -> OperatorValue:
    """The g = z specialization."""
    return operator_g_alpha(f, Var(), alpha, z)


def _weightless(g: Expr, alpha, z, phi_exponent) -> OperatorValue:
    alpha = _validate_alpha(alpha)
    zc = np.atleast_1d(np.asarray(complex(z)))
    fin = bracket_final(g, alpha, zc, phi_exponent=phi_exponent)
    return _scalar_operator(*_operator_from(zc, alpha, fin), fin.branch_ok)


def operator_moldoveanu_pascu(g: Expr, alpha, z) -> OperatorValue:
    """The f = z specialization (f' identically 1)."""
    return _weightless(g, alpha, z, phi_exponent=complex(alpha) - 1)


def operator_mocanu(g: Expr, alpha, z) -> OperatorValue:
    """[alpha * int_0^z g^alpha(u)/u du]^(1/alpha); g^alpha/u = u^(alpha-1)(g/u)^alpha."""
    return _weightless(g, alpha, z, phi_exponent=complex(alpha))


def continued_gz_log(g: Expr, z) -> np.ndarray:
    """Continued log of g(z)/z along each radial segment, 0 at the origin.

    Vectorized over ``z``; the value at z = 0 is exactly 0.  On |z| <= 1
    it is the log Phi series of the coefficient path when the gate admits
    g and the series agrees with the anchor ladder at the sample of
    largest |z|; otherwise every point takes the ladder.
    """
    zarr = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    out = np.zeros(zarr.shape, dtype=complex)
    if isinstance(g, Var):
        return out
    nonzero = np.flatnonzero(np.abs(zarr) > _ZERO_RADIUS)
    ts = np.unique(np.concatenate([_initial_tau_edges()[1:], [1.0]]))

    def ladder_logs(zs: np.ndarray) -> np.ndarray:
        return _phi_ladder(g, zs, ts).log_at(np.array([1.0]))[:, 0]

    series = _circle_series(g, None, 0j, _ABS_TOLERANCE)
    if (len(nonzero) and series.reason is None
            and np.all(np.abs(zarr) <= 1 + 1e-9)):
        zs = zarr[_largest(zarr, nonzero)]
        sample = _horner(series.logphi, zs)
        try:
            gap = np.abs(sample - ladder_logs(zs))
        except SchlichtError:
            gap = np.inf
        if np.all(gap <= series.logphi_error + _ROUNDING * (1 + np.abs(sample))):
            out[nonzero] = _horner(series.logphi, zarr[nonzero])
            return out
    for start in range(0, len(nonzero), 8192):
        sel = nonzero[start:start + 8192]
        out[sel] = ladder_logs(zarr[sel])
    return out
