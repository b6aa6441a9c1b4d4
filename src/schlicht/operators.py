"""The integral operators from Taylor coefficients or radial quadrature.

Everything reduces to one bracket

    V(z) = alpha * int_0^1 t^(alpha-1) * Phi(z t)^beta * w(z t) dt,

where Phi(u) = g(u)/u (equal to 1 at the origin) and w is f' or 1.  The
full integral is then alpha * int_0^z g^(alpha-1) f' du = z^alpha V(z) and
the operator value is z * V(z)^(1/alpha).

Two paths compute V.  A :class:`BracketFit` of one (g, w, alpha, beta)
picks one for all the batches of endpoints that a subject or chain object
evaluates, before any ray is integrated; :func:`bracket_final` is the
same for one batch.

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
The coefficients of log V come the same way (:func:`_circle_log`), from
V sampled on the circle by one inverse FFT of its own coefficients.  A
point costs Horner for V and log Phi at the endpoint; its log V is the
principal log of V plus the whole turns that the log V series puts on
it, taken as log|V| + i (arg V + 2 pi turns): one real log, and the
principal arg V that the turn count reads anyway.

The fit gate.  Coefficients are used only if g and w are finite on
|u| = 1, Phi has no zero there and winding number 0 (with analytic g
this rules out zeros inside), both coefficient errors fit
``_ABS_TOLERANCE``, V has no zero on the circle, winds 0 times around 0
and stays above its coefficient error there (so by Rouche's theorem V
has no zero in the disk), the log V tail fits ``_ABS_TOLERANCE``, and
one cross-check per fit passes.  Its sample is the ``_CROSS_CHECK_POINTS``
roots of unity u, on the circle where the error bounds are claimed, and
each ray is integrated by quadrature on its outer half only, from the
series' own V and log V at u/2:

    V(u) = 2^(-alpha) V(u/2) + alpha * int_(1/2)^1 s^(alpha-1) H(s u) ds.

With D the error of the series, V must agree within h_err * (1 +
2^(-Re alpha)) plus the quadrature error and rounding, since the gap is
D(u) - 2^(-alpha) D(u/2) plus the quadrature's own; that difference is
analytic, so the maximum modulus principle puts its largest value on the
circle.  An error eps u^n in coefficient n shows attenuated to
|1 - 2^(-alpha-n)| eps, at least (1 - 2^(-Re alpha - n)) eps.  log V
continues from the series' log at u/2, and the series' constant term
must be the principal log of V(0), where quadrature from the origin
starts; log Phi continues from the origin.  Both must end on the
branches of the series.
Otherwise every batch of the fit is integrated by quadrature from the origin,
and the reason is recorded: a singularity of g or w on the circle
(Koebe, z/(1-z)), a zero of g/z or of V in the disk, a slow coefficient
tail, or a failed or raising cross-check.  :func:`continued_gz_log`
evaluates the log Phi series the same way, cross-checked against the
anchor ladder on the same roots of unity once per :class:`GzLogFit`: one
per T6 check or chain, for all its batches.

Every branch that quadrature and the ladder take is continued by one
rule from the value 1 at the origin: :func:`_continued_log` takes one
principal log step per entry and flags steps that turn the argument by
pi/2 or more.  :class:`_Ladder` carries it for Phi = g(u)/u over anchors
shared by the rays and bisects unresolved gaps.  The quadrature path
(:func:`iter_radial_brackets`) thus continues Phi^beta on the ladder, and
the outer 1/alpha power over the partial integrals at the panel edges,
halving every panel until each step resolves; given a start (V, log V)
at z/2 on each ray, it integrates only from z/2 on and continues log V
from there.  The chains continue their brackets from ``log_value`` at the
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
from functools import cached_property, lru_cache
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
from .expr import Expr, Var, _raise_at_first, differentiate, evaluate

__all__ = [
    "OperatorValue", "RadialBracket", "BracketFinal", "BracketFit",
    "iter_radial_brackets", "bracket_final",
    "operator_values", "operator_values_with_derivative", "operator_g_alpha",
    "operator_pascu", "operator_moldoveanu_pascu", "operator_mocanu",
    "GzLogFit", "continued_gz_log",
]

_HALF_PI = math.pi / 2
_ZERO_RADIUS = 1e-100
_CHUNK = 2048
_SERIES_START = 64         # samples on |u| = 1 at first
_SERIES_MAX = 1 << 14      # cap of the sample doubling
_CROSS_CHECK_POINTS = 16   # roots of unity integrated by quadrature per fit
_CROSS_CHECK_START = 0.5   # fraction of each cross-check ray where quadrature starts
_ROUNDING = 100 * np.finfo(float).eps
_NODES_PER_PANEL = 16      # Gauss-Legendre nodes; the error estimate uses twice as many
_ABS_TOLERANCE = 1e-10     # absolute error budget of V
_MAX_DEPTH = 60            # bisections of one panel before ToleranceNotMet
_TINY = np.finfo(float).tiny  # smallest normal float
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
        gu = evaluate(g, u)
        _raise_at_first((gu == 0) | ~np.isfinite(gu), u, IntegrandSingular)
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
    bad = (vals == 0) | ~np.isfinite(vals)
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
                   q: int, zc: np.ndarray, start=None) -> RadialBracket:
    """The rays to ``zc`` from the origin, or from ``start`` = (V(zc/2),
    log V(zc/2)) on: then, with rho0 = ``_CROSS_CHECK_START`` = 1/2,
    V(sigma z) = sigma^(-alpha) (rho0^alpha V(rho0 z) + alpha int_rho0^sigma
    s^(alpha-1) H(s z) ds), with q = 1 and one initial panel [rho0, 1], and
    log V continues from the given log.  Phi^beta comes from the ladder
    anchored at the origin either way."""
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
        if t.min() < _TINY:
            # 1/t and log t lose meaning where t leaves the normal floats
            raise ToleranceNotMet(
                f"tau^q underflows at q = {q}, Re alpha = {alpha.real:g}: the "
                f"cascade toward t = 0 bisects below tau = {tau_nodes.min():.3g}")
        vals = phi_power(t)
        if weight is not None:
            u = zc[:, None] * t[None, :]
            wt = evaluate(weight, u)
            # bound to a name, the mask lives to the end of this call; freed
            # before the product below, glibc's heap reuse raised the peak
            # RSS of benchmark runs by 5-9 MB
            bad = ~np.isfinite(wt)
            _raise_at_first(bad, u, IntegrandSingular)
            vals = vals * wt
        vals = vals.reshape(nz, k, nn)
        tpow = np.exp((qa - 1) * np.log(tau_nodes))[None, :, :]
        return q * tpow * vals

    edges = _initial_tau_edges() if start is None else np.array([_CROSS_CHECK_START, 1.0])
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
        v_pref = alpha * prefix
        start_log = 0j
        if start is not None:
            v0, start_log = start
            v_pref = v_pref + _CROSS_CHECK_START ** alpha * v0[:, None]
        v_pref = v_pref * np.exp(-alpha * np.log(sigmas))[None, :]
        log_end, ok = _unwrap_prefix(v_pref, start_log, zc, sigmas)
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
                         weight: Expr | None = None, start=None,
                         ) -> Iterator[tuple[np.ndarray, RadialBracket]]:
    """Yield (flat indices, RadialBracket) per processing chunk.

    Endpoints with |z| below 1e-100 are skipped; there V = 1 exactly.  Each
    ray is integrated from the origin, or, given ``start`` = (V at z/2,
    log V at z/2) with one value per endpoint, only from z/2 on
    (:func:`_bracket_chunk`).
    """
    alpha = _validate_alpha(alpha)
    beta = complex(phi_exponent) if phi_exponent is not None else alpha - 1
    zarr = _prepare(z)
    if start is not None:
        v0, logv0 = (np.asarray(a, dtype=complex).ravel() for a in start)
        if not len(v0) == len(logv0) == len(zarr):
            raise ParameterError("a start needs one V and log V per endpoint")
    q = _substitution_order(alpha) if start is None else 1
    idx_nonzero = np.flatnonzero(np.abs(zarr) > _ZERO_RADIUS)
    for first in range(0, len(idx_nonzero), _CHUNK):
        sel = idx_nonzero[first:first + _CHUNK]
        yield sel, _bracket_chunk(g, weight, alpha, beta, q, zarr[sel],
                                  None if start is None else (v0[sel], logv0[sel]))


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
        v = evaluate(e, u)
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


def _circle_log(vals: np.ndarray, what: str):
    """The log of samples at ``_roots_of_unity`` on its branch analytic in the disk.

    The phase is unwrapped around the circle, and its constant fixed so
    that the log at the origin (where the function is the mean of the
    samples) is the principal one.  Returns (logs, reason): a zero, or a
    winding number other than 0, gives a reason and no logs; a phase step
    of pi/2 or more gives neither, since more samples may resolve it.
    """
    if np.any(vals == 0):
        return None, f"{what} vanishes on |u| = 1"
    steps = np.angle(np.roll(vals, -1) / vals)
    if np.max(np.abs(steps)) >= _HALF_PI:
        return None, None
    winding = int(round(float(np.sum(steps)) / (2 * np.pi)))
    if winding != 0:
        return None, f"{what} winds {winding} times around 0 on |u| = 1"
    theta = np.angle(vals[0]) + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    theta -= 2 * np.pi * round((np.mean(theta) - np.angle(np.mean(vals)))
                               / (2 * np.pi))
    # the principal phase plus whole turns: conjugate samples get exactly
    # opposite phases
    theta = np.angle(vals) + 2 * np.pi * np.round((theta - np.angle(vals))
                                                  / (2 * np.pi))
    return np.log(np.abs(vals)) + 1j * theta, None


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
        wv = np.ones(n, dtype=complex)
        if weight is not None:
            wv, reason = _sample_circle(weight, u, "the weight")
            if reason:
                return _CircleSeries(reason=reason)
        logphi, reason = _circle_log(phi, "g(u)/u")
        if reason:
            return _CircleSeries(reason=reason)
        if logphi is not None:
            ell, ell_err = _trim(_coefficients(logphi), tol)
            h, h_err = _trim(_coefficients(np.exp(beta * logphi) * wv), tol)
            if ell is not None and h is not None:
                ell.flags.writeable = h.flags.writeable = False  # cached
                return _CircleSeries(ell, h, ell_err, h_err)
        if n >= _SERIES_MAX:
            if logphi is None:
                return _CircleSeries(
                    reason=f"phase of g(u)/u unresolved at {n} samples")
            return _CircleSeries(
                reason=f"coefficient tail {max(ell_err, h_err):.1e} above "
                       f"tolerance {tol:.1e} at {n} samples")
        n *= 2


def _log_series(v: np.ndarray, v_error: float):
    """(coefficients of log V, None) on |u| <= 1, or (None, the reason there are none).

    V is sampled on the circle from its own coefficients by one inverse
    FFT.  By Rouche's theorem the V that the coefficients approximate has
    no zero in the disk when their sum stays farther than ``v_error`` from
    0 on the circle and winds 0 times around it.
    """
    n = _SERIES_START
    while n < 2 * len(v):
        n *= 2
    while True:
        vals = n * np.fft.ifft(v, n)  # V at _roots_of_unity(n)
        if np.min(np.abs(vals)) <= v_error:
            return None, f"V comes within its error {v_error:.1e} of 0 on |u| = 1"
        logv, reason = _circle_log(vals, "V")
        if reason:
            return None, reason
        if logv is not None:
            coef, err = _trim(_coefficients(logv), _ABS_TOLERANCE)
            if coef is not None:
                return coef, None
        if n >= _SERIES_MAX:
            if logv is None:
                return None, f"phase of V unresolved at {n} samples"
            return None, (f"log V coefficient tail {err:.1e} above tolerance "
                          f"{_ABS_TOLERANCE:.1e} at {n} samples")
        n *= 2


def _horner(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.full(u.shape, coef[-1], dtype=complex)
    for c in coef[-2::-1]:
        out *= u
        out += c
    return out


class BracketFit:
    """The bracket of one (g, weight, alpha, phi exponent), fitted once for
    all the batches of endpoints that a subject or chain object evaluates.

    The first batch fits it: the circle series of log Phi and H, the
    coefficients of V and of log V, and, once a batch has an endpoint off
    the origin, the cross-check, which integrates 16 rays on their outer
    half from the series at u/2 (:meth:`_cross_check`); every later batch
    reuses them, so an object integrates at most one cross-check sample.
    ``reason`` says why the coefficient path was refused (None while it is
    not), and ``cross_check_gap`` is the largest |V| gap of the cross-check
    (None until it runs).
    """

    def __init__(self, g: Expr, alpha, phi_exponent=None, weight: Expr | None = None):
        self.g, self.alpha, self.phi_exponent, self.weight = g, alpha, phi_exponent, weight
        self.series: _CircleSeries | None = None
        self.v = self.logv = None
        self.reason: str | None = None
        self.cross_check_gap: float | None = None

    def final(self, z) -> BracketFinal:
        """Flat bracket values over a batch of endpoints |z| <= 1, from the
        coefficients, or by quadrature if the gate (module docstring)
        refused them.  Endpoints with |z| below 1e-100 take V = 1 exactly,
        and a batch of only such endpoints integrates nothing.
        """
        zarr = _prepare(z)
        alpha = _validate_alpha(self.alpha)
        beta = complex(self.phi_exponent) if self.phi_exponent is not None else alpha - 1
        nonzero = np.flatnonzero(np.abs(zarr) > _ZERO_RADIUS)
        if self.series is None:
            self.series = _circle_series(self.g, self.weight, beta, _ABS_TOLERANCE)
            self.reason = self.series.reason
            if self.reason is None:
                h = self.series.h
                self.v = alpha * h / (np.arange(len(h)) + alpha)
                # |alpha / (n + alpha)| <= 1 for Re(alpha) > 0, so V inherits H's bound
                self.logv, self.reason = _log_series(self.v, self.series.h_error)
        if self.reason is None and self.cross_check_gap is None and len(nonzero):
            self.cross_check_gap, self.reason = self._cross_check(alpha, beta)
        nz = len(zarr)
        out = BracketFinal(
            value=np.ones(nz, dtype=complex),
            log_value=np.zeros(nz, dtype=complex),
            logphi_end=np.zeros(nz, dtype=complex),
            error=np.zeros(nz, dtype=float),
            branch_ok=np.ones(nz, dtype=bool),
            path="coefficients" if self.reason is None else "quadrature",
            fallback_reason=self.reason, cross_check_gap=self.cross_check_gap,
        )
        if self.reason is None:
            (out.value[nonzero], out.log_value[nonzero],
             out.logphi_end[nonzero]) = self._values(zarr[nonzero])
            out.error[nonzero] = self.series.h_error
            return out
        for sel, br in iter_radial_brackets(self.g, alpha, zarr, beta, self.weight):
            out.value[sel] = br.value
            out.log_value[sel] = br.log_value
            out.logphi_end[sel] = br.logphi_end
            out.error[sel] = br.error
            out.branch_ok[sel] = br.branch_ok
        return out

    def _values(self, u: np.ndarray):
        """V, log V and log Phi at points of the closed disk.

        log V is the principal log of V plus the whole turns that the log V
        series puts on it: the series fixes the branch, and V its value.
        It is taken as log|V| + i (arg V + 2 pi turns), one real log, with
        the principal arg V that the turn count needs anyway.
        """
        v = _horner(self.v, u)
        arg = np.angle(v)
        turns = np.round((_horner(self.logv, u).imag - arg) / (2 * np.pi))
        logv = np.log(np.abs(v)) + 1j * (arg + 2 * np.pi * turns)
        return v, logv, _horner(self.series.logphi, u)

    def _cross_check(self, alpha: complex, beta: complex):
        """(largest |V| gap, reason or None) of the fit against quadrature.

        The sample is ``_CROSS_CHECK_POINTS`` roots of unity u: the error
        bounds are claimed on the closed disk, and by the maximum modulus
        principle the gap of two analytic functions is largest on its
        boundary circle.  Each ray is integrated only on its outer half,
        from the series' own V and log V at u/2 (``_CROSS_CHECK_START``):

            V(u) = 2^(-alpha) V(u/2) + alpha int_(1/2)^1 s^(alpha-1) H(s u) ds,

        so with D = series - true V the gap is D(u) - 2^(-alpha) D(u/2) plus
        the quadrature error.  That is analytic, and within h_err (1 +
        2^(-Re alpha)) + quadrature error + rounding.  An error eps u^n in
        coefficient n shows as a gap of |1 - 2^(-alpha-n)| eps, at least
        (1 - 2^(-Re alpha - n)) eps: 0.19 eps for n = 0 and 0.59 eps for
        n = 1 at alpha = 0.3, the catalog's smallest Re(alpha).  The factor
        falls toward 0.69 Re(alpha) for n = 0 as Re(alpha) -> 0, so at
        Re(alpha) = 0.05 an error of the constant coefficient must exceed
        about 58 h_err before the gap sees it.

        log V continues from the series' log at u/2, which shares any whole
        turn of the series' log V, so the series' log V(0) must also be the
        principal log of V(0), where quadrature from the origin starts it;
        log Phi comes from the ladder anchored at the origin.
        """
        zs = _roots_of_unity(_CROSS_CHECK_POINTS)
        v0, logv0, _ = self._values(_CROSS_CHECK_START * zs)
        try:
            (_, quad), = iter_radial_brackets(self.g, alpha, zs, beta, self.weight,
                                              start=(v0, logv0))
        except SchlichtError as exc:
            return None, f"cross-check quadrature raised {type(exc).__name__}: {exc}"
        value, log_value, logphi = self._values(zs)
        gap = np.abs(value - quad.value)
        bound = (self.series.h_error * (1 + _CROSS_CHECK_START ** alpha.real)
                 + quad.error + _ROUNDING * (1 + np.abs(quad.value)))
        same_branch = ((np.abs(log_value - quad.log_value) < _HALF_PI)
                       & (np.abs(logphi - quad.logphi_end) < _HALF_PI)
                       & (abs(self.logv[0] - np.log(self.v[0])) < _HALF_PI))
        worst = float(np.max(gap))
        if np.all(gap <= bound) and np.all(same_branch):
            return worst, None
        return worst, f"cross-check gap {worst:.1e} outside the error bounds"


def bracket_final(g: Expr, alpha, z, phi_exponent=None,
                  weight: Expr | None = None) -> BracketFinal:
    """One batch of bracket values from a fit of its own (:class:`BracketFit`)."""
    return BracketFit(g, alpha, phi_exponent, weight).final(z)


def _operator_from(zarr: np.ndarray, alpha: complex, fin: BracketFinal):
    """Operator values z V^(1/alpha) and their error bounds from one bracket pass."""
    vals = zarr * np.exp(fin.log_value / alpha)
    scale = np.abs(vals) / np.maximum(np.abs(alpha * fin.value), 1e-300)
    return vals, fin.error * scale


def operator_values_with_derivative(f: Expr, g: Expr, alpha, z,
                                    fit: BracketFit | None = None):
    """Operator values and closed-form G' from one bracket pass.

    Returns (values, derivatives, errors, branch_ok), vectorized over z.
    ``fit``, the ``BracketFit(g, alpha, weight=differentiate(f))`` of a
    caller that evaluates many batches, is reused; by default each call
    fits its own.
    """
    alpha = _validate_alpha(alpha)
    zarr = _prepare(z)
    if fit is None:
        # the weight stays the tree of f': the bracket fits' series cache is keyed by it
        fit = BracketFit(g, alpha, weight=differentiate(f))
    fin = fit.final(zarr)
    vals, errs = _operator_from(zarr, alpha, fin)
    derivs = evaluate(fit.weight, zarr) * np.exp((alpha - 1) * (fin.logphi_end
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


def _ladder_logs(g: Expr, z: np.ndarray) -> np.ndarray:
    """log Phi at each point of ``z``, continued by the anchor ladder of its ray."""
    ts = np.unique(np.concatenate([_initial_tau_edges()[1:], [1.0]]))
    return _phi_ladder(g, z, ts).log_at(np.array([1.0]))[:, 0]


class GzLogFit:
    """The log Phi series of one g, cross-checked once for all the batches
    that a T6 check or chain passes to :func:`continued_gz_log`.

    ``logphi`` is the coefficient array of the series when the gate of the
    coefficient path admits g and the series agrees with the anchor ladder
    on the ``_CROSS_CHECK_POINTS`` roots of unity, within its own error
    plus rounding; otherwise it is None and every point takes the ladder.
    It is computed on first use.
    """

    def __init__(self, g: Expr):
        self.g = g

    @cached_property
    def logphi(self) -> np.ndarray | None:
        series = _circle_series(self.g, None, 0j, _ABS_TOLERANCE)
        if series.reason is not None:
            return None
        zs = _roots_of_unity(_CROSS_CHECK_POINTS)
        sample = _horner(series.logphi, zs)
        try:
            gap = np.abs(sample - _ladder_logs(self.g, zs))
        except SchlichtError:
            return None
        if np.all(gap <= series.logphi_error + _ROUNDING * (1 + np.abs(sample))):
            return series.logphi
        return None


def continued_gz_log(g: Expr, z, fit: GzLogFit | None = None) -> np.ndarray:
    """Continued log of g(z)/z along each radial segment, 0 at the origin.

    Vectorized over ``z``; the value at z = 0 is exactly 0.  On |z| <= 1
    it is the log Phi series of the coefficient path when ``fit`` admits
    it (:class:`GzLogFit`); otherwise every point takes the anchor ladder.
    ``fit``, the ``GzLogFit(g)`` of a caller that evaluates many batches,
    is reused; by default each call cross-checks the series anew.
    """
    zarr = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    out = np.zeros(zarr.shape, dtype=complex)
    if isinstance(g, Var):
        return out
    nonzero = np.flatnonzero(np.abs(zarr) > _ZERO_RADIUS)
    if len(nonzero) and np.all(np.abs(zarr) <= 1 + 1e-9):
        logphi = (fit or GzLogFit(g)).logphi
        if logphi is not None:
            out[nonzero] = _horner(logphi, zarr[nonzero])
            return out
    for start in range(0, len(nonzero), 8192):
        sel = nonzero[start:start + 8192]
        out[sel] = _ladder_logs(g, zarr[sel])
    return out
