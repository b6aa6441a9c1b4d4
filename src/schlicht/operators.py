"""The integral operators from Taylor coefficients on a disk |u| <= rho, and
radial quadrature beyond it.

Everything reduces to one bracket

    V(z) = alpha * int_0^1 t^(alpha-1) * Phi(z t)^beta * w(z t) dt,

where Phi(u) = g(u)/u (equal to 1 at the origin) and w is f', read off a
jet of f (``evaluate(f, u, 1)``), or 1 when no f is given.  The full
integral is then alpha * int_0^z g^(alpha-1) f' du = z^alpha V(z) and the
operator value is z * V(z)^(1/alpha).

One path computes V: :func:`bracket_final` over a batch of endpoints.
Each (g, f, alpha, beta) has one radius rho per process, the first whose
series is admitted (:func:`_admitted`).  Points with |z| <= rho take the
series, the others a quadrature on the outer segment of their ray.

The series.  When log Phi is analytic on the closed disk |u| <= rho, so is
H = exp(beta log Phi) w = sum h_n u^n, and termwise integration gives
V(z) = alpha * sum h_n z^n / (n + alpha) for every Re(alpha) > 0.  One FFT
each of samples at N points rho e^(2 pi i k/N) gives the coefficients of
log Phi (:func:`_circle_log`) and of H in u/rho, the trapezoidal rule,
exponentially convergent for analytic data; N doubles from
``_SERIES_START`` up to ``_SERIES_MAX`` while the error that :func:`_trim`
bounds from the slots n >= N/2 still falls.  log V comes the same way from V
(:func:`_log_series`), and a point costs Horner (:meth:`_CircleSeries.values`).
The series of log Phi, V and log V are made, checked and kept once per
process for each (g, f, alpha, beta, rho) (:func:`_circle_series`);
nothing is integrated to admit them.

The radius and the gate.  rho = 1 comes first; each refusal moves the
bracket to the next radius of ``_RADII``, and when none is left it raises
ToleranceNotMet with the last reason.  Coefficients are used only if g
and w are finite on |u| = rho, Phi has no zero there and winding number 0
(with analytic g this rules out zeros inside), both coefficient errors
fit the tolerance, V stays above its error on the circle and winds 0
times around 0 (so by Rouche's theorem it has no zero in the disk), the
log V tail fits ``_ABS_TOLERANCE``, log Phi passes its check against
ladders (:func:`_check_log_phi`), and the series of H, and so of V,
agrees with H evaluated off the sample points (:func:`_check_v`).
The tolerance is ``_ABS_TOLERANCE``; on a circle with rho < 1, which a
singularity of g or w may approach closely, it is the larger of that and
``_ROUNDING`` times the largest |H| there, the level that rounding of those
samples leaves in every coefficient (``BracketFinal.budget`` says which).

Beyond rho.  A point z = r e^(i theta) with r > rho takes

    V(z) = (rho/r)^alpha V(rho e^(i theta))
           + alpha r^(-alpha) int_rho^r s^(alpha-1) H(s e^(i theta)) ds

by quadrature from the series' V, log V and log Phi at rho e^(i theta)
(:func:`iter_radial_brackets`); its error bound adds (rho/r)^Re(alpha)
h_err to the quadrature's.
:func:`continued_gz_log` needs log Phi alone: beyond rho it takes each
segment's ladder and integrates nothing.

Every branch is continued by one rule: :func:`_continued_log` takes one
principal log step per entry and flags steps that turn the argument by
pi/2 or more.  :class:`_Ladder` carries log Phi along a batch of segments
from their start; the quadrature continues Phi^beta on it, and the outer
1/alpha power over the partial integrals at the panel edges, halving each
panel whose step does not resolve.  The chains continue their brackets
from ``log_value`` at the endpoint (``chains``).

The derivative of the operator needs no further quadrature.  Since
G(z)^alpha = z^alpha V(z) = alpha * int_0^z g^(alpha-1) f' du,

    G'(z) = f'(z) * Phi(z)^(alpha-1) * V(z)^(-(alpha-1)/alpha),

where both powers take the continued logarithms of one bracket pass at the
endpoint (``logphi_end`` and ``log_value``), the same branches that define
the integrand and G itself.  At the origin Phi = V = 1, so G'(0) = f'(0)
and no ray is integrated.

Batches.  A value does not depend on the batch it is computed in, to the
last bit.  Two numpy behaviours would break that, and the code avoids
both.  On one element the in-place complex product of :func:`_horner`
takes a scalar loop that rounds differently, so a one-point batch is
evaluated as two.  And on arrays of 256 KiB or more (16,384 complex
values), ``a * b`` with a temporary ``b`` multiplies into ``b`` with the
operands swapped, while a complex product's imaginary part depends on
their order; so a product whose right factor is a temporary is written
``np.multiply(a, b)``, which keeps it, here and in ``chains``.  Points
beyond rho are the exception: the segments of a batch share their panel
layout (:func:`_bracket_chunk`), so their values agree across batches only
within their error bounds.

Panels are Gauss-Legendre with ``_NODES_PER_PANEL`` nodes; the error of
each panel is estimated by doubling the node count, and panels are bisected,
at most ``_MAX_DEPTH`` times, until the estimate fits into the panel's share
of ``_ABS_TOLERANCE`` or the rounding level of its sums.  These three
constants are the one numerical budget of every operator value; they are
read at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
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
from .expr import Expr, Var, _raise_at_first, evaluate

__all__ = [
    "OperatorValue", "RadialBracket", "BracketFinal",
    "iter_radial_brackets", "bracket_final",
    "operator_values", "operator_values_with_derivative", "operator_g_alpha",
    "operator_pascu", "operator_moldoveanu_pascu", "operator_mocanu",
    "continued_gz_log",
]

_HALF_PI = math.pi / 2
_ZERO_RADIUS = 1e-100
_EDGE = 1 + 1e-9           # endpoints up to this factor beyond a radius count as on it
_CHUNK = 2048
_SERIES_START = 64         # samples on |u| = rho at first
_SERIES_MAX = 1 << 14      # cap of the sample doubling
_RADII = (1.0, 0.95, 0.9, 0.8, 0.6, 0.4)  # series radii, tried in turn
_CHECK_POINTS = 16         # points on each circle of the series checks
_CHECK_INNER = 0.5         # the checks' inner circle, as a fraction of rho
_LADDER_ANCHORS = 8        # evenly spaced initial anchors of a ladder past the start
_ROUNDING = 100 * np.finfo(float).eps
_NODES_PER_PANEL = 16      # Gauss-Legendre nodes; the error estimate uses twice as many
_ABS_TOLERANCE = 1e-10     # absolute error budget of V
_MAX_DEPTH = 60            # bisections of one panel before ToleranceNotMet
_LADDER_ROUNDS = 64        # anchor insertion rounds of one branch ladder


@dataclass(frozen=True)
class OperatorValue:
    value: complex
    estimated_error: float


@dataclass
class RadialBracket:
    """Bracket data for one batch of ray segments sharing a panel layout.

    Segment i runs from t_i z_i to z_i; ``sigmas`` are the right panel
    edges as fractions x of every segment, column j of ``values`` holds V
    at x = sigmas[j], ``logphi_edges`` the continued log of Phi = g(u)/u
    there, and ``log_value`` that of V at z.  ``error`` bounds the
    quadrature's part of the error of V at z.
    """

    sigmas: np.ndarray
    values: np.ndarray
    log_value: np.ndarray
    logphi_edges: np.ndarray
    error: np.ndarray

    @property
    def value(self) -> np.ndarray:
        return self.values[:, -1]

    @property
    def logphi_end(self) -> np.ndarray:
        return self.logphi_edges[:, -1]


@dataclass
class BracketFinal:
    """Flat per-point bracket results.

    ``radius`` is the admitted series radius rho; ``path`` is "coefficients"
    at rho = 1, where no point is integrated, and "quadrature" below it.
    ``fallback_reason`` says why rho = 1 was refused (None when it was not),
    and ``budget`` names the tolerance the series met.
    """

    value: np.ndarray
    log_value: np.ndarray
    logphi_end: np.ndarray
    error: np.ndarray
    path: str
    radius: float = 1.0
    fallback_reason: str | None = None
    budget: str = ""


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
    """Anchor ladder carrying log Phi along a batch of segments from their start.

    ``points(xs)`` gives the points at the sorted fractions ``xs`` of each
    segment, one row per segment, and ``start_log`` the log of Phi = g(u)/u
    at x = 0, the first of the anchors ``xs`` that all rows share; ``vals``
    and ``logs`` hold Phi and its continued log there.  A gap whose step
    reaches pi/2 in argument on any row is bisected, for at most
    ``_LADDER_ROUNDS`` evaluations; a gap between adjacent floats holds a
    zero or branch point of Phi and raises IntegrandSingular.
    """

    def __init__(self, g: Expr, points, start_log: np.ndarray):
        self.g, self.points, self.start_log = g, points, start_log
        self.xs = np.arange(_LADDER_ANCHORS + 1) / _LADDER_ANCHORS
        self._rebuild()

    def phi(self, xs: np.ndarray) -> np.ndarray:
        """Phi at fractions ``xs``; a zero or non-finite g raises IntegrandSingular."""
        u = self.points(xs)
        gu = evaluate(self.g, u)
        _raise_at_first((gu == 0) | ~np.isfinite(gu), u, IntegrandSingular)
        return gu / u

    def _rebuild(self) -> None:
        for _ in range(_LADDER_ROUNDS):
            self.vals = self.phi(self.xs)
            self.logs, resolved = _continued_log(self.vals, self.start_log, self.vals[:, 0])
            bad_gaps = ~np.all(resolved, axis=0)
            if not np.any(bad_gaps):
                return
            lefts = np.concatenate([[0.0], self.xs[:-1]])
            mids = 0.5 * (lefts[bad_gaps] + self.xs[bad_gaps])
            merged = np.unique(np.concatenate([self.xs, mids]))
            if len(merged) == len(self.xs):
                _raise_at_first(~resolved, self.points(self.xs), IntegrandSingular)
            self.xs = merged
        raise ToleranceNotMet(
            "argument of g(u)/u jumps >= pi/2 between anchors; branch unresolved")

    def log_at(self, xs: np.ndarray) -> np.ndarray:
        """Continued log at query fractions: the stored log at an anchor, else
        one step from the nearest anchor on the left; a query whose step
        reaches pi/2 becomes an anchor."""
        vals = self.phi(xs)
        for _ in range(_LADDER_ROUNDS):
            left = np.searchsorted(self.xs, xs, side="right") - 1
            anchor_log = self.logs[:, left]
            logs, resolved = _continued_log(vals[..., None], anchor_log, self.vals[:, left])
            bad = ~np.all(resolved[..., 0], axis=0)
            if not np.any(bad):
                return np.where(self.xs[left] == xs, anchor_log, logs[..., 0])
            self.xs = np.unique(np.concatenate([self.xs, xs[bad]]))
            self._rebuild()
        raise ToleranceNotMet("argument of g(u)/u jumps >= pi/2 from anchor "
                              "to node; branch unresolved")


def _unwrap_prefix(vals: np.ndarray, start_log, points: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Continued log along axis 1 of ``vals`` from exp(start_log) on the left.

    ``vals[i, j]`` is a prefix bracket at ``points[i, j]``.  Its first zero
    or non-finite value, innermost column first, raises
    NonvanishingViolation at that point.  Returns (log at the last column,
    resolved), with the flags of :func:`_continued_log`.
    """
    bad = (vals == 0) | ~np.isfinite(vals)
    if np.any(bad):
        j = int(np.flatnonzero(np.any(bad, axis=0))[0])
        i = int(np.flatnonzero(bad[:, j])[0])
        raise NonvanishingViolation(complex(points[i, j]))
    logs, resolved = _continued_log(vals, start_log)
    return logs[:, -1], resolved


def _halves(panels) -> list:
    """Each panel (a, b, depth, ...) as its two halves, one level deeper."""
    return [half for a, b, depth, *_ in panels
            for half in ((a, 0.5 * (a + b), depth + 1), (0.5 * (a + b), b, depth + 1))]


def _segment_points(z: np.ndarray, t0: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """t z at the fractions ``xs`` of the segments from t0 z to z, one row each."""
    return z[:, None] * (1 - (1 - t0)[:, None] * (1 - xs)[None, :])


def _bracket_chunk(g: Expr, f: Expr | None, alpha: complex, beta: complex,
                   zc: np.ndarray, start) -> Iterator[tuple[np.ndarray, RadialBracket]]:
    """The segments from t0 zc to zc, given ``start`` = (t0, V, log V, log Phi)
    at t0 zc, one of each per ray:

        V(t z) = t^(-alpha) (t0^alpha V(t0 z) + alpha int_t0^t s^(alpha-1) H(s z) ds),

    with t = 1 - (1 - t0)(1 - x) at the fraction x of a segment (exactly 1
    at its end).  Panels in x start from [0, 1]; a ray leaves the shared
    layout once every panel of its own has met its budget, and each group
    yields (rows of ``zc``, bracket)."""
    t0, v0, logv0, logphi0 = start
    xlo, wlo = _leg(_NODES_PER_PANEL)
    xhi, whi = _leg(2 * _NODES_PER_PANEL)
    nz = len(zc)
    span = (1 - t0)[:, None]

    def fractions(xs: np.ndarray, rows) -> np.ndarray:
        """t at the fractions ``xs`` of the segments of ``rows``, one row each."""
        return 1 - span[rows] * (1 - xs)[None, :]

    ladder = None if isinstance(g, Var) else _Ladder(g, partial(_segment_points, zc, t0), logphi0)

    def rule_values(x_nodes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # x_nodes is (panels, nodes); result is (rows, panels, nodes)
        k, nn = x_nodes.shape
        x = x_nodes.ravel()
        t = fractions(x, rows)
        vals = span[rows] * np.exp((alpha - 1) * np.log(t))
        if ladder is not None and beta != 0:
            vals = vals * np.exp(beta * ladder.log_at(x)[rows])
        if f is not None:
            u = zc[rows, None] * t
            wt = evaluate(f, u, 1)
            # bound to a name, the mask lives to the end of this call; freed
            # before the product below, glibc's heap reuse raised the peak
            # RSS of benchmark runs by 5-9 MB
            bad = ~np.isfinite(wt)
            _raise_at_first(bad, u, IntegrandSingular)
            vals = vals * wt
        return vals.reshape(len(rows), k, nn)

    def converge(panels: list, rows: np.ndarray):
        """Groups (rows, panels (a, b, depth, integral, error)) of ``rows``:
        each panel is bisected until its rule difference fits its share of
        the budget or the rounding level of its sums, which is then its
        error, and rows leave once every panel of theirs has."""
        accepted = []
        while True:
            a_arr = np.array([p[0] for p in panels])
            b_arr = np.array([p[1] for p in panels])
            mid = 0.5 * (a_arr + b_arr)
            half = 0.5 * (b_arr - a_arr)
            i_lo = half * np.einsum("zkn,n->zk", rule_values(
                mid[:, None] + half[:, None] * xlo[None, :], rows), wlo)
            i_hi = half * np.einsum("zkn,n->zk", rule_values(
                mid[:, None] + half[:, None] * xhi[None, :], rows), whi)
            err = np.abs(i_hi - i_lo)
            thresh = 0.25 * _ABS_TOLERANCE / max(1.0, abs(alpha)) * (b_arr - a_arr)
            noise = 100 * np.finfo(float).eps * (np.abs(i_lo) + np.abs(i_hi))
            ok = err <= np.maximum(thresh, noise)
            integral = np.zeros((nz, len(panels)), dtype=complex)
            error = np.zeros((nz, len(panels)))
            integral[rows], error[rows] = i_hi, np.maximum(err, noise)
            entries = [(*p, integral[:, j], error[:, j]) for j, p in enumerate(panels)]
            done = np.all(ok, axis=1)
            if np.any(done):
                yield rows[done], accepted + entries
                rows, ok = rows[~done], ok[~done]
                if not len(rows):
                    return
            converged = np.all(ok, axis=0)
            accepted += [e for e, c in zip(entries, converged) if c]
            a, b, depth = max((p for p, c in zip(panels, converged) if not c), key=lambda p: p[2])
            if depth >= _MAX_DEPTH:
                raise ToleranceNotMet(f"panel [{a:.3g},{b:.3g}] above tolerance at depth {depth}")
            panels = _halves(p for p, c in zip(panels, converged) if not c)

    work = [(rows, acc, 0) for rows, acc in converge([(0.0, 1.0, 0)], np.arange(nz))]
    while work:
        rows, accepted, rounds = work.pop()
        accepted.sort(key=lambda p: p[0])
        sigmas = np.array([p[1] for p in accepted])
        t_edges = fractions(sigmas, rows)
        v_pref = (alpha * np.cumsum(np.stack([p[3][rows] for p in accepted], axis=1), axis=1)
                  + (t0[rows] ** alpha * v0[rows])[:, None]) * np.exp(-alpha * np.log(t_edges))
        log_end, resolved = _unwrap_prefix(v_pref, logv0[rows], zc[rows, None] * t_edges)
        unresolved = ~np.all(resolved, axis=0)
        if not np.any(unresolved):
            yield rows, RadialBracket(
                sigmas=sigmas, values=v_pref, log_value=log_end,
                logphi_edges=(np.zeros(v_pref.shape, dtype=complex) if ladder is None
                              else ladder.log_at(sigmas)[rows]),
                error=abs(alpha) * np.sum([p[4][rows] for p in accepted], axis=0))
            continue
        if rounds == _LADDER_ROUNDS:
            raise ToleranceNotMet("outer branch continuation unresolved")
        # the outer continuation needs denser edges where a step turned too far
        halves = _halves(p for p, bad in zip(accepted, unresolved) if bad)
        kept = [p for p, bad in zip(accepted, unresolved) if not bad]
        work += [(sub, kept + acc, rounds + 1) for sub, acc in converge(halves, rows)]


def _validate_alpha(alpha) -> complex:
    alpha = complex(alpha)
    if abs(alpha) < 1e-9:
        raise AlphaTooSmall(alpha)
    if alpha.real <= 0:
        raise AlphaTooSmall(alpha, reason="Re(alpha) <= 0 makes the integral diverge")
    return alpha


def _prepare(z) -> np.ndarray:
    zarr = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    if np.any(np.abs(zarr) > _EDGE):
        raise ParameterError("quadrature endpoints must satisfy |z| <= 1")
    return zarr


def iter_radial_brackets(g: Expr, alpha, z, phi_exponent=None,
                         f: Expr | None = None, *, start,
                         ) -> Iterator[tuple[np.ndarray, RadialBracket]]:
    """Yield (flat indices, RadialBracket) per group of rays on one panel layout.

    ``start`` = (t0, V, log V, log Phi) gives, for each endpoint z, the
    fraction t0 of z where its segment starts (a scalar serves them all)
    and the bracket's V, log V and log Phi at t0 z; each segment is
    integrated from there to z (:func:`_bracket_chunk`) with the weight
    f', or 1 without ``f``.  Endpoints with |z| below 1e-100 are skipped;
    there V = 1 exactly.
    """
    alpha = _validate_alpha(alpha)
    beta = complex(phi_exponent) if phi_exponent is not None else alpha - 1
    zarr = _prepare(z)
    t0, *given = start
    t0 = np.asarray(t0, dtype=float)
    given = [np.asarray(a, dtype=complex).ravel() for a in given]
    if (t0.shape not in ((), zarr.shape) or len(given) != 3
            or any(len(a) != len(zarr) for a in given)):
        raise ParameterError("a start needs one t0, V, log V and log Phi per endpoint")
    t0 = np.broadcast_to(t0, zarr.shape)
    idx_nonzero = np.flatnonzero(np.abs(zarr) > _ZERO_RADIUS)
    for first in range(0, len(idx_nonzero), _CHUNK):
        sel = idx_nonzero[first:first + _CHUNK]
        for rows, br in _bracket_chunk(g, f, alpha, beta, zarr[sel],
                                       (t0[sel], *(a[sel] for a in given))):
            yield sel[rows], br


def _segments(g: Expr, alpha: complex, z: np.ndarray, beta: complex,
              f: Expr | None, start) -> list[np.ndarray]:
    """[V, log V, log Phi, error] at ``z`` by :func:`iter_radial_brackets`."""
    out = [np.ones(len(z), dtype=complex), np.zeros(len(z), dtype=complex),
           np.zeros(len(z), dtype=complex), np.zeros(len(z))]
    for sel, br in iter_radial_brackets(g, alpha, z, beta, f, start=start):
        for arr, part in zip(out, (br.value, br.log_value, br.logphi_end, br.error)):
            arr[sel] = part
    return out


@dataclass(frozen=True)
class _CircleSeries:
    """Taylor coefficients in u/rho on |u| <= rho of log Phi, of V = alpha *
    sum h_n u^n / (n + alpha) for H = exp(beta log Phi) f' = sum h_n u^n, and
    of log V; the error bound of H (V inherits it) and the tolerance met
    (``budget``), or the reason there are none."""

    logphi: np.ndarray | None = None
    v: np.ndarray | None = None
    logv: np.ndarray | None = None
    h_error: float = 0.0
    budget: str = ""
    radius: float = 1.0
    reason: str | None = None

    def values(self, u: np.ndarray):
        """V, log V and log Phi at points of the closed disk |u| <= rho.

        log V is the principal log of V plus the whole turns that the log V
        series puts on it: the series fixes the branch, and V its value.
        It is taken as log|V| + i (arg V + 2 pi turns), one real log, with
        the principal arg V that the turn count needs anyway.
        """
        w = u / self.radius
        v = _horner(self.v, w)
        arg = np.angle(v)
        logv = np.log(np.abs(v)) + 1j * (arg + 2 * np.pi * _turns(_horner(self.logv, w).imag, arg))
        return v, logv, _horner(self.logphi, w)


def _turns(phase: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """Whole turns between a continued phase and the principal one."""
    return np.round((phase - arg) / (2 * np.pi))


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


def _sample_circle(e: Expr, u: np.ndarray, what: str, circle: str, order: int = 0):
    """Values of ``e``, or of its ``order``-th derivative, on the sample
    circle, or the reason they are unusable."""
    try:
        v = evaluate(e, u, order)
    except SchlichtError as exc:
        return None, f"{what} cannot be evaluated on {circle} ({type(exc).__name__})"
    if not np.all(np.isfinite(v)):
        return None, f"{what} is not finite on {circle}"
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


def _circle_log(vals: np.ndarray, what: str, circle: str):
    """The log of samples on a circle on its branch analytic in the disk.

    The phase is unwrapped around the circle, and its constant fixed so
    that the log at the origin (where the function is the mean of the
    samples) is the principal one.  Returns (logs, reason): a zero, or a
    winding number other than 0, gives a reason and no logs; a phase step
    of pi/2 or more gives neither, since more samples may resolve it.
    """
    if np.any(vals == 0):
        return None, f"{what} vanishes on {circle}"
    steps = np.angle(np.roll(vals, -1) / vals)
    if np.max(np.abs(steps)) >= _HALF_PI:
        return None, None
    winding = int(round(float(np.sum(steps)) / (2 * np.pi)))
    if winding != 0:
        return None, f"{what} winds {winding} times around 0 on {circle}"
    theta = np.angle(vals[0]) + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    theta -= 2 * np.pi * round((np.mean(theta) - np.angle(np.mean(vals)))
                               / (2 * np.pi))
    # the principal phase plus whole turns: conjugate samples get exactly
    # opposite phases
    theta = np.angle(vals) + 2 * np.pi * np.round((theta - np.angle(vals))
                                                  / (2 * np.pi))
    return np.log(np.abs(vals)) + 1j * theta, None


@lru_cache(maxsize=64)
def _circle_series(g: Expr, f: Expr | None, alpha: complex, beta: complex, rho: float,
                   tol: float) -> _CircleSeries:
    """The series of the bracket of (g, f, alpha, beta) on |u| = rho, its log
    Phi (:func:`_check_log_phi`) and V (:func:`_check_v`) checked, kept per
    process for the 64 latest keys: every batch of the same key, and a
    chain and its operator, which share f, read one read-only copy."""
    circle = f"|u| = {rho:g}"
    n, last_tail = _SERIES_START, math.inf
    while True:
        u = rho * _roots_of_unity(n)
        if isinstance(g, Var):
            phi = np.ones(n, dtype=complex)
        else:
            gv, reason = _sample_circle(g, u, "g", circle)
            if reason:
                return _CircleSeries(reason=reason)
            phi = gv / u
        wv = np.ones(n, dtype=complex)
        if f is not None:
            wv, reason = _sample_circle(f, u, "the weight", circle, 1)
            if reason:
                return _CircleSeries(reason=reason)
        logphi, reason = _circle_log(phi, "g(u)/u", circle)
        if reason:
            return _CircleSeries(reason=reason)
        tail = math.inf  # an unresolved phase doubles whatever the last tail
        if logphi is not None:
            hv = np.exp(beta * logphi) * wv
            h_max = float(np.max(np.abs(hv)))
            budget = tol if rho == 1 else max(tol, _ROUNDING * h_max)
            ell, ell_err = _trim(_coefficients(logphi), budget)
            h, h_err = _trim(_coefficients(hv), budget)
            if ell is not None and h is not None:
                v = alpha * h / (np.arange(len(h)) + alpha)
                # |alpha / (n + alpha)| <= 1 for Re(alpha) > 0, so V inherits H's bound
                logv, reason = _log_series(v, h_err, circle)
                if not (reason or isinstance(g, Var)):
                    reason = _check_log_phi(g, ell, ell_err, complex(np.mean(phi)), rho)
                if reason:
                    return _CircleSeries(reason=reason)
                ell.flags.writeable = v.flags.writeable = logv.flags.writeable = False
                met = "absolute" if budget == tol else f"100 eps max|H| on {circle}"
                series = _CircleSeries(ell, v, logv, h_err, f"{budget:.1e} ({met})", rho)
                reason = _check_v(g, f, alpha, beta, series, h_max)
                return _CircleSeries(reason=reason) if reason else series
            tail = max(ell_err, h_err)
        if n >= _SERIES_MAX or (logphi is not None and tail >= last_tail):
            if logphi is None:
                return _CircleSeries(
                    reason=f"phase of g(u)/u unresolved at {n} samples on {circle}")
            return _CircleSeries(
                reason=f"coefficient tail {tail:.1e} above "
                       f"tolerance {budget:.1e} at {n} samples on {circle}")
        n, last_tail = 2 * n, tail


def _check_log_phi(g: Expr, logphi: np.ndarray, error: float, phi0: complex,
                   rho: float) -> str | None:
    """Why the log Phi series on |u| <= rho is refused, or None.  Nothing is
    integrated: on the 16 points u of |u| = rho the series must agree with
    the ladder from its value at u/2 within 2 ``error`` plus rounding,
    and, since a whole turn reaches u/2 and u alike, its constant term must
    lie within pi/2 of the principal log of Phi(0) = ``phi0``."""
    zs, c = rho * _roots_of_unity(_CHECK_POINTS), _CHECK_INNER
    ends, starts = np.split(_horner(logphi, np.concatenate([zs, c * zs]) / rho), 2)
    try:
        ladder = _Ladder(g, lambda xs: zs[:, None] * (c + (1 - c) * xs[None, :]), starts)
    except SchlichtError as exc:
        return f"cross-check ladder raised {type(exc).__name__}: {exc}"
    gap = np.abs(ends - ladder.logs[:, -1])
    if (np.all(gap <= 2 * error + _ROUNDING * (1 + np.abs(ends)))
            and abs(logphi[0] - np.log(phi0)) < _HALF_PI):
        return None
    return f"cross-check gap {float(np.max(gap)):.1e} outside the error bounds"


def _check_v(g: Expr, f: Expr | None, alpha: complex, beta: complex,
             series: _CircleSeries, h_max: float) -> str | None:
    """Why the series of V and log V on |u| <= rho are refused, or None.

    Nothing is integrated.  The FFT reproduces H at its samples, so
    aliasing and truncation show between them: at ``_CHECK_POINTS`` points
    of |u| = rho at the angles 2 pi (k + 1/3) / 16, which are sample points
    for no N, and at as many of |u| = rho/2, the series sum h_n (u/rho)^n
    with h_n = v_n (n + alpha) / alpha must agree with H = exp(beta log
    Phi) f', evaluated there with log Phi the principal log plus the whole
    turns of its checked series, within h_err plus rounding of max|H| on
    the circle (``h_max``).  V = alpha sum h_n u^n / (n + alpha) is then
    right within h_err too.  The log V series must lie within pi/2 of arg V
    plus whole turns at the same points, so that the turns a point reads
    off it (:meth:`_CircleSeries.values`) are unambiguous, and its constant
    term within pi/2 of the principal log of V(0), since a whole turn
    reaches every point alike.
    """
    rho, circle = series.radius, f"|u| = {series.radius:g}"
    w = np.exp(2j * np.pi * (np.arange(_CHECK_POINTS) + 1 / 3) / _CHECK_POINTS)
    w = np.concatenate([w, _CHECK_INNER * w])
    u = rho * w
    h = np.ones(len(u), dtype=complex)
    if f is not None:
        h, reason = _sample_circle(f, u, "the weight", circle, 1)
        if reason:
            return reason
    if beta != 0 and not isinstance(g, Var):
        gv, reason = _sample_circle(g, u, "g", circle)
        if reason:
            return reason
        phi = gv / u
        turns = _turns(_horner(series.logphi, w).imag, np.angle(phi))
        h = np.exp(beta * (np.log(phi) + 2j * np.pi * turns)) * h
    coef = series.v * ((np.arange(len(series.v)) + alpha) / alpha)
    gap = float(np.max(np.abs(_horner(coef, w) - h)))
    if not gap <= series.h_error + _ROUNDING * h_max:  # a NaN gap fails too
        return f"H series gap {gap:.1e} outside the error bounds"
    phase, arg = _horner(series.logv, w).imag, np.angle(_horner(series.v, w))
    if not (np.max(np.abs(phase - arg - 2 * np.pi * _turns(phase, arg))) < _HALF_PI
            and abs(series.logv[0] - np.log(series.v[0])) < _HALF_PI):
        return "log V series off the branch of V"
    return None


def _log_series(v: np.ndarray, v_error: float, circle: str):
    """(coefficients of log V, None) on the disk, or (None, the reason there are none).

    V is sampled on the circle from its own coefficients by one inverse
    FFT.  By Rouche's theorem the V that the coefficients approximate has
    no zero in the disk when their sum stays farther than ``v_error`` from
    0 on the circle and winds 0 times around it.  A point reads only whole
    turns off the series (:meth:`_CircleSeries.values`), so once it fits
    ``_ABS_TOLERANCE`` its top terms whose moduli sum below pi/4 are cut.
    """
    if len(v) == 1 and abs(v[0]) > v_error:  # a constant's log is a constant
        return np.log(v), None
    n = _SERIES_START
    while n < 2 * len(v):
        n *= 2
    while True:
        vals = n * np.fft.ifft(v, n)  # V at the sample points of the circle
        if np.min(np.abs(vals)) <= v_error:
            return None, f"V comes within its error {v_error:.1e} of 0 on {circle}"
        logv, reason = _circle_log(vals, "V", circle)
        if reason:
            return None, reason
        if logv is not None:
            coef, err = _trim(_coefficients(logv), _ABS_TOLERANCE)
            if coef is not None:
                tail = np.cumsum(np.abs(coef[::-1]))[::-1]
                return coef[:max(int(np.sum(tail >= np.pi / 4)), 1)], None
        if n >= _SERIES_MAX:
            if logv is None:
                return None, f"phase of V unresolved at {n} samples on {circle}"
            return None, (f"log V coefficient tail {err:.1e} above tolerance "
                          f"{_ABS_TOLERANCE:.1e} at {n} samples on {circle}")
        n *= 2


def _horner(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum coef[n] u^n over a flat batch, by Horner's rule in place.

    Every series value passes through here.  On one element numpy's in-place
    complex product takes a scalar loop whose last bit can differ from the
    array loop's, so a one-point batch is evaluated as two copies of its
    point: a value then does not depend on its batch.
    """
    if len(u) == 1:
        return _horner(coef, np.repeat(u, 2))[:1]
    out = np.full(u.shape, coef[-1], dtype=complex)
    for c in coef[-2::-1]:
        out *= u
        out += c
    return out


def _admitted(g: Expr, f: Expr | None, alpha: complex, beta: complex):
    """(series, reason): the series of the first radius of ``_RADII`` that
    :func:`_circle_series` admits, and why rho = 1 was refused (None when
    it was not).  When no radius is left, ToleranceNotMet gives the last
    reason."""
    first = None
    for rho in _RADII:
        series = _circle_series(g, f, alpha, beta, rho, _ABS_TOLERANCE)
        if series.reason is None:
            return series, first
        first = first or series.reason
    raise ToleranceNotMet(f"no series radius down to {rho:g} admitted: {series.reason}")


def bracket_final(g: Expr, alpha, z, phi_exponent=None,
                  f: Expr | None = None) -> BracketFinal:
    """Flat bracket values over a batch of endpoints |z| <= 1 for (g, f,
    alpha, phi exponent), weight f' (1 without f): the admitted series
    (:func:`_admitted`) within its radius and the segment quadrature beyond
    it.  Endpoints with |z| below 1e-100 take V = 1 exactly, and a batch
    of only such endpoints integrates nothing.
    """
    zarr = _prepare(z)
    alpha = _validate_alpha(alpha)
    beta = complex(phi_exponent) if phi_exponent is not None else alpha - 1
    series, reason = _admitted(g, f, alpha, beta)
    rho, nz = series.radius, len(zarr)
    out = BracketFinal(
        value=np.ones(nz, dtype=complex), log_value=np.zeros(nz, dtype=complex),
        logphi_end=np.zeros(nz, dtype=complex), error=np.zeros(nz),
        path="coefficients" if rho == 1 else "quadrature",
        radius=rho, fallback_reason=reason, budget=series.budget)
    r = np.abs(zarr)
    nonzero = np.flatnonzero(r > _ZERO_RADIUS)
    if not len(nonzero):
        return out
    beyond = r[nonzero] > rho * _EDGE
    inner, outer = nonzero[~beyond], nonzero[beyond]
    zo, k = zarr[outer], len(inner)
    t0 = rho / np.abs(zo)
    # one series pass serves the inner points and the starts of the segments
    v, logv, logphi = series.values(np.concatenate([zarr[inner], t0 * zo]))
    out.value[inner], out.log_value[inner], out.logphi_end[inner] = v[:k], logv[:k], logphi[:k]
    out.error[inner] = series.h_error
    if len(outer):
        (out.value[outer], out.log_value[outer], out.logphi_end[outer],
         out.error[outer]) = _segments(g, alpha, zo, beta, f, (t0, v[k:], logv[k:], logphi[k:]))
        out.error[outer] += t0 ** alpha.real * series.h_error
    return out


def _operator_from(zarr: np.ndarray, alpha: complex, fin: BracketFinal):
    """Operator values z V^(1/alpha) and their error bounds from one bracket pass."""
    # see "Batches" in the module docstring
    vals = np.multiply(zarr, np.exp(fin.log_value / alpha))
    scale = np.abs(vals) / np.maximum(np.abs(alpha * fin.value), 1e-300)
    return vals, fin.error * scale


def operator_values_with_derivative(f: Expr, g: Expr, alpha, z):
    """Operator values and closed-form G' from one bracket pass.

    Returns (values, derivatives, errors), vectorized over z.
    """
    alpha = _validate_alpha(alpha)
    zarr = _prepare(z)
    fin = bracket_final(g, alpha, zarr, f=f)
    vals, errs = _operator_from(zarr, alpha, fin)
    # see "Batches" in the module docstring
    derivs = evaluate(f, zarr, 1) * np.exp(np.multiply(alpha - 1, fin.logphi_end
                                                       - fin.log_value / alpha))
    return vals, derivs, errs


def operator_values(f: Expr, g: Expr, alpha, z):
    """Vectorized operator evaluation; returns (values, errors)."""
    vals, _, errs = operator_values_with_derivative(f, g, alpha, z)
    return vals, errs


def operator_g_alpha(f: Expr, g: Expr, alpha, z) -> OperatorValue:
    """[alpha * int_0^z g^(alpha-1)(u) f'(u) du]^(1/alpha), branch continued."""
    vals, errs = operator_values(f, g, alpha, complex(z))
    return OperatorValue(complex(vals[0]), float(errs[0]))


def operator_pascu(f: Expr, alpha, z) -> OperatorValue:
    """The g = z specialization."""
    return operator_g_alpha(f, Var(), alpha, z)


def _weightless(g: Expr, alpha, z, phi_exponent) -> OperatorValue:
    alpha = _validate_alpha(alpha)
    zc = np.atleast_1d(np.asarray(complex(z)))
    fin = bracket_final(g, alpha, zc, phi_exponent=phi_exponent)
    vals, errs = _operator_from(zc, alpha, fin)
    return OperatorValue(complex(vals[0]), float(errs[0]))


def operator_moldoveanu_pascu(g: Expr, alpha, z) -> OperatorValue:
    """The f = z specialization (f' identically 1)."""
    return _weightless(g, alpha, z, phi_exponent=complex(alpha) - 1)


def operator_mocanu(g: Expr, alpha, z) -> OperatorValue:
    """[alpha * int_0^z g^alpha(u)/u du]^(1/alpha); g^alpha/u = u^(alpha-1)(g/u)^alpha."""
    return _weightless(g, alpha, z, phi_exponent=complex(alpha))


def continued_gz_log(g: Expr, z) -> np.ndarray:
    """Continued log of g(z)/z along each radial segment, 0 at the origin.

    Vectorized over ``z`` in the closed unit disk; the value at z = 0 is
    exactly 0.  Within the first radius rho of ``_RADII`` whose series of
    log Phi (:func:`_circle_series` of V = 1) is admitted, a point takes
    that series; beyond it, its segment's ladder from the series at rho
    z/|z|, on the points of :func:`_bracket_chunk`, ``_CHUNK`` at a time.
    """
    zarr = _prepare(z)
    out = np.zeros(zarr.shape, dtype=complex)
    if isinstance(g, Var):
        return out
    series, _ = _admitted(g, None, 1 + 0j, 0j)
    rho, r = series.radius, np.abs(zarr)
    inner = np.flatnonzero((r > _ZERO_RADIUS) & (r <= rho * _EDGE))
    out[inner] = _horner(series.logphi, zarr[inner] / rho)
    outer = np.flatnonzero(r > rho * _EDGE)
    for first in range(0, len(outer), _CHUNK):
        sel = outer[first:first + _CHUNK]
        t0 = rho / np.abs(zarr[sel])
        out[sel] = _Ladder(g, partial(_segment_points, zarr[sel], t0),
                           _horner(series.logphi, t0 * zarr[sel] / rho)).logs[:, -1]
    return out
