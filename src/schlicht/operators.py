"""The integral operators from Taylor coefficients on a disk |u| <= rho, and
radial quadrature beyond it.

Everything reduces to one bracket

    V(z) = alpha * int_0^1 t^(alpha-1) * Phi(z t)^beta * w(z t) dt,

where Phi(u) = g(u)/u (equal to 1 at the origin) and w is f', read off a
jet of f (``evaluate(f, u, 1)``), or 1 when no f is given.  The full
integral is then alpha * int_0^z g^(alpha-1) f' du = z^alpha V(z) and the
operator value is z * V(z)^(1/alpha).

One path computes V.  A :class:`BracketFit` of one (g, f, alpha, beta)
fixes a radius rho for all the batches of endpoints that a subject or
chain object evaluates; :func:`bracket_final` is the same for one batch.
Points with |z| <= rho take the series, the others a quadrature on the
outer segment of their ray.

The series.  When log Phi is analytic on the closed disk |u| <= rho, so is
H = exp(beta log Phi) w = sum h_n u^n, and termwise integration gives
V(z) = alpha * sum h_n z^n / (n + alpha) for every Re(alpha) > 0.  One FFT
each of samples at N points rho e^(2 pi i k/N) gives the coefficients of
log Phi (:func:`_circle_log`) and of H in u/rho, the trapezoidal rule,
exponentially convergent for analytic data; N doubles from
``_SERIES_START`` up to ``_SERIES_MAX``, and :func:`_trim` bounds the
error from the slots n >= N/2.  log V comes the same way from V
(:func:`_log_series`), and a point costs Horner (:meth:`BracketFit._values`).
The series of log Phi, V and log V are kept per process for each (g, f,
alpha, beta, rho) (:func:`_circle_series`).

The radius and the gate.  rho = 1 comes first; each refusal moves the fit
to the next radius of ``_RADII``, and when none is left it raises
ToleranceNotMet with the last reason.  Coefficients are used only if g
and w are finite on |u| = rho, Phi has no zero there and winding number 0
(with analytic g this rules out zeros inside), both coefficient errors
fit the tolerance, V stays above its error on the circle and winds 0
times around 0 (so by Rouche's theorem it has no zero in the disk), the
log V tail fits ``_ABS_TOLERANCE``, and the cross-check passes
(:meth:`BracketFit._cross_check`).  The tolerance is ``_ABS_TOLERANCE``;
on a circle with rho < 1, which a singularity of g or w may approach
closely, it is the larger of that and ``_ROUNDING`` times the largest |H|
there, the level that rounding of those samples leaves in every
coefficient (``BracketFinal.budget`` says which).

Beyond rho.  A point z = r e^(i theta) with r > rho takes

    V(z) = (rho/r)^alpha V(rho e^(i theta))
           + alpha r^(-alpha) int_rho^r s^(alpha-1) H(s e^(i theta)) ds

by quadrature from the series' V, log V and log Phi at rho e^(i theta)
(:func:`iter_radial_brackets`); its error bound adds (rho/r)^Re(alpha)
h_err to the quadrature's.  The same segments serve the cross-check and
:func:`continued_gz_log`, whose :class:`GzLogFit` is the fit of V = 1
(phi exponent 0, no f): it carries log Phi alone.

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
from .expr import Expr, Var, _raise_at_first, evaluate

__all__ = [
    "OperatorValue", "RadialBracket", "BracketFinal", "BracketFit",
    "iter_radial_brackets", "bracket_final",
    "operator_values", "operator_values_with_derivative", "operator_g_alpha",
    "operator_pascu", "operator_moldoveanu_pascu", "operator_mocanu",
    "GzLogFit", "continued_gz_log",
]

_HALF_PI = math.pi / 2
_ZERO_RADIUS = 1e-100
_EDGE = 1 + 1e-9           # endpoints up to this factor beyond a radius count as on it
_CHUNK = 2048
_SERIES_START = 64         # samples on |u| = rho at first
_SERIES_MAX = 1 << 14      # cap of the sample doubling
_RADII = (1.0, 0.95, 0.9, 0.8, 0.6, 0.4)  # series radii of a fit, tried in turn
_CROSS_CHECK_POINTS = 16   # points on |u| = rho integrated by quadrature per fit
_CROSS_CHECK_START = 0.5   # fraction of each cross-check ray where quadrature starts
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

    ``radius`` is the fit's series radius rho; ``path`` is "coefficients" at
    rho = 1, where no point is integrated, and "quadrature" below it.
    ``fallback_reason`` says why rho = 1 was refused (None when it was not),
    ``cross_check_gap`` is the largest gap of the cross-check at rho (None
    when it did not run), and ``budget`` names the tolerance the series met.
    """

    value: np.ndarray
    log_value: np.ndarray
    logphi_end: np.ndarray
    error: np.ndarray
    path: str
    radius: float = 1.0
    fallback_reason: str | None = None
    cross_check_gap: float | None = None
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

    ladder = (None if isinstance(g, Var)
              else _Ladder(g, lambda xs: zc[:, None] * fractions(xs, slice(None)), logphi0))

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
    of log V; the error bounds of log Phi and H (V inherits H's), Phi(0)
    and the tolerance met (``budget``), or the reason there are none."""

    logphi: np.ndarray | None = None
    v: np.ndarray | None = None
    logv: np.ndarray | None = None
    logphi_error: float = 0.0
    h_error: float = 0.0
    phi0: complex = 1
    budget: str = ""
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
    """The series of the bracket of (g, f, alpha, beta) on |u| = rho, kept per
    process for the 64 latest keys: every fit of the same key, and a chain
    and its operator, which share f, read one copy.  Its arrays are
    read-only; a fit that edits them works on its own copy
    (:meth:`BracketFit._fit_series`)."""
    circle = f"|u| = {rho:g}"
    n = _SERIES_START
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
        if logphi is not None:
            hv = np.exp(beta * logphi) * wv
            budget = tol if rho == 1 else max(tol, _ROUNDING * float(np.max(np.abs(hv))))
            ell, ell_err = _trim(_coefficients(logphi), budget)
            h, h_err = _trim(_coefficients(hv), budget)
            if ell is not None and h is not None:
                v = alpha * h / (np.arange(len(h)) + alpha)
                # |alpha / (n + alpha)| <= 1 for Re(alpha) > 0, so V inherits H's bound
                logv, reason = _log_series(v, h_err, circle)
                if reason:
                    return _CircleSeries(reason=reason)
                ell.flags.writeable = v.flags.writeable = logv.flags.writeable = False
                met = "absolute" if budget == tol else f"100 eps max|H| on {circle}"
                return _CircleSeries(ell, v, logv, ell_err, h_err, complex(np.mean(phi)),
                                     f"{budget:.1e} ({met})")
        if n >= _SERIES_MAX:
            if logphi is None:
                return _CircleSeries(
                    reason=f"phase of g(u)/u unresolved at {n} samples on {circle}")
            return _CircleSeries(
                reason=f"coefficient tail {max(ell_err, h_err):.1e} above "
                       f"tolerance {budget:.1e} at {n} samples on {circle}")
        n *= 2


def _log_series(v: np.ndarray, v_error: float, circle: str):
    """(coefficients of log V, None) on the disk, or (None, the reason there are none).

    V is sampled on the circle from its own coefficients by one inverse
    FFT.  By Rouche's theorem the V that the coefficients approximate has
    no zero in the disk when their sum stays farther than ``v_error`` from
    0 on the circle and winds 0 times around it.  A point reads only whole
    turns off the series (:meth:`BracketFit._values`), so once it fits
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


class BracketFit:
    """The bracket of one (g, f, alpha, phi exponent), weight f' (1 without
    f), fitted once for all the batches a subject or chain object evaluates.

    The first batch fits the series at ``radius`` rho = 1 and, once a batch
    has an endpoint off the origin, cross-checks it (:meth:`_cross_check`);
    each refusal moves the fit to the next radius of ``_RADII``.  Later
    batches reuse what was admitted.  ``reason`` says why rho = 1 was
    refused (None while it is not), and ``cross_check_gap`` is the largest
    gap of the cross-check at rho (None until it passes).
    """

    def __init__(self, g: Expr, alpha, phi_exponent=None, f: Expr | None = None):
        self.g, self.alpha, self.phi_exponent, self.f = g, alpha, phi_exponent, f
        self.radius = _RADII[0]
        self.series: _CircleSeries | None = None
        self.v = self.logv = None
        self.reason: str | None = None
        self.cross_check_gap: float | None = None

    def final(self, z) -> BracketFinal:
        """Flat bracket values over a batch of endpoints |z| <= 1: the series
        within the fit's radius and the segment quadrature beyond it.
        Endpoints with |z| below 1e-100 take V = 1 exactly, and a batch of
        only such endpoints integrates nothing.
        """
        zarr = _prepare(z)
        alpha = _validate_alpha(self.alpha)
        beta = complex(self.phi_exponent) if self.phi_exponent is not None else alpha - 1
        inner, outer = self._split(zarr, alpha, beta)
        rho, nz = self.radius, len(zarr)
        out = BracketFinal(
            value=np.ones(nz, dtype=complex), log_value=np.zeros(nz, dtype=complex),
            logphi_end=np.zeros(nz, dtype=complex), error=np.zeros(nz),
            path="coefficients" if rho == 1 else "quadrature",
            radius=rho, fallback_reason=self.reason, cross_check_gap=self.cross_check_gap,
            budget=self.series.budget)
        if not (len(inner) or len(outer)):
            return out
        zo, k = zarr[outer], len(inner)
        t0 = rho / np.abs(zo)
        # one series pass serves the inner points and the starts of the segments
        v, logv, logphi = self._values(np.concatenate([zarr[inner], t0 * zo]))
        out.value[inner], out.log_value[inner], out.logphi_end[inner] = v[:k], logv[:k], logphi[:k]
        out.error[inner] = self.series.h_error
        if len(outer):
            (out.value[outer], out.log_value[outer], out.logphi_end[outer],
             out.error[outer]) = _segments(
                self.g, alpha, zo, beta, self.f, (t0, v[k:], logv[k:], logphi[k:]))
            out.error[outer] += t0 ** alpha.real * self.series.h_error
        return out

    def _split(self, zarr: np.ndarray, alpha: complex, beta: complex):
        """Indices of the endpoints off the origin within and beyond the admitted radius."""
        r = np.abs(zarr)
        nonzero = np.flatnonzero(r > _ZERO_RADIUS)
        self._admit(alpha, beta, len(nonzero) > 0)
        beyond = r[nonzero] > self.radius * _EDGE
        return nonzero[~beyond], nonzero[beyond]

    def _admit(self, alpha: complex, beta: complex, cross_check: bool) -> None:
        """Fit the series at the current radius and, when ``cross_check``,
        cross-check it once; each refusal moves to the next radius, and when
        none is left ToleranceNotMet gives the last reason."""
        while True:
            reason = self._fit_series(alpha, beta) if self.series is None else None
            if reason is None and cross_check and self.cross_check_gap is None:
                gap, reason = self._cross_check(alpha, beta)
                if reason is None:
                    self.cross_check_gap = gap
            if reason is None:
                return
            self.reason = self.reason or reason
            lower = _RADII[_RADII.index(self.radius) + 1:]
            if not lower:
                raise ToleranceNotMet(
                    f"no series radius down to {self.radius:g} admitted: {reason}")
            self.radius, self.series = lower[0], None

    def _fit_series(self, alpha: complex, beta: complex) -> str | None:
        """Coefficients of log Phi, V and log V at the current radius from
        the process's series cache (:func:`_circle_series`), or the reason
        there are none.  ``v`` and ``logv`` are this fit's own writable
        copies, so an edit of one fit reaches no other."""
        self.series = _circle_series(self.g, self.f, alpha, beta, self.radius,
                                     _ABS_TOLERANCE)
        if self.series.reason is None:
            self.v, self.logv = self.series.v.copy(), self.series.logv.copy()
        return self.series.reason

    def _values(self, u: np.ndarray):
        """V, log V and log Phi at points of the closed disk |u| <= rho.

        log V is the principal log of V plus the whole turns that the log V
        series puts on it: the series fixes the branch, and V its value.
        It is taken as log|V| + i (arg V + 2 pi turns), one real log, with
        the principal arg V that the turn count needs anyway.
        """
        w = u / self.radius
        v = _horner(self.v, w)
        arg = np.angle(v)
        turns = np.round((_horner(self.logv, w).imag - arg) / (2 * np.pi))
        logv = np.log(np.abs(v)) + 1j * (arg + 2 * np.pi * turns)
        return v, logv, _horner(self.series.logphi, w)

    def _cross_check(self, alpha: complex, beta: complex):
        """(largest |V| gap, reason or None) of the fit against quadrature.

        The sample is ``_CROSS_CHECK_POINTS`` points u on |u| = rho, where the
        error bounds are claimed (the gap of two analytic functions is
        largest on the boundary).  Each ray is integrated on its outer half
        from the series' V, log V and log Phi at u/2 (``_CROSS_CHECK_START``):

            V(u) = 2^(-alpha) V(u/2) + alpha int_(1/2)^1 s^(alpha-1) H(s u) ds,

        so with D = series - true V the gap is D(u) - 2^(-alpha) D(u/2) plus
        the quadrature error, within h_err (1 + 2^(-Re alpha)) + quadrature
        error + rounding.  An error eps u^n in coefficient n shows as at
        least (1 - 2^(-Re alpha - n)) eps: 0.19 eps for n = 0 at alpha = 0.3,
        the catalog's smallest Re(alpha), eps / 29 at Re(alpha) = 0.05.  A
        whole turn of the log V or log Phi series reaches u/2 and u alike, so
        their constant terms must lie within pi/2 of the principal logs of
        V(0) and Phi(0).
        """
        zs = self.radius * _roots_of_unity(_CROSS_CHECK_POINTS)
        n = len(zs)
        v, logv, logphi = self._values(np.concatenate([_CROSS_CHECK_START * zs, zs]))
        start = (_CROSS_CHECK_START, v[:n], logv[:n], logphi[:n])
        try:
            quad, quad_logv, quad_logphi, quad_err = _segments(
                self.g, alpha, zs, beta, self.f, start)
        except SchlichtError as exc:
            return None, f"cross-check quadrature raised {type(exc).__name__}: {exc}"
        gap = np.abs(v[n:] - quad)
        bound = (self.series.h_error * (1 + _CROSS_CHECK_START ** alpha.real)
                 + quad_err + _ROUNDING * (1 + np.abs(quad)))
        same_branch = ((np.abs(logv[n:] - quad_logv) < _HALF_PI)
                       & (np.abs(logphi[n:] - quad_logphi) < _HALF_PI)
                       & (abs(self.logv[0] - np.log(self.v[0])) < _HALF_PI)
                       & (abs(self.series.logphi[0] - np.log(self.series.phi0))
                          < _HALF_PI))
        worst = float(np.max(gap))
        if np.all(gap <= bound) and np.all(same_branch):
            return worst, None
        return worst, f"cross-check gap {worst:.1e} outside the error bounds"


def bracket_final(g: Expr, alpha, z, phi_exponent=None,
                  f: Expr | None = None) -> BracketFinal:
    """One batch of bracket values from a fit of its own (:class:`BracketFit`)."""
    return BracketFit(g, alpha, phi_exponent, f).final(z)


def _operator_from(zarr: np.ndarray, alpha: complex, fin: BracketFinal):
    """Operator values z V^(1/alpha) and their error bounds from one bracket pass."""
    # see "Batches" in the module docstring
    vals = np.multiply(zarr, np.exp(fin.log_value / alpha))
    scale = np.abs(vals) / np.maximum(np.abs(alpha * fin.value), 1e-300)
    return vals, fin.error * scale


def operator_values_with_derivative(f: Expr, g: Expr, alpha, z,
                                    fit: BracketFit | None = None):
    """Operator values and closed-form G' from one bracket pass.

    Returns (values, derivatives, errors), vectorized over z.
    ``fit``, the ``BracketFit(g, alpha, f=f)`` of a caller that evaluates
    many batches, is reused; by default each call fits its own.
    """
    alpha = _validate_alpha(alpha)
    zarr = _prepare(z)
    if fit is None:
        fit = BracketFit(g, alpha, f=f)
    fin = fit.final(zarr)
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


class GzLogFit(BracketFit):
    """The fit that carries log Phi alone, once for all the batches that a
    T6 check or chain passes to :func:`continued_gz_log`: the bracket of
    V = 1 (phi exponent 0, no f), whose ``logphi_end`` is log Phi."""

    def __init__(self, g: Expr):
        super().__init__(g, 1.0, 0.0)

    def _cross_check(self, alpha: complex, beta: complex):
        """(largest log Phi gap, reason or None).  V = 1 exactly, so nothing
        is integrated: on the 16 points u of |u| = rho the log Phi series
        must agree with the ladder from its value at u/2 within both series
        errors and rounding, and its constant term must lie within pi/2 of
        the principal log of Phi(0)."""
        zs, c = self.radius * _roots_of_unity(_CROSS_CHECK_POINTS), _CROSS_CHECK_START
        ends, starts = np.split(_horner(self.series.logphi, np.concatenate([zs, c * zs])
                                        / self.radius), 2)
        try:
            ladder = _Ladder(self.g, lambda xs: zs[:, None] * (c + (1 - c) * xs[None, :]), starts)
        except SchlichtError as exc:
            return None, f"cross-check ladder raised {type(exc).__name__}: {exc}"
        gap = np.abs(ends - ladder.logs[:, -1])
        worst = float(np.max(gap))
        if (np.all(gap <= 2 * self.series.logphi_error + _ROUNDING * (1 + np.abs(ends)))
                and abs(self.series.logphi[0] - np.log(self.series.phi0)) < _HALF_PI):
            return worst, None
        return worst, f"cross-check gap {worst:.1e} outside the error bounds"


def continued_gz_log(g: Expr, z, fit: GzLogFit | None = None) -> np.ndarray:
    """Continued log of g(z)/z along each radial segment, 0 at the origin.

    Vectorized over ``z`` in the closed unit disk; the value at z = 0 is
    exactly 0.  It is the log Phi series within the radius of ``fit``, and
    the segments' ladder beyond it (:meth:`BracketFit.final`).  ``fit``,
    the ``GzLogFit(g)`` of a caller that evaluates many batches, is
    reused; by default each call fits anew.
    """
    zarr = _prepare(z)
    out = np.zeros(zarr.shape, dtype=complex)
    if isinstance(g, Var):
        return out
    fit = fit or GzLogFit(g)
    inner, outer = fit._split(zarr, 1 + 0j, 0j)
    out[inner] = _horner(fit.series.logphi, zarr[inner] / fit.radius)
    if len(outer):
        out[outer] = fit.final(zarr[outer]).logphi_end
    return out
