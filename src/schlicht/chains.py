"""Loewner chains attached to the operators, and the K-bound disk algebra.

The main chain is

    L(z,t) = [ alpha * int_0^{e^{-st} z} g^(alpha-1) f' du
               - (a/c)(e^{mt}-1) e^{-st} z g^(alpha-1)(e^{-st}z)
                 f'(e^{-st}z) h(e^{-st}z) ]^(1/alpha).

Writing u0 = e^{-st} z and pulling out u0^alpha leaves a bracket
W(z,t) with W(0,t) = 1 - (a/c)(e^{mt}-1) h0, so that

    L = z e^{-st} W^(1/alpha),    a1(t) = e^{-st} W(0,t)^(1/alpha).

The 1/alpha power takes the branch continued from W = 1 at (0, 0):
radially at t = 0, which is the operator's own continued log V
(``operators.BracketFit`` at u0), then in time at fixed u0.  In time
W = V(u0) (1 - (e^{mt}-1) D) is affine in e^{mt}, so the rest of the
branch is the principal log of 1 - (e^{mt}-1) D along a straight segment
from 1 (:func:`_time_log`), which fails only where that segment passes
through 0.  Continuing in time first and radially after gives the same
branch whenever W has no zero in the rectangle of chain points between
the two paths, which holds whenever L is a Loewner chain.

The automorphism chain of the second extension theorem is handled the
same way with bracket V(z) + e^{alpha t} - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CriterionParams, _blend, t6_field
from .errors import (
    DenominatorZero,
    NonvanishingViolation,
    ParameterError,
    PoleAtOne,
    ToleranceNotMet,
)
from .expr import AnalyticTriple, Expr, _scalar_out, evaluate
from .operators import BracketFit, GzLogFit

__all__ = [
    "ChainPoint", "QcBound", "chain_l", "chain_a1", "transfer_a",
    "transfer_w", "transfer_p", "verify_chain_conditions",
    "ChainConditionReport", "ChainVerification", "qc_bound_k",
    "disk_inclusion_check", "chain_t6", "chain_t6_p", "chain_point",
    "chain_callable", "chain_t6_callable", "subordination_spot_check",
]

@dataclass(frozen=True)
class ChainPoint:
    z: complex
    t: float
    L: complex
    A: complex
    B: complex
    w: complex
    p: complex
    a1: complex


@dataclass(frozen=True)
class QcBound:
    s: complex
    k: float
    l1: float | None
    l2: float | None
    l3: float | None
    K: float


def _time_log(drift, x) -> np.ndarray:
    """Continued log of 1 - x drift from its value 1 at x = 0, for x >= 0.

    The value runs along a straight segment from 1, so its continued log is
    the principal one unless the segment passes through 0, which happens
    exactly when x drift is real and at least 1; that, or a non-finite
    value, raises ToleranceNotMet.
    """
    vals = 1.0 - x * np.asarray(drift, dtype=complex)
    crossed = (vals.imag == 0) & (vals.real <= 0)
    if np.any(crossed | ~np.isfinite(vals)):
        raise ToleranceNotMet("the chain bracket vanishes or is not finite "
                              "on its segment in time; branch unresolved")
    return np.log(vals)


def _times(t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise ParameterError("chain times must be non-negative")
    return ts


def chain_a1(params: CriterionParams, h0: complex, t) -> complex | np.ndarray:
    """a1(t) = e^{t(m/alpha - s)} [(1 + (a/c)h0) e^{-mt} - (a/c)h0]^(1/alpha).

    The power takes the branch continued in t from the value 1 at t = 0,
    which collapses to exp(-s t + log W0(t)/alpha).
    """
    ts = np.atleast_1d(_times(t))
    logs = _time_log((params.a / params.c) * h0, np.expm1(params.m * ts))
    return _scalar_out(np.exp(-params.s * ts + logs / params.alpha), t)


def chain_l(triple: AnalyticTriple, params: CriterionParams, z, t,
            fit: BracketFit | None = None):
    """Sample the chain at (z, t); vectorized over broadcast arrays.

    With u0 = e^{-st} z the bracket is W = V(u0) (1 - (e^{mt}-1) D) with
    D = (a/c) Phi(u0)^(alpha-1) f'(u0) h(u0) / V(u0), so its log is the
    operator's continued log V plus :func:`_time_log`.  ``fit``, the
    operator's ``BracketFit(triple.g, params.alpha, f=triple.f)``, is
    reused across calls; by default each call fits its own.
    """
    params.validate()
    zb, tb = np.broadcast_arrays(np.asarray(z, dtype=complex), _times(t))
    zf, tf = zb.ravel(), tb.ravel()
    alpha = params.alpha
    u0 = np.exp(-params.s * tf) * zf
    if fit is None:
        fit = BracketFit(triple.g, alpha, f=triple.f)
    fin = fit.final(u0)
    # np.multiply, not *, on a temporary right factor: see "Batches" in operators
    drift = (np.multiply(params.a / params.c, np.exp((alpha - 1) * fin.logphi_end))
             * evaluate(triple.f, u0, 1) * evaluate(triple.h, u0) / fin.value)
    log_w = fin.log_value + _time_log(drift, np.expm1(params.m * tf))
    out = np.multiply(zf, np.exp(-params.s * tf + log_w / alpha))
    return _scalar_out(out.reshape(zb.shape), z, t)


def transfer_a(triple: AnalyticTriple, params: CriterionParams, z, t):
    """The transfer function A(z,t) of the chain, no quadrature involved.

    It is the e^(-mt) blend of the criteria's lead and bracket at u0 =
    e^(-st) z; a zero of h there raises NonvanishingViolation.
    """
    zb, tb = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                 np.asarray(t, dtype=float))
    u0 = np.exp(-params.s * tb) * zb
    out = _blend(triple, params, u0, np.exp(-params.m * tb), NonvanishingViolation)
    return _scalar_out(out, z, t)


def transfer_w(A, s: complex, m: float):
    """w = ((1+s)A - m) / ((1-s)A + m)."""
    Aa = np.asarray(A, dtype=complex)
    den = (1 - s) * Aa + m
    if np.any(den == 0):
        raise DenominatorZero("(1-s)A + m vanished")
    return _scalar_out(((1 + s) * Aa - m) / den, A)


def transfer_p(w):
    """p = (1+w)/(1-w), the Caratheodory transform of w.

    Applied to w = transfer_w(transfer_a(...)) this is the chain's driving
    term p = z L'(z,t) / dL/dt, so the extension has mu = -(z/conj z) w.
    """
    wa = np.asarray(w, dtype=complex)
    if np.any(wa == 1):
        raise PoleAtOne("w = 1 has no finite p")
    return _scalar_out((1 + wa) / (1 - wa), w)


@dataclass(frozen=True)
class ChainConditionReport:
    name: str
    satisfied: bool
    margin: float
    witness_z: complex | None
    witness_t: float | None


@dataclass(frozen=True)
class ChainVerification:
    satisfied: bool
    conditions: tuple[ChainConditionReport, ...]
    n_samples: int


def verify_chain_conditions(triple: AnalyticTriple, params: CriterionParams,
                            samples) -> ChainVerification:
    """Spot-check the chain requirements on a finite (z, t) sample set.

    Checks |w| < 1, Re p > 0, |B| < m/(2a) at every sample, and that |a1|
    increases along the sampled time ladder.
    """
    params.validate()
    pts = list(samples)
    zs = np.array([complex(z) for z, _ in pts])
    ts = np.array([float(t) for _, t in pts])
    A = transfer_a(triple, params, zs, ts)
    w = transfer_w(A, params.s, params.m)
    p = transfer_p(w)
    B = A - params.m / (2 * params.a)

    def cond(name, margins):
        i = int(np.argmin(margins))
        m_ = float(margins[i])
        return ChainConditionReport(name, m_ > 1e-12, m_,
                                    complex(zs[i]), float(ts[i]))

    conds = [
        cond("w-in-disk", 1 - np.abs(w)),
        cond("p-positive-real-part", p.real),
        cond("b-bounded", params.m / (2 * params.a) - np.abs(B)),
    ]
    tgrid = np.unique(ts)
    if len(tgrid) >= 2:
        mags = np.abs(chain_a1(params, triple.h0, tgrid))
        diffs = np.diff(mags)
        i = int(np.argmin(diffs))
        conds.append(ChainConditionReport(
            "a1-increasing", bool(diffs[i] > 0), float(diffs[i]),
            None, float(tgrid[i + 1])))
    return ChainVerification(all(c.satisfied for c in conds), tuple(conds), len(pts))


def qc_bound_k(s, k: float) -> QcBound:
    """Dilatation bound K of the extension, with the auxiliary roots.

    For s = 1 the bound is k itself.  Otherwise, with d1 = |s-1|^2 and
    d2 = |conj(s)^2 - 1|,

        l1 = d1/d2,
        l2 = (sqrt(4a^2 + k^2 d2^2) - 2a) / (k d1)   (l1 when k = 0),
        l3 = (d1 + k d2) / (d2 + k d1),              K = l3.

    Internals run in extended precision, l2 through its cancellation-free
    rearrangement, and the returned root is rounded two ulps toward 1: the
    disk containment it certifies is extremely sensitive to downward
    rounding of l3 when Re(s) is small, and a sufficient bound may err
    upward but never down.
    """
    s = complex(s)
    if not s.real > 0:
        raise ParameterError("Re(s) must be positive")
    if not (0 <= k < 1):
        raise ParameterError(f"k={k} must lie in [0, 1)")
    if abs(s - 1) <= 1e-12:
        return QcBound(s, k, None, None, None, K=float(k))
    a = np.longdouble(s.real)
    b = np.longdouble(s.imag)
    kl = np.longdouble(k)
    d1 = (a - 1) ** 2 + b * b
    d2 = np.sqrt((a * a - b * b - 1) ** 2 + (2 * a * b) ** 2)
    l1 = d1 / d2
    if k == 0:
        l2 = l1
    else:
        # (sqrt(x^2+y) - x) rewritten as y / (sqrt(x^2+y) + x)
        l2 = kl * d2 * d2 / (d1 * (np.sqrt(4 * a * a + (kl * d2) ** 2) + 2 * a))
    l3 = float((d1 + kl * d2) / (d2 + kl * d1))
    l3 = min(np.nextafter(np.nextafter(l3, 1.0), 1.0), np.nextafter(1.0, 0.0))
    return QcBound(s, k, float(l1), float(l2), float(l3), K=float(l3))


def disk_inclusion_check(s, m: float, k: float, l: float) -> tuple[bool, float]:
    """Containment of the k-disk target inside the l-disk image.

    Delta1 has centre m((1+l^2) + a(1-l^2) - i b(1-l^2)) / D and radius
    2 l m / D with D = 2a(1+l^2) + (1-l^2)(1+|s|^2); Delta2 has centre
    m/(2a) and radius k m/(2a).  Holds when |s1-s2| + r2 <= r1.  The
    slack near its zero is ill conditioned for small Re(s), so the
    arithmetic runs in extended precision.
    """
    s = complex(s)
    if not (0 <= l < 1):
        raise ParameterError(f"l={l} must lie in [0, 1)")
    a = np.longdouble(s.real)
    b = np.longdouble(s.imag)
    ll = np.longdouble(l)
    ml = np.longdouble(m)
    den = 2 * a * (1 + ll * ll) + (1 - ll * ll) * (1 + a * a + b * b)
    c_re = ml * ((1 + ll * ll) + a * (1 - ll * ll)) / den
    c_im = -ml * b * (1 - ll * ll) / den
    r1 = 2 * ll * ml / den
    s2 = ml / (2 * a)
    r2 = np.longdouble(k) * ml / (2 * a)
    slack = r1 - np.sqrt((c_re - s2) ** 2 + c_im ** 2) - r2
    return (bool(slack >= -1e-12), float(slack))


def chain_t6(f: Expr, g: Expr, alpha: float, z, t, fit: BracketFit | None = None):
    """The automorphism chain [alpha int_0^z g^(a-1) f' du + (e^{alpha t}-1) z^alpha]^(1/alpha).

    Its bracket is U = V(z) + e^{alpha t} - 1 = V(z) (1 + (e^{alpha t}-1) / V(z)).
    ``fit``, the operator's ``BracketFit(g, alpha, f=f)``, is reused
    across calls; by default each call fits its own.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ParameterError("alpha must be a positive real number here")
    zb, tb = np.broadcast_arrays(np.asarray(z, dtype=complex), _times(t))
    zf, tf = zb.ravel(), tb.ravel()
    if fit is None:
        fit = BracketFit(g, alpha, f=f)
    fin = fit.final(zf)
    log_u = fin.log_value + _time_log(-1.0 / fin.value, np.expm1(alpha * tf))
    out = np.multiply(zf, np.exp(log_u / alpha))  # see "Batches" in operators
    return _scalar_out(out.reshape(zb.shape), z, t)


def chain_t6_p(f: Expr, g: Expr, alpha: float, z, t, gz_fit: GzLogFit | None = None):
    """Driving term p(z,t) = e^{-alpha t}(z^{1-alpha} g^{alpha-1} f') + 1 - e^{-alpha t}.

    This is p = z L'(z,t) / dL/dt, the quotient the Becker extension turns
    into mu = (z/conj z)(1-p)/(1+p); no quadrature is involved.  ``gz_fit``,
    the ``GzLogFit(g)`` of a caller that evaluates many batches, is reused.
    """
    alpha = float(alpha)
    zb, tb = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                 np.asarray(t, dtype=float))
    decay = np.exp(-alpha * tb)
    return _scalar_out(decay * t6_field(f, g, alpha, zb, gz_fit) + (1 - decay), z, t)


def chain_point(triple: AnalyticTriple, params: CriterionParams, z, t) -> ChainPoint:
    """Full sampled chain state at one (z, t)."""
    zc, tc = complex(z), float(t)
    A = transfer_a(triple, params, zc, tc)
    w = transfer_w(A, params.s, params.m)
    return ChainPoint(
        z=zc, t=tc,
        L=chain_l(triple, params, zc, tc),
        A=A, B=A - params.m / (2 * params.a),
        w=w, p=transfer_p(w),
        a1=chain_a1(params, triple.h0, tc),
    )


def chain_callable(triple: AnalyticTriple, params: CriterionParams):
    """Vectorized (z, t) -> L(z, t) closure for the extension builder.

    It carries its driving term p = transfer_p(transfer_w(transfer_a)) as
    ``chain.driving_term(z, t)``, which needs no quadrature.  Its values
    share one bracket fit.
    """
    fit = BracketFit(triple.g, params.alpha, f=triple.f)

    def chain(z, t):
        return chain_l(triple, params, z, t, fit)

    def driving_term(z, t):
        return transfer_p(transfer_w(transfer_a(triple, params, z, t),
                                     params.s, params.m))

    chain.driving_term = driving_term
    return chain


def chain_t6_callable(f: Expr, g: Expr, alpha: float):
    """Vectorized (z, t) -> L(z, t) closure of the automorphism chain.

    It carries :func:`chain_t6_p` as ``chain.driving_term(z, t)``.  Its
    values share one bracket fit, and its driving terms one log Phi fit.
    """
    fit = BracketFit(g, alpha, f=f)
    gz_fit = GzLogFit(g)

    def chain(z, t):
        return chain_t6(f, g, alpha, z, t, fit)

    def driving_term(z, t):
        return chain_t6_p(f, g, alpha, z, t, gz_fit)

    chain.driving_term = driving_term
    return chain


def subordination_spot_check(chain, t: float, s: float, rho: float = 0.9,
                             n_inner: int = 36, n_boundary: int = 720,
                             r_boundary: float = 0.999) -> bool:
    """Polygon test that L(U_rho, t) lands inside L(U, s) for t <= s.

    The target region boundary is approximated by the image of the circle
    |z| = r_boundary at time s; membership is by winding number of that
    polygon around each probe.
    """
    if t > s:
        raise ParameterError("requires t <= s")
    th = np.linspace(0, 2 * np.pi, n_boundary, endpoint=False)
    poly = np.asarray(chain(r_boundary * np.exp(1j * th), np.full(n_boundary, s)))
    probes = np.asarray(chain(rho * np.exp(1j * np.linspace(0, 2 * np.pi, n_inner,
                                                            endpoint=False)),
                              np.full(n_inner, t)))
    closed = np.concatenate([poly, poly[:1]])
    rel = closed[None, :] - probes[:, None]
    if np.any(rel == 0):
        return True  # probe exactly on the boundary polygon counts as inside
    dang = np.angle(rel[:, 1:] / rel[:, :-1])
    winding = np.round(np.sum(dang, axis=1) / (2 * np.pi)).astype(int)
    return bool(np.all(winding == 1))
