"""Loewner chains attached to the operators, and the K-bound disk algebra.

The main chain is

    L(z,t) = [ alpha * int_0^{e^{-st} z} g^(alpha-1) f' du
               - (a/c)(e^{mt}-1) e^{-st} z g^(alpha-1)(e^{-st}z)
                 f'(e^{-st}z) h(e^{-st}z) ]^(1/alpha).

Writing u0 = e^{-st} z and pulling out u0^alpha leaves a bracket
W(z,t) with W(0,t) = 1 - (a/c)(e^{mt}-1) h0, so that

    L = z e^{-st} W^(1/alpha),    a1(t) = e^{-st} W(0,t)^(1/alpha),

and the 1/alpha power is continued with the operators' one continuation
rule: first in t, on the anchor ladder ``operators._Ladder`` of W0 from
W = 1 at t = 0, then radially in z by ``operators._continued_log`` over
the edges of the operator bracket (``operators.radial_brackets``).

The automorphism chain of the second extension theorem is handled the
same way with bracket V(z) + e^{alpha t} - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CriterionParams, _blend
from .errors import (
    BranchPointHit,
    DenominatorZero,
    NonvanishingViolation,
    ParameterError,
    PoleAtOne,
    ToleranceNotMet,
)
from .expr import (
    AnalyticTriple,
    Expr,
    _ev,
    _raise_at_first,
    _scalar_out,
    differentiate,
)
from .operators import _Ladder, _unwrap_prefix, continued_gz_log, radial_brackets

__all__ = [
    "ChainPoint", "QcBound", "chain_l", "chain_a1", "transfer_a",
    "transfer_w", "transfer_p", "verify_chain_conditions",
    "ChainConditionReport", "ChainVerification", "qc_bound_k",
    "disk_inclusion_check", "chain_t6", "chain_t6_p", "chain_point",
    "chain_callable", "chain_t6_callable", "subordination_spot_check",
]

_TIME_ROUNDS = 24  # halving rounds of the time ladder of W0


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


def _w0_log(params: CriterionParams, h0: complex, ts: np.ndarray) -> np.ndarray:
    """Continued log of W0(tau) = 1 - (a/c)(e^{m tau}-1) h0 at each tau."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ParameterError("chain times must be non-negative")
    coeff = complex((params.a / params.c) * h0)

    def w0(tau):
        vals = 1.0 - coeff * (np.exp(params.m * tau) - 1.0)
        _raise_at_first((vals == 0) | ~np.isfinite(vals.real) | ~np.isfinite(vals.imag),
                        tau, BranchPointHit)
        return vals[None, :]

    tmax = float(np.max(ts, initial=0.0))
    if tmax == 0.0:
        return np.zeros(ts.shape, dtype=complex)
    # every requested time is an anchor, so its log is read off the ladder
    anchors = np.unique(np.concatenate([np.linspace(0.0, tmax, 129), ts.ravel()]))
    ladder = _Ladder(w0, anchors, "the chain bracket in time", _TIME_ROUNDS)
    return ladder.logs[0, np.searchsorted(ladder.ts, ts.ravel())].reshape(ts.shape)


def chain_a1(params: CriterionParams, h0: complex, t) -> complex | np.ndarray:
    """a1(t) = e^{t(m/alpha - s)} [(1 + (a/c)h0) e^{-mt} - (a/c)h0]^(1/alpha).

    The power takes the branch continued in t from the value 1 at t = 0,
    which collapses to exp(-s t + log W0(t)/alpha).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    logs = _w0_log(params, h0, ts)
    return _scalar_out(np.exp(-params.s * ts + logs / params.alpha), t)


def chain_l(triple: AnalyticTriple, params: CriterionParams, z, t):
    """Sample the chain at (z, t); vectorized over broadcast arrays."""
    params.validate()
    zb, tb = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                 np.asarray(t, dtype=float))
    zf = zb.ravel()
    tf = tb.ravel()
    alpha, s = params.alpha, params.s
    u0 = np.exp(-s * tf) * zf
    w0l = _w0_log(params, triple.h0, tf)
    coeff = (params.a / params.c) * (np.exp(params.m * tf) - 1.0)

    out = zf * np.exp(-s * tf + w0l / alpha)  # exact limit for u0 -> 0
    batch = radial_brackets(triple.g, alpha, u0, phi_exponent=alpha - 1,
                            weight=triple.fp)
    for sel, br in batch.chunks:
        u_edges = u0[sel][:, None] * br.sigmas[None, :]
        phi1 = np.exp((alpha - 1) * br.logphi_edges)
        fpv = _ev(triple.fp, u_edges)
        hv = _ev(triple.h, u_edges)
        w_pref = br.values - coeff[sel][:, None] * phi1 * fpv * hv
        log_end, ok = _unwrap_prefix(w_pref, w0l[sel], u0[sel], br.sigmas)
        if not np.all(ok):
            raise ToleranceNotMet("radial continuation of the chain bracket unresolved")
        out[sel] = zf[sel] * np.exp(-s * tf[sel] + log_end / alpha)
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


def chain_t6(f: Expr, g: Expr, alpha: float, z, t):
    """The automorphism chain [alpha int_0^z g^(a-1) f' du + (e^{alpha t}-1) z^alpha]^(1/alpha)."""
    alpha = float(alpha)
    if not alpha > 0:
        raise ParameterError("alpha must be a positive real number here")
    zb, tb = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                 np.asarray(t, dtype=float))
    zf, tf = zb.ravel(), tb.ravel()
    if np.any(tf < 0):
        raise ParameterError("chain times must be non-negative")
    out = zf * np.exp(tf)  # exact limit of z U^(1/alpha) as z -> 0
    fp = differentiate(f)
    batch = radial_brackets(g, alpha, zf, phi_exponent=alpha - 1, weight=fp)
    for sel, br in batch.chunks:
        u_pref = br.values + (np.exp(alpha * tf[sel]) - 1.0)[:, None]
        log_end, ok = _unwrap_prefix(u_pref, (alpha * tf[sel]).astype(complex),
                                     zf[sel], br.sigmas)
        if not np.all(ok):
            raise ToleranceNotMet("radial continuation of the chain bracket unresolved")
        out[sel] = zf[sel] * np.exp(log_end / alpha)
    return _scalar_out(out.reshape(zb.shape), z, t)


def chain_t6_p(f: Expr, g: Expr, alpha: float, z, t):
    """Driving term p(z,t) = e^{-alpha t}(z^{1-alpha} g^{alpha-1} f') + 1 - e^{-alpha t}.

    This is p = z L'(z,t) / dL/dt, the quotient the Becker extension turns
    into mu = (z/conj z)(1-p)/(1+p); no quadrature is involved.
    """
    alpha = float(alpha)
    zb, tb = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                 np.asarray(t, dtype=float))
    logphi = continued_gz_log(g, zb.ravel()).reshape(zb.shape)
    wv = np.exp((alpha - 1) * logphi) * _ev(differentiate(f), zb)
    decay = np.exp(-alpha * tb)
    return _scalar_out(decay * wv + (1 - decay), z, t)


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
    ``chain.driving_term(z, t)``, which needs no quadrature.
    """
    def chain(z, t):
        return chain_l(triple, params, z, t)

    def driving_term(z, t):
        return transfer_p(transfer_w(transfer_a(triple, params, z, t),
                                     params.s, params.m))

    chain.driving_term = driving_term
    return chain


def chain_t6_callable(f: Expr, g: Expr, alpha: float):
    """Vectorized (z, t) -> L(z, t) closure of the automorphism chain.

    It carries :func:`chain_t6_p` as ``chain.driving_term(z, t)``.
    """
    def chain(z, t):
        return chain_t6(f, g, alpha, z, t)

    def driving_term(z, t):
        return chain_t6_p(f, g, alpha, z, t)

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
