"""Expression trees for analytic functions of one complex variable.

Nodes are immutable dataclasses, so structural equality and hashing come
for free.  Evaluation accepts Python scalars or numpy arrays and always
uses principal branches: Im(Log) in (-pi, pi] for log and for non-integer
powers.  Differentiation is symbolic tree rewriting.  Trees are built
through the smart constructors, which fold constant subtrees and the
identities x + 0, 0 + x, x - 0, 0*x, x*0, 1*x, x*1 and x^1, but not 0 - x
(+0 would become -0) or x^0 (0^0 raises).  :func:`evaluate` is the one
walk over a tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointHit, DivisionByZero, NonFiniteValue, ParameterError

__all__ = [
    "Expr", "Var", "Const", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Exp", "Log",
    "Z", "var", "const", "neg", "add", "sub", "mul", "div", "pow_", "exp_", "log_",
    "evaluate", "eval_expr", "differentiate", "principal_power", "log_derivative_at",
    "log_derivative_field", "AnalyticTriple", "as_subject",
]


@dataclass(frozen=True)
class Expr:
    """Base node; concrete kinds subclass this."""


@dataclass(frozen=True)
class Var(Expr):
    """The variable z."""


@dataclass(frozen=True)
class Const(Expr):
    value: complex


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    expo: Expr


@dataclass(frozen=True)
class Exp(Expr):
    a: Expr


@dataclass(frozen=True)
class Log(Expr):
    a: Expr


Z = Var()
_ZERO, _ONE = Const(0j), Const(1 + 0j)


def var() -> Var:
    return Z


def const(v) -> Const:
    return Const(complex(v))


def _finite(v: complex) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Neg(a)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        v = a.value + b.value
        if _finite(v):
            return Const(v)
    if _ZERO in (a, b):
        return b if a == _ZERO else a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        v = a.value - b.value
        if _finite(v):
            return Const(v)
    if b == _ZERO:
        return a
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        v = a.value * b.value
        if _finite(v):
            return Const(v)
    if _ZERO in (a, b):
        return _ZERO
    if _ONE in (a, b):
        return b if a == _ONE else a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        v = a.value / b.value
        if _finite(v):
            return Const(v)
    return Div(a, b)


def pow_(base: Expr, expo: Expr) -> Expr:
    if isinstance(base, Const) and isinstance(expo, Const) and base.value != 0:
        v = principal_power(base.value, expo.value)
        if _finite(v):
            return Const(v)
    if expo == _ONE:
        return base
    return Pow(base, expo)


def exp_(a: Expr) -> Expr:
    if isinstance(a, Const):
        v = np.exp(complex(a.value))
        if _finite(complex(v)):
            return Const(complex(v))
    return Exp(a)


def log_(a: Expr) -> Expr:
    if isinstance(a, Const) and a.value != 0:
        return Const(complex(np.log(complex(a.value))))
    return Log(a)


def _raise_at_first(mask, points, error) -> None:
    """Raise ``error(z)`` at the first point z, in flat order, where ``mask`` holds."""
    if np.any(mask):
        idx = int(np.flatnonzero(np.ravel(mask))[0])
        raise error(complex(np.ravel(points)[idx]))


def _scalar_out(out, *inputs):
    """``out`` as a Python complex when every input is a scalar, else as is."""
    if all(np.isscalar(v) for v in inputs):
        return complex(np.ravel(out)[0])
    return out


_MAX_INT_POW = 64


def principal_power(w, exponent):
    """exp(exponent * Log w) with the principal logarithm.

    0**e is 0 for Re e > 0 and a BranchPointHit otherwise.  Integer
    exponents of small magnitude use repeated multiplication, which agrees
    with the principal branch and avoids transcendental round-off.
    Accepts scalars or arrays in ``w``; ``exponent`` is a scalar.
    """
    e = complex(exponent)
    arr = np.asarray(w, dtype=complex)
    if e == 1:
        out = arr.copy()
    elif e == 0:
        if np.any(arr == 0):
            raise BranchPointHit(0j)
        out = np.ones_like(arr)
    elif e.imag == 0 and float(e.real).is_integer() and abs(e.real) <= _MAX_INT_POW:
        n = int(e.real)
        if n < 0 and np.any(arr == 0):
            raise BranchPointHit(0j)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = arr ** n
    else:
        zero = arr == 0
        if np.any(zero):
            if e.real <= 0:
                raise BranchPointHit(0j)
            out = np.zeros_like(arr)
            nz = ~zero
            out[nz] = np.exp(e * np.log(arr[nz]))
        else:
            out = np.exp(e * np.log(arr))
    return _scalar_out(out, w)


def _walk(e: Expr, z: np.ndarray):
    if isinstance(e, Var):
        return z
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg):
        return -_walk(e.a, z)
    if isinstance(e, Add):
        return _walk(e.a, z) + _walk(e.b, z)
    if isinstance(e, Sub):
        return _walk(e.a, z) - _walk(e.b, z)
    if isinstance(e, Mul):
        return _walk(e.a, z) * _walk(e.b, z)
    if isinstance(e, Div):
        den = _walk(e.b, z)
        _raise_at_first(den == 0, z, lambda w: DivisionByZero(w, e.b))
        return _walk(e.a, z) / den
    if isinstance(e, Exp):
        return np.exp(_walk(e.a, z))
    if isinstance(e, Log):
        v = _walk(e.a, z)
        _raise_at_first(v == 0, z, BranchPointHit)
        return np.log(v)
    if isinstance(e, Pow):
        base = _walk(e.base, z)
        if isinstance(e.expo, Const):
            return principal_power(base, e.expo.value)
        expo = _walk(e.expo, z)
        _raise_at_first(base == 0, z, BranchPointHit)
        return np.exp(expo * np.log(base))
    raise TypeError(f"unknown expression node {e!r}")


def evaluate(e: Expr, z: np.ndarray) -> np.ndarray:
    """``e`` on the points ``z`` (an ndarray) under principal branches.

    A zero divisor, and a zero under log or a non-integer power, raise at
    the first such point; NaN and inf are returned as they are.  Constants
    stay Python scalars inside the walk, and only a constant result is
    broadcast to the shape of ``z``.
    """
    out = _walk(e, z)
    return out if isinstance(out, np.ndarray) else np.full(np.shape(z), out, dtype=complex)


def eval_expr(e: Expr, z):
    """Evaluate ``e`` at ``z`` (scalar or ndarray) under principal branches.

    Raises NonFiniteValue if any component of the result is NaN or inf.
    """
    arr = np.asarray(z, dtype=complex)
    out = evaluate(e, arr)
    _raise_at_first(~np.isfinite(out), arr, NonFiniteValue)
    return _scalar_out(out, z)


def as_subject(f):
    """A vectorized callable for an expression or a callable, carrying ``.derivative``.

    The derivative is symbolic for an expression.  A callable that has its
    own ``derivative`` (the operator subject's closed-form G') is returned
    as it is; any other callable gets Richardson central differences.
    """
    if isinstance(f, Expr):
        df = differentiate(f)

        def subject(z):
            return eval_expr(f, z)

        subject.derivative = lambda z: eval_expr(df, z)
        return subject
    if hasattr(f, "derivative"):
        return f

    def sampled(z):
        return f(z)

    def derivative(z):
        h = 1e-5 * (1 - np.abs(z))
        d1 = (f(z + h) - f(z - h)) / (2 * h)
        d2 = (f(z + h / 2) - f(z - h / 2)) / h
        return (4 * d2 - d1) / 3

    sampled.derivative = derivative
    return sampled


def differentiate(e: Expr) -> Expr:
    """Exact symbolic d/dz; the result is again an Expr."""
    if isinstance(e, Var):
        return Const(1.0 + 0j)
    if isinstance(e, Const):
        return Const(0j)
    if isinstance(e, Neg):
        return neg(differentiate(e.a))
    if isinstance(e, Add):
        return add(differentiate(e.a), differentiate(e.b))
    if isinstance(e, Sub):
        return sub(differentiate(e.a), differentiate(e.b))
    if isinstance(e, Mul):
        return add(mul(differentiate(e.a), e.b), mul(e.a, differentiate(e.b)))
    if isinstance(e, Div):
        num = sub(mul(differentiate(e.a), e.b), mul(e.a, differentiate(e.b)))
        return div(num, mul(e.b, e.b))
    if isinstance(e, Exp):
        return mul(Exp(e.a), differentiate(e.a))
    if isinstance(e, Log):
        return div(differentiate(e.a), e.a)
    if isinstance(e, Pow):
        if isinstance(e.expo, Const):
            c = e.expo.value
            if c == 1:  # the general rule would keep base^0, which raises at 0
                return differentiate(e.base)
            inner = mul(const(c), pow_(e.base, const(c - 1)))
            return mul(inner, differentiate(e.base))
        # u^v = exp(v log u); derivative via the chain on the exponent form
        du, dv = differentiate(e.base), differentiate(e.expo)
        return mul(e, add(mul(dv, log_(e.base)), mul(e.expo, div(du, e.base))))
    raise TypeError(f"unknown expression node {e!r}")


_MAX_ZERO_ORDER = 16


def _zero_order(e: Expr, deriv: Expr) -> int:
    """Order of the zero of ``e`` at the origin; 0 when e(0) != 0.

    Counts the leading derivatives that vanish exactly at 0, so a tiny
    nonzero value counts as no zero at all.
    """
    origin = np.zeros(1, dtype=complex)
    if evaluate(e, origin)[0] != 0:
        return 0
    d = deriv
    for order in range(1, _MAX_ZERO_ORDER + 1):
        if evaluate(d, origin)[0] != 0:
            return order
        d = differentiate(d)
    raise DivisionByZero(0j, e)


def log_derivative_field(e: Expr, z, deriv: Expr | None = None):
    """z * e'(z) / e(z) with the removable singularity resolved at z = 0.

    At the origin the value is the order n of the zero of e there: n = 0
    when e(0) != 0 (exactly), and the limit n of z e'/e otherwise, found
    from the first derivative that does not vanish at 0 (1 for a
    normalized member of the class A).  Vectorized over ``z``.
    """
    d = deriv if deriv is not None else differentiate(e)
    arr = np.asarray(z, dtype=complex)
    vals = evaluate(e, arr)
    dvals = evaluate(d, arr)
    at0 = arr == 0
    _raise_at_first((vals == 0) & ~at0, arr, lambda w: DivisionByZero(w, e))
    # 0/0 at the origin is overwritten below; any other non-finite value
    # fails the check at the end
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(arr * dvals / vals)
    if np.any(at0):
        out[at0] = _zero_order(e, d)
    _raise_at_first(~np.isfinite(out), arr, NonFiniteValue)
    return _scalar_out(out, z)


def log_derivative_at(e: Expr, z, deriv: Expr | None = None) -> complex:
    """Scalar convenience wrapper around :func:`log_derivative_field`."""
    return complex(log_derivative_field(e, complex(z), deriv))


_NORM_TOL = 1e-12


@dataclass(frozen=True)
class AnalyticTriple:
    """The data (f, g, h) entering the operator criteria.

    f and g are normalized (value 0 and derivative 1 at the origin); h is
    any analytic function whose value h0 at the origin avoids (-inf, 0].
    First and second derivatives needed by the inequality fields are cached
    as expression trees.
    """

    f: Expr
    g: Expr
    h: Expr
    h0: complex
    fp: Expr
    fpp: Expr
    gp: Expr
    hp: Expr

    @staticmethod
    def build(f: Expr, g: Expr, h: Expr) -> "AnalyticTriple":
        for name, e in (("f", f), ("g", g)):
            v0 = eval_expr(e, 0j)
            d0 = eval_expr(differentiate(e), 0j)
            if abs(v0) > _NORM_TOL or abs(d0 - 1) > _NORM_TOL:
                raise ParameterError(
                    f"{name} is not normalized: {name}(0)={v0!r}, {name}'(0)={d0!r}"
                )
        h0 = eval_expr(h, 0j)
        if h0.imag == 0 and h0.real <= 0:
            raise ParameterError(f"h(0)={h0!r} lies on (-inf, 0]")
        fp = differentiate(f)
        return AnalyticTriple(
            f=f, g=g, h=h, h0=h0,
            fp=fp, fpp=differentiate(fp),
            gp=differentiate(g), hp=differentiate(h),
        )
