"""Expression trees for analytic functions of one complex variable.

Nodes are immutable dataclasses, so structural equality and hashing come
for free.  Evaluation accepts Python scalars or numpy arrays and always
uses principal branches: Im(Log) in (-pi, pi] for log and for non-integer
powers.  Trees are built through the smart constructors, which fold
constant subtrees and the identities x + 0, 0 + x, x - 0, 0*x, x*0, 1*x,
x*1 and x^1, but not 0 - x (+0 would become -0) or x^0 (0^0 raises).

One walk serves every evaluation.  :func:`jet` walks a tree once in
truncated Taylor arithmetic, one rule per node kind for every order up to
64, and returns (e, e', ..., e^(n)); :func:`evaluate` is its order-0 case,
and reads one derivative off a jet at a higher order.  The criterion
fields, the normalization checks, the order of a zero at the origin, the
oracle's f' and the operator's weight f' all read jets, so a bracket fit
is keyed by f itself.  :func:`differentiate` still builds the symbolic
derivative, for printing and as the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import BranchPointHit, DivisionByZero, NonFiniteValue, ParameterError

__all__ = [
    "Expr", "Var", "Const", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Exp", "Log",
    "Z", "var", "const", "neg", "add", "sub", "mul", "div", "pow_", "exp_", "log_",
    "evaluate", "jet", "eval_expr", "differentiate", "principal_power",
    "log_derivative_at", "log_derivative_field", "log_derivative_values",
    "AnalyticTriple", "as_subject",
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
    if np.asarray(mask).any():  # the method skips np.any's dispatch
        idx = int(np.flatnonzero(np.ravel(mask))[0])
        raise error(complex(np.ravel(points)[idx]))


def _scalar_out(out, *inputs):
    """``out`` as a Python complex when every input is a scalar, else as is."""
    if all(np.isscalar(v) for v in inputs):
        return complex(np.ravel(out)[0])
    return out


_MAX_INT_POW = _MAX_JET_ORDER = 64
_ORDERS = range(_MAX_JET_ORDER + 1)


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


def _is_zero(x) -> bool:
    """Whether ``x`` is an exact scalar 0, the derivative of a constant."""
    return type(x) is not np.ndarray and x == 0


def _sum(*terms):
    """Sum of derivative terms; an exact scalar 0 term is left out."""
    out = 0j
    for x in terms:
        if type(x) is np.ndarray or x != 0:
            out = x if type(out) is not np.ndarray and out == 0 else out + x
    return out


def _minus(x, y):
    """x - y for derivative terms, leaving out an exact scalar 0."""
    if _is_zero(y):
        return x
    return -y if _is_zero(x) else x - y


def _prod(*factors):
    """Product of derivative terms: scalar factors are folded first and
    applied once, a scalar 0 gives 0 and a scalar 1 is left out."""
    scale, out = 1 + 0j, None
    for x in factors:
        if type(x) is np.ndarray:
            out = x if out is None else out * x
        elif x == 0:
            return 0j
        elif x != 1:
            scale = scale * x
    if out is None:
        return complex(scale)
    return out if scale == 1 else out * scale


def _quot(x, y):
    """x / y for a derivative term x over a value y that has no zero."""
    return 0j if _is_zero(x) else x / y


def _conv(a: list, b: list, k: int):
    """Coefficient k of the product of the series ``a`` and ``b``: the sum of
    a_j b_(k-j) from the highest j down."""
    lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
    return _sum(*map(_prod, reversed(a[lo:hi + 1]), b[k - hi:k - lo + 1]))


def _exp_series(a: list, order: int) -> list:
    """exp of the series ``a``: e_k = sum_(j>=1) (j/k) a_j e_(k-j)."""
    out = [np.exp(a[0])]
    for k in range(1, order + 1 if len(a) > 1 else 1):
        out.append(_sum(*[_prod(out[k - j], a[j], j / k) for j in range(1, min(k, len(a) - 1) + 1)]))
    return out


def _log_series(a: list, z, order: int) -> list:
    """Principal log of the series ``a``, raising at a zero of a_0:
    l_k = (a_k - sum_(1<=j<k) (j/k) l_j a_(k-j)) / a_0."""
    _raise_at_first(a[0] == 0, z, BranchPointHit)
    out = [np.log(a[0])]
    for k in range(1, order + 1 if len(a) > 1 else 1):
        acc = a[k] if k < len(a) else 0j
        for j in range(max(1, k - len(a) + 1), k):
            acc = _minus(acc, _prod(out[j], a[k - j], j / k))
        out.append(_quot(acc, a[0]))
    return out


def _power_series(a: list, c: complex, z, order: int, value: bool = True) -> list:
    """u^c for a constant c from the series ``a`` of u.

    An integer 1 <= c <= 64 expands (u_0 + t)^c by the binomial theorem on
    the tail t, with no division, and leaves u^c out without ``value``.
    Any other c takes the recurrence u p' = c u' p, p_k = sum_(j>=1)
    (j c - (k - j))/k a_j p_(k-j)/u_0; at a zero of u, coefficient k is 0
    when Re c > k and raises BranchPointHit otherwise, as u^(c-k) does.
    """
    u, tail = a[0], a[1:]
    if c == 0 or not tail or all(_is_zero(x) for x in tail):
        return [principal_power(u, c)]
    binomial = c.imag == 0 and float(c.real).is_integer() and 1 <= c.real <= _MAX_INT_POW
    out = [principal_power(u, c) if value or not binomial else None]
    if binomial:
        n, t = int(c.real), [0j] + tail
        out += [0j] * min(order, n * len(tail))
        t_i = t  # t^i, whose series runs from z^i to z^(i len(tail))
        for i in range(1, min(n, len(out) - 1) + 1):
            if i > 1:
                t_i = [0j] * i + [_conv(t_i, t, k) for k in range(i, min(len(out), i * len(tail) + 1))]
            u_i = principal_power(u, n - i) if n - i > 1 else u if n > i else 1 + 0j
            scale = math.comb(n, i)
            for k in range(i, len(t_i)):
                out[k] = _sum(out[k], _prod(u_i, t_i[k], scale))
        return out
    den, zero = u, np.asarray(u == 0)
    if zero.any():
        if c.real <= order:
            _raise_at_first(zero, z, BranchPointHit)
        den = np.where(zero, 1, u)  # p_0 = 0 there, so every p_k comes out 0
    over_u = []  # p_m / u_0
    for k in range(1, order + 1):
        over_u.append(_quot(out[k - 1], den))
        out.append(_sum(*[_prod(over_u[k - j], a[j], (j * c - (k - j)) / k)
                          for j in range(1, min(k, len(a) - 1) + 1)]))
    return out


def _jet(e: Expr, z: np.ndarray, order: int, value: bool = True) -> list:
    """Taylor coefficients [c_0, ..., c_n], n <= order, of e about each point of ``z``.

    c_k = e^(k)/k!, and c_0 is the value of :func:`evaluate`.  One rule per
    node kind carries every order in truncated Taylor arithmetic (Griewank
    & Walther, *Evaluating Derivatives*, ch. 13).  Coefficients constant in
    z stay Python scalars, and a series stops where the rest is exactly 0.
    A child's value enters its parent's arithmetic by ``pop``, so that
    numpy may reuse a temporary as the output; it swaps a product's
    operands when it reuses the right one, and this keeps the values' bits
    those of a plain recursive evaluation.  ``value``: see :func:`jet`.
    """
    if isinstance(e, Var):
        return [z, 1 + 0j][:order + 1]
    if isinstance(e, Const):
        return [e.value]
    if isinstance(e, Neg):
        a = _jet(e.a, z, order, value)
        d = [_minus(0j, x) for x in a[1:]]
        return [-a.pop(0) if value else None] + d
    if isinstance(e, (Add, Sub)):
        a, b = _jet(e.a, z, order, value), _jet(e.b, z, order, value)
        if isinstance(e, Add):
            d = [_sum(x, y) for x, y in zip_longest(a[1:], b[1:], fillvalue=0j)]
            return [a.pop(0) + b.pop(0) if value else None] + d
        d = [_minus(x, y) for x, y in zip_longest(a[1:], b[1:], fillvalue=0j)]
        return [a.pop(0) - b.pop(0) if value else None] + d
    if isinstance(e, Mul):
        # a factor's value enters the derivatives unless the other factor is constant
        a = _jet(e.a, z, order, value or not isinstance(e.b, Const))
        b = _jet(e.b, z, order, value or not isinstance(e.a, Const))
        if len(a) == 1 or len(b) == 1:  # a constant factor scales the other series
            d = [_prod(a[0], x) for x in b[1:]] if len(a) == 1 else [_prod(x, b[0]) for x in a[1:]]
        else:
            d = [_conv(a, b, k) for k in range(1, min(order, len(a) + len(b) - 2) + 1)]
        return [a.pop(0) * b.pop(0) if value else None] + d
    if isinstance(e, Div):
        # q_k = (a_k - sum_(j>=1) q_(k-j) b_j) / b_0
        b = _jet(e.b, z, order)
        den = b[0]
        _raise_at_first(den == 0, z, lambda w: DivisionByZero(w, e.b))
        a = _jet(e.a, z, order)
        q = [a.pop(0) / den]  # a[k - 1] now holds a_k
        for k in range(1, order + 1 if len(b) > 1 else len(a) + 1):
            acc = a[k - 1] if k <= len(a) else 0j
            for j in range(1, min(k, len(b) - 1) + 1):
                acc = _minus(acc, _prod(q[k - j], b[j]))
            q.append(_quot(acc, den))
        return q
    if isinstance(e, Exp):
        return _exp_series(_jet(e.a, z, order), order)
    if isinstance(e, Log):
        return _log_series(_jet(e.a, z, order), z, order)
    if isinstance(e, Pow):
        base = _jet(e.base, z, order)
        if isinstance(e.expo, Const):
            return _power_series(base, e.expo.value, z, order, value)
        # u^v = exp(v log u)
        expo, log_base = _jet(e.expo, z, order), _log_series(base, z, order)
        n = min(order, len(expo) + len(log_base) - 2)
        d = [_conv(expo, log_base, k) for k in range(1, n + 1)]
        return _exp_series([expo[0] * log_base.pop(0)] + d, order)
    raise TypeError(f"unknown expression node {e!r}")


def jet(e: Expr, z: np.ndarray, order: int = 2, value: bool = True) -> tuple:
    """(e, e', ..., e^(order)) on the points ``z`` from one walk of e's tree.

    ``order`` runs from 0 to 64.  Values, and the errors raised at a zero
    divisor or a zero under log or a non-integer power, are those of
    :func:`evaluate`.  Derivatives agree with :func:`differentiate`'s trees
    to rounding.  Entries that are constant in z stay Python scalars (a
    derivative that vanishes identically is 0j), so callers can tell a
    constant field from the types alone.

    With ``value`` false the first entry is None: the walk leaves out e's
    value and that of every sum, product and integer power that only it
    needs, none of which can raise (for z + 0.1 z^2, every array value).
    """
    if order not in _ORDERS:
        raise ValueError(f"jet order {order!r} is not an integer from 0 to {_MAX_JET_ORDER}")
    out = _jet(e, z, order, value)
    if not value:
        out[0] = None
    if order > 1:  # c_k to the k-th derivative
        out[2:] = [_prod(c, math.factorial(k)) for k, c in enumerate(out[2:], 2)]
    if len(out) <= order:
        out += [0j] * (order + 1 - len(out))
    return tuple(out)


def evaluate(e: Expr, z: np.ndarray, order: int = 0) -> np.ndarray:
    """``e``, or its ``order``-th derivative, on the points ``z`` (an ndarray).

    Order 0 is the order-0 :func:`jet` under principal branches, order k
    is ``jet(e, z, k, value=False)[k]``, and a constant is broadcast to
    the shape of ``z``.  A zero divisor, and a zero under log or a
    non-integer power, raise at the first such point; NaN and inf are
    returned as they are.
    """
    out = jet(e, z, order, value=False)[order] if order else _jet(e, z, 0)[0]
    return out if isinstance(out, np.ndarray) else np.full(np.shape(z), out, dtype=complex)


def eval_expr(e: Expr, z, order: int = 0):
    """The ``order``-th derivative of ``e`` at ``z`` (scalar or ndarray), by :func:`jet`.

    Order 0 is ``e`` under principal branches.  Raises NonFiniteValue if
    any component of the result is NaN or inf.
    """
    arr = np.asarray(z, dtype=complex)
    out = jet(e, arr, order, value=not order)[order]
    if not isinstance(out, np.ndarray):
        out = np.full(arr.shape, out, dtype=complex)
    _raise_at_first(~np.isfinite(out), arr, NonFiniteValue)
    return _scalar_out(out, z)


def as_subject(f):
    """A vectorized callable for an expression or a callable, carrying ``.derivative``.

    An expression's derivative comes from its jet.  A callable that has its
    own ``derivative`` (the operator subject's closed-form G') is returned
    as it is; any other callable gets Richardson central differences.
    """
    if isinstance(f, Expr):
        def subject(z):
            return eval_expr(f, z)

        subject.derivative = lambda z: eval_expr(f, z, 1)
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


def _zero_order(e: Expr, depth: int = 0) -> int:
    """Order (up to 16) of the zero at the origin of e^(depth), the derivative of that depth.

    That is the number of leading Taylor coefficients c_depth, c_depth+1,
    ... of e at 0 that vanish exactly.  The jet grows one order at a time
    up to the first nonzero one: z + z^2.5 has no third derivative at 0.
    """
    for n in range(depth, depth + 17):
        if _at_origin(e, n)[n] != 0:
            return n - depth
    raise DivisionByZero(0j, e)


def log_derivative_values(z: np.ndarray, vals, dvals, e: Expr, depth: int = 0):
    """z w'/w for w = e^(depth) from w and w' already evaluated on ``z``, say by :func:`jet`.

    The origin takes the order of the zero of w there, read from e's jet
    at 0; a zero of w elsewhere raises DivisionByZero naming the tree of w,
    which only then is built, and a non-finite result raises
    NonFiniteValue.  A nonzero scalar w with the scalar w' = 0 is a
    constant, whose log derivative is the scalar 0j.
    """
    if (_is_zero(dvals) and not isinstance(vals, np.ndarray) and vals != 0
            and _finite(complex(vals))):
        return 0j
    at0 = z == 0
    zero = vals == 0
    if np.asarray(zero).any():
        def vanished(point):
            w = e
            for _ in range(depth):
                w = differentiate(w)
            return DivisionByZero(point, w)

        _raise_at_first(zero & ~at0, z, vanished)
    # 0/0 at the origin is overwritten below; any other non-finite value
    # fails the check at the end
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(_prod(z, dvals) / vals)
    if at0.any():
        out[at0] = _zero_order(e, depth)
    if not np.isfinite(out).all():
        _raise_at_first(~np.isfinite(out), z, NonFiniteValue)
    return out


def log_derivative_field(e: Expr, z):
    """z * e'(z) / e(z) with the removable singularity resolved at z = 0.

    At the origin the value is the order n of the zero of e there, the
    index of e's first Taylor coefficient at 0 that does not vanish (1 for
    a normalized member of the class A).  Vectorized over ``z``; e and e'
    come from one jet walk.
    """
    arr = np.asarray(z, dtype=complex)
    vals, dvals = (np.broadcast_to(v, arr.shape) for v in jet(e, arr, 1))
    return _scalar_out(log_derivative_values(arr, vals, dvals, e), z)


def log_derivative_at(e: Expr, z) -> complex:
    """Scalar convenience wrapper around :func:`log_derivative_field`."""
    return complex(log_derivative_field(e, complex(z)))


def _normalization_problems(e: Expr, name: str = "f", tol: float = 1e-12) -> list[str]:
    """Where ``e`` leaves the normalized class, e(0) = 0 and e'(0) = 1, by more than ``tol``."""
    checks = zip((f"{name}(0)", f"{name}'(0)"), _at_origin(e, 1), (0, 1))
    return [f"{what} = {v!r}, expected {want}" for what, v, want in checks if abs(v - want) > tol]


@dataclass(frozen=True)
class AnalyticTriple:
    """The data (f, g, h) entering the operator criteria.

    f and g are normalized (value 0 and derivative 1 at the origin); h is
    any analytic function whose value h0 at the origin avoids (-inf, 0].
    The inequality fields take f', f'', g' and h' from jets of f, g and h
    (:func:`jet`), and :meth:`build` reads its checks from their Taylor
    coefficients at 0.
    """

    f: Expr
    g: Expr
    h: Expr
    h0: complex

    @staticmethod
    def build(f: Expr, g: Expr, h: Expr) -> "AnalyticTriple":
        for name, e in (("f", f), ("g", g)):
            problems = _normalization_problems(e, name)
            if problems:
                raise ParameterError(f"{name} is not normalized: {'; '.join(problems)}")
        h0, = _at_origin(h, 0)
        if h0.imag == 0 and h0.real <= 0:
            raise ParameterError(f"h(0)={h0!r} lies on (-inf, 0]")
        return AnalyticTriple(f=f, g=g, h=h, h0=h0)


def _at_origin(e: Expr, order: int) -> list[complex]:
    """The Taylor coefficients [c_0, ..., c_order] of e at 0 from one jet walk;
    like :func:`eval_expr`, a non-finite entry raises NonFiniteValue."""
    out = [complex(np.ravel(v)[0]) for v in _jet(e, np.zeros(1, dtype=complex), order)]
    out += [0j] * (order + 1 - len(out))
    if not all(_finite(v) for v in out):
        raise NonFiniteValue(0j)
    return out
