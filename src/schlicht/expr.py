"""Expression trees for analytic functions of one complex variable.

Nodes are immutable dataclasses, so structural equality and hashing come
for free.  Evaluation accepts Python scalars or numpy arrays and always
uses principal branches: Im(Log) in (-pi, pi] for log and for non-integer
powers.  Trees are built through the smart constructors, which fold
constant subtrees and the identities x + 0, 0 + x, x - 0, 0*x, x*0, 1*x,
x*1 and x^1, but not 0 - x (+0 would become -0) or x^0 (0^0 raises).

One walk serves every evaluation.  :func:`jet` walks a tree once in
truncated Taylor arithmetic and returns (e, e', e''): each exp, log and
power is taken once, where the separately grown trees of e' and e'' would
repeat it (the quotient rule copies whole subtrees, so Koebe's e'' tree
has 99 nodes, 22 of them distinct).  :func:`evaluate` is its order-0
case.  The criterion fields take their log derivatives from jets
(:func:`log_derivative_values`).  :func:`differentiate` still builds the
symbolic derivative, for printing, for f' as the operator's weight, for
the order of a zero at the origin, and as the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

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


def _is_zero(x) -> bool:
    """Whether ``x`` is an exact scalar 0, the derivative of a constant."""
    return type(x) is not np.ndarray and x == 0


def _sum(*terms):
    """Sum of derivative terms; an exact scalar 0 term is left out."""
    out = 0j
    for x in terms:
        if not _is_zero(x):
            out = x if _is_zero(out) else out + x
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


def _power_jet(a: list, c: complex, order: int) -> list:
    """[u^c, (u^c)', (u^c)''][:order + 1] from a = [u, u', u''] and a constant c.

    The derivatives need u^(c-1) and u^(c-2).  A small positive integer c
    gets them by multiplication (u^0 and u^1 need none), and another c with
    no zero of u from u^c by one division each.  Otherwise they are
    principal powers, which raise where the derivative trees' powers raise.
    """
    u = a[0]
    out = [principal_power(u, c)]
    if not order:
        return out
    if c == 0 or all(_is_zero(x) for x in a[1:]):
        return out + [0j] * order
    integer = c.imag == 0 and float(c.real).is_integer()
    if integer and 1 <= c.real <= _MAX_INT_POW:
        n = int(c.real)
        p1 = 1 + 0j if n == 1 else u if n == 2 else principal_power(u, n - 1)

        def lower():
            return 1 + 0j if n == 2 else u if n == 3 else principal_power(u, n - 2)
    elif integer or np.asarray(u == 0).any():
        p1 = principal_power(u, c - 1)

        def lower():
            return principal_power(u, c - 2)
    else:
        p1 = out[0] / u

        def lower():
            return p1 / u
    out.append(_prod(c, p1, a[1]))
    if order > 1:
        curve = _prod(c * (c - 1), a[1], a[1])
        out.append(_sum(0j if _is_zero(curve) else _prod(curve, lower()),
                        _prod(c, p1, a[2])))
    return out


def _jet(e: Expr, z: np.ndarray, order: int) -> list:
    """[e, e', e''][:order + 1] on ``z``: the one walk over a tree.

    The values are the principal-branch evaluation of :func:`evaluate`; the
    derivatives ride along in truncated Taylor arithmetic (Griewank &
    Walther, *Evaluating Derivatives*, ch. 13), so each exp, log and power
    of the tree is taken once for all orders.

    A child's value enters its parent's arithmetic by ``pop``, so that a
    value nothing else holds is a temporary that numpy may reuse as the
    output.  Complex products round differently with their operands
    swapped, and numpy swaps them when it reuses the right operand, so
    this keeps the values' bits those of a plain recursive evaluation.
    """
    if isinstance(e, Var):
        return [z, 1 + 0j, 0j][:order + 1]
    if isinstance(e, Const):
        return [e.value, 0j, 0j][:order + 1]
    if isinstance(e, Neg):
        a = _jet(e.a, z, order)
        return [-a.pop(0)] + [_minus(0j, x) for x in a]
    if isinstance(e, (Add, Sub)):
        a, b = _jet(e.a, z, order), _jet(e.b, z, order)
        if isinstance(e, Add):
            return [a.pop(0) + b.pop(0)] + [_sum(x, y) for x, y in zip(a, b)]
        return [a.pop(0) - b.pop(0)] + [_minus(x, y) for x, y in zip(a, b)]
    if isinstance(e, Mul):
        a, b = _jet(e.a, z, order), _jet(e.b, z, order)
        d = []
        if order:
            d.append(_sum(_prod(a[1], b[0]), _prod(a[0], b[1])))
        if order > 1:
            d.append(_sum(_prod(a[2], b[0]), _prod(2, a[1], b[1]), _prod(a[0], b[2])))
        return [a.pop(0) * b.pop(0)] + d
    if isinstance(e, Div):
        b = _jet(e.b, z, order)
        den = b[0]
        _raise_at_first(den == 0, z, lambda w: DivisionByZero(w, e.b))
        a = _jet(e.a, z, order)
        out = [a.pop(0) / den]  # a now holds the derivatives
        if order:
            out.append(_quot(_minus(a[0], _prod(out[0], b[1])), den))
        if order > 1:
            out.append(_quot(_minus(_minus(a[1], _prod(2, out[1], b[1])),
                                    _prod(out[0], b[2])), den))
        return out
    if isinstance(e, Exp):
        a = _jet(e.a, z, order)
        out = [np.exp(a.pop(0))]
        if order:
            out.append(_prod(out[0], a[0]))
        if order > 1:
            out.append(_prod(out[0], _sum(a[1], _prod(a[0], a[0]))))
        return out
    if isinstance(e, Log):
        a = _jet(e.a, z, order)
        _raise_at_first(a[0] == 0, z, BranchPointHit)
        out = [np.log(a[0])]
        if order:
            out.append(_quot(a[1], a[0]))
        if order > 1:
            out.append(_quot(_minus(a[2], _prod(out[1], a[1])), a[0]))
        return out
    if isinstance(e, Pow):
        base = _jet(e.base, z, order)
        if isinstance(e.expo, Const):
            return _power_jet(base, e.expo.value, order)
        expo = _jet(e.expo, z, order)
        _raise_at_first(base[0] == 0, z, BranchPointHit)
        if not order:
            return [np.exp(expo[0] * np.log(base[0]))]
        log_base = np.log(base[0])
        out = [np.exp(expo[0] * log_base)]
        # d/dz (v log u) = v' log u + v u'/u
        ratio = _quot(base[1], base[0])
        s1 = _sum(_prod(expo[1], log_base), _prod(expo[0], ratio))
        out.append(_prod(out[0], s1))
        if order > 1:
            s2 = _sum(_prod(expo[2], log_base), _prod(2, expo[1], ratio),
                      _prod(expo[0], _minus(_quot(base[2], base[0]), _prod(ratio, ratio))))
            out.append(_prod(out[0], _sum(s2, _prod(s1, s1))))
        return out
    raise TypeError(f"unknown expression node {e!r}")


def jet(e: Expr, z: np.ndarray, order: int = 2) -> tuple:
    """(e, e', e'')[:order + 1] on the points ``z`` from one walk of e's tree.

    Values, and the errors raised at a zero divisor or a zero under log or
    a non-integer power, are those of :func:`evaluate`.  Derivatives agree
    with :func:`differentiate`'s trees to rounding.  Entries that are
    constant in z stay Python scalars (a derivative that vanishes
    identically is 0j), so callers can tell a constant field from the
    types alone.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"jet order {order} is not 0, 1 or 2")
    return tuple(_jet(e, z, order))


def evaluate(e: Expr, z: np.ndarray) -> np.ndarray:
    """``e`` on the points ``z`` (an ndarray) under principal branches.

    This is the order-0 :func:`jet`.  A zero divisor, and a zero under log
    or a non-integer power, raise at the first such point; NaN and inf are
    returned as they are.  Constants stay Python scalars inside the walk,
    and only a constant result is broadcast to the shape of ``z``.
    """
    out = _jet(e, z, 0)[0]
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


def _zero_order(e: Expr, deriv: Expr | None = None) -> int:
    """Order of the zero of ``e`` at the origin; 0 when e(0) != 0.

    Counts the leading derivatives that vanish exactly at 0, so a tiny
    nonzero value counts as no zero at all.  ``deriv``, e's derivative
    tree, is built here when not given and e(0) == 0.
    """
    origin = np.zeros(1, dtype=complex)
    if evaluate(e, origin)[0] != 0:
        return 0
    d = deriv if deriv is not None else differentiate(e)
    for order in range(1, _MAX_ZERO_ORDER + 1):
        if evaluate(d, origin)[0] != 0:
            return order
        d = differentiate(d)
    raise DivisionByZero(0j, e)


def log_derivative_values(z: np.ndarray, vals, dvals, e, deriv: Expr | None = None):
    """z e'/e from e and e' already evaluated on the array ``z``, say by :func:`jet`.

    The origin takes the order of the zero of e there, and a zero of e
    elsewhere or a non-finite result raises, as in
    :func:`log_derivative_field`.  ``e`` is the expression or a callable
    that builds it; it is needed only at the origin and for an error.  A
    nonzero scalar e with the scalar e' = 0 is a constant, whose log
    derivative is the scalar 0j.
    """
    if (_is_zero(dvals) and not isinstance(vals, np.ndarray) and vals != 0
            and _finite(complex(vals))):
        return 0j

    def tree() -> Expr:
        return e() if callable(e) else e

    at0 = z == 0
    zero = vals == 0
    if np.asarray(zero).any():
        _raise_at_first(zero & ~at0, z, lambda w: DivisionByZero(w, tree()))
    # 0/0 at the origin is overwritten below; any other non-finite value
    # fails the check at the end
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(_prod(z, dvals) / vals)
    if at0.any():
        out[at0] = _zero_order(tree(), deriv)
    if not np.isfinite(out).all():
        _raise_at_first(~np.isfinite(out), z, NonFiniteValue)
    return out


def log_derivative_field(e: Expr, z, deriv: Expr | None = None):
    """z * e'(z) / e(z) with the removable singularity resolved at z = 0.

    At the origin the value is the order n of the zero of e there: n = 0
    when e(0) != 0 (exactly), and the limit n of z e'/e otherwise, found
    from the first derivative that does not vanish at 0 (1 for a
    normalized member of the class A).  Vectorized over ``z``; e' is the
    tree ``deriv``, by default ``differentiate(e)``.
    """
    d = deriv if deriv is not None else differentiate(e)
    arr = np.asarray(z, dtype=complex)
    out = log_derivative_values(arr, evaluate(e, arr), evaluate(d, arr), e, d)
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
    The inequality fields take f', f'', g' and h' from jets of f, g and h
    (:func:`jet`), and so does :meth:`build`'s normalization check.  The
    tree of f', the weight of the operator's bracket, is built on first
    use.  The constructor still accepts ``hp``, the tree of h' that
    triples used to carry, and ignores it, so code that replaces h and h'
    together keeps working.
    """

    f: Expr
    g: Expr
    h: Expr
    h0: complex
    hp: InitVar[Expr | None] = None

    @cached_property
    def fp(self) -> Expr:
        """The tree of f'."""
        return differentiate(self.f)

    @property
    def fpp(self) -> Expr:
        """The tree of f'', built on each access; no field reads it."""
        return differentiate(self.fp)

    @staticmethod
    def build(f: Expr, g: Expr, h: Expr) -> "AnalyticTriple":
        for name, e in (("f", f), ("g", g)):
            v0, d0 = _at_origin(e, 1)
            if abs(v0) > _NORM_TOL or abs(d0 - 1) > _NORM_TOL:
                raise ParameterError(
                    f"{name} is not normalized: {name}(0)={v0!r}, {name}'(0)={d0!r}"
                )
        h0, = _at_origin(h, 0)
        if h0.imag == 0 and h0.real <= 0:
            raise ParameterError(f"h(0)={h0!r} lies on (-inf, 0]")
        return AnalyticTriple(f=f, g=g, h=h, h0=h0)


def _at_origin(e: Expr, order: int) -> list[complex]:
    """[e(0), e'(0), ...][:order + 1] from one jet walk; like :func:`eval_expr`,
    a non-finite entry raises NonFiniteValue."""
    out = [complex(np.ravel(v)[0]) for v in jet(e, np.zeros(1, dtype=complex), order)]
    if not all(_finite(v) for v in out):
        raise NonFiniteValue(0j)
    return out
