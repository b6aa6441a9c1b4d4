"""Parser and printer for the small function-definition language.

Grammar (ASCII input only)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative
    atom    := 'z' | number | number 'i' | 'i'
             | 'exp' '(' expr ')' | 'log' '(' expr ')'
             | 'koebe' ['(' ')']
             | 'moebius' '(' const ')'
             | 'polynomial' '(' const (',' const)* ')'
             | '(' expr ')'

Unary minus binds looser than '^', so ``-z^2`` is ``-(z^2)``; write
``(-z)^2`` for the other reading.  Numbers are decimal with an optional
exponent part; a literal followed immediately by ``i`` is imaginary.
Presets expand at parse time: ``koebe`` is ``z/(1-z)^2``, ``moebius(a)``
is ``z/(1 - a*z)`` and ``polynomial(c1,...,cn)`` is ``c1*z + ... + cn*z^n``.
``log`` and ``^`` are principal-branch, as in the evaluation kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .errors import DslSyntaxError
from .expr import Const, Expr, _normalization_problems

__all__ = ["ParseDiagnostic", "parse", "print_expr", "validate_normalized"]


@dataclass(frozen=True)
class ParseDiagnostic:
    position: int
    message: str
    expected: tuple[str, ...]


_ATOM_EXPECTED = ("'z'", "number", "'i'", "name", "'('", "'-'")
_OP_CHARS = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # one of: num, imag, name, z, i, op, eof
    text: str
    pos: int
    value: float = 0.0


def _fail(pos: int, message: str, expected: tuple[str, ...]) -> None:
    raise DslSyntaxError(ParseDiagnostic(pos, message, expected))


def _tokenize(text: str) -> list[_Token]:
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        _fail(bad, "non-ASCII character", ())
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OP_CHARS:
            toks.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            value = float(text[i:j])
            if j < n and text[j] == "i":
                toks.append(_Token("imag", text[i:j + 1], i, value))
                j += 1
            else:
                toks.append(_Token("num", text[i:j], i, value))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "z":
                toks.append(_Token("z", word, i))
            elif word == "i":
                toks.append(_Token("i", word, i))
            else:
                toks.append(_Token("name", word, i))
            i = j
            continue
        _fail(i, f"unexpected character {ch!r}", ())
    toks.append(_Token("eof", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> None:
        t = self.peek()
        if t.kind == "op" and t.text == op:
            self.next()
            return
        _fail(t.pos, f"expected {op!r}", (repr(op),))

    def at_op(self, *ops: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text in ops

    def expr(self) -> Expr:
        e = self.term()
        while self.at_op("+", "-"):
            op = self.next().text
            rhs = self.term()
            e = ex.add(e, rhs) if op == "+" else ex.sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.at_op("*", "/"):
            op = self.next().text
            rhs = self.factor()
            e = ex.mul(e, rhs) if op == "*" else ex.div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.at_op("-"):
            self.next()
            return ex.neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            self.next()
            return ex.pow_(base, self.factor())
        return base

    def const_arg(self) -> complex:
        t = self.peek()
        e = self.expr()
        if not isinstance(e, Const):
            _fail(t.pos, "argument must be a constant", ("constant",))
        return e.value

    def atom(self) -> Expr:
        t = self.next()
        if t.kind == "z":
            return ex.Z
        if t.kind == "num":
            return ex.const(t.value)
        if t.kind == "imag":
            return ex.const(t.value * 1j)
        if t.kind == "i":
            return ex.const(1j)
        if t.kind == "op" and t.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if t.kind == "name":
            return self.call(t)
        _fail(t.pos, "expected an operand", _ATOM_EXPECTED)

    def call(self, t: _Token) -> Expr:
        name = t.text
        if name == "koebe":
            if self.at_op("("):
                self.next()
                self.expect_op(")")
            one = ex.const(1)
            return ex.div(ex.Z, ex.pow_(ex.sub(one, ex.Z), ex.const(2)))
        if name in ("exp", "log"):
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return ex.exp_(arg) if name == "exp" else ex.log_(arg)
        if name == "moebius":
            self.expect_op("(")
            a = self.const_arg()
            self.expect_op(")")
            return ex.div(ex.Z, ex.sub(ex.const(1), ex.mul(ex.const(a), ex.Z)))
        if name == "polynomial":
            self.expect_op("(")
            coeffs = [self.const_arg()]
            while self.at_op(","):
                self.next()
                coeffs.append(self.const_arg())
            self.expect_op(")")
            e: Expr = ex.mul(ex.const(coeffs[0]), ex.Z)
            for k, c in enumerate(coeffs[1:], start=2):
                e = ex.add(e, ex.mul(ex.const(c), ex.pow_(ex.Z, ex.const(k))))
            return e
        _fail(t.pos, f"unknown function {name!r}",
              ("'exp'", "'log'", "'koebe'", "'moebius'", "'polynomial'"))


def parse(text: str) -> Expr:
    """Parse DSL source into an expression tree.

    Raises DslSyntaxError carrying a ParseDiagnostic (offset, message and
    the set of expected tokens) on malformed input.
    """
    p = _Parser(text)
    e = p.expr()
    t = p.peek()
    if t.kind != "eof":
        _fail(t.pos, "unexpected trailing input", ("operator", "end of input"))
    return e


def _fmt_real(x: float) -> str:
    x = float(x)
    if x.is_integer() and abs(x) < 1e15:
        return repr(int(x))
    return repr(x)


def _fmt_const(c: complex) -> str:
    if c.imag == 0:
        return _fmt_real(c.real)
    if c.real == 0:
        if c.imag < 0:
            return f"(0.0 - {_fmt_real(-c.imag)}i)"
        return f"{_fmt_real(c.imag)}i"
    op = "-" if c.imag < 0 else "+"
    return f"({_fmt_real(c.real)} {op} {_fmt_real(abs(c.imag))}i)"


def print_expr(e: Expr) -> str:
    """Canonical fully-parenthesized text; parse(print_expr(e)) == e."""
    if isinstance(e, ex.Var):
        return "z"
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, ex.Neg):
        return f"(-{print_expr(e.a)})"
    if isinstance(e, ex.Add):
        return f"({print_expr(e.a)} + {print_expr(e.b)})"
    if isinstance(e, ex.Sub):
        return f"({print_expr(e.a)} - {print_expr(e.b)})"
    if isinstance(e, ex.Mul):
        return f"({print_expr(e.a)} * {print_expr(e.b)})"
    if isinstance(e, ex.Div):
        return f"({print_expr(e.a)} / {print_expr(e.b)})"
    if isinstance(e, ex.Pow):
        return f"({print_expr(e.base)} ^ {print_expr(e.expo)})"
    if isinstance(e, ex.Exp):
        return f"exp({print_expr(e.a)})"
    if isinstance(e, ex.Log):
        return f"log({print_expr(e.a)})"
    raise TypeError(f"unknown expression node {e!r}")


def validate_normalized(e: Expr, tol: float = 1e-12) -> tuple[bool, tuple[str, ...]]:
    """Check membership in the normalized class: f(0)=0 and f'(0)=1."""
    problems = _normalization_problems(e, "f", tol)
    return (not problems, tuple(problems))
