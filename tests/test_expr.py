import numpy as np
import pytest

from conftest import random_expr, random_point
from schlicht.criteria import DiskGrid
from schlicht.dsl import parse
from schlicht.errors import BranchPointHit, DivisionByZero, ParameterError
from schlicht.expr import (
    Add,
    AnalyticTriple,
    Const,
    Div,
    Expr,
    Mul,
    Pow,
    Sub,
    Var,
    Z,
    _at_origin,
    _zero_order,
    const,
    differentiate,
    eval_expr,
    evaluate,
    jet,
    log_derivative_at,
    log_derivative_field,
    log_derivative_values,
    pow_,
    principal_power,
)


def test_eval_identity():
    assert eval_expr(parse("z"), 0.3 + 0.4j) == 0.3 + 0.4j


def test_eval_hand_value():
    # (1+i)^2 + (1+i) = 1 + 3i
    assert eval_expr(parse("z^2 + z"), 1 + 1j) == pytest.approx(1 + 3j)


def test_eval_pole_raises():
    with pytest.raises(DivisionByZero):
        eval_expr(parse("1/z"), 0j)


def test_eval_vectorized_matches_scalar():
    e = parse("exp(0.3*z) / (2 - z)")
    zs = np.array([0.1, 0.2 + 0.5j, -0.7j])
    vec = eval_expr(e, zs)
    for z, v in zip(zs, vec):
        assert eval_expr(e, complex(z)) == pytest.approx(v)


def test_differentiate_power_rule():
    assert eval_expr(differentiate(parse("z^2")), 3 + 0j) == pytest.approx(6)


def test_differentiate_exp():
    assert eval_expr(differentiate(parse("exp(z)")), 0j) == pytest.approx(1)


def test_differentiate_quotient():
    # d/dz z/(1-z) = 1/(1-z)^2 -> 4 at z = 0.5
    assert eval_expr(differentiate(parse("z/(1-z)")), 0.5 + 0j) == pytest.approx(4)


# the f and g families the benchmark sweeps, and Koebe
SOURCES = [family.format(e=e)
           for family in ("z + {e}*z^2", "z + {e}*z^3", "z*exp({e}*z)", "z/(1 - {e}*z)")
           for e in (0.02, 0.05, 0.08, 0.11, 0.14, 0.17)]
SOURCES += ["z", "z*exp(0.1*z)", "z + 0.1*z^2", "z/(1 - 0.3*z)", "koebe"]


def _nodes(e: Expr):
    yield e
    for child in vars(e).values():
        if isinstance(child, Expr):
            yield from _nodes(child)


def _is_identity(e: Expr) -> bool:
    def is_const(x, v):
        return isinstance(x, Const) and x.value == v
    return ((isinstance(e, Add) and (is_const(e.a, 0) or is_const(e.b, 0)))
            or (isinstance(e, Sub) and is_const(e.b, 0))
            or (isinstance(e, Mul) and any(is_const(x, v) for x in (e.a, e.b) for v in (0, 1)))
            or (isinstance(e, Pow) and is_const(e.expo, 1)))


def test_second_derivative_of_a_quadratic_is_a_constant():
    assert differentiate(differentiate(parse("z + 0.1*z^2"))) == Const(0.2)


@pytest.mark.parametrize("src", SOURCES)
def test_no_identity_node_up_to_the_second_derivative(src):
    f = parse(src)
    fp = differentiate(f)
    for e in (f, fp, differentiate(fp)):
        assert not any(_is_identity(node) for node in _nodes(e))


def test_identity_folding_is_visible_in_parsed_trees():
    assert parse("1*z") == Var()
    assert parse("0*log(z)") == Const(0)
    # 0 - z keeps its +0 on the axes, and z^0 still raises at 0
    assert parse("0 - z") == Sub(Const(0), Z)
    assert pow_(Z, const(0)) == Pow(Z, Const(0))
    with pytest.raises(BranchPointHit):
        eval_expr(pow_(Z, const(0)), 0j)
    assert differentiate(Pow(Z, Const(1))) == Const(1)


# The trees the constructors built before identity folding: f' and f'' of
# z + 0.1 z^2 (15 and 39 nodes) and f' of z/(1 - 0.3 z) (29 nodes).
_C = const  # a complex Const, as the parser makes it
UNFOLDED = {
    "quad'": Add(_C(1), Add(Mul(_C(0), Pow(Z, _C(2))), Mul(_C(0.1), Mul(Mul(_C(2), Z), _C(1))))),
    "quad''": Add(_C(0), Add(
        Add(Mul(_C(0), Pow(Z, _C(2))), Mul(_C(0), Mul(Mul(_C(2), Z), _C(1)))),
        Add(Mul(_C(0), Mul(Mul(_C(2), Z), _C(1))),
            Mul(_C(0.1), Add(Mul(Add(Mul(_C(0), Z), _C(2)), _C(1)),
                             Mul(Mul(_C(2), Z), _C(0))))))),
    "moeb'": Div(
        Sub(Mul(_C(1), Sub(_C(1), Mul(_C(0.3), Z))),
            Mul(Z, Sub(_C(0), Add(Mul(_C(0), Z), _C(0.3))))),
        Mul(Sub(_C(1), Mul(_C(0.3), Z)), Sub(_C(1), Mul(_C(0.3), Z)))),
}


def test_folded_trees_evaluate_bit_for_bit_like_the_unfolded_ones():
    quad = differentiate(parse("z + 0.1*z^2"))
    folded = {"quad'": quad, "quad''": differentiate(quad),
              "moeb'": differentiate(parse("z/(1 - 0.3*z)"))}
    assert [len(list(_nodes(UNFOLDED[k]))) for k in folded] == [15, 39, 29]
    z = np.concatenate([DiskGrid().points().ravel(),
                        np.linspace(-0.999, 0.999, 201) + 0j])
    for key, e in folded.items():
        assert len(list(_nodes(e))) < len(list(_nodes(UNFOLDED[key])))
        assert evaluate(e, z).tobytes() == evaluate(UNFOLDED[key], z).tobytes(), key


def test_evaluate_broadcasts_a_constant_result():
    z = np.zeros((3, 4), dtype=complex)
    out = evaluate(parse("2 + 1i"), z)
    assert out.shape == (3, 4) and np.all(out == 2 + 1j)
    assert evaluate(Z, z) is z


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(2024)
    h = 1e-6
    checked = 0
    while checked < 1000:
        e = random_expr(rng)
        z = random_point(rng)
        try:
            v = eval_expr(e, z)
            d_sym = eval_expr(differentiate(e), z)
            d_fd = (eval_expr(e, z + h) - eval_expr(e, z - h)) / (2 * h)
        except Exception:
            continue  # singular draw; redraw
        if abs(d_sym) > 1e4 or abs(v) > 1e3:
            continue  # the difference oracle loses digits on huge values
        assert abs(d_sym - d_fd) / (1 + abs(d_sym)) <= 1e-6
        checked += 1


def test_principal_power_examples():
    for alpha in (1, 2.5, -0.3 + 1j):
        assert principal_power(1, alpha) == pytest.approx(1)
    assert principal_power(4, 0.5) == pytest.approx(2)
    assert principal_power(-1, 0.5) == pytest.approx(1j)


def test_principal_power_unit_exponents_exact():
    rng = np.random.default_rng(5)
    for _ in range(200):
        w = complex(rng.normal(), rng.normal())
        if w == 0:
            continue
        assert principal_power(w, 1) == w
        assert principal_power(w, 0) == 1


def test_principal_power_positive_real():
    rng = np.random.default_rng(6)
    for _ in range(200):
        r = float(rng.uniform(0.01, 10))
        x = float(rng.uniform(-3, 3))
        v = principal_power(r, x)
        assert v.imag == pytest.approx(0, abs=1e-14)
        assert v.real > 0


def test_principal_power_zero_base():
    assert principal_power(0, 2.5) == 0
    with pytest.raises(BranchPointHit):
        principal_power(0, -1.0)
    with pytest.raises(BranchPointHit):
        principal_power(0, 1j)


def test_log_derivative_of_z_is_one():
    for z in (0.5 + 0j, 0j, -0.3 + 0.2j):
        assert log_derivative_at(parse("z"), z) == pytest.approx(1)


def test_log_derivative_hand_value():
    # z g'/g for g = z/(1-z) equals 1/(1-z): 2 at z = 0.5
    assert log_derivative_at(parse("z/(1-z)"), 0.5) == pytest.approx(2)


def test_log_derivative_removable_limit():
    rng = np.random.default_rng(7)
    for src in ("z + 0.1*z^2", "z/(1-z)", "koebe"):
        g = parse(src)
        z = 1e-6 * np.exp(2j * np.pi * rng.uniform())
        assert abs(log_derivative_at(g, z) - 1) < 1e-4
        assert log_derivative_at(g, 0j) == 1


@pytest.mark.parametrize("src, expected", [
    ("z", 1),
    ("1 + z", 0),
    ("z^2", 2),             # double zero: the limit is the order
    ("z^3 + z^4", 3),
    ("z*exp(z) - 1e-15", 0),  # tiny but nonzero value at the origin
])
def test_log_derivative_at_origin_is_zero_order(src, expected):
    assert log_derivative_at(parse(src), 0j) == expected
    vals = log_derivative_field(parse(src), np.array([0j, 0j]))
    assert np.all(vals == expected)


def test_zero_order_reads_no_coefficient_past_the_first_nonzero():
    # z + z^2.5 has no third derivative at 0; the zero orders of f and f'
    # at the origin need none
    f = parse("z + z^2.5")
    assert _zero_order(f) == 1 and _zero_order(f, 1) == 0
    assert log_derivative_at(f, 0j) == 1
    with pytest.raises(BranchPointHit):
        jet(f, np.zeros(1, dtype=complex), 3)


def _masked_log_derivative(e: Expr, z: np.ndarray) -> np.ndarray:
    """z e'/e computed only off the origin, gathered and scattered back."""
    vals, dvals = (np.broadcast_to(v, z.shape) for v in jet(e, z, 1))
    at0 = z == 0
    out = np.empty(z.shape, dtype=complex)
    nz = ~at0
    out[nz] = z[nz] * dvals[nz] / vals[nz]
    out[at0] = _zero_order(e)
    return out


@pytest.mark.parametrize("e", [
    differentiate(parse("z + 0.1*z^2")),
    differentiate(parse("z*exp(0.1*z)")),
    differentiate(parse("z/(1 - 0.3*z)")),
    differentiate(parse("koebe")),
    parse("koebe"),
    parse("1"),
], ids=["quad'", "zexp'", "moeb'", "koebe'", "koebe", "one"])
def test_log_derivative_field_matches_the_masked_formula_bit_for_bit(e):
    grid = DiskGrid().points()
    with_origin = np.concatenate([[0j], grid.ravel(), [0j, -0.5 + 0j]])
    for z in (grid, with_origin):
        out = log_derivative_field(e, z)
        assert out.shape == z.shape
        assert out.tobytes() == _masked_log_derivative(e, z).tobytes()


def test_log_derivative_zero_denominator():
    # g = z - z^2 vanishes at z = 1 is outside; craft interior zero instead
    g = parse("z*(1 - 2*z)")
    with pytest.raises(DivisionByZero):
        log_derivative_at(g, 0.5)


def test_a_zero_of_f_prime_names_f_prime():
    # f' = 1 + z vanishes at z = -1, where z f''/f' divides by zero; the
    # error names the tree of f', the function that vanished
    from schlicht.criteria import bracket_field

    f = parse("z + 0.5*z^2")
    triple = AnalyticTriple.build(f, parse("z"), parse("1"))
    with pytest.raises(DivisionByZero) as err:
        bracket_field(triple, 2.0, np.array([-1 + 0j]))
    assert err.value.z == -1 and err.value.subexpr == differentiate(f)
    with pytest.raises(DivisionByZero) as err:
        log_derivative_values(np.array([-1 + 0j]), *jet(f, np.array([-1 + 0j]), 2)[1:], f, 1)
    assert err.value.subexpr == differentiate(f)


def test_triple_builds_and_caches():
    t = AnalyticTriple.build(parse("z + 0.1*z^2"), parse("z"), parse("1"))
    assert t.h0 == 1
    assert eval_expr(t.f, 0j, 1) == pytest.approx(1)
    assert _at_origin(t.f, 2)[2] == pytest.approx(0.1)  # f''(0)/2


def test_triple_rejects_unnormalized():
    with pytest.raises(ParameterError):
        AnalyticTriple.build(parse("z^2"), parse("z"), parse("1"))
    with pytest.raises(ParameterError):
        AnalyticTriple.build(parse("z"), parse("1 + z"), parse("1"))


def test_triple_rejects_bad_h0():
    with pytest.raises(ParameterError):
        AnalyticTriple.build(parse("z"), parse("z"), parse("-1"))
    with pytest.raises(ParameterError):
        AnalyticTriple.build(parse("z"), parse("z"), parse("z"))  # h(0) = 0
