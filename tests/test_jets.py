"""Jets of any order: agreement with the symbolic trees and mpmath, and the work they save.

``expr.jet`` carries (e, e', ..., e^(n)) through one walk of e's tree, for
n up to 64; the trees of ``differentiate`` and mpmath at 30 digits stay as
the references.  Orders 3 to 8 of the sources below, and order 4 of 500
random trees, match ``mpmath.taylor`` within 1e-12.  On the default 64 x 128 grid
the two agree within 1e-12 relative for the benchmark's f, g and h
families, Koebe, z (1 + 0.2 z)^0.5 and a log term; the largest gap, 1.1e-13,
is Koebe's f' = (1 + z)/(1 - z)^3 next to its zero at z = -1, where both
routes cancel.  Where the gap exceeds 1e-14, mpmath at 30 digits decides
which route is closer (``test_mpmath_decides_where_jets_and_trees_differ``).
That happens at two points, both Koebe's f' on the negative axis, and the
tree is closer at both: 3.1e-15 against the jet's 8.8e-15 at z = -0.9834,
and 2.6e-13 against 3.7e-13 at z = -0.999.  Both errors come from the
cancellation in 1 + z, whose condition number is about 1/(1 - |z|).
"""

import dataclasses
import operator

import mpmath
import numpy as np
import pytest

from conftest import random_expr, random_point
from schlicht import criteria, expr, reporting
from schlicht.criteria import DiskGrid, check_h_condition
from schlicht.dsl import parse
from schlicht.errors import SchlichtError
from schlicht.expr import AnalyticTriple, differentiate, evaluate, jet

GRID = DiskGrid()
EPS = (0.02, 0.17)
SOURCES = (
    [f.format(e=e) for e in EPS for f in
     ("z + {e}*z^2", "z + {e}*z^3", "z*exp({e}*z)", "z/(1 - {e}*z)")]  # f families
    + ["z", "z*exp(0.1*z)", "z + 0.1*z^2", "z/(1 - 0.3*z)"]           # g set
    + ["1", "2 + z", "exp(0.2*z)"]                                     # h
    + ["koebe", "z*(1 + 0.2*z)^0.5", "z + 0.3*log(1 + 0.5*z)"]
)


def _trees(src: str):
    e = parse(src)
    d1 = differentiate(e)
    return e, d1, differentiate(d1)


def _relative_gaps(src: str, z: np.ndarray):
    """Per order 1 and 2: the jet, the tree's value, and their relative gap."""
    e, *trees = _trees(src)
    j = jet(e, z, 2)
    out = []
    for k, tree in enumerate(trees, start=1):
        tv = evaluate(tree, z)
        jv = np.broadcast_to(j[k], z.shape)
        out.append((jv, tv, np.abs(jv - tv) / np.maximum(np.abs(tv), 1e-300)))
    return e, out


@pytest.mark.parametrize("src", SOURCES)
def test_jet_matches_the_symbolic_trees(src):
    z = GRID.points()
    e, gaps = _relative_gaps(src, z)
    # the values are evaluate's, bit for bit
    assert np.broadcast_to(jet(e, z, 2)[0], z.shape).tobytes() == evaluate(e, z).tobytes()
    for _, _, rel in gaps:
        assert rel.max() <= 1e-12


def test_jet_matches_the_trees_on_random_expressions():
    # every node kind, Pow with a non-constant exponent included; the
    # trees raise exactly where the jets do
    rng = np.random.default_rng(2026)
    z = np.array([random_point(rng) for _ in range(64)])
    for _ in range(500):
        e = random_expr(rng)
        d1 = differentiate(e)
        try:
            trees = [evaluate(t, z) for t in (e, d1, differentiate(d1))]
        except SchlichtError as exc:
            with pytest.raises(type(exc)):
                jet(e, z, 2)
            continue
        for k, (j, t) in enumerate(zip(jet(e, z, 2), trees)):
            j = np.broadcast_to(j, z.shape)
            if k == 0:
                assert j.tobytes() == t.tobytes()
            else:
                assert np.max(np.abs(j - t)) <= 1e-13 * np.max(np.abs(t), initial=1e-300)


def test_jet_orders_and_constants():
    z = GRID.points()[:4, :4]
    assert jet(parse("z + 0.1*z^2"), z, 0)[0].shape == z.shape
    assert len(jet(parse("z"), z, 1)) == 2
    # entries constant in z stay Python scalars
    v, d1, d2 = jet(parse("2 + 1i"), z, 2)
    assert (v, d1, d2) == (2 + 1j, 0j, 0j)
    _, d1, d2 = jet(parse("z + 0.1*z^2"), z, 2)
    assert isinstance(d1, np.ndarray) and d2 == 0.2
    with pytest.raises(ValueError):
        jet(parse("z"), z, 65)


def _mp_eval(e, z):
    """The tree ``e`` at the mpmath complex ``z``, principal branches."""
    if isinstance(e, expr.Var):
        return z
    if isinstance(e, expr.Const):
        return mpmath.mpc(e.value)
    if isinstance(e, expr.Neg):
        return -_mp_eval(e.a, z)
    if isinstance(e, expr.Pow):
        return mpmath.exp(_mp_eval(e.expo, z) * mpmath.log(_mp_eval(e.base, z)))
    if isinstance(e, (expr.Exp, expr.Log)):
        fn = mpmath.exp if isinstance(e, expr.Exp) else mpmath.log
        return fn(_mp_eval(e.a, z))
    ops = {expr.Add: operator.add, expr.Sub: operator.sub, expr.Mul: operator.mul,
           expr.Div: operator.truediv}
    return ops[type(e)](_mp_eval(e.a, z), _mp_eval(e.b, z))


def test_mpmath_decides_where_jets_and_trees_differ():
    z = GRID.points()
    decided = []
    with mpmath.workdps(30):
        for src in SOURCES:
            e, gaps = _relative_gaps(src, z)
            for (jv, tv, rel), tree in zip(gaps, _trees(src)[1:]):
                for i in np.flatnonzero(rel.ravel() > 1e-14):
                    exact = _mp_eval(tree, mpmath.mpc(complex(z.ravel()[i])))
                    err_j = float(abs(mpmath.mpc(complex(jv.ravel()[i])) - exact) / abs(exact))
                    err_t = float(abs(mpmath.mpc(complex(tv.ravel()[i])) - exact) / abs(exact))
                    decided.append((src, complex(z.ravel()[i]), err_j, err_t))
    # Koebe's f' at z = -0.9834 and z = -0.999 on the negative axis
    assert [(src, round(w.real, 4)) for src, w, _, _ in decided] == [
        ("koebe", -0.9834), ("koebe", -0.999)]
    for _, _, err_j, err_t in decided:
        assert max(err_j, err_t) <= 1e-12


def test_a_jet_without_the_value_gives_the_same_derivatives():
    # bit for bit, on every node kind; only the first entry is left out
    rng = np.random.default_rng(1022)
    z = np.array([random_point(rng) for _ in range(16)])
    for _ in range(300):
        e = random_expr(rng)
        try:
            full = jet(e, z, 3)
        except SchlichtError as exc:
            with pytest.raises(type(exc)):
                jet(e, z, 3, value=False)
            continue
        bare = jet(e, z, 3, value=False)
        assert bare[0] is None
        for b, f in zip(bare[1:], full[1:]):
            assert type(b) is type(f) and np.asarray(b).tobytes() == np.asarray(f).tobytes()


def test_a_jet_without_the_value_skips_the_values_only_it_needs(monkeypatch):
    # the power u^c itself is taken only where a derivative needs it: in a
    # product with z, and in the recurrence of a non-integer power
    powers = []
    original = expr.principal_power
    monkeypatch.setattr(expr, "principal_power", lambda w, c: powers.append(c) or original(w, c))
    z = GRID.points()
    for src, c, skipped in (("z + 0.1*z^2", 2, True), ("z + 0.1*z^3", 3, True),
                            ("z*(1 + 0.1*z)^3", 3, False), ("(1 + 0.1*z)^0.5", 0.5, False)):
        powers.clear()
        value, *_ = jet(parse(src), z, 2, value=False)
        assert value is None and (c not in powers) == skipped, src


def _mp_derivatives(e, z: complex, order: int) -> list:
    """e, e', ..., e^(order) at ``z`` by mpmath.taylor at the working precision."""
    coeffs = mpmath.taylor(lambda w: _mp_eval(e, w), mpmath.mpc(z), order)
    return [c * mpmath.factorial(k) for k, c in enumerate(coeffs)]


@pytest.mark.parametrize("src", SOURCES)
def test_jet_orders_3_to_8_match_mpmath(src):
    rng = np.random.default_rng(8)
    z = np.concatenate([0.95 * np.sqrt(rng.uniform(size=8))
                        * np.exp(2j * np.pi * rng.uniform(size=8)), [0.999, -0.999]])
    e = parse(src)
    j = [np.broadcast_to(d, z.shape) for d in jet(e, z, 8)]
    with mpmath.workdps(30):
        for i, w in enumerate(z):
            exact = _mp_derivatives(e, complex(w), 8)
            for k in range(3, 9):
                err = abs(mpmath.mpc(complex(j[k][i])) - exact[k])
                assert err <= 1e-12 * abs(exact[k]) + 1e-300, (k, w)


def test_jet_order_4_matches_mpmath_on_random_expressions():
    # every node kind; the order-4 jet raises exactly where the trees of
    # e, e' and e'' raise, and elsewhere matches mpmath at four of the points
    rng = np.random.default_rng(2026)
    z = np.array([random_point(rng) for _ in range(64)])
    with mpmath.workdps(30):
        for _ in range(500):
            e = random_expr(rng)
            d1 = differentiate(e)
            try:
                for t in (e, d1, differentiate(d1)):
                    evaluate(t, z)
            except SchlichtError as exc:
                with pytest.raises(type(exc)):
                    jet(e, z, 4)
                continue
            j = [np.broadcast_to(d, z.shape) for d in jet(e, z, 4)]
            exact = np.array([[complex(d) for d in _mp_derivatives(e, complex(w), 4)]
                              for w in z[::16]]).T
            for k in range(5):
                scale = max(np.max(np.abs(exact[k])), 1e-300)
                assert np.max(np.abs(j[k][::16] - exact[k])) <= 1e-12 * scale


@pytest.mark.parametrize("src", ["z^0.5", "z^1.5", "z^2.5", "z^(2 + 1i)", "z^3", "z^70",
                                 "z^(-1)", "z^0", "log(z)", "z^z", "1/z"])
def test_jet_raises_at_a_zero_where_the_trees_raise(src):
    # coefficient k of u^c at a zero of u is 0 for Re c > k and raises
    # otherwise, as the powers u^(c-k) in the trees of the derivatives do
    z = np.array([0.5, 0j])
    e = parse(src)
    trees = [e]
    for k in range(5):
        try:
            expected = evaluate(trees[-1], z)
        except SchlichtError as exc:
            with pytest.raises(type(exc)):
                jet(e, z, k)
            return
        assert np.allclose(np.broadcast_to(jet(e, z, k)[k], z.shape), expected,
                           rtol=1e-14, atol=0)
        trees.append(differentiate(trees[-1]))


def test_taylor_coefficients_at_the_origin_to_order_64():
    # rounding grows with k in the exp recurrence (one product per step):
    # coefficient k of z exp(cz) is held to k half-ulps, which is within
    # 1e-15 up to k = 9; the other two come out exact
    assert expr._at_origin(parse("z + 0.17*z^2"), 64) == [0, 1, 0.17] + [0] * 62
    assert expr._at_origin(parse("koebe"), 64) == list(range(65))
    for c in (1, 0.7, 2.5, -1.3, 0.3 + 0.4j):
        coeffs = expr._at_origin(expr.mul(expr.Z, expr.exp_(expr.mul(expr.const(c), expr.Z))), 64)
        assert coeffs[0] == 0
        with mpmath.workdps(40):
            for k in range(1, 65):
                exact = mpmath.mpc(c) ** (k - 1) / mpmath.factorial(k - 1)
                assert abs(mpmath.mpc(coeffs[k]) - exact) <= k * 2.0 ** -53 * abs(exact)


def test_becker_run_walks_f_once_on_the_grid(monkeypatch):
    # the criterion's base-grid pass gives the oracle's scan f and its
    # derivative check f'; only the refinements, the origin, the probes and
    # the winding circle take walks of their own
    rc = reporting.load_config({"f": "z*exp(0.1*z)", "preset": "becker"})
    walks = []
    original = expr._jet

    def counted(e, z, order, *value):
        if e is rc.f:
            walks.append((np.shape(z), order))
        return original(e, z, order, *value)

    monkeypatch.setattr(expr, "_jet", counted)
    report, code = reporting.run_check(rc, with_timings=False)
    assert code == 0 and report["oracle"]["injective_on_grid"]
    grid_shape = (rc.grid.n_radial, rc.grid.n_angular)
    assert [w for w in walks if w[0] == grid_shape] == [(grid_shape, 2)]
    assert walks.count(((8, 8), 2)) == rc.grid.refinement_levels


def test_becker_subject_values_are_evaluate_bits():
    rc = reporting.load_config({"f": "z*exp(0.1*z)", "preset": "becker"})
    subject = reporting.subject_function(rc)
    z = rc.grid.points()
    subject.jet(z)  # the pass the criterion makes, kept
    assert subject(rc.grid.points()).tobytes() == evaluate(rc.f, z).tobytes()
    assert np.allclose(subject.derivative(z), evaluate(differentiate(rc.f), z),
                       rtol=1e-14, atol=0)


def test_constant_h_condition_evaluates_no_grid_array(monkeypatch):
    triple = AnalyticTriple.build(parse("z + 0.1*z^2"), parse("z"), parse("1.5"))
    params = criteria.CriterionParams(alpha=1, c=-1, s=1, m=2.0)
    h_results = []
    original = expr._jet

    def spied(e, z, order, *value):
        out = original(e, z, order, *value)
        if e is triple.h:
            h_results.extend(out)
        return out

    def no_refinement(*args):
        raise AssertionError("a constant field was refined")

    monkeypatch.setattr(expr, "_jet", spied)
    monkeypatch.setattr(criteria, "_refine_maximum", no_refinement)
    rep = check_h_condition(triple, params, GRID)
    assert h_results and not any(isinstance(v, np.ndarray) for v in h_results)
    lhs = abs(-1 / 1.5 + 2 / 2)
    cond, = rep.conditions
    assert cond.margin == pytest.approx(1.0 - lhs, abs=1e-15)
    assert cond.witness == complex(GRID.radii()[0])
    assert rep.boundary_trend == tuple((float(r), cond.rhs - cond.margin)
                                       for r in GRID.radii()[-3:])


def test_constant_and_varying_h_condition_agree():
    # the scalar route reports what a constant array reports
    params = criteria.CriterionParams(alpha=1.2, c=-0.8 + 0.3j, s=1, m=2.0)
    triple = AnalyticTriple.build(parse("z"), parse("z"), parse("1.5"))
    flat = dataclasses.replace(triple, h=parse("1.5 + 0*z"))
    a = check_h_condition(triple, params, GRID)
    b = check_h_condition(flat, params, GRID)
    assert a.margin == pytest.approx(b.margin, rel=1e-15)
    assert a.witness == b.witness
    for (ra, va), (rb, vb) in zip(a.boundary_trend, b.boundary_trend):
        assert ra == rb and va == pytest.approx(vb, rel=1e-15)
