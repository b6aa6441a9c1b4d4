"""One jet walk for f, f' and f'': agreement with the symbolic trees, and the work it saves.

``expr.jet`` carries (e, e', e'') through one walk of e's tree; the trees
of ``differentiate`` stay as the reference.  On the default 64 x 128 grid
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
        jet(parse("z"), z, 3)


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
    a, b = _mp_eval(e.a, z), _mp_eval(e.b, z)
    return {expr.Add: a + b, expr.Sub: a - b, expr.Mul: a * b}.get(type(e)) or a / b


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


def test_becker_run_walks_f_once_on_the_grid(monkeypatch):
    # the criterion's base-grid pass gives the oracle's scan f and its
    # derivative check f'; only the refinements, the origin, the probes and
    # the winding circle take walks of their own
    rc = reporting.load_config({"f": "z*exp(0.1*z)", "preset": "becker"})
    walks = []
    original = expr._jet

    def counted(e, z, order):
        if e is rc.f:
            walks.append((np.shape(z), order))
        return original(e, z, order)

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

    def spied(e, z, order):
        out = original(e, z, order)
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
