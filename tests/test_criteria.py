import dataclasses
import math

import numpy as np
import pytest

from conftest import admissible_params
from schlicht.criteria import (
    CriterionParams,
    DiskGrid,
    apply_preset,
    check_alpha_condition,
    check_becker,
    check_h_condition,
    check_log_derivative_condition,
    check_main_t2,
    check_qc_t5,
    check_simplified_t21,
    check_t3,
    check_t6,
    disk_maximize,
    in_uk,
)
from schlicht.dsl import parse
from schlicht.errors import ParameterError, UnknownPreset
from schlicht.expr import AnalyticTriple, Const, eval_expr
from schlicht.operators import operator_values
from schlicht.reporting import load_config, subject_function

GRID = DiskGrid()
TRIPLE_TRIVIAL = AnalyticTriple.build(parse("z"), parse("z"), parse("1"))
P_TRIVIAL = CriterionParams(alpha=1, c=-1, s=1, m=2.0)


def _triple(f_src, g_src="z", h_src="1"):
    return AnalyticTriple.build(parse(f_src), parse(g_src), parse(h_src))


def test_in_uk_examples():
    assert in_uk(1, 0) == (True, 0)
    ok, d = in_uk(0, 0.5)
    assert not ok and d == pytest.approx(1)
    # centre-form boundary point: w = (1+k^2)/(1-k^2) for k = 0.5 gives 5/3
    ok, d = in_uk(5 / 3, 0.5)
    assert ok and d == pytest.approx(0.25)
    ok, d = in_uk(-1, 0.3)
    assert not ok and d == np.inf


def test_uk_two_forms_agree():
    rng = np.random.default_rng(41)
    w = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
    k = rng.uniform(0, 0.99, size=10_000)
    lhs = np.abs((w - 1) / (w + 1)) <= k
    centre = (1 + k**2) / (1 - k**2)
    radius = 2 * k / (1 - k**2)
    rhs = np.abs(w - centre) <= radius
    boundary_slack = np.abs(np.abs((w - 1) / (w + 1)) - k) <= 1e-12
    assert np.all(lhs == rhs) or np.all(boundary_slack[lhs != rhs])


def test_alpha_condition_examples():
    assert check_alpha_condition(CriterionParams(alpha=1, c=-1, s=1, m=2.0))
    assert not check_alpha_condition(CriterionParams(alpha=2, c=-1, s=1, m=2.0))
    assert check_alpha_condition(CriterionParams(alpha=0.5, c=-1, s=2, m=2.0))


def test_alpha_condition_halfplane_equivalence():
    rng = np.random.default_rng(43)
    for _ in range(10_000):
        a = rng.uniform(0.05, 5)
        m = rng.uniform(0.1, 8)
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(alpha) < 1e-6:
            continue
        r = m / (2 * a)
        modulus_form = abs(alpha - r) < r
        halfplane_form = (m / alpha).real > a
        if abs(abs(alpha - r) - r) <= 1e-12:
            continue  # boundary slack
        assert modulus_form == halfplane_form


def test_h_condition_cancellation():
    # h = -c makes c/h = -1 cancel m/(2 alpha) = 1 exactly
    t = _triple("z", "z", "1")  # h = 1 = -c for c = -1
    rep = check_h_condition(t, P_TRIVIAL, GRID)
    assert rep.satisfied and rep.margin == pytest.approx(1.0)


def test_h_condition_half():
    t = _triple("z", "z", "2")  # h = -2c
    rep = check_h_condition(t, P_TRIVIAL, GRID)
    assert rep.satisfied and rep.margin == pytest.approx(0.5)


def test_h_condition_invalid_h0():
    with pytest.raises(ParameterError):
        _triple("z", "z", "-1")


def test_t2_trivial_margin_one():
    rep = check_main_t2(TRIPLE_TRIVIAL, P_TRIVIAL, GRID)
    assert rep.satisfied
    assert rep.margin == pytest.approx(1.0, abs=1e-12)


def test_t2_small_perturbation_passes():
    rep = check_main_t2(_triple("z + 0.1*z^2"), P_TRIVIAL, GRID)
    assert rep.satisfied and rep.margin > 0


def test_t2_geometric_f_fails_near_positive_axis():
    rep = check_main_t2(_triple("z/(1-z)"), P_TRIVIAL, GRID)
    assert not rep.satisfied
    w = rep.witness
    assert abs(w) > 0.9 and abs(np.angle(w)) < np.deg2rad(2)


def test_t21_trivial():
    rep = check_simplified_t21(TRIPLE_TRIVIAL, P_TRIVIAL, GRID)
    assert rep.satisfied and rep.margin == pytest.approx(1.0, abs=1e-12)


def test_t21_perturbed():
    rep = check_simplified_t21(_triple("z + 0.1*z^2"), P_TRIVIAL, GRID)
    assert rep.satisfied
    main = rep.conditions[-1]
    # sup of |0.2z/(1+0.2z)| over the disk is 0.25
    assert main.rhs - main.margin == pytest.approx(0.25, abs=2e-3)


def test_t21_implies_t2_pointwise():
    # the convex-combination identity behind the simplified form
    rng = np.random.default_rng(47)
    for _ in range(10_000):
        params, h0 = admissible_params(rng)
        a, m, alpha, c = params.a, params.m, params.alpha, params.c
        rhs = m / (2 * a)
        # a bracket value obeying the simplified inequality at some z
        bracket = rhs + rhs * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        lam = rng.uniform(0, 1)  # plays |z|^(m/a)
        lead = (-c * alpha) / (a * h0)
        lhs = abs(lead * lam + (1 - lam) * bracket - rhs)
        assert lhs <= rhs + 1e-12


def test_becker_examples():
    rep = check_becker(parse("z"), 2.0, GRID)
    assert rep.satisfied and rep.margin == pytest.approx(1.0, abs=1e-12)
    rep = check_becker(parse("z + 0.1*z^2"), 2.0, GRID)
    assert rep.satisfied
    assert rep.conditions[0].rhs - rep.margin <= 0.25


def test_becker_geometric_f_fails_with_known_max():
    rep = check_becker(parse("z/(1-z)"), 2.0, GRID)
    assert not rep.satisfied
    lhs_max = rep.conditions[0].rhs - rep.margin
    expected = 2 * GRID.r_max * (1 + GRID.r_max)
    assert abs(lhs_max - expected) / expected < 0.02
    assert abs(np.degrees(np.angle(rep.witness))) < 1.0


def test_becker_requires_m_above_one():
    with pytest.raises(ParameterError):
        check_becker(parse("z"), 1.0, GRID)


def test_t3_worked_example():
    p = CriterionParams(alpha=0.5, c=-1, s=2, m=2.0)
    rep = check_t3(TRIPLE_TRIVIAL, p, GRID)
    assert rep.satisfied
    by_name = {c.name: c for c in rep.conditions}
    assert by_name["eq-alpha"].margin == pytest.approx(0.5)
    assert by_name["eq-h"].margin == pytest.approx(1.0)
    # main LHS is 0.25 |z|^2, bound m/(2a) = 0.5
    assert by_name["main"].margin == pytest.approx(0.5 - 0.25 * GRID.r_max**2, abs=1e-6)


def test_t3_alpha_condition_failure_reported():
    p = CriterionParams(alpha=1, c=-1, s=2, m=2.0)
    rep = check_t3(TRIPLE_TRIVIAL, p, GRID)
    assert not rep.satisfied
    bad = [c for c in rep.conditions if not c.satisfied]
    assert [c.name for c in bad] == ["eq-alpha"]


def test_t3_requires_a_at_least_one():
    p = CriterionParams(alpha=0.5, c=-1, s=0.5, m=2.0)
    with pytest.raises(ParameterError):
        check_t3(TRIPLE_TRIVIAL, p, GRID)


def test_t5_trivial_and_strictness():
    rep, K = check_qc_t5(TRIPLE_TRIVIAL,
                         CriterionParams(alpha=1, c=-1, s=1, m=2.0, k=0.5), GRID)
    assert rep.satisfied and K == pytest.approx(0.5)
    rep, K = check_qc_t5(TRIPLE_TRIVIAL,
                         CriterionParams(alpha=1, c=-1, s=1, m=2.0, k=0.0), GRID)
    assert not rep.satisfied and K is None


def test_t5_perturbed():
    rep, K = check_qc_t5(_triple("z + 0.05*z^2"),
                         CriterionParams(alpha=1, c=-1, s=1, m=2.0, k=0.2), GRID)
    assert rep.satisfied and K == pytest.approx(0.2)
    main = [c for c in rep.conditions if c.name == "qc-main"][0]
    # the field reduces to (1-r^2) 0.1r/(1-0.1r); maximize the radial profile
    r = np.linspace(0, 1, 200_001)
    sup = np.max((1 - r**2) * 0.1 * r / (1 - 0.1 * r))
    assert main.rhs - main.margin == pytest.approx(sup, abs=1e-4)


def test_t6_trivial_and_bounds():
    rep = check_t6(parse("z"), parse("z"), 2.7, 0.0, GRID)
    assert rep.satisfied
    rep = check_t6(parse("z + 0.1*z^2"), parse("z"), 1.0, 0.2, GRID)
    assert rep.satisfied
    assert rep.conditions[0].rhs - rep.margin == pytest.approx(0.2 / 1.8, abs=2e-3)


def test_t6_geometric_f_fails():
    rep = check_t6(parse("z/(1-z)"), parse("z"), 1.0, 0.9, GRID)
    assert not rep.satisfied


def test_t6_requires_positive_real_alpha():
    with pytest.raises(ParameterError):
        check_t6(parse("z"), parse("z"), -1.0, 0.2, GRID)


def test_log_derivative_condition_expr():
    rep = check_log_derivative_condition(parse("z"), 0.0, GRID)
    assert rep.satisfied
    rep = check_log_derivative_condition(parse("z/(1-z)"), 0.95, GRID)
    assert not rep.satisfied
    rep = check_log_derivative_condition(parse("z + 0.1*z^2"), 0.15, GRID)
    assert rep.satisfied


def test_log_derivative_condition_sampled_operator():
    # same subject through the sampled-operator route, coarser grid for speed
    grid = DiskGrid(n_radial=12, n_angular=24, r_max=0.9, refinement_levels=1)
    f, g = parse("z + 0.1*z^2"), parse("z")

    def op(zz):
        vals, _ = operator_values(f, g, 1.0, np.asarray(zz).ravel())
        return vals.reshape(np.shape(zz))

    rep_op = check_log_derivative_condition(op, 0.15, grid)
    rep_expr = check_log_derivative_condition(parse("z + 0.1*z^2"), 0.15, grid)
    assert rep_op.satisfied == rep_expr.satisfied
    assert rep_op.margin == pytest.approx(rep_expr.margin, abs=1e-6)


def test_disk_maximize_radial_monotone():
    mx, wit = disk_maximize(lambda r, th: (r[:, None] * np.ones(len(th))[None, :]) ** 2,
                            GRID)
    assert mx == pytest.approx(GRID.r_max**2, abs=1e-3)
    assert np.angle(wit) == pytest.approx(0.0)  # tie broken at angle index 0


def test_disk_maximize_real_part():
    mx, wit = disk_maximize(
        lambda r, th: (r[:, None] * np.exp(1j * th)[None, :]).real, GRID)
    assert mx == pytest.approx(GRID.r_max, abs=1e-6)


def test_disk_maximize_blowup_field():
    def obj(r, th):
        zz = r[:, None] * np.exp(1j * th)[None, :]
        return np.abs(2 * zz / (1 - zz))

    mx, _ = disk_maximize(obj, GRID)
    expected = 2 * GRID.r_max / (1 - GRID.r_max)
    assert abs(mx - expected) / expected < 0.02


def test_margins_shrink_with_density():
    coarse = DiskGrid(n_radial=24, n_angular=48)
    dense = DiskGrid(n_radial=48, n_angular=96)
    for f_src in ("z + 0.1*z^2", "z + 0.05*z^3"):
        m_coarse = check_becker(parse(f_src), 2.0, coarse).margin
        m_dense = check_becker(parse(f_src), 2.0, dense).margin
        assert m_dense <= m_coarse + 1e-9


def test_t3_segment_property():
    # the two constrained endpoints pin every segment point in between
    rng = np.random.default_rng(53)
    for _ in range(5_000):
        a = rng.uniform(1.0, 5.0)
        m = rng.uniform(0.3, 6.0)
        r = np.abs(rng.uniform(0, 1))
        lam1 = r**m            # inner endpoint
        lam_mid = r ** (m / a)  # tested point, between lam1 and 1
        k_val = (m / 2) * rng.uniform(0, 0.999) * np.exp(2j * np.pi * rng.uniform())
        phi1 = (m / 2) * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        if abs(1 - lam1) < 1e-12:
            continue
        l_val = (phi1 - lam1 * k_val) / (1 - lam1)
        phi_mid = lam_mid * k_val + (1 - lam_mid) * l_val
        assert abs(phi_mid) <= m / 2 + 1e-9


def test_presets():
    p = CriterionParams(alpha=1, c=-1, s=1, m=2.0)
    app = apply_preset("ruscheweyh", parse("z"), params=p)
    assert app.check_id == "T3" and app.params.m == 2.0
    rep = check_t3(AnalyticTriple.build(app.f, app.g, app.h), app.params, GRID)
    assert rep.satisfied

    app = apply_preset("becker", parse("z"), params=p)
    assert app.check_id == "becker"
    assert app.h == Const(1 + 0j)  # h = -c with c = -1
    assert check_becker(app.f, app.params.m, GRID).satisfied

    app = apply_preset("lewandowski", parse("z"), params=p, k_fn=parse("1"))
    assert eval_expr(app.h, 0.3 + 0.1j) == pytest.approx(1.0)

    app = apply_preset("moldoveanu-pascu-remark", parse("z"),
                       params=CriterionParams(alpha=0.5, c=-1, s=1 + 1j, m=2.0))
    assert app.params.c == pytest.approx(-2.0)
    assert app.params.s.real == 1.0

    with pytest.raises(UnknownPreset):
        apply_preset("nope", parse("z"))
    with pytest.raises(ParameterError):
        apply_preset("singh-chichra", parse("z"), h=parse("2"), params=p)


def test_params_validation():
    with pytest.raises(ParameterError):
        CriterionParams(alpha=1, c=1, s=1, m=2.0).validate()  # c on [0, inf)
    with pytest.raises(ParameterError):
        CriterionParams(alpha=1, c=-1, s=-1, m=2.0).validate()
    with pytest.raises(ParameterError):
        CriterionParams(alpha=1, c=-1, s=1, m=2.0, k=1.0).validate()
    with pytest.raises(ParameterError):
        DiskGrid(r_max=1.0)


@pytest.mark.parametrize("kwargs, key", [
    ({"refinement_levels": -1}, "grid.refinement_levels"),
    ({"n_radial": 2.7}, "grid.n_radial"),
    ({"n_angular": np.float64(8)}, "grid.n_angular"),
    ({"r_max": float("nan")}, "grid.r_max"),
])
def test_disk_grid_names_the_rejected_value(kwargs, key):
    with pytest.raises(ParameterError, match=key):
        DiskGrid(**kwargs)


@pytest.mark.parametrize("name, value", [
    ("alpha", complex(math.nan, 0)), ("alpha", complex(1, math.inf)),
    ("c", complex(-math.inf, 0)), ("c", complex(-1, math.nan)),
    ("s", complex(1, math.inf)), ("s", complex(math.inf, 0)),
    ("m", math.inf), ("m", math.nan), ("k", math.nan), ("k", -math.inf),
])
def test_params_validation_rejects_a_non_finite_value(name, value):
    params = dataclasses.replace(CriterionParams(alpha=1, c=-1, s=1, m=2.0, k=0.5),
                                 **{name: value})
    with pytest.raises(ParameterError, match=f"^{name} must be finite, got "):
        params.validate()


def test_disk_grid_accepts_numpy_integers():
    grid = DiskGrid(n_radial=np.int64(4), n_angular=np.int32(8), refinement_levels=np.int64(0))
    assert grid.points().shape == (4, 8)


def test_log_derivative_condition_operator_subject_uses_closed_form():
    # alpha = 1, g = z: G' = f' exactly, so z G'/G matches the Expr route
    # far below the finite-difference gap of the plain-callable route
    grid = DiskGrid(n_radial=12, n_angular=24, r_max=0.9, refinement_levels=1)
    rc = load_config({"f": "z + 0.1*z^2", "g": "z", "check": "logderiv-Uk",
                      "params": {"alpha": 1, "k": 0.15}})
    subject = subject_function(rc)
    assert callable(subject.derivative)
    rep_op = check_log_derivative_condition(subject, 0.15, grid)
    rep_expr = check_log_derivative_condition(parse("z + 0.1*z^2"), 0.15, grid)
    assert rep_op.satisfied == rep_expr.satisfied
    assert rep_op.margin == pytest.approx(rep_expr.margin, abs=1e-12)
    assert rep_op.witness == pytest.approx(rep_expr.witness, abs=1e-12)


def test_disk_maximize_ties_within_a_few_ulp_go_to_the_lowest_grid_index():
    # the later point is one ulp higher; the earlier one wins the tie
    grid = DiskGrid(n_radial=4, n_angular=8, r_max=0.9, refinement_levels=0)

    def objective(radii, angles):
        vals = np.zeros((len(radii), len(angles)))
        vals[2, 1] = 1.0
        vals[2, 7] = np.nextafter(1.0, 2.0)
        return vals

    best, witness = disk_maximize(objective, grid)
    assert best == 1.0
    assert witness == pytest.approx(grid.points()[2, 1], abs=1e-15)


def test_witness_among_conjugate_maxima_is_the_lowest_grid_index():
    # f and g have real coefficients, so the T6 field is symmetric about
    # the real axis; its base-grid maxima at angle indices 45 and 83
    # = 128 - 45 differ only in their last bits
    rc = load_config({"f": "z*exp(0.08*z)", "g": "z*exp(0.1*z)", "check": "T6",
                      "params": {"alpha": [2, 0], "k": 0.6}})
    rep = check_t6(rc.f, rc.g, 2.0, 0.6, rc.grid)
    theta = np.angle(rep.witness) % (2 * np.pi)
    assert rep.witness.imag > 0
    assert abs(theta - 2 * np.pi * 45 / 128) <= 2 * np.pi / 128
