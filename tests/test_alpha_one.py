"""alpha = 1 in closed form: G_1[f, g] = int_0^z f' du = f - f(0), whatever g is.

The oracle subject, the chains and the criterion fields take this form at
alpha = 1; the general path of ``operators`` is the reference they are
compared with here.  Since G_1 does not involve g, a g whose g/z vanishes
in the disk no longer aborts a run at alpha = 1.
"""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import schlicht
from schlicht import criteria, reporting
from schlicht.chains import chain_callable, chain_l, chain_t6, chain_t6_callable
from schlicht.cli import main
from schlicht.criteria import CriterionParams, bracket_field, t6_field
from schlicht.dsl import parse
from schlicht.expr import AnalyticTriple, eval_expr, jet, log_derivative_values
from schlicht.operators import (
    continued_gz_log,
    operator_values,
    operator_values_with_derivative,
)

# the four f families of the benchmark catalog at its largest epsilon, and
# z/(1-z), whose f' is singular on the circle
F_SET = ("z + 0.17*z^2", "z + 0.17*z^3", "z*exp(0.17*z)", "z/(1 - 0.17*z)", "z/(1-z)")
# the benchmark's g set; g/z has no zero in the closed disk
G_SET = ("z", "z*exp(0.1*z)", "z + 0.1*z^2", "z/(1 - 0.3*z)")
SCHEMA = json.loads((Path(schlicht.__file__).parent / "schemas"
                     / "report.schema.json").read_text())


def _points(seed: int, n: int = 200, r: float = 0.999) -> np.ndarray:
    rng = np.random.default_rng(seed)
    inner = r * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    return np.concatenate([inner, [0j], r * np.exp(2j * np.pi * np.arange(16) / 16)])


@pytest.mark.parametrize("g_src", G_SET)
@pytest.mark.parametrize("f_src", F_SET)
def test_the_subject_is_the_operator_within_its_error_bound(f_src, g_src):
    rc = reporting.load_config({"f": f_src, "g": g_src, "check": "T6",
                                "params": {"k": 0.5}})
    subject = reporting.subject_function(rc)
    z = _points(81)
    vals, derivs, errs = operator_values_with_derivative(rc.f, rc.g, 1, z)
    assert np.all(np.abs(subject(z) - vals) <= errs)
    # G' = f' Phi^0 V^0 on the general path
    assert np.array_equal(subject.derivative(z), derivs)


def test_the_subject_is_f_minus_f0_inside_the_normalization_tolerance():
    src = "z + 0.1*z^2 + 1e-13"
    rc = reporting.load_config({"f": src, "check": "T2", "params": {"k": 0.5}})
    subject = reporting.subject_function(rc)
    z = _points(82)
    f = parse(src)
    assert np.array_equal(subject(z), eval_expr(f, z) - 1e-13)
    assert subject(0j) == 0
    vals, errs = operator_values(f, parse("z"), 1, z)
    assert np.all(np.abs(subject(z) - vals) <= errs)
    # the chain's V is (f(u) - f(0))/u, not f(u)/u, which would be about
    # 1 + 1e-13/u at small u
    triple = AnalyticTriple.build(f, parse("z"), parse("1"))
    params = CriterionParams(alpha=1, c=-1, s=1, m=2.0)
    tiny = np.array([1e-9, 1e-6j])
    assert np.allclose(chain_l(triple, params, tiny, 0.0), tiny + 0.1 * tiny**2,
                       rtol=1e-12, atol=0)


CHAIN_CASES = [
    pytest.param("z + 0.17*z^2", "1", -1.0, 1.0, 2.0, id="becker-like"),
    pytest.param("z*exp(0.17*z)", "1 + 0.3*z", -1.2 + 0.3j, 1.3 + 0.2j, 2.6, id="main"),
    pytest.param("z/(1-z)", "exp(0.2*z)", -0.8, 1.0, 2.0, id="singular-f"),
]


@pytest.mark.parametrize("g_src", G_SET)
@pytest.mark.parametrize("f_src, h_src, c, s, m", CHAIN_CASES)
def test_the_chains_at_time_zero_are_the_operator(f_src, h_src, c, s, m, g_src):
    f, g = parse(f_src), parse(g_src)
    z = _points(83)
    vals, errs = operator_values(f, g, 1, z)
    triple = AnalyticTriple.build(f, g, parse(h_src))
    params = CriterionParams(alpha=1, c=c, s=s, m=m)
    assert np.all(np.abs(chain_l(triple, params, z, 0.0) - vals) <= errs)
    assert np.all(np.abs(chain_t6(f, g, 1.0, z, 0.0) - vals) <= errs)


@pytest.mark.parametrize("f_src, h_src, c, s, m", CHAIN_CASES)
def test_the_chains_at_positive_times_take_their_closed_forms(f_src, h_src, c, s, m):
    # L(z, t) = f(u0) - (a/c)(e^(mt) - 1) u0 f'(u0) h(u0) with u0 = e^(-st) z,
    # and the automorphism chain is f(z) + (e^t - 1) z; g/z = 1 - 2z vanishes
    # in the disk, which the general path would refuse, and G_1 ignores
    f, h = parse(f_src), parse(h_src)
    rng = np.random.default_rng(84)
    z = _points(84, 100)
    t = rng.uniform(0, 0.5, len(z))
    u0 = np.exp(-s * t) * z
    a = complex(s).real
    expected = eval_expr(f, u0) - (a / c) * np.expm1(m * t) * u0 * eval_expr(f, u0, 1) \
        * eval_expr(h, u0)
    triple = AnalyticTriple.build(f, parse("z - 2*z^2"), h)
    params = CriterionParams(alpha=1, c=c, s=s, m=m)
    chain = chain_callable(triple, params)
    assert np.allclose(chain(z, t), expected, rtol=1e-13, atol=1e-15)
    assert np.allclose(chain_t6_callable(f, parse("z - 2*z^2"), 1.0)(z, t),
                       eval_expr(f, z) + np.expm1(t) * z, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("g_src", G_SET)
@pytest.mark.parametrize("f_src", F_SET)
def test_the_fields_at_alpha_one_are_the_general_expressions_bit_for_bit(f_src, g_src):
    f, g, h = parse(f_src), parse(g_src), parse("1 + 0.3*z")
    zz = _points(85, 120, r=0.95).reshape(-1, 1)
    triple = AnalyticTriple.build(f, g, h)
    alpha = 1 + 0j
    # the expressions of the general path, written out with alpha - 1 = 0
    _, fp, fpp = jet(f, zz, 2, value=False)
    general = ((alpha - 1) * log_derivative_values(zz, *jet(g, zz, 1), g) + 1
               + log_derivative_values(zz, fp, fpp, f, 1)
               + log_derivative_values(zz, *jet(h, zz, 1), h))
    assert np.array_equal(bracket_field(triple, alpha, zz), general)
    general_t6 = (np.exp((1.0 - 1) * continued_gz_log(g, zz.ravel()).reshape(zz.shape))
                  * jet(f, zz, 1, value=False)[1])
    field = t6_field(f, g, 1.0, zz)
    assert field.shape == zz.shape and np.array_equal(field, general_t6)


@pytest.mark.parametrize("check", ["T2", "T6"])
def test_a_vanishing_g_over_z_does_not_abort_at_alpha_one(tmp_path, check):
    # g/z = 1 - 2z vanishes at z = 1/2, where the general path stops with
    # "integrand singular"; G_1 = f does not involve g
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "f": "z + 0.1*z^2", "g": "z - 2*z^2", "check": check,
        "params": {"alpha": [1, 0], "k": 0.5},
        "grid": {"n_radial": 16, "n_angular": 32}, "seed": 1}))
    out = tmp_path / "report.json"
    code = main(["check", "--config", str(config), "--out", str(out), "--no-timings"])
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert code == (0 if report["certified_on_grid"] else 1)
    assert report["oracle"]["injective_on_grid"]
    assert report["oracle"]["preimage_counts_ok"]


@pytest.mark.parametrize("check", ["T2", "T6"])
def test_extend_with_a_vanishing_g_over_z_at_alpha_one(tmp_path, check):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "f": "z + 0.1*z^2", "g": "z - 2*z^2", "check": check,
        "params": {"alpha": [1, 0], "k": 0.5},
        "grid": {"n_radial": 16, "n_angular": 32}, "seed": 1}))
    assert main(["extend", "--config", str(config), "--force",
                 "--out", str(tmp_path / "f.csv"), "--resolution", "8"]) == 0


def test_a_vanishing_g_over_z_still_aborts_the_general_path():
    rc = reporting.load_config({
        "f": "z + 0.1*z^2", "g": "z - 2*z^2", "check": "T6",
        "params": {"alpha": [2, 0], "k": 0.5},
        "grid": {"n_radial": 16, "n_angular": 32}, "seed": 1})
    with pytest.raises(schlicht.errors.SchlichtError):
        reporting.run_check(rc, with_timings=False)
    with pytest.raises(schlicht.errors.SchlichtError):
        criteria.check_t6(rc.f, rc.g, 2.0, 0.5, rc.grid)


@pytest.mark.parametrize("alpha", [1, 2])
def test_the_logderiv_driving_term_does_not_depend_on_its_batch(alpha):
    # from 16,384 complex values on, numpy evaluates a * (temporary) into
    # the temporary with the factors swapped; p = z G'/G keeps its order
    rc = reporting.load_config({"f": "z + 0.08*z^2 + 0.01*z^3", "check": "logderiv-Uk",
                                "params": {"alpha": [alpha, 0], "k": 0.5}})
    chain = reporting.build_chain(rc)
    z = np.exp(2j * np.pi * np.random.default_rng(84).uniform(size=1 << 14))
    big = chain.driving_term(z, 0.3)
    for part in np.split(np.arange(len(z)), 8):
        assert np.array_equal(chain.driving_term(z[part], 0.3), big[part])
