import numpy as np
import pytest

from schlicht import operators
from schlicht.dsl import parse
from schlicht.errors import (
    AlphaTooSmall,
    IntegrandSingular,
    NonvanishingViolation,
    ParameterError,
    ToleranceNotMet,
)
from schlicht.expr import Var, eval_expr
from schlicht.operators import (
    bracket_final,
    iter_radial_brackets,
    operator_g_alpha,
    operator_mocanu,
    operator_moldoveanu_pascu,
    operator_pascu,
    operator_values,
    operator_values_with_derivative,
)


def series_exp_weight(z: complex, lam: float, alpha: float, terms: int = 200) -> complex:
    """Oracle for g = z e^{lam z}, f = z: term-by-term integration of
    u^(alpha-1) e^{lam (alpha-1) u}, then the 1/alpha root near 1."""
    beta = alpha - 1
    term = 1.0 + 0j  # (lam beta z)^n / n!
    total = 0j
    for n in range(terms):
        total += alpha * term / (alpha + n)
        term *= lam * beta * z / (n + 1)
    return z * total ** (1 / alpha)


def series_geometric(z: complex, alpha: float, terms: int = 200) -> complex:
    """Oracle for g = z/(1-z), f = z, alpha = 2: V = 2 sum z^n/(n+2)."""
    assert alpha == 2
    total = sum(2 * z**n / (n + 2) for n in range(terms))
    return z * np.sqrt(total)


def series_mocanu_quadratic(z: complex) -> complex:
    """Oracle for the g^alpha/u integral with g = z + 0.2 z^2, alpha = 2;
    (1 + 0.2u)^2 integrates in closed form."""
    total = 1 + 0.8 * z / 3 + 0.02 * z * z
    return z * np.sqrt(total)


def test_identity_when_g_power_trivial():
    ov = operator_g_alpha(parse("z"), parse("z"), 2.5, 0.3 + 0.1j)
    assert ov.value == pytest.approx(0.3 + 0.1j, abs=1e-12)


def test_alpha_one_recovers_f():
    f = parse("z + 0.1*z^2")
    ov = operator_g_alpha(f, parse("z"), 1.0, 0.5)
    assert ov.value == pytest.approx(0.525, abs=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        ov = operator_g_alpha(f, parse("z"), 1.0, z)
        assert abs(ov.value - eval_expr(f, complex(z))) < 1e-12


def test_pascu_examples():
    assert operator_pascu(parse("z"), 3.0, 0.2).value == pytest.approx(0.2, abs=1e-12)
    assert operator_pascu(parse("z + 0.1*z^2"), 1.0, 0.5).value == pytest.approx(0.525, abs=1e-12)


def test_pascu_consistent_with_general_operator():
    rng = np.random.default_rng(17)
    pool = [parse(s) for s in ("z", "z + 0.1*z^2", "z + 0.05*z^3", "10*(exp(0.1*z) - 1)")]
    for _ in range(100):
        f = pool[rng.integers(len(pool))]
        alpha = complex(rng.uniform(0.6, 3), rng.uniform(-0.5, 0.5))
        z = 0.85 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        a = operator_pascu(f, alpha, z)
        b = operator_g_alpha(f, Var(), alpha, z)
        assert abs(a.value - b.value) <= 1e-12


def test_moldoveanu_pascu_consistent():
    rng = np.random.default_rng(23)
    pool = [parse(s) for s in ("z", "z + 0.1*z^2", "z/(1-0.5*z)")]
    fz = parse("z")
    for _ in range(100):
        g = pool[rng.integers(len(pool))]
        alpha = complex(rng.uniform(0.8, 3), rng.uniform(-0.4, 0.4))
        z = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        a = operator_moldoveanu_pascu(g, alpha, z)
        b = operator_g_alpha(fz, g, alpha, z)
        assert abs(a.value - b.value) <= 1e-11


def test_moldoveanu_trivial():
    assert operator_moldoveanu_pascu(parse("z"), 2.0, 0.4).value == pytest.approx(0.4, abs=1e-12)


def test_mocanu_trivial():
    # integrand u^0.5, the root undoes the power: result z
    assert operator_mocanu(parse("z"), 1.5, 0.6).value == pytest.approx(0.6, abs=1e-12)


def test_mocanu_matches_reconstructed_f():
    # with f' = g/z the general operator coincides with the g^alpha/u one
    cases = [
        ("z + 0.2*z^2", "z + 0.1*z^2"),           # f' = 1 + 0.2z
        ("z*exp(0.1*z)", "10*(exp(0.1*z) - 1)"),  # f' = e^{0.1z}
    ]
    rng = np.random.default_rng(29)
    for g_src, f_src in cases:
        g, f = parse(g_src), parse(f_src)
        for _ in range(10):
            alpha = rng.uniform(0.8, 2.5)
            z = 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            a = operator_mocanu(g, alpha, z)
            b = operator_g_alpha(f, g, alpha, z)
            assert abs(a.value - b.value) <= 1e-10


def test_series_oracle_exp_weight():
    ov = operator_g_alpha(parse("z"), parse("z*exp(0.1*z)"), 2.0, 0.5)
    assert abs(ov.value - series_exp_weight(0.5, 0.1, 2.0)) <= 1e-9


def test_series_oracle_geometric():
    ov = operator_moldoveanu_pascu(parse("z/(1-z)"), 2.0, 0.3)
    assert abs(ov.value - series_geometric(0.3, 2.0)) <= 1e-9


def test_series_oracle_mocanu():
    ov = operator_mocanu(parse("z + 0.2*z^2"), 2.0, 0.3)
    assert abs(ov.value - series_mocanu_quadratic(0.3)) <= 1e-9


def test_normalization_near_origin():
    z = 1e-4
    for build in (
        lambda: operator_g_alpha(parse("z + 0.1*z^2"), parse("z*exp(0.2*z)"), 1.7, z),
        lambda: operator_pascu(parse("z + 0.1*z^2"), 2.2, z),
        lambda: operator_moldoveanu_pascu(parse("z + 0.3*z^2"), 1.3, z),
        lambda: operator_mocanu(parse("z + 0.2*z^2"), 1.5, z),
    ):
        ov = build()
        assert abs(ov.value / z - 1) < 1e-3


def test_halving_tolerance_stays_within_error(monkeypatch):
    f, g = parse("z + 0.1*z^2"), parse("z*exp(0.3*z)")
    rng = np.random.default_rng(31)
    for _ in range(10):
        z = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        monkeypatch.setattr(operators, "_ABS_TOLERANCE", 1e-8)
        a = operator_g_alpha(f, g, 1.6, z)
        monkeypatch.setattr(operators, "_ABS_TOLERANCE", 5e-9)
        b = operator_g_alpha(f, g, 1.6, z)
        assert abs(a.value - b.value) <= max(a.estimated_error, b.estimated_error) + 1e-15


def test_panel_layout_independence(monkeypatch):
    # richer node counts must agree within the combined error estimates
    f, g = parse("z + 0.1*z^2"), parse("z/(1-0.4*z)")
    monkeypatch.setattr(operators, "_NODES_PER_PANEL", 8)
    a = operator_g_alpha(f, g, 1.8, 0.77)
    monkeypatch.setattr(operators, "_NODES_PER_PANEL", 24)
    b = operator_g_alpha(f, g, 1.8, 0.77)
    assert abs(a.value - b.value) <= a.estimated_error + b.estimated_error + 1e-14


def _quadrature_value(f, g, alpha, z):
    """G(z) and its error bound from radial quadrature on the segment from
    z/2 on, started from the series of the fit at radius 1 at z/2."""
    fit = operators.BracketFit(g, alpha, f=f)
    fit.final(np.zeros(1))
    a, zz = complex(alpha), np.array([complex(z)])
    value, log_value, _, error = operators._segments(
        g, a, zz, a - 1, fit.f, (0.5, *fit._values(0.5 * zz)))
    error = error[0] + 0.5 ** a.real * fit.series.h_error
    g_value = z * np.exp(log_value[0] / a)
    return g_value, error * abs(g_value) / abs(a * value[0])


def test_quadrature_halving_tolerance_stays_within_error(monkeypatch):
    # the twin of test_halving_tolerance_stays_within_error, whose entire
    # subject now takes the coefficient path
    f, g = parse("z + 0.1*z^2"), parse("z*exp(0.3*z)")
    rng = np.random.default_rng(31)
    for _ in range(10):
        z = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        monkeypatch.setattr(operators, "_ABS_TOLERANCE", 1e-8)
        a, err_a = _quadrature_value(f, g, 1.6, z)
        monkeypatch.setattr(operators, "_ABS_TOLERANCE", 5e-9)
        b, err_b = _quadrature_value(f, g, 1.6, z)
        assert abs(a - b) <= max(err_a, err_b) + 1e-15


def test_quadrature_panel_layout_independence(monkeypatch):
    f, g = parse("z + 0.1*z^2"), parse("z/(1-0.4*z)")
    monkeypatch.setattr(operators, "_NODES_PER_PANEL", 8)
    a, err_a = _quadrature_value(f, g, 1.8, 0.77)
    monkeypatch.setattr(operators, "_NODES_PER_PANEL", 24)
    b, err_b = _quadrature_value(f, g, 1.8, 0.77)
    assert abs(a - b) <= err_a + err_b + 1e-14


def test_fractional_and_complex_alpha():
    assert abs(operator_g_alpha(parse("z"), parse("z"), 0.45, 0.5).value - 0.5) < 1e-12
    assert abs(operator_g_alpha(parse("z"), parse("z"), 1.7 + 0.3j, 0.4 + 0.2j).value
               - (0.4 + 0.2j)) < 1e-12


def test_error_estimate_honored():
    ov = operator_g_alpha(parse("z + 0.1*z^2"), parse("z*exp(0.3*z)"), 1.6, 0.9)
    assert ov.estimated_error <= operators._ABS_TOLERANCE


def test_a_large_bracket_above_the_absolute_budget_keeps_g_within_its_bound():
    # V is about 2e6 at 0.999, so its summed panel error sits at the
    # rounding floor the panels were accepted at, far above the absolute
    # budget; the error bounds show that, and G is within its own bound
    f, z = parse("koebe"), 0.999
    fin = bracket_final(parse("z"), 2.0, [z], f=f)
    assert fin.error[0] > operators._ABS_TOLERANCE
    ov = operator_g_alpha(f, parse("z"), 2.0, z)
    # G^2 = 2 int_0^z u f'(u) du = 2 (z f(z) - 1/(1-z) + 1 - log(1-z))
    ref = np.sqrt(2 * (z * z / (1 - z) ** 2 - 1 / (1 - z) + 1 - np.log1p(-z)))
    assert abs(ov.value - ref) <= ov.estimated_error


def test_subdivision_depth_limit_names_the_panel(monkeypatch):
    # Koebe's f' blows up at u = 1, so the outer half of the segment from
    # the fit's radius to 0.99 needs more than one bisection; at the full
    # depth it converges
    f = parse("koebe")
    operator_g_alpha(f, parse("z"), 2.0, 0.99)
    monkeypatch.setattr(operators, "_MAX_DEPTH", 1)
    with pytest.raises(ToleranceNotMet,
                       match=r"panel \[0\.5,1\] above tolerance at depth 1"):
        operator_g_alpha(f, parse("z"), 2.0, 0.99)


def test_ladder_inserts_anchors_where_phi_turns_fast():
    # the argument of Phi, 2 sin(111.7 u), swings by up to 4 radians
    # between the initial ladder anchors of the segment from 0.09 to 0.9,
    # so anchors go in between
    g = parse("z*exp(1.0*(exp(111.7i*z) - exp(-111.7i*z)))")
    logphi0 = 2j * np.sin(111.7 * 0.09)
    (_, br), = iter_radial_brackets(g, 1.5, [0.9], start=(0.1, [1.0], [0.0], [logphi0]))
    ref = 2j * np.sin(111.7 * 0.9 * (1 - 0.9 * (1 - br.sigmas)))
    assert np.max(np.abs(br.logphi_edges[0] - ref)) <= 3e-14


@pytest.mark.parametrize("bad", [0, np.nan, np.inf, complex(0, np.nan)])
def test_unwrap_prefix_names_the_first_row_of_the_innermost_bad_column(bad):
    vals = np.ones((4, 5), dtype=complex)
    vals[3, 1] = vals[2, 1] = vals[0, 3] = bad
    rays = np.array([0.1, 0.2j, -0.3, 0.4 - 0.1j])
    sigmas = np.array([0.1, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(NonvanishingViolation) as info:
        operators._unwrap_prefix(vals, 0j, rays[:, None] * sigmas)
    assert info.value.where == rays[2] * sigmas[1]


def test_alpha_guards():
    with pytest.raises(AlphaTooSmall):
        operator_g_alpha(parse("z"), parse("z"), 1e-12, 0.5)
    with pytest.raises(AlphaTooSmall):
        operator_g_alpha(parse("z"), parse("z"), -1.0, 0.5)


def test_interior_zero_of_g_rejected():
    # g/z vanishes exactly at an anchor point when z = 1
    g = parse("z*(1 - 2*z)")
    with pytest.raises(IntegrandSingular):
        operator_g_alpha(parse("z"), g, 2.0, 1.0)


def test_endpoint_outside_disk_rejected():
    with pytest.raises(ParameterError):
        operator_g_alpha(parse("z"), parse("z"), 2.0, 1.5)


def test_vectorized_matches_scalar():
    f, g = parse("z + 0.1*z^2"), parse("z*exp(0.2*z)")
    rng = np.random.default_rng(37)
    zs = 0.8 * np.sqrt(rng.uniform(0, 1, 16)) * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
    vals, errs = operator_values(f, g, 1.4, zs)
    for z, v in zip(zs, vals):
        assert abs(operator_g_alpha(f, g, 1.4, complex(z)).value - v) < 1e-13


def _disk_points(rng, n: int) -> np.ndarray:
    return 0.999 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def test_a_point_alone_and_in_a_batch_match_bit_for_bit():
    # a one-point batch takes the same numpy loops as a larger one, so a
    # value does not depend on how its points were batched
    f, g = parse("z + 0.1*z^2"), parse("z*exp(0.1*z)")
    zs = _disk_points(np.random.default_rng(53), 200)
    batch = operator_values(f, g, 1.7, zs)[0]
    alone = np.array([operator_values(f, g, 1.7, zs[i:i + 1])[0][0] for i in range(len(zs))])
    assert np.array_equal(alone, batch)


def test_a_batch_of_256_kib_matches_smaller_batches_bit_for_bit():
    # from 16,384 complex values on, numpy evaluates a * (temporary) into
    # the temporary with the factors swapped; G and G' keep their order
    f, g = parse("z + 0.1*z^2"), parse("z*exp(0.1*z)")
    zs = _disk_points(np.random.default_rng(59), 1 << 14)
    big = operator_values_with_derivative(f, g, 1.7 + 0.2j, zs)
    for part in np.split(np.arange(len(zs)), 8):
        small = operator_values_with_derivative(f, g, 1.7 + 0.2j, zs[part])
        assert np.array_equal(small[0], big[0][part]) and np.array_equal(small[1], big[1][part])


def _richardson(fn, z: np.ndarray, h: float) -> np.ndarray:
    """Richardson central difference, all points in one operator batch."""
    n = len(z)
    v = fn(np.concatenate([z + h, z - h, z + h / 2, z - h / 2])).reshape(4, n)
    d1 = (v[0] - v[1]) / (2 * h)
    d2 = (v[2] - v[3]) / h
    return (4 * d2 - d1) / 3


@pytest.mark.parametrize("alpha", [1.0, 2.0, 0.3, 0.7 + 0.2j])
@pytest.mark.parametrize("g_src", ["z", "z*exp(0.1*z)"])
def test_closed_form_derivative_matches_finite_differences(alpha, g_src):
    f, g = parse("z + 0.1*z^2"), parse(g_src)
    rng = np.random.default_rng(41)
    zs = 0.99 * np.sqrt(rng.uniform(0, 1, 24)) * np.exp(2j * np.pi * rng.uniform(0, 1, 24))
    zs = np.concatenate([zs, 0.99 * np.exp(2j * np.pi * np.arange(8) / 8)])
    vals, derivs, _ = operator_values_with_derivative(f, g, alpha, zs)
    assert np.array_equal(vals, operator_values(f, g, alpha, zs)[0])
    # a step of 1e-3 keeps rounding of the differences below the gap checked
    fd = _richardson(lambda q: operator_values(f, g, alpha, q)[0], zs, 1e-3)
    assert np.max(np.abs(derivs - fd) / np.abs(derivs)) <= 1e-6


def test_closed_form_derivative_at_origin_needs_no_ray(ray_counter):
    f = parse("3*z + z^2")
    vals, derivs, errs = operator_values_with_derivative(
        f, parse("z*exp(0.1*z)"), 0.7 + 0.2j, np.array([0j]))
    assert vals[0] == 0 and derivs[0] == 3 and errs[0] == 0
    assert ray_counter == []
