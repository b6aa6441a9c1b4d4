"""Which radius a bracket fit takes, why, and how well it agrees.

Subjects analytic on the closed disk take the coefficient path at radius
1; the rest take the series on a smaller disk |u| <= rho and radial
quadrature beyond it, whose values must then be exactly those of
``iter_radial_brackets`` from the series' values on the radius.  mpmath
serves as an independent reference (test-only dependency).
"""

import dataclasses

import numpy as np
import pytest

from schlicht import operators
from schlicht.chains import chain_t6_p
from schlicht.dsl import parse
from schlicht.errors import ParameterError, ToleranceNotMet
from schlicht.expr import evaluate
from schlicht.operators import (
    bracket_final,
    continued_gz_log,
    iter_radial_brackets,
    operator_values_with_derivative,
)

RNG_POINTS = np.random.default_rng(61)
POINTS = 0.999 * np.sqrt(RNG_POINTS.uniform(0, 1, 200)) * np.exp(
    2j * np.pi * RNG_POINTS.uniform(0, 1, 200))


def _outer_segments(fit, z):
    """The points of ``z`` beyond the fit's radius, and their V, log V and
    log Phi from iter_radial_brackets alone, started from the series'
    values on the radius."""
    outer = np.flatnonzero(np.abs(z) > fit.radius * operators._EDGE)
    t0 = fit.radius / np.abs(z[outer])
    start = (t0, *fit._values(t0 * z[outer]))
    got = [np.zeros(len(outer), dtype=complex) for _ in range(3)]
    for sel, br in iter_radial_brackets(fit.g, fit.alpha, z[outer], f=fit.f,
                                        start=start):
        for arr, part in zip(got, (br.value, br.log_value, br.logphi_end)):
            arr[sel] = part
    return outer, got


# f', log g(u)/u on the rays for mpmath, and why the radius 1 is refused
FALLBACKS = {
    "koebe": ("koebe", "z", lambda mp, u: (1 + u) / (1 - u) ** 3, lambda mp, u: 0 * u,
              "the weight cannot be evaluated on |u| = 1"),
    "geometric-f": ("z/(1-z)", "z", lambda mp, u: 1 / (1 - u) ** 2, lambda mp, u: 0 * u,
                    "the weight cannot be evaluated on |u| = 1"),
    "geometric-g": ("z + 0.1*z^2", "z/(1-z)", lambda mp, u: 1 + 0.2 * u,
                    lambda mp, u: -mp.log(1 - u), "g cannot be evaluated on |u| = 1"),
    # g/z = 1 - 2u vanishes at u = 1/2
    "zero-in-disk": ("z + 0.1*z^2", "z*(1 - 2*z)", lambda mp, u: 1 + 0.2 * u,
                     lambda mp, u: mp.log(1 - 2 * u),
                     "g(u)/u winds 1 times around 0 on |u| = 1"),
    # g/z = 1 - u is exactly 0 at the sample u = 1
    "zero-on-circle": ("z + 0.1*z^2", "z*(1 - z)", lambda mp, u: 1 + 0.2 * u,
                       lambda mp, u: mp.log(1 - u), "g(u)/u vanishes on |u| = 1"),
    # log g/z has coefficients 0.999^n/n: no N up to the cap resolves them
    "slow-tail": ("z + 0.1*z^2", "z/(1 - 0.999*z)", lambda mp, u: 1 + 0.2 * u,
                  lambda mp, u: -mp.log(1 - 0.999 * u), "coefficient tail"),
}


@pytest.mark.parametrize("case", list(FALLBACKS))
@pytest.mark.parametrize("alpha", [2.0, 0.7 + 0.2j])
def test_fallback_matches_quadrature_bit_for_bit(mpmath, ray_counter, case, alpha):
    # the radius 1 is refused and a smaller one taken; the points beyond it
    # are exactly the segment quadrature from the series, and the values
    # agree with mpmath's quadrature from the origin (the principal log of
    # g(u)/u is the continued one along every ray off the real axis)
    f_src, g_src, fp, logphi, reason = FALLBACKS[case]
    f, g = parse(f_src), parse(g_src)
    z = POINTS[:40]
    fit = operators.BracketFit(g, alpha, f=f)
    fin = fit.final(z)
    assert fin.path == "quadrature" and fin.radius < 1
    assert fin.fallback_reason.startswith(reason)
    assert fin.cross_check_gap <= 1e-10
    outer, want = _outer_segments(fit, z)
    assert ray_counter == [16, len(outer)] and len(outer)
    for got, exact in zip((fin.value, fin.log_value, fin.logphi_end), want):
        assert np.array_equal(got[outer], exact)
    vals, _, _ = operator_values_with_derivative(f, g, alpha, z[:3], fit)
    ref = np.array([_reference_operator(mpmath, fp, logphi, alpha, zz) for zz in z[:3]])
    assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-12


def test_interior_zero_of_g_still_raises_through_the_fallback():
    g = parse("z*(1 - 2*z)")
    assert bracket_final(g, 2.0, np.array([0.3]), f=None).path == "quadrature"
    with pytest.raises(operators.IntegrandSingular):
        bracket_final(g, 2.0, np.array([1.0]), f=None)


@pytest.mark.parametrize("g_src", ["z", "z*exp(0.1*z)", "z + 0.1*z^2", "z/(1 - 0.3*z)"])
def test_catalog_subjects_take_the_coefficient_path(ray_counter, g_src):
    f, g = parse("z/(1 - 0.17*z)"), parse(g_src)
    fin = bracket_final(g, 1.5, POINTS, f=f)
    assert fin.path == "coefficients" and fin.fallback_reason is None
    assert 0 <= fin.cross_check_gap <= 1e-12
    assert ray_counter == [operators._CROSS_CHECK_POINTS]
    assert np.max(fin.error) <= 1e-10


def test_cross_check_sample_is_the_roots_of_unity(monkeypatch):
    seen = []
    original = operators.iter_radial_brackets

    def recording(g, alpha, z, *args, **kwargs):
        seen.append(np.array(z))
        return original(g, alpha, z, *args, **kwargs)

    monkeypatch.setattr(operators, "iter_radial_brackets", recording)
    bracket_final(parse("z*exp(0.1*z)"), 2.0, POINTS, f=parse("z + 0.5*z^2"))
    assert len(seen) == 1
    assert np.array_equal(seen[0], operators._roots_of_unity(16))


def _shifted_quadrature(monkeypatch, calls):
    """Every quadrature call counted in ``calls``, and V shifted by 1e-8 in
    the first one (or in all of them, if ``calls`` holds "all")."""
    original = operators.iter_radial_brackets

    def shifted(*args, **kwargs):
        calls.append(1)
        shift = 1e-8 if len(calls) == 1 or "all" in calls else 0.0
        for sel, br in original(*args, **kwargs):
            br.values = br.values + shift
            yield sel, br

    monkeypatch.setattr(operators, "iter_radial_brackets", shifted)


def test_cross_check_gap_sends_the_batch_to_quadrature(monkeypatch):
    # a gap at radius 1 moves the fit to the next radius, whose points
    # beyond it are integrated
    _shifted_quadrature(monkeypatch, [])
    fit = operators.BracketFit(parse("z*exp(0.1*z)"), 2.0, f=parse("z + 0.5*z^2"))
    for batch in (POINTS[:100], POINTS[100:]):
        fin = fit.final(batch)
        assert fin.path == "quadrature" and fin.radius == 0.95
        assert fin.fallback_reason.startswith("cross-check gap 1.0e-08")
        assert fin.cross_check_gap <= 1e-12


def test_a_gap_at_every_radius_leaves_the_fit_without_one(monkeypatch):
    _shifted_quadrature(monkeypatch, ["all"])
    fit = operators.BracketFit(parse("z*exp(0.1*z)"), 2.0, f=parse("z + 0.5*z^2"))
    with pytest.raises(ToleranceNotMet, match=r"no series radius down to 0\.4 admitted: "
                                              r"cross-check gap 1\.0e-08"):
        fit.final(POINTS)
    assert fit.reason.startswith("cross-check gap 1.0e-08")


def test_cross_check_error_sends_the_batch_to_quadrature(monkeypatch):
    calls = []
    original = operators.iter_radial_brackets

    def failing_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ToleranceNotMet("outer branch continuation unresolved")
        return original(*args, **kwargs)

    monkeypatch.setattr(operators, "iter_radial_brackets", failing_once)
    fit = operators.BracketFit(parse("z*exp(0.1*z)"), 2.0, f=parse("z + 0.5*z^2"))
    fin = fit.final(POINTS)
    # the cross-check at radius 0.95, then the points beyond it
    assert fin.path == "quadrature" and len(calls) == 3
    assert fin.fallback_reason == ("cross-check quadrature raised ToleranceNotMet: "
                                   "outer branch continuation unresolved")
    # the fit keeps its radius: the next batch is integrated beyond it, not
    # cross-checked
    batch = POINTS[np.abs(POINTS) > 0.95][:5]
    assert fit.final(batch).fallback_reason == fin.fallback_reason
    assert len(calls) == 4


@pytest.mark.parametrize("alpha", [0.3, 2.0])
def test_cross_check_sees_an_error_of_the_constant_coefficient(alpha):
    # the cross-check compares D(u) - 2^(-alpha) D(u/2) for the series
    # error D, so a shift eps of V's constant coefficient shows as
    # |1 - 2^(-alpha)| eps, far above the bound
    fit = operators.BracketFit(parse("z"), alpha, f=parse("z + 0.11*z^2"))
    fit.final(np.zeros(1))
    assert fit.reason is None
    fit.v[0] += 1e-8
    gap, reason = fit._cross_check(complex(alpha), complex(alpha - 1))
    assert reason.startswith("cross-check gap")
    assert gap == pytest.approx(abs(1 - 2 ** -alpha) * 1e-8, rel=1e-3)
    fin = fit.final(operators._roots_of_unity(16))
    assert fin.path == "quadrature" and fin.fallback_reason == reason


def test_an_edited_fit_leaks_nothing_into_the_series_cache():
    # fits of one (g, f, alpha) share the process's cached series, whose
    # arrays are read-only; each fit edits only its own copies of V and log V
    g, f = parse("z*exp(0.5*z)"), parse("z + 0.5*z^2")
    first = operators.BracketFit(g, 2.0, f=f)
    first.final(np.zeros(1))
    v0, logv0 = first.v[0], first.logv[0]
    first.v[0] += 1e-8
    first.logv[0] += 2j * np.pi
    second = operators.BracketFit(g, 2.0, f=f)
    second.final(np.zeros(1))
    assert second.series is first.series
    assert second.v[0] == v0 and second.logv[0] == logv0
    assert not (first.series.v.flags.writeable or first.series.logv.flags.writeable
                or first.series.logphi.flags.writeable)
    assert second.final(POINTS[:16]).path == "coefficients"


def test_cross_check_attenuation_at_a_small_alpha():
    # at alpha = 0.05 the same shift shows as only 0.034 eps, still far above
    # the bound of this polynomial H; the check runs by itself, since a
    # refusal would move the fit to the next radius
    alpha = 0.05
    fit = operators.BracketFit(parse("z"), alpha, f=parse("z + 0.11*z^2"))
    fit.final(np.zeros(1))
    assert fit.reason is None
    fit.v[0] += 1e-8
    gap, reason = fit._cross_check(complex(alpha), complex(alpha - 1))
    assert reason.startswith("cross-check gap")
    assert gap == pytest.approx((1 - 2 ** -alpha) * 1e-8, rel=1e-3)


SEGMENT_F = "z/(1 - 0.17*z)"


def _segment(g, alpha, u, f=None):
    """(fit, [V, log V, log Phi, error]) at ``u`` by quadrature from
    u/2 on, started from the series of the fit at radius 1 at u/2."""
    fit = operators.BracketFit(g, alpha, f=f or parse(SEGMENT_F))
    fit.final(np.zeros(1))
    alpha = complex(alpha)
    start = (0.5, *fit._values(0.5 * u))
    return fit, operators._segments(g, alpha, u, alpha - 1, fit.f, start)


def _reference_v(mpmath, fp, logphi, alpha, z):
    """V = alpha int_0^1 t^(alpha-1) Phi(zt)^(alpha-1) f'(zt) dt, by mpmath's
    quadrature from the origin at 30 digits.

    With t = s^(1/alpha), alpha t^(alpha-1) dt = ds, so V is the integral
    of a function without endpoint singularity.
    """
    with mpmath.workdps(30):
        a, zz = mpmath.mpc(alpha), mpmath.mpc(z)

        def integrand(s):
            u = zz * s ** (1 / a)
            return mpmath.exp((a - 1) * logphi(mpmath, u)) * fp(mpmath, u)

        return mpmath.quad(integrand, [0, 1])


SEGMENT_WEIGHT = lambda mp, u: 1 / (1 - 0.17 * u) ** 2  # noqa: E731, f' of SEGMENT_F
SEGMENT_LOGPHI = {"z": lambda mp, u: 0 * u, "z*exp(0.1*z)": lambda mp, u: 0.1 * u}


@pytest.mark.parametrize("alpha", [0.3, 1.5, 2.0, 0.7 + 0.2j])
@pytest.mark.parametrize("g_src", ["z", "z*exp(0.1*z)"])
def test_segment_from_half_matches_quadrature_from_the_origin(mpmath, g_src, alpha):
    # mpmath's quadrature from the origin is the reference; the segment's
    # error is its own plus the series error at u/2, attenuated by 2^(-alpha)
    u = operators._roots_of_unity(16)[::4]
    fit, (value, log_value, _, error) = _segment(parse(g_src), alpha, u)
    ref = np.array([complex(_reference_v(mpmath, SEGMENT_WEIGHT, SEGMENT_LOGPHI[g_src],
                                         alpha, zz)) for zz in u])
    bound = (error + 2 ** -complex(alpha).real * fit.series.h_error
             + operators._ROUNDING * (1 + np.abs(ref)))
    assert np.all(np.abs(value - ref) <= bound)
    assert np.all(np.abs(log_value - np.log(ref)) <= bound / np.abs(ref))


def test_segment_start_needs_one_value_per_endpoint():
    with pytest.raises(ParameterError):
        next(iter_radial_brackets(parse("z"), 2.0, [0.9],
                                  start=(0.5, [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])))
    with pytest.raises(ParameterError):
        next(iter_radial_brackets(parse("z"), 2.0, [0.9],
                                  start=([0.5, 0.5], [1.0], [0.0], [0.0])))
    with pytest.raises(ParameterError):
        next(iter_radial_brackets(parse("z"), 2.0, [0.9], start=(0.5, [1.0], [0.0])))


@pytest.mark.parametrize("g_src", ["z", "z*exp(0.1*z)", "z + 0.1*z^2"])
def test_small_alpha_matches_mpmath(mpmath, g_src):
    # at alpha = 0.05 the segment from u/2 integrates without any
    # substitution: t^(alpha-1) is smooth on [1/2, 1]
    f, u = parse("z + 0.11*z^2"), operators._roots_of_unity(16)[::4]
    _, (value, _, _, _) = _segment(parse(g_src), 0.05, u, f)
    logphi = {"z": lambda mp, x: 0 * x, "z*exp(0.1*z)": lambda mp, x: 0.1 * x,
              "z + 0.1*z^2": lambda mp, x: mp.log(1 + 0.1 * x)}[g_src]
    ref = np.array([complex(_reference_v(mpmath, lambda mp, x: 1 + 0.22 * x, logphi,
                                         0.05, zz)) for zz in u])
    assert np.max(np.abs(value - ref)) <= 1e-12


@pytest.mark.parametrize("alpha, panels", [(0.07, 1), (0.1, 1)])
def test_small_alpha_above_the_underflow_still_integrates(chunk_counter, alpha, panels):
    # the segment layout: one group of the 16 rays, on as many panels
    _segment(parse("z"), alpha, operators._roots_of_unity(16), parse("z + 0.11*z^2"))
    assert chunk_counter == [(16, panels, 0.5, 1.0)]


def test_segment_from_half_matches_mpmath(mpmath):
    alpha, u = 0.7 + 0.2j, operators._roots_of_unity(16)
    _, (value, log_value, _, _) = _segment(parse("z*exp(0.1*z)"), alpha, u)
    ref = np.array([complex(_reference_v(mpmath, SEGMENT_WEIGHT, SEGMENT_LOGPHI["z*exp(0.1*z)"],
                                         alpha, zz)) for zz in u])
    assert np.max(np.abs(value - ref)) <= 1e-12
    assert np.max(np.abs(log_value - np.log(ref))) <= 1e-12


def test_origin_only_batch_integrates_nothing(ray_counter):
    fin = bracket_final(parse("z*exp(0.1*z)"), 2.0, np.zeros(3, dtype=complex),
                        f=parse("z + 0.5*z^2"))
    assert ray_counter == [] and fin.cross_check_gap is None
    assert np.all(fin.value == 1) and np.all(fin.log_value == 0)


# --- mpmath references ------------------------------------------------------

@pytest.fixture
def mpmath():
    """The mpmath module; a test that takes it skips where mpmath is missing."""
    return pytest.importorskip("mpmath")


# f' and the continued log of g(u)/u, written for the mpmath module passed
# first; each g(u)/u stays in the right half-plane on the disk, so its
# principal log is the continued one.
FAMILIES = {
    ("z + 0.17*z^2", "z"): (lambda mp, u: 1 + 0.34 * u, lambda mp, u: 0 * u),
    ("z + 0.17*z^3", "z*exp(0.1*z)"): (lambda mp, u: 1 + 0.51 * u**2,
                                       lambda mp, u: 0.1 * u),
    ("z*exp(0.17*z)", "z + 0.1*z^2"): (
        lambda mp, u: (1 + 0.17 * u) * mp.exp(0.17 * u), lambda mp, u: mp.log(1 + 0.1 * u)),
    ("z/(1 - 0.17*z)", "z/(1 - 0.3*z)"): (
        lambda mp, u: 1 / (1 - 0.17 * u) ** 2, lambda mp, u: -mp.log(1 - 0.3 * u)),
}
REF_POINTS = (0.5 * np.exp(0.4j), 0.9 * np.exp(2.2j), 0.999 * np.exp(-1.9j))


def _reference_operator(mpmath, fp, logphi, alpha, z):
    """z * V^(1/alpha) with V from :func:`_reference_v`."""
    with mpmath.workdps(30):
        v = _reference_v(mpmath, fp, logphi, alpha, z)
        return complex(mpmath.mpc(z) * mpmath.exp(mpmath.log(v) / mpmath.mpc(alpha)))


@pytest.mark.parametrize("alpha", [0.3, 0.7 + 0.2j, 2.0])
@pytest.mark.parametrize("family", list(FAMILIES), ids=["quad", "cubic", "exp", "moeb"])
def test_coefficient_path_matches_mpmath(mpmath, family, alpha):
    f, g = map(parse, family)
    z = np.array(REF_POINTS)
    vals, _, _ = operator_values_with_derivative(f, g, alpha, z)
    assert bracket_final(g, alpha, z, f=f).path == "coefficients"
    ref = np.array([_reference_operator(mpmath, *FAMILIES[family], alpha, zz) for zz in z])
    assert np.max(np.abs(vals - ref)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.3, 2.0, 0.7 + 0.2j])
@pytest.mark.parametrize("case", ["koebe", "geometric-f", "geometric-g"])
def test_singular_subjects_match_mpmath(mpmath, case, alpha):
    # Koebe and z/(1-z) as f, and z/(1-z) as g: the series on |u| <= 0.95
    # and the segments beyond it, within 1e-12 relative
    f_src, g_src, fp, logphi, _ = FALLBACKS[case]
    z = np.array(REF_POINTS)
    vals, _, _ = operator_values_with_derivative(parse(f_src), parse(g_src), alpha, z)
    assert bracket_final(parse(g_src), alpha, z, f=parse(f_src)).radius < 1
    ref = np.array([_reference_operator(mpmath, fp, logphi, alpha, zz) for zz in z])
    assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-12


@pytest.mark.parametrize("family", list(FAMILIES), ids=["quad", "cubic", "exp", "moeb"])
def test_continued_gz_log_matches_mpmath_on_the_circle(mpmath, family):
    # chain_t6_p evaluates it at z/|z| for every exterior point
    g = parse(family[1])
    z = np.exp(2j * np.pi * np.arange(16) / 16 + 0.1j)
    ref = np.array([complex(FAMILIES[family][1](mpmath, mpmath.mpc(zz))) for zz in z])
    assert np.max(np.abs(continued_gz_log(g, z) - ref)) <= 1e-12
    p = chain_t6_p(parse(family[0]), g, 2.0, z, 0.5)
    wv = np.exp(ref) * np.array([complex(FAMILIES[family][0](mpmath, mpmath.mpc(zz)))
                                 for zz in z])
    assert np.max(np.abs(p - (np.exp(-1.0) * wv + 1 - np.exp(-1.0)))) <= 1e-12


def test_continued_gz_log_falls_back_to_the_ladder():
    # g is singular at u = 1: the log Phi series holds on |u| <= 0.95, and
    # the points beyond take the ladder of their segments from the series
    g = parse("z/(1-z)")
    z = POINTS[:50]
    fit = operators.GzLogFit(g)
    logs = continued_gz_log(g, z, fit)
    assert fit.radius == 0.95 and np.any(np.abs(z) > 0.95)
    assert np.max(np.abs(logs + np.log(1 - z))) <= 1e-12


@pytest.mark.parametrize("g_src", ["z/(1-z)", "z*exp(0.1*z)", "z*exp(4i*z)"])
def test_ladder_queries_at_anchors_read_the_stored_logs(g_src):
    # a complex quotient v/v need not round to 1, so a step taken from an
    # anchor to itself can move its log in the last bit
    g = parse(g_src)
    start = 0.5 * POINTS
    ladder = operators._Ladder(g, lambda xs: POINTS[:, None] * (0.5 + 0.5 * xs[None, :]),
                               np.log(evaluate(g, start) / start))
    assert np.array_equal(ladder.log_at(ladder.xs), ladder.logs)


def test_coefficient_path_refuses_an_unresolved_outer_continuation():
    # V = 1 + 2u vanishes at u = -1/2, so log V has no series on the disk;
    # the ray to 0.9 e^(i(pi + 1e-3)) passes within 1e-3 of that zero, and
    # quadrature halves its panels until the continuation resolves
    z = np.array([0.9 * np.exp(1j * (np.pi + 1e-3))])
    fin = bracket_final(parse("z"), 1.0, z, f=parse("z + 2*z^2"))
    assert fin.path == "quadrature"
    assert fin.fallback_reason == "V winds 1 times around 0 on |u| = 1"
    assert np.max(np.abs(fin.value - (1 + 2 * z))) <= 3e-16


def test_coefficient_path_refuses_a_v_within_its_error_of_zero_on_the_circle():
    # V = 1 + u vanishes at u = -1: no margin is left for Rouche's theorem
    z = POINTS[:20]
    fin = bracket_final(parse("z"), 1.0, z, f=parse("z + z^2"))
    assert fin.path == "quadrature"
    assert fin.fallback_reason.startswith("V comes within its error")
    assert np.max(np.abs(fin.value - (1 + z))) <= 1e-15


@pytest.mark.parametrize("alpha", [0.3, 2.0])
def test_real_coefficients_keep_the_conjugate_symmetry(alpha):
    # real Taylor coefficients give G(conj z) = conj G(z), real on the axis
    f, g = parse("z*exp(0.17*z)"), parse("z/(1 - 0.3*z)")
    n = len(POINTS)
    z = np.concatenate([POINTS, POINTS.conj(), [0.5, -0.999]])
    vals, derivs, _ = operator_values_with_derivative(f, g, alpha, z)
    assert bracket_final(g, alpha, z, f=f).path == "coefficients"
    for arr in (vals, derivs):
        assert np.array_equal(arr[n:2 * n], arr[:n].conj())
        assert np.all(arr[2 * n:].imag == 0)
    logs = continued_gz_log(g, z)
    assert np.array_equal(logs[n:2 * n], logs[:n].conj()) and np.all(logs[2 * n:].imag == 0)


def test_phase_beyond_pi_on_the_circle_keeps_the_branch_from_the_origin():
    # log g(u)/u = 4iu: the phase on |u| = 1 spans [-4, 4], so unwrapping
    # from the principal phase at u = 1 lands one turn off until the
    # constant is fixed by log Phi(0) = 0
    g = parse("z*exp(4i*z)")
    z = POINTS[:50]
    fin = bracket_final(g, 2.0, z, f=parse("z + 0.5*z^2"))
    assert fin.path == "coefficients"
    assert np.max(np.abs(fin.logphi_end - 4j * z)) <= 1e-12
    assert np.max(np.abs(continued_gz_log(g, z) - 4j * z)) <= 1e-12


def test_log_value_beyond_pi_keeps_the_branch_from_the_origin():
    # f = z exp(4iz), g = z, alpha = 1: V = f(z)/z, so log V = 4iz, whose
    # imaginary part reaches 4 on the disk; the principal log of V is off by
    # a whole turn there
    z = POINTS[:50]
    assert np.max(np.abs(4 * z.real)) > np.pi
    fin = bracket_final(parse("z"), 1.0, z, f=parse("z*exp(4i*z)"))
    assert fin.path == "coefficients"
    assert np.max(np.abs(fin.log_value - 4j * z)) <= 1e-12


def test_cross_check_rejects_another_branch_of_log_v(ray_counter):
    # the segment starts log V from the series at u/2, so a whole turn on
    # the series' log V(0) reaches u/2 and u alike; only the anchor of log V
    # at the origin can see it
    g, f = parse("z*exp(0.5*z)"), parse("z + 0.5*z^2")
    fit = operators.BracketFit(g, 2.0, f=f)
    fit.final(np.zeros(1))
    assert fit.reason is None and ray_counter == []
    fit.logv[0] += 2j * np.pi
    fin = fit.final(POINTS[:16])
    assert fin.path == "quadrature" and fin.cross_check_gap <= 1e-12
    assert fin.fallback_reason.startswith("cross-check gap")
    assert operators.BracketFit(g, 2.0, f=f).final(POINTS[:16]).path == "coefficients"


def test_cross_check_rejects_another_branch_of_log_phi(ray_counter):
    # with beta = 1 a whole turn in log Phi leaves V unchanged, so only
    # the branch comparison can see it
    g, f = parse("z*exp(0.5*z)"), parse("z + 0.5*z^2")
    zs = POINTS[:16]
    fit = operators.BracketFit(g, 2.0, 1.0, f)
    fit.final(np.zeros(1))  # takes the coefficients, integrates nothing
    assert fit.reason is None and ray_counter == []
    fit.series = dataclasses.replace(
        fit.series, logphi=fit.series.logphi + np.eye(1, len(fit.series.logphi))[0] * 2j * np.pi)
    fin = fit.final(zs)
    assert fin.path == "quadrature" and fin.cross_check_gap <= 1e-12
    assert fin.fallback_reason.startswith("cross-check gap")
    assert operators.BracketFit(g, 2.0, 1.0, f).final(zs).path == "coefficients"
