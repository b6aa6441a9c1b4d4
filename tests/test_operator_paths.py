"""Which radius a bracket takes, why, and how well it agrees.

Subjects analytic on the closed disk take the coefficient path at radius
1; the rest take the series on a smaller disk |u| <= rho and radial
quadrature beyond it, whose values must then be exactly those of
``iter_radial_brackets`` from the series' values on the radius.  mpmath
serves as an independent reference (test-only dependency).
"""

import numpy as np
import pytest

from schlicht import operators
from schlicht.chains import chain_t6_p
from schlicht.dsl import parse
from schlicht.errors import ParameterError, ToleranceNotMet
from schlicht.expr import Var, evaluate
from schlicht.operators import (
    bracket_final,
    continued_gz_log,
    iter_radial_brackets,
    operator_values_with_derivative,
)

RNG_POINTS = np.random.default_rng(61)
POINTS = 0.999 * np.sqrt(RNG_POINTS.uniform(0, 1, 200)) * np.exp(
    2j * np.pi * RNG_POINTS.uniform(0, 1, 200))


def _series(g, alpha, f, rho=1.0, beta=None):
    """The process's series of (g, f, alpha, beta) on |u| = rho."""
    alpha = complex(alpha)
    beta = alpha - 1 if beta is None else complex(beta)
    return operators._circle_series(g, f, alpha, beta, rho, operators._ABS_TOLERANCE)


def _outer_segments(g, alpha, f, rho, z):
    """The points of ``z`` beyond the radius rho, and their V, log V and
    log Phi from iter_radial_brackets alone, started from the series'
    values on the radius."""
    outer = np.flatnonzero(np.abs(z) > rho * operators._EDGE)
    t0 = rho / np.abs(z[outer])
    start = (t0, *_series(g, alpha, f, rho).values(t0 * z[outer]))
    got = [np.zeros(len(outer), dtype=complex) for _ in range(3)]
    for sel, br in iter_radial_brackets(g, alpha, z[outer], f=f, start=start):
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
    fin = bracket_final(g, alpha, z, f=f)
    assert fin.path == "quadrature" and fin.radius < 1
    assert fin.fallback_reason.startswith(reason)
    # the points beyond the radius are all that is integrated
    assert ray_counter == [np.sum(np.abs(z) > fin.radius * operators._EDGE)]
    outer, want = _outer_segments(g, alpha, f, fin.radius, z)
    assert len(outer)
    for got, exact in zip((fin.value, fin.log_value, fin.logphi_end), want):
        assert np.array_equal(got[outer], exact)
    vals, _, _ = operator_values_with_derivative(f, g, alpha, z[:3])
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
    assert ray_counter == []
    assert np.max(fin.error) <= 1e-10


@pytest.fixture
def series_fault(monkeypatch, request):
    """``inject(edit, circle)``: ``edit(v, logv)`` edits the series of V and
    log V on ``circle`` (every circle when None) in place, where they are
    made; the process's series cache is cleared around the test."""
    def inject(edit, circle="|u| = 1"):
        original = operators._log_series

        def faulty(v, v_error, at):
            logv, reason = original(v, v_error, at)
            if logv is not None and circle in (None, at):
                edit(v, logv)
            return logv, reason

        monkeypatch.setattr(operators, "_log_series", faulty)
        operators._circle_series.cache_clear()

    request.addfinalizer(operators._circle_series.cache_clear)
    return inject


def _shift_v0(v, logv):
    v[0] += 1e-8


@pytest.mark.parametrize("alpha", [0.05, 0.3, 2.0])
def test_series_check_sees_a_shift_of_v0_at_full_size(series_fault, ray_counter, alpha):
    # H = f' is a polynomial, so a shift eps of V's constant coefficient
    # shows as eps itself, far above the bound; the quadrature check this
    # replaced saw only (1 - 2^(-alpha)) eps, 3.4e-10 at alpha = 0.05
    g, f = parse("z"), parse("z + 0.11*z^2")
    series_fault(_shift_v0)
    fin = bracket_final(g, alpha, POINTS[:16], f=f)
    assert fin.radius == 0.95 and fin.path == "quadrature"
    assert fin.fallback_reason == "H series gap 1.0e-08 outside the error bounds"
    assert ray_counter == [np.sum(np.abs(POINTS[:16]) > 0.95 * operators._EDGE)]


def test_series_check_rejects_another_branch_of_log_v(series_fault):
    # a whole turn on the log V series reaches every point alike, so only
    # its constant term against the principal log of V(0) can see it
    g, f = parse("z*exp(0.5*z)"), parse("z + 0.5*z^2")

    def turn(v, logv):
        logv[0] += 2j * np.pi

    series_fault(turn)
    fin = bracket_final(g, 2.0, POINTS[:16], f=f)
    assert fin.radius == 0.95
    assert fin.fallback_reason == "log V series off the branch of V"


def test_series_check_sees_a_shift_of_a_high_coefficient_of_h(series_fault):
    # V's coefficient n is alpha h_n / (n + alpha): a shift of 1e-8 in the
    # last kept h_n shows in full on |u| = 1
    g, f, alpha = parse("z*exp(0.1*z)"), parse("z/(1 - 0.17*z)"), 1.5
    kept = len(_series(g, alpha, f).v)
    assert kept > 10

    def shift(v, logv):
        v[-1] += alpha * 1e-8 / (len(v) - 1 + alpha)

    series_fault(shift)
    fin = bracket_final(g, alpha, POINTS[:16], f=f)
    assert fin.radius == 0.95
    assert fin.fallback_reason == "H series gap 1.0e-08 outside the error bounds"


def test_a_gap_at_every_radius_leaves_no_radius(series_fault):
    series_fault(_shift_v0, None)
    with pytest.raises(ToleranceNotMet, match=r"no series radius down to 0\.4 admitted: "
                                              r"H series gap 1\.0e-08"):
        bracket_final(parse("z*exp(0.1*z)"), 2.0, POINTS, f=parse("z + 0.5*z^2"))


def test_series_check_points_are_no_sample_points():
    # the FFT reproduces H at its samples, so the check looks between them:
    # 2 pi (k + 1/3) / 16 is 2 pi j / N for no power of two N
    n = operators._CHECK_POINTS
    w = np.exp(2j * np.pi * (np.arange(n) + 1 / 3) / n)
    samples = operators._roots_of_unity(operators._SERIES_MAX)
    assert np.min(np.abs(w[:, None] - samples[None, :])) > 1e-5


def test_the_cached_series_is_read_only():
    # every batch of one (g, f, alpha) reads the process's one series
    g, f = parse("z*exp(0.5*z)"), parse("z + 0.5*z^2")
    series = _series(g, 2.0, f)
    assert _series(g, 2.0, f) is series
    assert not (series.v.flags.writeable or series.logv.flags.writeable
                or series.logphi.flags.writeable)


# the radii that the quadrature cross-check of V, which the series check
# replaced, gave these fits; each row follows g in PROBE_G, then alpha in
# PROBE_ALPHA
PROBE_G = ("z", "z*exp(0.1*z)", "z + 0.1*z^2", "z/(1 - 0.3*z)")
PROBE_ALPHA = (0.3, 1.5, 2, 0.7 + 0.2j)
PROBE_RADII = {
    "z + 0.17*z^2": [1.0] * 16,
    "z*exp(0.17*z)": [1.0] * 16,
    "z/(1 - 0.17*z)": [1.0] * 16,
    "z + 0.5*z^2": [1.0] * 16,
    "z/(1 - z)": [0.95] * 16,
    "z/(1 - z)^2": [0.95, 0.95, 0.95, 0.95, 0.9, 0.95, 0.95, 0.9,
                    0.95, 0.95, 0.9, 0.95, 0.95, 0.95, 0.9, 0.95],
}


@pytest.mark.parametrize("f_src", list(PROBE_RADII))
def test_probe_fits_keep_their_radii(request, ray_counter, f_src):
    operators._circle_series.cache_clear()
    request.addfinalizer(operators._circle_series.cache_clear)
    f = parse(f_src)
    got = [bracket_final(parse(g_src), alpha, np.array([0.5 + 0.1j]), f=f).radius
           for g_src in PROBE_G for alpha in PROBE_ALPHA]
    assert got == PROBE_RADII[f_src] and ray_counter == []


SEGMENT_F = "z/(1 - 0.17*z)"


def _segment(g, alpha, u, f=None):
    """(series, [V, log V, log Phi, error]) at ``u`` by quadrature from
    u/2 on, started from the series at radius 1 at u/2."""
    f = f or parse(SEGMENT_F)
    series = _series(g, alpha, f)
    alpha = complex(alpha)
    start = (0.5, *series.values(0.5 * u))
    return series, operators._segments(g, alpha, u, alpha - 1, f, start)


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
    series, (value, log_value, _, error) = _segment(parse(g_src), alpha, u)
    ref = np.array([complex(_reference_v(mpmath, SEGMENT_WEIGHT, SEGMENT_LOGPHI[g_src],
                                         alpha, zz)) for zz in u])
    bound = (error + 2 ** -complex(alpha).real * series.h_error
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
    assert ray_counter == []
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
    logs = continued_gz_log(g, z)
    series = [operators._circle_series(g, None, 1 + 0j, 0j, rho, operators._ABS_TOLERANCE)
              for rho in (1.0, 0.95)]
    assert series[0].reason is not None and series[1].reason is None
    assert np.any(np.abs(z) > 0.95)
    assert np.max(np.abs(logs + np.log(1 - z))) <= 1e-12


def test_continued_gz_log_integrates_no_ray(ray_counter):
    # log Phi alone needs no quadrature beyond rho, only the segments' ladder
    z = POINTS[:50]
    logs = continued_gz_log(parse("z/(1-z)"), z)
    assert ray_counter == [] and np.any(np.abs(z) > 0.95)
    assert np.max(np.abs(logs + np.log(1 - z))) <= 1e-12


@pytest.mark.parametrize("g_src", ["z/(1-z)", "z*exp(0.1*z)"])
def test_continued_gz_log_within_rho_does_not_depend_on_its_batch(g_src):
    g = parse(g_src)
    z = POINTS[np.abs(POINTS) <= 0.95]
    alone = np.array([continued_gz_log(g, zz)[0] for zz in z])
    assert np.array_equal(alone, continued_gz_log(g, z))


def test_circle_series_stops_doubling_once_its_tail_stalls():
    # f' = (1 + u)/(1 - u)^3 peaks at 2.5e5 on |u| = 0.98: rounding of its
    # samples holds the coefficient tail above the tolerance at any count
    series = operators._circle_series(Var(), parse("z/(1-z)^2"), 1.5, 0.5, 0.98,
                                      operators._ABS_TOLERANCE)
    assert series.reason.startswith("coefficient tail")
    assert series.reason.endswith("at 8192 samples on |u| = 0.98")


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


def test_cross_check_rejects_another_branch_of_log_phi(monkeypatch, request):
    # a whole turn on the log Phi series of |u| = 1, injected where the
    # series is made: with beta = 1 it leaves V unchanged, and it reaches
    # u/2 and u alike, so only the branch comparison at the origin sees it
    g, f = parse("z*exp(0.5*z)"), parse("z + 0.5*z^2")
    zs = POINTS[:16]
    original = operators._circle_log

    def turned(vals, what, circle):
        logs, reason = original(vals, what, circle)
        if logs is not None and what == "g(u)/u" and circle == "|u| = 1":
            logs = logs + 2j * np.pi
        return logs, reason

    operators._circle_series.cache_clear()
    request.addfinalizer(operators._circle_series.cache_clear)
    monkeypatch.setattr(operators, "_circle_log", turned)
    fin = bracket_final(g, 2.0, zs, 1.0, f)
    assert fin.radius == 0.95
    assert fin.fallback_reason.startswith("cross-check gap")
    monkeypatch.undo()
    operators._circle_series.cache_clear()
    assert bracket_final(g, 2.0, zs, 1.0, f).path == "coefficients"
