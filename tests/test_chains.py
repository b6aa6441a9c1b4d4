import dataclasses
import math

import numpy as np
import pytest

from conftest import admissible_params
from schlicht.chains import (
    chain_a1,
    chain_l,
    chain_point,
    chain_t6,
    chain_t6_p,
    disk_inclusion_check,
    qc_bound_k,
    subordination_spot_check,
    transfer_a,
    transfer_p,
    transfer_w,
    verify_chain_conditions,
)
from schlicht import criteria
from schlicht.criteria import (
    CriterionParams,
    DiskGrid,
    check_main_t2,
    check_qc_t5,
    check_t3,
)
from schlicht.dsl import parse
from schlicht.errors import (
    DenominatorZero,
    DivisionByZero,
    NonvanishingViolation,
    ParameterError,
    PoleAtOne,
    ToleranceNotMet,
)
from schlicht.expr import AnalyticTriple, eval_expr
from schlicht.operators import bracket_final, operator_g_alpha, operator_values

TRIPLE_TRIVIAL = AnalyticTriple.build(parse("z"), parse("z"), parse("1"))
P_TRIVIAL = CriterionParams(alpha=1, c=-1, s=1, m=2.0)


def _rand_disk(rng, n, r=0.85):
    return r * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def test_chain_at_time_zero_is_operator():
    rng = np.random.default_rng(61)
    cases = [
        ("z + 0.1*z^2", "z", 1.0, -1.0),
        ("z", "z + 0.2*z^2", 1.5, -0.5 + 0.5j),
        ("z + 0.05*z^3", "z*exp(0.1*z)", 2.0, -2.0),
    ]
    for f_src, g_src, alpha, c in cases:
        triple = AnalyticTriple.build(parse(f_src), parse(g_src), parse("1"))
        params = CriterionParams(alpha=alpha, c=c, s=1, m=2.0)
        for z in _rand_disk(rng, 5):
            L0 = chain_l(triple, params, complex(z), 0.0)
            G = operator_g_alpha(parse(f_src), parse(g_src), alpha, complex(z))
            assert abs(L0 - G.value) < 1e-10


@pytest.mark.parametrize("change", [{"s": complex(1, math.inf)}, {"m": math.inf},
                                    {"alpha": complex(math.nan, 0)}])
def test_chain_l_rejects_a_non_finite_parameter(change):
    params = dataclasses.replace(P_TRIVIAL, **change)
    with pytest.raises(ParameterError, match="must be finite"):
        chain_l(TRIPLE_TRIVIAL, params, 0.5 + 0j, 0.3)


def test_trivial_chain_closed_form():
    rng = np.random.default_rng(62)
    zs = _rand_disk(rng, 100, r=0.95)
    ts = rng.uniform(0, 3, 100)
    L = chain_l(TRIPLE_TRIVIAL, P_TRIVIAL, zs, ts)
    assert np.max(np.abs(L - np.exp(ts) * zs)) < 1e-10


def test_a1_trivial_and_at_zero():
    assert chain_a1(P_TRIVIAL, 1.0, 0.0) == pytest.approx(1.0)
    for t in (0.3, 1.0, 2.5):
        assert chain_a1(P_TRIVIAL, 1.0, t) == pytest.approx(np.exp(t))
    rng = np.random.default_rng(63)
    for _ in range(50):
        params, h0 = admissible_params(rng)
        assert chain_a1(params, h0, 0.0) == pytest.approx(1.0)


def test_a1_magnitude_increases():
    rng = np.random.default_rng(64)
    ts = np.linspace(0, 10, 100)
    for _ in range(25):
        params, h0 = admissible_params(rng)
        mags = np.abs(chain_a1(params, h0, ts))
        assert np.all(np.diff(mags) > 0)


def test_a1_time_ladder_bisects_where_w0_passes_near_zero():
    # W0(tau) = 2 - e^(2 tau) + 0.01i (e^(2 tau) - 1) passes within 0.01 of
    # 0 near tau = ln 2 / 2, where steps of the first time ladder turn its
    # argument by more than pi/2
    h0 = -1 + 0.01j
    tau = np.linspace(0.0, 1.0, 200_001)
    w0 = 1 - (P_TRIVIAL.a / P_TRIVIAL.c) * h0 * (np.exp(P_TRIVIAL.m * tau) - 1)
    logw = np.log(np.abs(w0)) + 1j * np.unwrap(np.angle(w0))
    ref = np.exp(-tau + logw)[[100_000, 200_000]]
    assert np.max(np.abs(chain_a1(P_TRIVIAL, h0, [0.5, 1.0]) - ref)) <= 3e-15


def test_a1_time_ladder_fails_where_w0_crosses_zero():
    # h0 = -1 gives W0(tau) = 2 - e^(2 tau), which turns negative past
    # tau = ln 2 / 2: no ladder continues its log from 1 across that zero
    with pytest.raises(ToleranceNotMet, match="chain bracket"):
        chain_a1(P_TRIVIAL, complex(-1), [0.5, 1.0])


def test_a1_with_a_real_h0_continues_in_complex_arithmetic():
    # a float h0 must not make W0 real, where the log of a negative value
    # is NaN instead of a step of pi
    assert chain_a1(P_TRIVIAL, -0.5, 0.25) == pytest.approx(
        np.exp(-0.25) * (1.5 - 0.5 * np.exp(0.5)), rel=1e-14)
    with pytest.raises(ToleranceNotMet, match="chain bracket"):
        chain_a1(P_TRIVIAL, -1.0, [0.5, 1.0])


@pytest.mark.parametrize("f_src, g_src, alpha, path", [
    ("z + 0.05*z^3", "z*exp(0.1*z)", 2.0, "coefficients"),
    ("z + 0.1*z^2", "z/(1 - 0.3*z)", 0.6, "coefficients"),
    ("z/(1-z)", "z", 1.5, "quadrature"),
])
def test_chains_at_time_zero_are_the_operator_bit_for_bit(f_src, g_src, alpha, path):
    f, g = parse(f_src), parse(g_src)
    z = _rand_disk(np.random.default_rng(76), 40, r=0.95)
    assert bracket_final(g, alpha, z, f=f).path == path
    G = operator_values(f, g, alpha, z)[0]
    triple = AnalyticTriple.build(f, g, parse("1 + 0.3*z"))
    params = CriterionParams(alpha=alpha, c=-1.2 + 0.3j, s=1.3 + 0.2j, m=2.6)
    assert np.array_equal(chain_l(triple, params, z, 0.0), G)
    assert np.array_equal(chain_t6(f, g, alpha, z, 0.0), G)


def test_chain_l_raises_where_the_chain_bracket_crosses_zero():
    # h = -1 gives W0(t) = 2 - e^(2t), which reaches 0 at t = ln 2 / 2
    triple = dataclasses.replace(TRIPLE_TRIVIAL, h=parse("-1"), h0=-1 + 0j)
    with pytest.raises(ToleranceNotMet, match="chain bracket"):
        chain_l(triple, P_TRIVIAL, np.array([0.5 + 0.1j, -0.3j]), 1.0)


def test_transfer_a_trivial_is_one():
    rng = np.random.default_rng(65)
    zs = _rand_disk(rng, 30)
    ts = rng.uniform(0, 4, 30)
    A = transfer_a(TRIPLE_TRIVIAL, P_TRIVIAL, zs, ts)
    assert np.max(np.abs(A - 1)) < 1e-14


def test_transfer_a_time_zero_form():
    # A(z, 0) = -c alpha / (a h(z))
    triple = AnalyticTriple.build(parse("z + 0.1*z^2"), parse("z"), parse("2 + z"))
    params = CriterionParams(alpha=1.3 + 0.2j, c=-1.5 + 0.4j, s=1.2 - 0.3j, m=1.7)
    rng = np.random.default_rng(66)
    for z in _rand_disk(rng, 10):
        A0 = transfer_a(triple, params, complex(z), 0.0)
        expected = (-params.c * params.alpha) / (params.a * eval_expr(parse("2 + z"), complex(z)))
        assert A0 == pytest.approx(expected)


def test_b_at_origin_matches_closed_form():
    # |B(0,t)| = |(c a/h0 + m/2) e^{-mt} + (m/2 - a alpha)(1 - e^{-mt})| / a
    rng = np.random.default_rng(67)
    for _ in range(50):
        params, h0 = admissible_params(rng)
        hsrc = f"({h0.real} + {h0.imag}i)" if h0.imag else f"{h0.real}"
        triple = AnalyticTriple.build(parse("z"), parse("z"), parse(hsrc))
        t = rng.uniform(0, 4)
        A = transfer_a(triple, params, 0j, t)
        B = A - params.m / (2 * params.a)
        decay = np.exp(-params.m * t)
        closed = ((params.c * params.alpha / h0 + params.m / 2) * decay
                  + (params.m / 2 - params.a * params.alpha) * (1 - decay)) / params.a
        assert abs(B) == pytest.approx(abs(closed), abs=1e-12)
        # under the two scalar side conditions this stays inside the bound
        assert abs(B) < params.m / (2 * params.a)


def test_b_at_time_zero_bound():
    rng = np.random.default_rng(68)
    for _ in range(50):
        params, h0 = admissible_params(rng)
        hsrc = f"({h0.real} + {h0.imag}i)" if h0.imag else f"{h0.real}"
        triple = AnalyticTriple.build(parse("z"), parse("z"), parse(hsrc))
        z = complex(_rand_disk(rng, 1)[0])
        B = transfer_a(triple, params, z, 0.0) - params.m / (2 * params.a)
        assert abs(B) < params.m / (2 * params.a)


def test_h_zero_keeps_each_layer_error():
    # h = 1 - 2z vanishes at z = 0.5: the chain's transfer function A and
    # the criteria share one blend, and each keeps its own exception type
    triple = AnalyticTriple.build(parse("z"), parse("z"), parse("1 - 2*z"))
    with pytest.raises(NonvanishingViolation) as chain_err:
        transfer_a(triple, P_TRIVIAL, 0.5, 0.0)
    assert chain_err.value.where == 0.5
    with pytest.raises(DivisionByZero) as blend_err:
        criteria._operator_lhs(triple, P_TRIVIAL, np.array([0.5 + 0j]), 2.0)
    assert blend_err.value.z == 0.5
    grid = DiskGrid(n_radial=1, n_angular=1, r_max=0.5)
    for check in (check_main_t2, check_t3, check_qc_t5):
        with pytest.raises(DivisionByZero) as check_err:
            check(triple, P_TRIVIAL, grid)
        assert check_err.value.z == 0.5


def test_transfer_w_examples():
    s, m = 1.3 + 0.4j, 2.0
    assert transfer_w(m / (1 + s), s, m) == pytest.approx(0)
    assert transfer_w(0j, s, m) == pytest.approx(-1)
    assert transfer_w(1 + 0j, 1, 2.0) == pytest.approx(0)
    with pytest.raises(DenominatorZero):
        transfer_w(1 + 0j, 3, 2.0)  # (1-3)*1 + 2 = 0 exactly


def test_transfer_p_examples():
    assert transfer_p(0j) == pytest.approx(1)
    assert transfer_p(-1 + 0j) == pytest.approx(0)
    p = transfer_p(0.5j)
    assert p == pytest.approx((1 + 0.5j) / (1 - 0.5j))
    assert p.real > 0
    with pytest.raises(PoleAtOne):
        transfer_p(1 + 0j)


def test_w_p_roundtrip():
    rng = np.random.default_rng(69)
    w = 0.99 * np.sqrt(rng.uniform(0, 1, 10_000)) * np.exp(2j * np.pi * rng.uniform(0, 1, 10_000))
    p = transfer_p(w)
    w_back = (p - 1) / (p + 1)
    assert np.max(np.abs(w_back - w)) < 1e-12


def test_unit_disk_vs_centered_disk_equivalence():
    # |w| < 1 for w = ((1+s)A - m)/((1-s)A + m) iff |A - m/2a| < m/2a
    rng = np.random.default_rng(70)
    n = 10_000
    A = 3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    a = rng.uniform(0.05, 4, n)
    b = rng.uniform(-4, 4, n)
    m = rng.uniform(0.1, 6, n)
    s = a + 1j * b
    den = (1 - s) * A + m
    good = np.abs(den) > 1e-9
    w = ((1 + s) * A - m)[good] / den[good]
    lhs = np.abs(w) < 1
    rhs = np.abs(A[good] - m[good] / (2 * a[good])) < m[good] / (2 * a[good])
    near = np.abs(np.abs(A[good] - m[good] / (2 * a[good])) - m[good] / (2 * a[good])) <= 1e-12
    disagree = lhs != rhs
    assert not np.any(disagree & ~near)


def test_qc_bound_examples():
    assert qc_bound_k(1, 0.3).K == 0.3
    qb = qc_bound_k(2, 0.0)
    assert qb.K == pytest.approx(1 / 3, abs=1e-12)
    assert qb.l1 == pytest.approx(1 / 3, abs=1e-12)
    qb = qc_bound_k(1 + 1j, 0.2)
    assert qb.K == pytest.approx((1 + 0.2 * np.sqrt(5)) / (np.sqrt(5) + 0.2), abs=1e-12)
    with pytest.raises(ParameterError):
        qc_bound_k(-1, 0.2)


def test_qc_bound_root_ordering():
    rng = np.random.default_rng(71)
    for _ in range(10_000):
        s = complex(rng.uniform(1e-3, 10), rng.uniform(-10, 10))
        k = float(rng.uniform(0, 0.999))
        if abs(s - 1) <= 1e-9:
            continue
        qb = qc_bound_k(s, k)
        assert qb.l2 <= qb.l3 + 1e-12
        assert qb.l3 < 1


def test_disk_inclusion_hand_cases():
    holds, slack = disk_inclusion_check(1, 2.0, 0.4, 0.4)
    assert holds and slack == pytest.approx(0.0, abs=1e-14)
    holds, slack = disk_inclusion_check(1, 2.0, 0.4, 0.3)
    assert not holds and slack == pytest.approx(-0.1, abs=1e-12)


def test_disk_inclusion_at_the_bound():
    # l = K(s, k) is the root of the containment equality, so the slack
    # sits at zero up to rounding
    rng = np.random.default_rng(72)
    for _ in range(10_000):
        s = complex(rng.uniform(1e-3, 10), rng.uniform(-10, 10))
        k = float(rng.uniform(0, 0.999))
        m = float(rng.uniform(1e-3, 10))
        K = qc_bound_k(s, k).K
        _, slack = disk_inclusion_check(s, m, k, K)
        assert slack >= -1e-9


def test_chain_t6_closed_forms():
    rng = np.random.default_rng(73)
    zs = _rand_disk(rng, 40)
    ts = rng.uniform(0, 3, 40)
    L = chain_t6(parse("z"), parse("z"), 1.0, zs, ts)
    assert np.max(np.abs(L - np.exp(ts) * zs)) < 1e-12
    # t = 0 reduces to the operator
    for z in zs[:5]:
        L0 = chain_t6(parse("z + 0.1*z^2"), parse("z"), 1.0, complex(z), 0.0)
        G = operator_g_alpha(parse("z + 0.1*z^2"), parse("z"), 1.0, complex(z))
        assert abs(L0 - G.value) < 1e-12


def test_chain_t6_driving_term_identity():
    # p(z,t) = e^{-at} w(z) + (1 - e^{-at}) stays in U(k) with w
    rng = np.random.default_rng(74)
    f, g = parse("z + 0.1*z^2"), parse("z")
    for _ in range(20):
        z = complex(_rand_disk(rng, 1)[0])
        t = rng.uniform(0, 3)
        p = chain_t6_p(f, g, 1.0, z, t)
        w = eval_expr(parse("1 + 0.2*z"), z)
        expected = np.exp(-t) * w + (1 - np.exp(-t))
        assert p == pytest.approx(expected)
        dist_p = abs((p - 1) / (p + 1))
        dist_w = abs((w - 1) / (w + 1))
        assert dist_p <= dist_w + 1e-12


def test_verify_chain_conditions_trivial():
    rng = np.random.default_rng(75)
    samples = [(complex(z), float(t))
               for z, t in zip(_rand_disk(rng, 64), rng.uniform(0, 3, 64))]
    rep = verify_chain_conditions(TRIPLE_TRIVIAL, P_TRIVIAL, samples)
    assert rep.satisfied
    by_name = {c.name: c for c in rep.conditions}
    assert by_name["w-in-disk"].margin == pytest.approx(1.0)
    assert by_name["p-positive-real-part"].margin == pytest.approx(1.0)
    assert by_name["b-bounded"].margin == pytest.approx(1.0)


def test_verify_chain_conditions_becker_lattice():
    triple = AnalyticTriple.build(parse("z + 0.1*z^2"), parse("z"), parse("1"))
    rr = np.linspace(0.05, 0.97, 32)
    th = 2 * np.pi * np.arange(32) / 32
    tt = np.linspace(0.0, 2.0, 8)
    samples = [(complex(r * np.exp(1j * a)), float(t))
               for r in rr for a in th for t in tt]
    rep = verify_chain_conditions(triple, P_TRIVIAL, samples)
    assert rep.satisfied and rep.n_samples == 32 * 32 * 8


def test_verify_chain_conditions_flags_geometric_f():
    triple = AnalyticTriple.build(parse("z/(1-z)"), parse("z"), parse("1"))
    rr = np.linspace(0.5, 0.99, 8)
    samples = [(complex(r), 0.05) for r in rr]
    rep = verify_chain_conditions(triple, P_TRIVIAL, samples)
    assert not rep.satisfied
    bad = {c.name for c in rep.conditions if not c.satisfied}
    assert "b-bounded" in bad
    witness = [c for c in rep.conditions if c.name == "b-bounded"][0]
    assert witness.witness_z is not None


def test_chain_point_bundle():
    cp = chain_point(TRIPLE_TRIVIAL, P_TRIVIAL, 0.3 + 0.2j, 0.7)
    assert cp.L == pytest.approx(np.exp(0.7) * (0.3 + 0.2j))
    assert cp.A == pytest.approx(1.0)
    assert cp.B == pytest.approx(0.0)
    assert cp.w == pytest.approx(0.0)
    assert cp.p == pytest.approx(1.0)
    assert cp.a1 == pytest.approx(np.exp(0.7))


def test_subordination_spot_checks():
    def trivial_chain(z, t):
        return chain_l(TRIPLE_TRIVIAL, P_TRIVIAL, z, t)

    triple_b = AnalyticTriple.build(parse("z + 0.1*z^2"), parse("z"), parse("1"))

    def becker_chain(z, t):
        return chain_l(triple_b, P_TRIVIAL, z, t)

    for t, s in ((0.0, 0.5), (0.5, 1.5), (1.0, 3.0), (2.0, 2.0)):
        assert subordination_spot_check(trivial_chain, t, s)
        assert subordination_spot_check(becker_chain, t, s)


def test_identity_chains_are_e_to_the_t_to_rounding():
    rng = np.random.default_rng(77)
    zs = _rand_disk(rng, 400, r=0.95)
    ts = rng.uniform(0, 3, 400)
    ref = np.exp(ts) * zs
    for L in (chain_l(TRIPLE_TRIVIAL, P_TRIVIAL, zs, ts),
              chain_t6(parse("z"), parse("z"), 1.0, zs, ts)):
        assert np.max(np.abs(L - ref) / np.abs(ref)) <= 1e-15
    a1 = chain_a1(P_TRIVIAL, 1.0, ts)
    assert np.max(np.abs(a1 - np.exp(ts)) / np.exp(ts)) <= 1e-15


def test_chain_l_follows_a_bracket_that_passes_near_zero():
    # h = -1 + 1e-12i: W0(t) = 1 + h0 (e^(2t) - 1) passes within 1e-12 of 0
    # at t = ln 2 / 2 but not through it, so L = e^(-t) z W0 all the way
    h0 = -1 + 1e-12j
    triple = AnalyticTriple.build(parse("z"), parse("z"), parse("-1 + 1e-12i"))
    z = _rand_disk(np.random.default_rng(78), 6)
    t = np.array([0.1, 0.3, 0.5, 1.0, 2.0, 3.0])
    expected = np.exp(-t) * z * (1 + h0 * (np.exp(2 * t) - 1))
    L = chain_l(triple, P_TRIVIAL, z, t)
    assert np.max(np.abs(L - expected) / np.abs(expected)) <= 1e-14
