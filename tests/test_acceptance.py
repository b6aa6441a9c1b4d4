"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing defers to later calibration.
Run with -s to watch the lines stream.
"""

import json
import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import admissible_params
from test_operators import (
    series_exp_weight,
    series_geometric,
    series_mocanu_quadratic,
)

from schlicht.chains import chain_callable, chain_l, chain_t6_callable, disk_inclusion_check, qc_bound_k
from schlicht.cli import main
from schlicht.criteria import (
    CriterionParams,
    DiskGrid,
    apply_preset,
    check_becker,
    check_main_t2,
    check_t6,
)
from schlicht.dsl import parse
from schlicht.expr import AnalyticTriple, eval_expr
from schlicht.extension import ExtensionField, max_dilatation, seam_mismatch
from schlicht.operators import (
    operator_g_alpha,
    operator_mocanu,
    operator_moldoveanu_pascu,
    operator_values,
)
from schlicht.oracle import injectivity_test, preimage_count

GRID = DiskGrid()
TRIPLE_TRIVIAL = AnalyticTriple.build(parse("z"), parse("z"), parse("1"))
P_TRIVIAL = CriterionParams(alpha=1, c=-1, s=1, m=2.0)
EPS_FAMILY = (0.05, 0.1, 0.2)


def _gate(num, desc, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:>2}: {desc}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def trivial_extension() -> ExtensionField:
    return ExtensionField(chain_callable(TRIPLE_TRIVIAL, P_TRIVIAL))


@lru_cache(maxsize=None)
def eps_extension(eps: float) -> ExtensionField:
    f = parse(f"z + {eps}*z^2")
    return ExtensionField(chain_t6_callable(f, parse("z"), 1.0))


def _operator_subject(f_src: str, g_src: str = "z", alpha: float = 1.0):
    f, g = parse(f_src), parse(g_src)

    def op(zz):
        vals, _ = operator_values(f, g, alpha, np.asarray(zz).ravel())
        return vals.reshape(np.shape(zz))

    return op


def _oracle_pass(subject, grid: DiskGrid, seed: int) -> bool:
    from schlicht.expr import Expr

    inj = injectivity_test(subject, grid)
    rng = np.random.default_rng(seed)
    counts = []
    for _ in range(20):
        z0 = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if isinstance(subject, Expr):
            w0 = eval_expr(subject, complex(z0))
        else:
            w0 = complex(np.asarray(subject(np.array([z0])))[0])
        counts.append(preimage_count(subject, w0, r=0.9))
    return inj.injective_on_grid and all(c in (0, 1) for c in counts)


def test_acceptance_01_trivial_end_to_end():
    t0 = time.perf_counter()
    rep = check_main_t2(TRIPLE_TRIVIAL, P_TRIVIAL, GRID)
    ok_margin = rep.satisfied and abs(rep.margin - 1.0) <= 1e-9

    rng = np.random.default_rng(101)
    zs = 0.95 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    ts = rng.uniform(0, 3, 100)
    chain_vals = chain_l(TRIPLE_TRIVIAL, P_TRIVIAL, zs, ts)
    ok_chain = bool(np.max(np.abs(chain_vals - np.exp(ts) * zs)) <= 1e-10)

    mx, _ = max_dilatation(trivial_extension(), n_radial=32, n_angular=128)
    ok_mu = mx <= 1e-8
    elapsed = time.perf_counter() - t0
    _gate(1, f"trivial config end to end ({elapsed:.1f}s)",
          ok_margin and ok_chain and ok_mu and elapsed < 5.0)


def test_acceptance_02_becker_positive():
    t0 = time.perf_counter()
    app = apply_preset("becker", parse("z + 0.1*z^2"), params=P_TRIVIAL)
    rep = check_becker(app.f, app.params.m, GRID)
    lhs_max = rep.conditions[0].rhs - rep.margin
    inj = injectivity_test(parse("z + 0.1*z^2"), DiskGrid(n_radial=200, n_angular=200))
    elapsed = time.perf_counter() - t0
    _gate(2, f"small perturbation passes the (m-2)/2 check ({elapsed:.1f}s)",
          rep.satisfied and app.check_id == "becker" and lhs_max <= 0.25
          and inj.injective_on_grid and elapsed < 10.0)


def test_acceptance_03_becker_negative():
    rep = check_becker(parse("z/(1-z)"), 2.0, GRID)
    lhs_max = rep.conditions[0].rhs - rep.margin
    expected = 2 * GRID.r_max * (1 + GRID.r_max)
    angle_deg = abs(np.degrees(np.angle(rep.witness)))
    _gate(3, "geometric map fails with the predicted boundary maximum",
          (not rep.satisfied)
          and abs(lhs_max - expected) / expected <= 0.02
          and angle_deg <= 1.0)


def test_acceptance_04_k_formula_table():
    ok = all(qc_bound_k(1, k).K == k for k in np.arange(0, 0.95, 0.1))
    ok = ok and abs(qc_bound_k(2, 0.0).K - 1 / 3) <= 1e-12
    ok = ok and abs(qc_bound_k(1 + 1j, 0.2).K - 0.5940) <= 5e-4
    _gate(4, "dilatation bound closed forms", ok)


def test_acceptance_05_disk_inclusion_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(10_000):
        a = float(rng.uniform(1e-6, 10))
        b = float(rng.uniform(-10, 10))
        k = float(rng.uniform(0, 1))
        m = float(rng.uniform(1e-6, 10))
        s = complex(a, b)
        qb = qc_bound_k(s, k)
        _, slack = disk_inclusion_check(s, m, k, qb.K)
        ok &= slack >= -1e-9
        if qb.l2 is not None:
            ok &= qb.l2 <= qb.l3 + 1e-12 and qb.l3 < 1
    elapsed = time.perf_counter() - t0
    _gate(5, f"inclusion holds at l = K on 1e4 draws ({elapsed:.1f}s)",
          ok and elapsed < 5.0)


def test_acceptance_06_disk_equivalences():
    rng = np.random.default_rng(106)
    n = 100_000

    A = 4 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    a = rng.uniform(0.05, 5, n)
    s = a + 1j * rng.uniform(-5, 5, n)
    m = rng.uniform(0.1, 8, n)
    den = (1 - s) * A + m
    good = np.abs(den) > 1e-9
    w = ((1 + s) * A - m)[good] / den[good]
    dist = np.abs(A[good] - m[good] / (2 * a[good]))
    bound = m[good] / (2 * a[good])
    disagree = (np.abs(w) < 1) != (dist < bound)
    violations_a = int(np.sum(disagree & (np.abs(dist - bound) > 1e-12)))

    w2 = 3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    k = rng.uniform(0, 0.99, n)
    quotient = np.abs((w2 - 1) / (w2 + 1))
    centred = np.abs(w2 - (1 + k**2) / (1 - k**2)) <= 2 * k / (1 - k**2)
    disagree2 = (quotient <= k) != centred
    violations_b = int(np.sum(disagree2 & (np.abs(quotient - k) > 1e-12)))

    _gate(6, "both disk characterizations agree on 1e5 samples",
          violations_a == 0 and violations_b == 0)


def test_acceptance_07_simplified_implies_main_pointwise():
    rng = np.random.default_rng(107)
    violations = 0
    for _ in range(10_000):
        params, h0 = admissible_params(rng)
        rhs = params.m / (2 * params.a)
        bracket = rhs + rhs * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        lam = rng.uniform(0, 1)
        lead = (-params.c * params.alpha) / (params.a * h0)
        lhs = abs(lead * lam + (1 - lam) * bracket - rhs)
        if lhs > rhs + 1e-12:
            violations += 1
    _gate(7, "simplified inequality forces the main one at every point",
          violations == 0)


def test_acceptance_08_t6_family_dilatation():
    ok = True
    for eps in EPS_FAMILY:
        t0 = time.perf_counter()
        k = eps / (1 - eps) + 1e-6
        rep = check_t6(parse(f"z + {eps}*z^2"), parse("z"), 1.0, k, GRID)
        mx, _ = max_dilatation(eps_extension(eps))
        elapsed = time.perf_counter() - t0
        target = eps / (1 - eps)
        good = rep.satisfied and abs(mx - target) / target <= 0.02 and elapsed < 30.0
        print(f"    eps={eps}: max|mu|={mx:.5f} target={target:.5f} ({elapsed:.1f}s)")
        ok &= good
    _gate(8, "automorphism family matches the hand dilatation", ok)


def test_acceptance_09_seam_continuity():
    worst = seam_mismatch(trivial_extension())
    for eps in EPS_FAMILY:
        worst = max(worst, seam_mismatch(eps_extension(eps)))
    _gate(9, f"seam mismatch {worst:.2e} across 360 angles", worst <= 1e-6)


def test_acceptance_10_quadrature_vs_series():
    d1 = abs(operator_g_alpha(parse("z"), parse("z*exp(0.1*z)"), 2.0, 0.5).value
             - series_exp_weight(0.5, 0.1, 2.0))
    d2 = abs(operator_moldoveanu_pascu(parse("z/(1-z)"), 2.0, 0.3).value
             - series_geometric(0.3, 2.0))
    d3 = abs(operator_mocanu(parse("z + 0.2*z^2"), 2.0, 0.3).value
             - series_mocanu_quadratic(0.3))
    _gate(10, f"series oracles agree to {max(d1, d2, d3):.1e}",
          max(d1, d2, d3) <= 1e-9)


def test_acceptance_11_oracle_soundness_sweep():
    small = DiskGrid(n_radial=100, n_angular=100)
    ok = True

    # every configuration that passed above
    ok &= _oracle_pass(_operator_subject("z"), small, seed=201)          # criterion 1
    ok &= _oracle_pass(parse("z + 0.1*z^2"), small, seed=202)            # criterion 2
    for eps in EPS_FAMILY:                                               # criterion 8
        ok &= _oracle_pass(_operator_subject(f"z + {eps}*z^2"), small, seed=203)

    # sufficient-not-necessary witness: criterion fails, oracle still passes
    koebe_like = parse("z/(1-z)")
    rep = check_becker(koebe_like, 2.0, GRID)
    ok &= not rep.satisfied
    ok &= _oracle_pass(koebe_like, small, seed=204)
    _gate(11, "oracle confirms passes; known non-necessary witness flagged", ok)


def test_acceptance_12_determinism(tmp_path):
    configs = {
        "trivial_t2.json": {
            "f": "z", "g": "z", "h": "1",
            "params": {"alpha": [1, 0], "c": [-1, 0], "s": [1, 0], "m": 2, "k": 0.5},
            "check": "T2",
            "grid": {"n_radial": 24, "n_angular": 48, "r_max": 0.999,
                     "refinement_levels": 2},
            "seed": 11,
        },
        "becker_pass.json": {
            "f": "z + 0.1*z^2", "preset": "becker",
            "params": {"alpha": [1, 0], "c": [-1, 0], "s": [1, 0], "m": 2, "k": 0},
            "grid": {"n_radial": 24, "n_angular": 48, "r_max": 0.999,
                     "refinement_levels": 2},
            "seed": 12,
        },
        "becker_fail.json": {
            "f": "z/(1-z)", "preset": "becker",
            "params": {"alpha": [1, 0], "c": [-1, 0], "s": [1, 0], "m": 2, "k": 0},
            "grid": {"n_radial": 24, "n_angular": 48, "r_max": 0.999,
                     "refinement_levels": 2},
            "seed": 13,
        },
    }
    ok = True
    for name, payload in configs.items():
        cfg = tmp_path / name
        cfg.write_text(json.dumps(payload))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}.{tag}"
            main(["check", "--config", str(cfg), "--out", str(out), "--no-timings"])
            outs.append(out.read_bytes())
        ok &= outs[0] == outs[1]

    tables = []
    for tag in ("a", "b"):
        out = tmp_path / f"ktable.{tag}"
        main(["ktable", "--s", "1", "2", "1+1i", "--k", "0", "0.3", "0.9",
              "--out", str(out)])
        tables.append(out.read_bytes())
    ok &= tables[0] == tables[1]
    _gate(12, "byte-identical reports under fixed seed", ok)
