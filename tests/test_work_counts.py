"""Exact quadrature work of the oracle and the extension, so extra rays fail a test.

An operator subject is evaluated once on the grid (the injectivity scan,
whose pass the derivative check reuses), once on the preimage circle shared
by all probes, and once at the probe points; G'(0) = f'(0) needs no ray.
Each subject or chain object fits its bracket once: it integrates one
cross-check sample of 16 rays per radius it tries, each on its outer half
only, whatever its number of batches; at radius 1 that is all, and below
it every batch integrates one segment per point beyond the radius, from
the radius on.
The Beltrami coefficient of a chain's extension comes from its driving
term, so a dilatation scan integrates nothing and ``extend`` evaluates one
chain value per exported point, in one batch; the seam check evaluates its
two circles in one batch too.  The injectivity scan forms candidate pairs in fixed-size
chunks, so its memory stays small even when every image point falls in
one cell.  No check or extend run builds a derivative tree: every f'
comes from a jet of f.
"""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from schlicht import cli, criteria, expr, operators, reporting
from schlicht.chains import chain_t6_callable
from schlicht.cli import main
from schlicht.dsl import parse
from schlicht.extension import ExtensionField, max_dilatation, seam_mismatch
from schlicht.oracle import injectivity_test

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


SMALL = {"n_radial": 16, "n_angular": 32}


@pytest.mark.parametrize("name, overrides, expected", [
    pytest.param("trivial_t2", {"grid": SMALL}, 16, id="trivial_t2"),
    pytest.param("t6_eps02", {}, 16, id="t6_eps02"),
    # f' = 1/(1-z)^2 is singular on the circle: the fit takes the radius
    # 0.95, and only the outer grid ring, 32 points, lies beyond it
    pytest.param("trivial_t2", {"grid": SMALL, "f": "z/(1-z)"}, 16 + 32,
                 id="fallback"),
])
def test_oracle_block_ray_count(ray_counter, name, overrides, expected):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    rc = reporting.load_config(raw, overrides)
    block = reporting.oracle_block(rc, reporting.subject_function(rc))
    assert block["preimage_counts_ok"] and not block["derivative_flagged"]
    assert sum(ray_counter) == expected


@pytest.mark.parametrize("name, overrides, rays, rho", [
    pytest.param("trivial_t2", {"grid": SMALL}, [16], 1.0, id="trivial_t2"),
    pytest.param("t6_eps02", {}, [16], 1.0, id="t6_eps02"),
    pytest.param("trivial_t2", {"grid": SMALL, "f": "z/(1-z)"}, [16, 32], 0.95,
                 id="fallback"),
])
def test_cross_check_integrates_the_outer_half_of_its_rays(ray_counter, chunk_counter, name,
                                                            overrides, rays, rho):
    # the cross-check starts each ray of |u| = rho at rho/2 from the series,
    # in one panel [rho/2, rho] at radius 1; the points beyond a smaller rho
    # start from the series on the radius
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    rc = reporting.load_config(raw, overrides)
    reporting.oracle_block(rc, reporting.subject_function(rc))
    assert ray_counter == rays
    assert all(c[2] >= rho / 2 for c in chunk_counter)
    if rho == 1:
        assert [c[1] for c in chunk_counter] == [1]


def test_a_singular_subject_integrates_only_beyond_its_radius(ray_counter, chunk_counter,
                                                              tmp_path):
    # f' = 1/(1-z)^2 is singular at z = 1: the fit takes a radius rho < 1,
    # cross-checks 16 rays of |u| = rho from rho/2 on, and integrates only
    # the grid points beyond rho, from rho on; the probes (|z| <= 0.85) and
    # the preimage circle (|z| = 0.9) take the series
    raw = json.loads((CONFIGS / "trivial_t2.json").read_text())
    config = tmp_path / "t2_geometric_f.json"
    config.write_text(json.dumps({**raw, "f": "z/(1-z)"}))
    out = tmp_path / "report.json"
    assert main(["check", "--config", str(config), "--out", str(out), "--no-timings"]) == 1
    rho = min(c[3] for c in chunk_counter)
    assert rho < 1 and any(rho == pytest.approx(r) for r in operators._RADII)
    cross = [c for c in chunk_counter if c[3] < rho * operators._EDGE]
    assert sum(c[0] for c in cross) == 16
    assert all(c[2] == pytest.approx(rho / 2) for c in cross)
    assert all(c[2] == pytest.approx(rho) and c[3] > rho for c in chunk_counter
               if c not in cross)
    radii = criteria.DiskGrid(**raw["grid"]).radii()
    assert ray_counter == [16, raw["grid"]["n_angular"] * int(np.sum(radii > rho))]
    # the verdict, margin and oracle verdicts of the from-origin quadrature
    report = json.loads(out.read_text())
    assert not report["check"]["satisfied"]
    assert report["check"]["margin"] == pytest.approx(-2.9940019999999423, abs=1e-9)
    oracle = report["oracle"]
    assert oracle["injective_on_grid"] and oracle["collision_pair"] is None
    assert oracle["preimage_counts"] == [1] * 20 and oracle["preimage_counts_ok"]
    assert not oracle["derivative_flagged"]
    assert oracle["derivative_min_abs"] == pytest.approx(0.2502501876250781, rel=1e-12)


def test_max_dilatation_integrates_nothing(ray_counter):
    F = ExtensionField(chain_t6_callable(parse("z + 0.2*z^2"), parse("z"), 1.0))
    mx, _ = max_dilatation(F, n_radial=8, n_angular=32)
    assert mx == pytest.approx(0.25, rel=0.02)
    assert sum(ray_counter) == 0


@pytest.mark.parametrize("name", ["trivial_t2", "t6_eps02"])
def test_extend_ray_count(ray_counter, tmp_path, name):
    # resolution 8: 4 x 8 interior and 4 x 8 exterior points, one batch
    # of one chain, which integrates one cross-check sample
    assert main(["extend", "--config", str(CONFIGS / f"{name}.json"),
                 "--out", str(tmp_path / "f.csv"), "--resolution", "8"]) == 0
    assert ray_counter == [16]


@pytest.mark.parametrize("name", ["trivial_t2", "t6_eps02"])
def test_a_subject_object_integrates_one_cross_check(ray_counter, name):
    rc = reporting.load_config(json.loads((CONFIGS / f"{name}.json").read_text()))
    op = reporting.subject_function(rc)
    z = 0.9 * np.exp(2j * np.pi * np.arange(8) / 8)
    op(z)
    assert ray_counter == [16]
    op(0.5 * z)  # a second batch on the same object
    assert ray_counter == [16]
    reporting.subject_function(rc)(0.5 * z)  # a new object fits anew
    assert ray_counter == [16, 16]


def test_logderiv_check_with_the_oracle_fits_its_subject_once(ray_counter):
    # the criterion and the oracle share the run's one operator subject
    rc = reporting.load_config({
        "f": "z + 0.02*z^2", "check": "logderiv-Uk", "params": {"k": 0.5},
        "grid": {"n_radial": 32, "n_angular": 64}, "seed": 2024})
    report, _ = reporting.run_check(rc, with_timings=False)
    assert "oracle" in report
    assert ray_counter == [16]


@pytest.fixture
def ladder_counter(monkeypatch):
    """Rays of every anchor ladder of Phi = g(u)/u built while the test runs."""
    points = []
    original = operators._Ladder

    def counted(g, points_at, start_log):
        points.append(len(start_log))
        return original(g, points_at, start_log)

    monkeypatch.setattr(operators, "_Ladder", counted)
    return points


def test_a_t6_check_cross_checks_its_log_phi_series_once(ladder_counter):
    # the base grid and three refinements share one check of the series
    rep = criteria.check_t6(parse("z + 0.1*z^2"), parse("z*exp(0.1*z)"), 2.0, 0.5,
                            criteria.DiskGrid())
    assert rep.satisfied
    assert ladder_counter == [16]


def test_a_t6_chain_cross_checks_its_log_phi_series_once(ladder_counter):
    chain = chain_t6_callable(parse("z + 0.1*z^2"), parse("z*exp(0.1*z)"), 2.0)
    z = 0.9 * np.exp(2j * np.pi * np.arange(8) / 8)
    first = chain.driving_term(z, 0.3)
    chain.driving_term(0.5 * z, 1.0)  # a second batch of the same chain
    assert ladder_counter == [16]
    # a new chain checks anew, and gets the same values
    assert np.array_equal(
        chain_t6_callable(parse("z + 0.1*z^2"), parse("z*exp(0.1*z)"), 2.0)
        .driving_term(z, 0.3), first)
    assert ladder_counter == [16, 16]


def test_grid_condition_evaluates_base_grid_once(monkeypatch):
    shapes = []
    original = criteria.becker_lhs

    def counted(f, m, zz, *args):
        shapes.append(np.shape(zz))
        return original(f, m, zz, *args)

    monkeypatch.setattr(criteria, "becker_lhs", counted)
    grid = criteria.DiskGrid()
    criteria.check_becker(parse("z + 0.1*z^2"), 2.0, grid)
    assert shapes == [(64, 128)] + [(8, 8)] * grid.refinement_levels


@pytest.mark.parametrize("subject, injective", [("z + 0.1*z^2", True), ("1", False)])
def test_injectivity_scan_memory_peak(subject, injective):
    tracemalloc.start()
    try:
        rep = injectivity_test(parse(subject), criteria.DiskGrid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_points == 64 * 128
    assert rep.injective_on_grid == injective
    if not injective:  # a constant collides everywhere
        assert rep.min_separation_ratio == 0
    assert peak < 32 * 2**20


@pytest.fixture
def field_calls(monkeypatch):
    """(F calls, chain calls), each as the number of points asked for, of
    every extension field and every chain that ``cli.build_chain`` builds
    while the test runs."""
    calls = ([], [])
    field_call, build = ExtensionField.__call__, cli.build_chain

    def counted_field(self, z):
        calls[0].append(np.size(z))
        return field_call(self, z)

    def counted_build(rc):
        chain = build(rc)

        def counted(z, t):
            calls[1].append(np.size(z))
            return chain(z, t)
        counted.driving_term = chain.driving_term
        return counted

    monkeypatch.setattr(ExtensionField, "__call__", counted_field)
    monkeypatch.setattr(cli, "build_chain", counted_build)
    return calls


@pytest.mark.parametrize("name", ["t6_eps02", "t5_qc"])
def test_extend_evaluates_its_field_once(field_calls, tmp_path, name):
    # the export grid in one F call, and the seam's two circles in one
    # more; each F call is one chain call, and mu needs no F value
    assert main(["extend", "--config", str(CONFIGS / f"{name}.json"),
                 "--out", str(tmp_path / "f.csv"), "--resolution", "8"]) == 0
    assert field_calls == ([64], [64])
    rc = reporting.load_config(json.loads((CONFIGS / f"{name}.json").read_text()))
    F = ExtensionField(cli.build_chain(rc))
    assert seam_mismatch(F, n_angles=90) < 1e-5
    assert field_calls == ([64, 180], [64, 180])


def test_extend_ray_count_fallback(ray_counter, tmp_path):
    # f' of z/(1-z) is singular on the circle, so the chain's fit takes the
    # radius 0.95, and its one batch integrates the 16 points beyond it: 8
    # inside the circle and 8 exterior points whose chain argument is there
    assert main(["extend", "--config", str(CONFIGS / "becker_fail.json"), "--force",
                 "--out", str(tmp_path / "f.csv"), "--resolution", "8"]) == 0
    assert ray_counter == [16, 16]


def _forbid_derivative_trees(monkeypatch):
    """``expr.differentiate``, and every schlicht module name bound to it, raise."""
    original = expr.differentiate

    def differentiate(e):
        raise AssertionError(f"a derivative tree was built for {e!r}")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "schlicht"]:
        for attr in [a for a, v in vars(module).items() if v is original]:
            monkeypatch.setattr(module, attr, differentiate)


NO_TREE_CHECKS = [
    *[pytest.param(json.loads(p.read_text()), int(p.stem == "becker_fail"), id=p.stem)
      for p in sorted(CONFIGS.glob("*.json"))],
    pytest.param({"f": "z + 0.05*z^2", "g": "z*exp(0.1*z)",
                  "params": {"alpha": [2, 0], "c": [-1, 0], "s": [1, 0], "m": 2, "k": 0.6},
                  "check": "T6", "grid": {"n_radial": 16, "n_angular": 32}, "seed": 3},
                 0, id="t6-ladder"),
    pytest.param({"f": "z + 0.05*z^2",
                  "params": {"alpha": [1, 0], "c": [-1, 0], "s": [1, 0], "m": 2, "k": 0.5},
                  "check": "logderiv-Uk", "grid": {"n_radial": 32, "n_angular": 64}, "seed": 3},
                 0, id="logderiv-Uk"),
]


@pytest.mark.parametrize("raw, code", NO_TREE_CHECKS)
def test_a_check_builds_no_derivative_tree(monkeypatch, raw, code):
    # f' of every criterion field, oracle subject, operator weight and G'
    # comes from jets of f
    _forbid_derivative_trees(monkeypatch)
    assert reporting.run_check(reporting.load_config(raw), with_timings=False)[1] == code


@pytest.mark.parametrize("name", ["t5_qc", "t6_eps02"])
def test_extend_builds_no_derivative_tree(monkeypatch, tmp_path, name):
    _forbid_derivative_trees(monkeypatch)
    assert main(["extend", "--config", str(CONFIGS / f"{name}.json"),
                 "--out", str(tmp_path / "f.csv"), "--resolution", "8"]) == 0
