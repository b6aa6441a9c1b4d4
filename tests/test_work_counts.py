"""Exact quadrature work of the oracle and the extension, so extra rays fail a test.

At alpha = 1 the operator is f - f(0), so a check or extend there
integrates nothing, and the demo configs, which all have alpha = 1, are
put on the general path by a params override (alpha = 2) where a test
counts the work of that path.

An operator subject is evaluated once on the grid (the criterion's pass,
or else the injectivity scan's, whose G and G' the subject keeps for the
rest of the run), once on the preimage circle shared
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

import gc
import json
import sys
import tracemalloc
import weakref
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
# The demo configs have alpha = 1, where the operator is f and nothing is
# integrated; these overrides put them on the general path (T2 keeps
# |alpha - m/(2a)| < m/(2a)).
T2_ALPHA2 = {"alpha": [2, 0], "m": 5}
T6_ALPHA2 = {"alpha": [2, 0]}


def _demo(name: str, **changes) -> dict:
    """A demo config with its params updated by ``params`` and other keys replaced."""
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    params = {**raw["params"], **changes.pop("params", {})}
    return {**raw, **changes, "params": params}


@pytest.mark.parametrize("name, overrides, expected", [
    pytest.param("trivial_t2", {"grid": SMALL, "params": T2_ALPHA2}, 16, id="trivial_t2"),
    pytest.param("t6_eps02", {"params": T6_ALPHA2}, 16, id="t6_eps02"),
    # f' = 1/(1-z)^2 is singular on the circle: the fit takes the radius
    # 0.95, and only the outer grid ring, 32 points, lies beyond it
    pytest.param("trivial_t2", {"grid": SMALL, "f": "z/(1-z)", "params": T2_ALPHA2},
                 16 + 32, id="fallback"),
])
def test_oracle_block_ray_count(ray_counter, name, overrides, expected):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    rc = reporting.load_config(raw, overrides)
    block = reporting.oracle_block(rc, reporting.subject_function(rc))
    assert block["preimage_counts_ok"] and not block["derivative_flagged"]
    assert sum(ray_counter) == expected


@pytest.mark.parametrize("name, overrides, rays, rho", [
    pytest.param("trivial_t2", {"grid": SMALL, "params": T2_ALPHA2}, [16], 1.0,
                 id="trivial_t2"),
    pytest.param("t6_eps02", {"params": T6_ALPHA2}, [16], 1.0, id="t6_eps02"),
    pytest.param("trivial_t2", {"grid": SMALL, "f": "z/(1-z)", "params": T2_ALPHA2},
                 [16, 32], 0.95, id="fallback"),
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
    raw = _demo("trivial_t2", f="z/(1-z)", params=T2_ALPHA2)
    config = tmp_path / "t2_geometric_f.json"
    config.write_text(json.dumps(raw))
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
    assert report["check"]["margin"] == pytest.approx(-6.970039970011966, abs=1e-9)
    oracle = report["oracle"]
    assert oracle["injective_on_grid"] and oracle["collision_pair"] is None
    assert oracle["preimage_counts"] == [1] * 20 and oracle["preimage_counts_ok"]
    assert not oracle["derivative_flagged"]
    assert oracle["derivative_min_abs"] == pytest.approx(0.4024963646538956, rel=1e-12)


ALPHA1_CHECKS = [
    *[pytest.param(json.loads(p.read_text()), int(p.stem == "becker_fail"), id=p.stem)
      for p in sorted(CONFIGS.glob("*.json"))],
    # f' is singular on the circle, where a fit would take a radius below 1
    pytest.param(_demo("trivial_t2", f="z/(1-z)", grid=SMALL), 1, id="t2-singular-f"),
    pytest.param(_demo("t6_eps02", g="z*exp(0.1*z)", grid=SMALL), 0, id="t6-g-not-z"),
    pytest.param({"f": "z + 0.02*z^2", "check": "logderiv-Uk", "params": {"k": 0.5},
                  "grid": {"n_radial": 32, "n_angular": 64}, "seed": 2024}, 0,
                 id="logderiv-Uk"),
]


@pytest.mark.parametrize("raw, code", ALPHA1_CHECKS)
def test_a_check_at_alpha_one_integrates_nothing(ray_counter, ladder_counter, raw, code):
    # at alpha = 1 the operator is f - f(0): the criterion, the oracle
    # subject and G' need no fit, no cross-check and no log Phi
    report, exit_code = reporting.run_check(reporting.load_config(raw), with_timings=False)
    assert exit_code == code and "oracle" in report
    assert ray_counter == [] and ladder_counter == []


@pytest.mark.parametrize("name", ["trivial_t2", "t5_qc", "t6_eps02", "becker_pass",
                                  "becker_fail"])
def test_extend_at_alpha_one_integrates_nothing(ray_counter, ladder_counter, tmp_path, name):
    # the main, becker and automorphism chains take V = f(u)/u from a jet of f
    assert main(["extend", "--config", str(CONFIGS / f"{name}.json"), "--force",
                 "--out", str(tmp_path / "f.csv"), "--resolution", "8"]) == 0
    assert ray_counter == [] and ladder_counter == []


def test_max_dilatation_integrates_nothing(ray_counter):
    F = ExtensionField(chain_t6_callable(parse("z + 0.2*z^2"), parse("z"), 1.0))
    mx, _ = max_dilatation(F, n_radial=8, n_angular=32)
    assert mx == pytest.approx(0.25, rel=0.02)
    assert sum(ray_counter) == 0


@pytest.mark.parametrize("name, params", [
    pytest.param("trivial_t2", T2_ALPHA2, id="trivial_t2"),
    pytest.param("t6_eps02", T6_ALPHA2, id="t6_eps02"),
])
def test_extend_ray_count(ray_counter, tmp_path, name, params):
    # resolution 8: 4 x 8 interior and 4 x 8 exterior points, one batch
    # of one chain, which integrates one cross-check sample
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_demo(name, params=params)))
    assert main(["extend", "--config", str(config),
                 "--out", str(tmp_path / "f.csv"), "--resolution", "8"]) == 0
    assert ray_counter == [16]


@pytest.mark.parametrize("name, params", [
    pytest.param("trivial_t2", T2_ALPHA2, id="trivial_t2"),
    pytest.param("t6_eps02", T6_ALPHA2, id="t6_eps02"),
])
def test_a_subject_object_integrates_one_cross_check(ray_counter, name, params):
    rc = reporting.load_config(_demo(name, params=params))
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
        "f": "z + 0.02*z^2", "check": "logderiv-Uk", "params": {"alpha": [2, 0], "k": 0.5},
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
    # (the main chain at s = 1, whose arguments are those of becker_fail's)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_demo("trivial_t2", f="z/(1-z)", params=T2_ALPHA2)))
    assert main(["extend", "--config", str(config), "--force",
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


# The run's subject keeps G and G' computed on the run's grid
# (reporting._run_subject), so the criterion, the oracle's scan and its
# derivative check share one pass there whatever order they ask in.
LOGDERIV = {"f": "z + 0.08*z^2", "check": "logderiv-Uk", "params": {"k": 0.5},
            "grid": {"n_radial": 32, "n_angular": 64}, "seed": 2}
T2_ALPHA1 = _demo("t5_qc", check="T2", params={"k": 0.5})


@pytest.fixture
def f_walks(monkeypatch):
    """``walks(rc)``: the list, filled while the test runs, of (shape,
    order, value flag) of every walk of ``rc.f``'s tree."""
    def walks(rc):
        seen = []
        original = expr._jet

        def counted(e, z, order, *value):
            if e is rc.f:
                seen.append((np.shape(z), order, *value))
            return original(e, z, order, *value)

        monkeypatch.setattr(expr, "_jet", counted)
        return seen
    return walks


@pytest.fixture
def operator_passes(monkeypatch):
    """Number of points of every bracket pass of an operator subject."""
    sizes = []
    original = reporting.operator_values_with_derivative

    def counted(f, g, alpha, z, *args):
        sizes.append(np.size(z))
        return original(f, g, alpha, z, *args)

    monkeypatch.setattr(reporting, "operator_values_with_derivative", counted)
    return sizes


def test_a_logderiv_check_at_alpha_one_walks_f_once_on_the_grid(f_walks):
    # one order-1 walk per field pass gives G and G'; the oracle takes
    # both on the grid from the criterion's pass
    rc = reporting.load_config(LOGDERIV)
    walks = f_walks(rc)
    report, code = reporting.run_check(rc, with_timings=False)
    assert code == 0 and "oracle" in report
    # f(0), then the criterion and the oracle
    assert walks == [((), 0, True), ((32, 64), 1, True), *[((8, 8), 1, True)] * 3,
                     ((1,), 1, False), ((20,), 0, True), ((512,), 0, True)]


def test_a_logderiv_check_at_alpha_two_makes_one_operator_pass_on_the_grid(operator_passes):
    # the grid, three refinements, the origin, the probes and the circle
    rc = reporting.load_config({**LOGDERIV, "params": {"alpha": [2, 0], "k": 0.5}})
    report, _ = reporting.run_check(rc, with_timings=False)
    assert "oracle" in report
    assert operator_passes == [2048, 64, 64, 64, 1, 20, 512]


def test_an_operator_subject_asked_for_g_prime_then_g_on_the_grid_makes_one_pass(
        operator_passes):
    rc = reporting.load_config(_demo("trivial_t2", f="z + 0.05*z^2", grid=SMALL,
                                     params=T2_ALPHA2))
    subject = reporting.subject_function(rc)
    derivs = subject.derivative(rc.grid.points())
    vals = subject(rc.grid.points())
    assert operator_passes == [512]
    # the kept values are those of a pass of their own
    fresh = operators.operator_values_with_derivative(
        rc.f, rc.g, rc.params.alpha, rc.grid.points().ravel())
    assert np.array_equal(vals.ravel(), fresh[0]) and np.array_equal(derivs.ravel(), fresh[1])


def test_an_operator_subject_keeps_only_its_grid_pass(operator_passes):
    rc = reporting.load_config(_demo("trivial_t2", f="z + 0.05*z^2", grid=SMALL,
                                     params=T2_ALPHA2))
    subject = reporting.subject_function(rc)
    vals, derivs = subject.jet(rc.grid.points())
    assert np.array_equal(subject.derivative(rc.grid.points()), derivs)
    assert np.array_equal(subject(rc.grid.points()), vals)
    assert operator_passes == [512]
    # points of the grid's shape that are not its points: a pass per request
    subject(0.5 * rc.grid.points())
    subject.derivative(0.5 * rc.grid.points())
    assert operator_passes == [512, 512, 512]
    # and the grid's pass is still kept
    subject(rc.grid.points())
    assert operator_passes == [512, 512, 512]


@pytest.mark.parametrize("raw, walks", [
    # the criterion walks f through its own jets; the oracle's scan keeps
    # G, and its derivative check walks f' alone
    pytest.param(T2_ALPHA1, [((), 0, True), ((1,), 1), ((64, 128), 2, False),
                             *[((8, 8), 2, False)] * 3, ((64, 128), 0, True),
                             ((64, 128), 1, False), ((1,), 1, False), ((20,), 0, True),
                             ((512,), 0, True)], id="T2"),
    # the criterion's order-2 pass on the grid serves the scan and f'
    pytest.param(_demo("becker_pass"), [((64, 128), 2, True), *[((8, 8), 2, True)] * 3,
                                        ((1,), 1, False), ((20,), 0, True), ((512,), 0, True)],
                 id="becker"),
])
def test_a_check_at_alpha_one_walks_f_as_before(f_walks, raw, walks):
    rc = reporting.load_config(raw)
    seen = f_walks(rc)
    report, code = reporting.run_check(rc, with_timings=False)
    assert code == 0 and "oracle" in report
    assert seen == walks


@pytest.mark.parametrize("raw", [
    pytest.param(LOGDERIV, id="alpha-one"),
    pytest.param({**LOGDERIV, "params": {"alpha": [2, 0], "k": 0.5}}, id="alpha-two"),
    pytest.param(_demo("becker_pass", grid=SMALL), id="becker"),
])
def test_a_run_subject_is_freed_without_the_cycle_collector(raw):
    # a reference cycle through the subject would hold its kept grid pass
    # until the cyclic collector ran, and grow the heap of a process that
    # runs check after check
    rc = reporting.load_config(raw)
    subject = reporting.subject_function(rc)
    subject(rc.grid.points())
    subject.derivative(rc.grid.points())
    freed = weakref.ref(subject)
    gc.disable()
    try:
        del subject
        assert freed() is None
    finally:
        gc.enable()
