import json
from pathlib import Path

import numpy as np
import pytest

from schlicht import oracle, reporting
from schlicht.criteria import DiskGrid
from schlicht.dsl import parse
from schlicht.errors import NonFiniteValue, OnCurve, UnresolvedWinding
from schlicht.expr import as_subject
from schlicht.oracle import (
    derivative_nonvanishing,
    injectivity_test,
    preimage_count,
)

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

GRID = DiskGrid(n_radial=50, n_angular=50)


def test_identity_is_isometric():
    rep = injectivity_test(parse("z"), GRID)
    assert rep.injective_on_grid
    assert rep.min_separation_ratio == pytest.approx(1.0)
    assert rep.collision_pair is None


def test_square_collides_at_opposite_points():
    rep = injectivity_test(parse("z^2"), GRID)
    assert not rep.injective_on_grid
    z1, z2 = rep.collision_pair
    assert z1 == pytest.approx(-z2)


def test_koebe_injective_on_grid():
    rep = injectivity_test(parse("koebe"), GRID)
    assert rep.injective_on_grid


def test_bucketed_path_used_for_large_grids():
    big = DiskGrid(n_radial=120, n_angular=120)
    rep = injectivity_test(parse("z + 0.1*z^2"), big)
    assert rep.n_points == 14_400
    assert rep.injective_on_grid
    # min |f'| on the disk is 0.8, a lower bound for the ratio
    assert rep.min_separation_ratio >= 0.79

    rep = injectivity_test(parse("z^2"), big)
    assert not rep.injective_on_grid


def test_non_finite_value_raises():
    point = GRID.points()[3, 7]

    def square_with_nan(z):
        w = np.asarray(z) ** 2
        w[3, 7] = np.nan
        return w

    with pytest.raises(NonFiniteValue) as err:
        injectivity_test(square_with_nan, GRID)
    assert err.value.z == point

    def identity_with_inf(z):
        w = np.array(z, dtype=complex)
        w[3, 7] = complex(0.5, np.inf)
        return w

    with pytest.raises(NonFiniteValue):
        injectivity_test(identity_with_inf, GRID)


def test_angular_seam_pair_is_a_neighbour():
    # the last angle is mapped just short of the first one: the only
    # compressed adjacent pair spans the seam, and its images lie far
    # more than one cell apart, so only the neighbour ratio sees it
    grid = DiskGrid(n_radial=120, n_angular=120)
    gap, h = 1e-3, 2 * np.pi / grid.n_angular

    def folded(z):
        w = np.array(z, dtype=complex)
        w[:, -1] = np.abs(z[:, -1]) * np.exp(-1j * gap)
        return w

    rep = injectivity_test(folded, grid)
    assert rep.injective_on_grid
    assert rep.min_separation_ratio == pytest.approx(
        np.sin(gap / 2) / np.sin(h / 2), rel=1e-9)


def _brute_force_pairs(z, w, tol):
    dz = np.abs(z[:, None] - z[None, :])
    dw = np.abs(w[:, None] - w[None, :])
    i, j = np.nonzero(np.triu(dw < tol * dz, k=1))
    return set(zip(i.tolist(), j.tolist()))


def _planted_cloud(rng, tol, n=240):
    """Disk points whose images crowd a few cells on both sides of 0."""
    cell = 2 * tol
    z = 0.999 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    w = cell * (rng.uniform(-12, 12, n) + 1j * rng.uniform(-12, 12, n))
    for a in range(0, 60, 2):  # near pairs straddling cell edges
        edge = cell * (rng.integers(-10, 10) + 1j * rng.integers(-10, 10))
        step = tol * abs(z[a] - z[a + 1]) * rng.uniform(0.2, 0.99)
        direction = np.exp(1j * rng.uniform(0, 2 * np.pi))
        w[a] = edge - 0.5 * step * direction
        w[a + 1] = edge + 0.5 * step * direction
    w[60:70] = w[70:80]  # duplicate images
    z[80], w[80] = z[81], w[81]  # a duplicate point
    return z, w


@pytest.mark.parametrize("tol", [1e-6, 1e-3])
def test_near_pairs_agree_with_brute_force(monkeypatch, tol):
    monkeypatch.setattr(oracle, "_PAIR_BUDGET", 97)  # many chunks
    for seed in range(40):
        z, w = _planted_cloud(np.random.default_rng(seed), tol)
        formed = [(int(a), int(b)) for i, j in oracle._near_pairs(w, tol)
                  for a, b in zip(np.minimum(i, j), np.maximum(i, j))]
        assert len(formed) == len(set(formed))  # each pair formed once
        assert all(a != b for a, b in formed)
        found = {(a, b) for a, b in formed
                 if abs(w[a] - w[b]) < tol * abs(z[a] - z[b])}
        expected = _brute_force_pairs(z, w, tol)
        assert len(expected) >= 30
        assert found == expected


def _formed_pairs(w, tol):
    formed = [(int(a), int(b)) for i, j in oracle._near_pairs(w, tol)
              for a, b in zip(np.minimum(i, j), np.maximum(i, j))]
    assert len(formed) == len(set(formed))  # each pair formed once
    return set(formed)


def _touching_cells(w, tol):
    """Every pair i < j whose cells floor(w / cell) touch, by brute force."""
    cell = max(2 * tol, 1e-12)
    kx, ky = np.floor(w.real / cell), np.floor(w.imag / cell)
    touch = ((np.abs(kx[:, None] - kx[None, :]) <= 1)
             & (np.abs(ky[:, None] - ky[None, :]) <= 1))
    i, j = np.nonzero(np.triu(touch, k=1))
    return set(zip(i.tolist(), j.tolist()))


@pytest.mark.parametrize("turn", ["along", "across", "corner"])
@pytest.mark.parametrize("direction", range(len(oracle._FILTER_DIRECTIONS)))
def test_filter_keeps_pairs_straddling_cell_edges(monkeypatch, direction, turn):
    # pairs straddle a cell corner along or across a filter direction, or
    # along the cell diagonal nearest to it, where touching cells project
    # farthest apart; offsets reach 3 cells, so some pairs touch and
    # others do not
    monkeypatch.setattr(oracle, "_PAIR_BUDGET", 97)
    tol = 1e-6
    cell = 2 * tol
    d = oracle._FILTER_DIRECTIONS[direction]
    d = {"along": d, "across": 1j * d,
         "corner": (np.sign(d.real) + 1j * np.sign(d.imag)) / np.sqrt(2)}[turn]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        z, w = _planted_cloud(rng, tol)
        # lone points far apart, which the filter drops
        w[120:] = cell * (rng.uniform(-1e4, 1e4, 120) + 1j * rng.uniform(-1e4, 1e4, 120))
        for a in range(0, 60, 2):
            edge = cell * (rng.integers(-100, 100) + 1j * rng.integers(-100, 100))
            half = 0.5 * cell * rng.uniform(0.5, 3.0) * d
            w[a], w[a + 1] = edge - half, edge + half
        expected = _touching_cells(w, tol)
        assert sum(b == a + 1 and a < 60 for a, b in expected) >= 10
        assert _formed_pairs(w, tol) == expected
        found = {(a, b) for a, b in expected
                 if abs(w[a] - w[b]) < tol * abs(z[a] - z[b])}
        assert found == _brute_force_pairs(z, w, tol)
        assert len(oracle._near_candidates(w, cell)) <= 130


@pytest.mark.parametrize("direction", range(len(oracle._FILTER_DIRECTIONS)))
def test_filter_on_a_line_perpendicular_to_a_direction(direction):
    # every projection on that direction is about equal, so it drops nothing
    tol = 1e-6
    rng = np.random.default_rng(7 + direction)
    n = 300
    z = 0.999 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    t = np.cumsum(rng.uniform(0, 5, n)) * 2 * tol
    w = 0.37 + 1j * oracle._FILTER_DIRECTIONS[direction] * t[rng.permutation(n)]
    expected = _touching_cells(w, tol)
    assert len(expected) >= 50
    assert _formed_pairs(w, tol) == expected
    assert {(a, b) for a, b in expected
            if abs(w[a] - w[b]) < tol * abs(z[a] - z[b])} == _brute_force_pairs(z, w, tol)


def test_constant_subject_stops_after_first_chunk(monkeypatch):
    chunks = []
    original = oracle._near_pairs

    def counted(w, tol):
        for pair in original(w, tol):
            chunks.append(len(pair[0]))
            yield pair

    monkeypatch.setattr(oracle, "_near_pairs", counted)
    grid = DiskGrid()
    rep = injectivity_test(parse("1"), grid)
    z = grid.points().ravel()
    assert rep.min_separation_ratio == 0
    assert rep.collision_pair == (z[0], z[1])
    assert chunks == [oracle._PAIR_BUDGET]  # of 33.5 M pairs in one cell


@pytest.mark.parametrize("budget", [97, 1 << 16])
def test_equal_image_pair_is_the_lowest_collision(monkeypatch, budget):
    monkeypatch.setattr(oracle, "_PAIR_BUDGET", budget)
    for seed in range(20):
        z, w = _planted_cloud(np.random.default_rng(seed), 1e-6)
        # a duplicate point at 2 and 3 (dz = 0, never a collision), both
        # with the image of 100: the lowest collision is (2, 100)
        z[2], w[2] = z[3], w[3]
        w[100] = w[3]
        equal = (w[:, None] == w[None, :]) & (z[:, None] != z[None, :])
        i, j = min(zip(*np.nonzero(np.triu(equal, k=1))))
        best, pair = oracle._near_scan(z, w, 1e-6)
        assert best == 0
        assert pair == (z[i], z[j])


def _all_pairs_minimum(f, grid):
    z = grid.points().ravel()
    w = np.asarray(f(grid.points())).ravel()
    best = np.inf
    for i0 in range(0, len(z), 256):
        dz = np.abs(z[i0:i0 + 256, None] - z[None, :])
        dw = np.abs(w[i0:i0 + 256, None] - w[None, :])
        best = min(best, np.min(dw[dz > 0] / dz[dz > 0]))
    return best


@pytest.mark.parametrize("subject", ["becker_fail", "becker_pass", "identity"])
def test_min_separation_ratio_is_the_all_pairs_minimum(subject):
    grid = DiskGrid(n_radial=32, n_angular=64)
    if subject == "identity":
        fn = parse("z")
    else:
        raw = json.loads((CONFIGS / f"{subject}.json").read_text())
        fn = reporting.subject_function(reporting.load_config(raw))
    fn = as_subject(fn)
    rep = injectivity_test(fn, grid)
    assert rep.injective_on_grid
    assert rep.min_separation_ratio == _all_pairs_minimum(fn, grid)


@pytest.mark.parametrize("src, is_all_pairs", [
    ("koebe", False), ("z/(1 - z)", True), ("z*exp(0.17*z)", True)])
def test_min_separation_ratio_over_large_images(src, is_all_pairs):
    # Koebe's |w| near 1e6 at r = 0.999 gives the near-pair filter its
    # largest rounding allowance
    grid = DiskGrid(n_radial=32, n_angular=64)
    fn = as_subject(parse(src))
    rep = injectivity_test(fn, grid)
    z2d = grid.points()
    w2d = np.asarray(fn(z2d))
    z, w = z2d.ravel(), w2d.ravel()
    near = _touching_cells(w, rep.tol)
    assert _formed_pairs(w, rep.tol) == near
    i, j = np.array(sorted(near), dtype=int).reshape(-1, 2).T
    near_min = np.min(np.abs(w[i] - w[j]) / np.abs(z[i] - z[j]), initial=np.inf)
    assert rep.min_separation_ratio == min(near_min, oracle._neighbor_ratio(w2d, z2d))
    if is_all_pairs:
        assert rep.min_separation_ratio == _all_pairs_minimum(fn, grid)
    else:
        # the lowest ratio spans Koebe's slit: images 2.5e-5 apart, which
        # is many cells, so neither a near pair nor a grid neighbour
        assert _all_pairs_minimum(fn, grid) < rep.min_separation_ratio


def test_filter_keys_a_small_share_of_a_large_image(monkeypatch):
    kept = []
    original = oracle._near_candidates

    def counted(w, cell):
        idx = original(w, cell)
        kept.append((len(idx), len(w)))
        return idx

    monkeypatch.setattr(oracle, "_near_candidates", counted)
    injectivity_test(parse("z*exp(0.17*z)"), DiskGrid(n_radial=128, n_angular=256))
    (n_kept, n), = kept
    assert n == 32_768 and n_kept <= 0.15 * n


def test_preimage_counts():
    assert preimage_count(parse("z"), 0.3, r=0.9) == 1
    assert preimage_count(parse("z^2"), 0.25, r=0.9) == 2
    assert preimage_count(parse("z"), 5.0, r=0.9) == 0


def test_koebe_probes_single_valued():
    rng = np.random.default_rng(91)
    k = parse("koebe")
    from schlicht.expr import eval_expr
    for _ in range(20):
        z0 = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        w0 = eval_expr(k, complex(z0))
        assert preimage_count(k, w0, r=0.9) == 1


def test_winding_stable_under_node_doubling():
    w0 = 0.2 + 0.1j
    a = preimage_count(parse("z^2 + 0.5*z"), w0, r=0.9, n_nodes=512)
    b = preimage_count(parse("z^2 + 0.5*z"), w0, r=0.9, n_nodes=1024)
    assert a == b


def test_on_curve_error():
    with pytest.raises(OnCurve):
        preimage_count(lambda z: np.zeros(np.shape(z), dtype=complex), 0.0)


def test_unresolved_winding_error():
    # unit-modulus values whose phase oscillates too fast for 4096 nodes
    fn = lambda z: np.exp(50j * np.sin(60 * np.angle(z)))
    with pytest.raises(UnresolvedWinding):
        preimage_count(fn, 0.3 + 0.1j, r=0.9, n_nodes=512, max_refinements=3)


def test_derivative_reports():
    rep = derivative_nonvanishing(parse("z"), GRID)
    assert rep.min_abs == pytest.approx(1.0) and not rep.flagged

    # f' = 1 + z dips toward 0 at z = -r_max
    rep = derivative_nonvanishing(parse("z + z^2/2"), GRID)
    assert rep.min_abs == pytest.approx(1 - GRID.r_max, abs=1e-6)
    assert rep.argmin == pytest.approx(-GRID.r_max, abs=1e-6)

    rep = derivative_nonvanishing(parse("z^2"), GRID)
    assert rep.flagged and rep.argmin == 0


def test_callable_subject_derivative():
    fn = lambda z: np.asarray(z) + 0.05 * np.asarray(z) ** 2
    rep = derivative_nonvanishing(fn, GRID)
    assert rep.min_abs == pytest.approx(1 - 0.1 * GRID.r_max, abs=1e-4)


def _counting(fn):
    calls = []

    def counted(z):
        calls.append(np.shape(z))
        return fn(z)
    return counted, calls


def test_preimage_count_sequence_matches_per_target_loop():
    # f(0.9) = 0.981 lies on the image of the circle r = 0.9: a radius nudge
    f = parse("z + 0.1*z^2")
    targets = [0.3 + 0.1j, 0.981, 5.0, -0.2j]
    assert preimage_count(f, targets, r=0.9) == [
        preimage_count(f, w0, r=0.9) for w0 in targets]

    ident, calls = _counting(lambda z: np.asarray(z))
    assert preimage_count(ident, [0.9, 0.3]) == [1, 1]
    assert calls == [(512,), (512,)]  # r = 0.9, then r = 0.9001 once

    # z^150 winds 150 times: 512 nodes give steps above pi/2, 1024 do not
    power, calls = _counting(lambda z: np.asarray(z) ** 150)
    targets = [0j, 2.0, 1e-8]
    assert preimage_count(power, targets) == [
        preimage_count(power, w0) for w0 in targets] == [150, 0, 150]
    assert calls[:2] == [(512,), (1024,)]
    assert len(calls) == 2 + 5  # the sequence shares two circles


def test_preimage_count_sequence_raises_like_the_loop():
    zero = lambda z: np.zeros(np.shape(z), dtype=complex)
    assert preimage_count(zero, 1.0) == 0
    with pytest.raises(OnCurve):
        preimage_count(zero, [1.0, 0.0])

    fn = lambda z: np.exp(50j * np.sin(60 * np.angle(z)))
    assert preimage_count(fn, 5.0, n_nodes=512, max_refinements=3) == 0
    with pytest.raises(UnresolvedWinding):
        preimage_count(fn, [5.0, 0.3 + 0.1j], r=0.9, n_nodes=512,
                       max_refinements=3)


def _per_target_loop(fn, targets, r=0.9, n_nodes=512, max_refinements=5):
    """Counts of ``_winding`` run target by target over shared circles."""
    circles = {}

    def circle(attempt, nodes):
        if (attempt, nodes) not in circles:
            th = 2 * np.pi * np.arange(nodes) / nodes
            circles[attempt, nodes] = np.asarray(fn((r + 1e-4 * attempt) * np.exp(1j * th)))
        return circles[attempt, nodes]

    return [oracle._winding(circle, complex(w), r, n_nodes, max_refinements)
            for w in targets]


def test_batched_first_windings_match_the_per_target_loop(monkeypatch):
    f = lambda z: np.asarray(z) + 0.1 * np.asarray(z) ** 2
    resolved = 0.3 + 0.1j
    on_curve = 0.981  # f(0.9): a radius nudge
    # 1e-11 outside the curve, so within the on-curve band, where the
    # steps stay below pi/2: only the band test sends it to a nudge
    grazing = 0.981 + 1e-11
    # inside the curve, halfway between two of 512 nodes: steps above pi/2
    doubling = 0.999 * f(0.9 * np.exp(1j * np.pi / 512))
    # 1e-6 from the curve, halfway between two of 16384 nodes
    unresolved = (1 - 1e-6) * f(0.9 * np.exp(1j * np.pi / 16384))

    def counting():
        calls = []

        def fn(z):
            calls.append((len(z), round(float(np.abs(z[0])), 6)))
            return f(z)
        return fn, calls

    looped = []
    original = oracle._winding

    def spied(circle, w0, *args):
        looped.append(w0)
        return original(circle, w0, *args)

    targets = [resolved, on_curve, doubling, grazing, resolved, 5.0]
    ref_fn, ref_calls = counting()
    expected = _per_target_loop(ref_fn, targets)
    monkeypatch.setattr(oracle, "_winding", spied)
    # 2 targets of 512 nodes per pass: the sequences span 3 and 2 passes
    monkeypatch.setattr(oracle, "_WINDING_BUDGET", 1024)
    fn, calls = counting()
    assert preimage_count(fn, targets) == expected == [1, 1, 1, 1, 1, 0]
    assert calls == ref_calls == [(512, 0.9), (512, 0.9001), (1024, 0.9)]
    assert looped == [on_curve, doubling, grazing]  # the rest in one array pass

    targets = [resolved, on_curve, doubling, unresolved]
    fn, calls = counting()
    ref_fn, ref_calls = counting()
    with pytest.raises(UnresolvedWinding):
        preimage_count(fn, targets)
    with pytest.raises(UnresolvedWinding):
        _per_target_loop(ref_fn, targets)
    assert calls == ref_calls
    assert calls[-1] == (16384, 0.9)


def test_near_pairs_stay_exact_past_two_to_the_53_cells():
    # |w| of 1e3-1e4 with tol 1e-14 puts |w| / cell near and past 2^53,
    # where a float key + 1 rounds back onto the key or onto key + 2; 100
    # planted pairs a few ulps apart
    rng = np.random.default_rng(53)
    tol = 1e-14
    w0 = rng.uniform(1e3, 1e4, 100) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    ulps = rng.integers(1, 4, 100) * np.spacing(np.abs(w0.real))
    w = np.concatenate([w0, w0 + ulps * np.exp(2j * np.pi * rng.uniform(0, 1, 100))])
    assert np.max(np.abs(w)) / 1e-12 > 2.0 ** 53  # cell = max(2 tol, 1e-12)
    formed = [(int(a), int(b)) for i, j in oracle._near_pairs(w, tol)
              for a, b in zip(np.minimum(i, j), np.maximum(i, j))]
    assert len(formed) == len(set(formed))  # each pair formed once
    assert all(a != b for a, b in formed)
    assert set(formed) == _touching_cells(w, tol)
