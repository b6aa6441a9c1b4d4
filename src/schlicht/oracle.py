"""Criterion-free univalence evidence: injectivity scans and winding counts.

Nothing here ever claims univalence; a pass means "no counterexample found
at this resolution" and every report carries the resolution used.  The
collision tolerance is relative, scaled by |z1 - z2|, so boundary
compression of bounded maps does not trigger false alarms.

The injectivity scan's ``min_separation_ratio`` is the minimum of
|f(z1) - f(z2)| / |z1 - z2| over grid-adjacent pairs (radial, and angular
with the seam between the last angle and the first) and over all near
pairs: points whose image cells floor(w / cell), cell = max(2*tol, 1e-12),
differ by at most one on each axis.  The verdict is exact: on the disk
|z1 - z2| < 2, so a pair with |dw| < tol*|dz| has |dw| < cell and is a near
pair.  Only points with another point within 4 cells, plus a rounding
allowance of 8 eps max|w|, along each of two fixed directions can be in a
near pair; two 1-D sorts drop the others before any cell key is built,
and one sort of the survivors' keys pairs them.  Near pairs are formed
``_PAIR_BUDGET`` at a time, so memory does not grow with the grid, even
when every image point falls in one cell, and none are formed after a
chunk reaches the floor ratio 0 (a constant subject stops after its first
chunk).

Subjects are expressions or vectorized callables, taken through
``expr.as_subject``, which also gives the derivative check its f': a jet
for an expression, the callable's own ``derivative`` when it has one (the
operator subject's closed form G', see ``operators``, or f' from the jet
pass that a becker run's subject keeps, see ``reporting``), and finite
differences only for a plain callable.  ``preimage_count`` takes one target
or a sequence of targets; a sequence shares the evaluations of each winding
circle, and every target's first attempt on the first circle is taken
in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import DiskGrid
from .errors import NonFiniteValue, OnCurve, UnresolvedWinding
from .expr import as_subject

__all__ = [
    "InjectivityReport", "injectivity_test", "preimage_count",
    "derivative_nonvanishing", "DerivativeReport",
]

_PAIR_BUDGET = 1 << 16  # candidate pairs formed at once
_WINDING_BUDGET = 1 << 16  # target-node values of one winding pass
# unit directions along which _near_candidates drops points far from all others
_FILTER_DIRECTIONS = (np.exp(-1j), np.exp(-2.2j))


@dataclass(frozen=True)
class InjectivityReport:
    """``min_separation_ratio``: min |dw|/|dz| over grid-adjacent and near
    pairs (module docstring).  Every pair below ``tol`` is a near pair, so
    the verdict is exact; a collision reports the pair of lowest grid
    indices that attains the minimum."""

    injective_on_grid: bool
    collision_pair: tuple[complex, complex] | None
    min_separation_ratio: float
    n_points: int
    tol: float


def _near_candidates(w: np.ndarray, cell: float) -> np.ndarray:
    """Indices, in increasing order, of the points that may be in a near pair.

    A near pair's keys differ by at most one on each axis.  A computed key
    is floor(fl(x / cell)), and fl(x / cell) lies within u |x| / cell of
    x / cell, u = eps / 2, so the images of a near pair differ by less than
    2 cell + eps M on each axis, M = max |w|.  Their projections Re(w d) on
    a unit direction d then differ by less than sqrt(2) (2 cell + eps M).
    Each computed projection is within eps M of its exact value, and the
    computed difference of two is rounded once more, so the computed gap of
    a near pair is at most (2 sqrt(2) cell + (2 + sqrt(2)) eps M)(1 + u),
    below reach = 4 cell + 8 eps M.

    For each of ``_FILTER_DIRECTIONS``, one sort of the projections of the
    points still kept keeps those with a sorted neighbour within reach.
    Both points of a near pair have one, since whatever lies between them
    is nearer (the fixed-radius sort-and-sweep of Bentley, Stanat &
    Williams, Inf. Process. Lett. 6, 1977).  No pair is formed inside that
    window, so an image shaped like a thin strip costs two sorts, not a
    quadratic sweep.
    """
    keep, wk = np.arange(len(w)), w
    reach = 4 * cell + 8 * np.finfo(float).eps * float(np.abs(w).max(initial=0))
    for d in _FILTER_DIRECTIONS:
        proj = wk.real * d.real - wk.imag * d.imag
        order = np.argsort(proj)
        close = np.diff(proj[order]) <= reach
        near = np.zeros(len(wk), dtype=bool)  # in sorted order
        near[1:] = close
        near[:-1] |= close
        sel = np.sort(order[near])
        keep, wk = keep[sel], wk[sel]
    return keep


def _near_pairs(w: np.ndarray, tol: float):
    """Yield index arrays (i, j) of every pair whose image cells touch.

    Only the points that :func:`_near_candidates` keeps, those with another
    point within 4 cells plus a rounding allowance along two directions,
    get keys floor(w / cell); those are sorted once.  A point pairs with the
    later points of its own cell and all of cell (kx, ky+1), which follow it
    in the sorted order, and with cells (kx+1, ky-1 .. ky+1), which are
    contiguous there too; so each pair is formed exactly once.  A key
    component past 2^53 has no float neighbour one away (k + 1 rounds to k
    or to k + 2), so no cell one away from it can hold a point and its
    neighbour cells on that side are left out: the pairs formed are those
    whose float keys differ by at most one on each axis.
    """
    cell = max(2 * tol, 1e-12)
    idx = _near_candidates(w, cell)
    kx = np.floor(w.real[idx] / cell)
    ky = np.floor(w.imag[idx] / cell)
    order = np.lexsort((ky, kx))
    kx, ky = kx[order], ky[order]
    keys = kx + 1j * ky  # complex values sort as lexsort does
    order = idx[order]
    n = len(keys)
    # 1 where the neighbouring key on that side exists as a float, else 0
    up, down = (ky + 1) - ky == 1, ky - (ky - 1) == 1
    hi_same = np.searchsorted(keys, keys + 1j * up, side="right")
    lo_next = np.searchsorted(keys, keys + (1 - 1j * down), side="left")
    hi_next = np.searchsorted(keys, keys + (1 + 1j * up), side="right")
    n_same = hi_same - np.arange(1, n + 1)
    n_next = np.where((kx + 1) - kx == 1, hi_next - lo_next, 0)
    starts = np.concatenate([[0], np.cumsum(n_same + n_next)])
    for t0 in range(0, int(starts[-1]), _PAIR_BUDGET):
        t = np.arange(t0, min(t0 + _PAIR_BUDGET, int(starts[-1])))
        p = np.searchsorted(starts, t, side="right") - 1
        off = t - starts[p]
        q = np.where(off < n_same[p], p + 1 + off, lo_next[p] + off - n_same[p])
        yield order[p], order[q]


def _equal_image_pair(z: np.ndarray, w: np.ndarray) -> int | None:
    """Key i*n + j of the lowest pair i < j with w[i] == w[j] and z[i] != z[j].

    One sort groups equal images, each in index order; a group's lowest
    pair is its first index with the first later index at another point.
    """
    n = len(z)
    order = np.lexsort((np.arange(n), w.imag, w.real))
    ws = w[order]
    start = np.concatenate([[True], ws[1:] != ws[:-1]])
    first = order[np.flatnonzero(start)[np.cumsum(start) - 1]]
    partner = z[order] != z[first]
    return int(np.min(first[partner] * n + order[partner])) if np.any(partner) else None


def _near_scan(z: np.ndarray, w: np.ndarray, tol: float):
    """Minimum |dw|/|dz| over the near pairs, and the lowest pair attaining it.

    Once a chunk reaches the floor ratio 0, no further pair is formed: the
    pairs at ratio 0 are those with equal images at distinct points, and
    :func:`_equal_image_pair` finds the lowest of them directly.
    """
    n = len(z)
    best, key = np.inf, None
    for i, j in _near_pairs(w, tol):
        dz = np.abs(z[i] - z[j])
        ratios = np.divide(np.abs(w[i] - w[j]), dz, out=np.full(len(dz), np.inf),
                           where=dz > 0)
        r = ratios.min()
        # a ratio that underflows to 0 has no equal-image pair behind it
        if r == 0 and (k := _equal_image_pair(z, w)) is not None:
            best, key = 0.0, k
            break
        if r > best or r == np.inf:
            continue
        at = ratios == r
        k = int(np.min(np.minimum(i, j)[at] * n + np.maximum(i, j)[at]))
        if r < best or k < key:
            best, key = float(r), k
    pair = None if key is None else (complex(z[key // n]), complex(z[key % n]))
    return best, pair


def _neighbor_ratio(w2d: np.ndarray, z2d: np.ndarray) -> float:
    """Minimum |dw|/|dz| over radial and angular neighbours, seam included."""
    steps = [(w2d[1:, :] - w2d[:-1, :], z2d[1:, :] - z2d[:-1, :])]
    if z2d.shape[1] > 1:
        steps.append((w2d[:, 1:] - w2d[:, :-1], z2d[:, 1:] - z2d[:, :-1]))
        steps.append((w2d[:, :1] - w2d[:, -1:], z2d[:, :1] - z2d[:, -1:]))
    return min(float((np.abs(dw) / np.abs(dz)).min(initial=np.inf))
               for dw, dz in steps)


def injectivity_test(f, grid: DiskGrid, tol: float = 1e-6) -> InjectivityReport:
    """Scan the grid image for near-collisions |f(z1)-f(z2)| < tol |z1-z2|.

    Raises NonFiniteValue at the first grid point with a non-finite value.
    """
    fn = as_subject(f)
    z2d = grid.points()
    w2d = np.asarray(fn(z2d))
    z, w = z2d.ravel(), w2d.ravel()
    bad = ~np.isfinite(w)
    if np.any(bad):
        raise NonFiniteValue(complex(z[int(np.argmax(bad))]))
    best, pair = _near_scan(z, w, tol)
    best = min(best, _neighbor_ratio(w2d, z2d))
    collided = best < tol
    return InjectivityReport(
        injective_on_grid=not collided,
        collision_pair=pair if collided else None,
        min_separation_ratio=float(best),
        n_points=len(z), tol=tol,
    )


def preimage_count(f, w0, r: float = 0.9, n_nodes: int = 512,
                   max_refinements: int = 5):
    """Number of preimages of w0 in |z| < r by the argument principle.

    The winding number of f(r e^{i theta}) - w0 is accumulated from
    principal phase steps; node counts double until every step is below
    pi/2.  The circle radius is nudged by 1e-4 (up to five times) when the
    curve passes through w0.

    ``w0`` may also be a sequence of targets; the result is then the list
    of counts, and each circle (radius, node count) is evaluated at most
    once for all of them.  Each target takes the same nudges and doublings
    as on its own, and the first target that fails raises.
    """
    fn = as_subject(f)
    circles: dict[tuple[int, int], np.ndarray] = {}

    def circle(attempt: int, nodes: int) -> np.ndarray:
        if (attempt, nodes) not in circles:
            rr = r + 1e-4 * attempt
            th = 2 * np.pi * np.arange(nodes) / nodes
            circles[attempt, nodes] = np.asarray(fn(rr * np.exp(1j * th)))
        return circles[attempt, nodes]

    targets = np.atleast_1d(np.asarray(w0, dtype=complex)).ravel()
    firsts: list[int | None] = []
    step = max(1, _WINDING_BUDGET // n_nodes)
    for t0 in range(0, len(targets), step):
        totals, states = _attempt(circle(0, n_nodes), targets[t0:t0 + step])
        firsts.extend(int(round(t)) if s == _RESOLVED else None
                      for t, s in zip(totals, states))
    counts = [_winding(circle, complex(w), r, n_nodes, max_refinements)
              if k is None else k for w, k in zip(targets, firsts)]
    return counts[0] if np.ndim(w0) == 0 else counts


_RESOLVED, _ON_CURVE, _COARSE, _NON_INTEGRAL = range(4)


def _attempt(vals: np.ndarray, targets: np.ndarray):
    """Winding of one circle's values about each target, in one array pass.

    Returns (total, state) per target: total is the sum of the principal
    phase steps over 2 pi, and state says whether that total is the count
    (``_RESOLVED``) or why not: the curve passes within 1e-9 (1 + |w0|) of
    the target (``_ON_CURVE``), some step is not below pi/2 (``_COARSE``),
    or the total is not within 0.1 of an integer (``_NON_INTEGRAL``), in
    that order of precedence.  Each row sums as a 1-D array, so a target
    gets the same total alone or among others.
    """
    d = vals[None, :] - targets[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # rows on the curve
        steps = np.angle(np.concatenate([d[:, 1:], d[:, :1]], axis=1) / d)
    total = np.sum(steps, axis=1) / (2 * np.pi)
    state = np.full(len(targets), _RESOLVED)
    # negated comparisons, so that a NaN step or total is never resolved
    state[~(np.abs(total - np.round(total)) <= 0.1)] = _NON_INTEGRAL
    state[~(np.max(np.abs(steps), axis=1) < np.pi / 2)] = _COARSE
    state[np.min(np.abs(d), axis=1) <= 1e-9 * (1 + np.abs(targets))] = _ON_CURVE
    return total, state


def _winding(circle, w0: complex, r: float, n_nodes: int,
             max_refinements: int) -> int:
    for attempt in range(6):
        rr = r + 1e-4 * attempt
        nodes = n_nodes
        for _ in range(max_refinements + 1):
            (total,), (state,) = _attempt(circle(attempt, nodes),
                                          np.array([w0]))
            if state == _ON_CURVE:
                break  # perturb r
            if state == _RESOLVED:
                return int(round(total))
            if state == _NON_INTEGRAL:
                raise UnresolvedWinding(
                    f"non-integral winding {total:.3f} at r={rr}")
            nodes *= 2
        else:
            raise UnresolvedWinding(
                f"phase steps stayed >= pi/2 at {nodes//2} nodes")
    raise OnCurve(f"f passes through w0={w0!r} on every perturbed circle")


@dataclass(frozen=True)
class DerivativeReport:
    min_abs: float
    argmin: complex
    flagged: bool


def derivative_nonvanishing(f, grid: DiskGrid,
                            flag_below: float = 1e-10) -> DerivativeReport:
    """Minimum of |f'| over the grid and the origin; must stay positive.

    f' is the ``derivative`` of ``as_subject(f)``, asked at the grid array
    itself before the origin, so that a subject which keeps its last pass
    (the operator) reuses the injectivity scan.
    """
    derivative = as_subject(f).derivative
    pts = grid.points()
    z = np.concatenate([[0j], pts.ravel()])
    on_grid = np.ravel(derivative(pts))
    d = np.concatenate([np.ravel(derivative(z[:1])), on_grid])
    mags = np.abs(d)
    i = int(np.argmin(mags))
    return DerivativeReport(float(mags[i]), complex(z[i]),
                            bool(mags[i] < flag_below))
