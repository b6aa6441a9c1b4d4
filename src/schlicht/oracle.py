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
pair.  Near pairs are formed ``_PAIR_BUDGET`` at a time, so memory does not
grow with the grid, even when every image point falls in one cell, and
none are formed after a chunk reaches the floor ratio 0 (a constant
subject stops after its first chunk).

Subjects are expressions or vectorized callables, taken through
``expr.as_subject``, which also gives the derivative check its f': symbolic
for an expression, the callable's own ``derivative`` when it has one (the
operator subject's closed form G', see ``operators``), and finite
differences only for a plain callable.  ``preimage_count`` takes one target
or a sequence of targets; a sequence shares the evaluations of each winding
circle.
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


def _near_pairs(w: np.ndarray, tol: float):
    """Yield index arrays (i, j) of every pair whose image cells touch.

    Keys floor(w / cell) are sorted once.  A point pairs with the later
    points of its own cell and all of cell (kx, ky+1), which follow it in
    the sorted order, and with cells (kx+1, ky-1 .. ky+1), which are
    contiguous there too; so each pair is formed exactly once.
    """
    cell = max(2 * tol, 1e-12)
    kx = np.floor(w.real / cell)
    ky = np.floor(w.imag / cell)
    order = np.lexsort((ky, kx))
    keys = (kx + 1j * ky)[order]  # complex values sort as lexsort does
    n = len(keys)
    hi_same = np.searchsorted(keys, keys + 1j, side="right")
    lo_next = np.searchsorted(keys, keys + (1 - 1j), side="left")
    n_same = hi_same - np.arange(1, n + 1)
    starts = np.concatenate([[0], np.cumsum(
        n_same + np.searchsorted(keys, keys + (1 + 1j), side="right") - lo_next)])
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
        steps.append((w2d - np.roll(w2d, 1, axis=1), z2d - np.roll(z2d, 1, axis=1)))
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

    if np.ndim(w0) == 0:
        return _winding(circle, complex(w0), r, n_nodes, max_refinements)
    return [_winding(circle, complex(w), r, n_nodes, max_refinements)
            for w in w0]


def _winding(circle, w0: complex, r: float, n_nodes: int,
             max_refinements: int) -> int:
    for attempt in range(6):
        rr = r + 1e-4 * attempt
        nodes = n_nodes
        for _ in range(max_refinements + 1):
            vals = circle(attempt, nodes) - w0
            if np.min(np.abs(vals)) <= 1e-9 * (1 + abs(w0)):
                break  # on the curve; perturb r
            closed = np.concatenate([vals, vals[:1]])
            steps = np.angle(closed[1:] / closed[:-1])
            if np.max(np.abs(steps)) < np.pi / 2:
                total = float(np.sum(steps)) / (2 * np.pi)
                winding = int(round(total))
                if abs(total - winding) > 0.1:
                    raise UnresolvedWinding(
                        f"non-integral winding {total:.3f} at r={rr}")
                return winding
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
