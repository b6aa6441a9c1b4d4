"""Criterion-free univalence evidence: injectivity scans and winding counts.

Nothing here ever claims univalence; a pass means "no counterexample found
at this resolution" and every report carries the resolution used.  The
collision tolerance is relative, scaled by |z1 - z2|, so boundary
compression of bounded maps does not trigger false alarms.

Subjects are expressions or vectorized callables.  The derivative check
differentiates an expression symbolically, uses a callable's own
``derivative`` attribute when it has one (the operator subject's closed
form G', see ``operators``), and falls back to finite differences only
for a plain callable.  ``preimage_count`` takes one target or a sequence
of targets; a sequence shares the evaluations of each winding circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import DiskGrid
from .errors import OnCurve, UnresolvedWinding
from .expr import Expr, differentiate, eval_expr

__all__ = [
    "InjectivityReport", "injectivity_test", "preimage_count",
    "derivative_nonvanishing", "DerivativeReport", "as_callable",
]

_BUCKETED_ABOVE = 10_000


def as_callable(f):
    """Accept an expression tree or a vectorized callable."""
    if isinstance(f, Expr):
        return lambda zz: eval_expr(f, zz)
    return f


@dataclass(frozen=True)
class InjectivityReport:
    injective_on_grid: bool
    collision_pair: tuple[complex, complex] | None
    min_separation_ratio: float
    n_points: int
    tol: float


def _pair_scan(z: np.ndarray, w: np.ndarray, tol: float):
    """All-pairs minimum of |dw|/|dz| in blocks; exact for modest grids."""
    n = len(z)
    best = np.inf
    pair = None
    block = 512
    for i0 in range(0, n, block):
        zi = z[i0:i0 + block]
        wi = w[i0:i0 + block]
        dz = np.abs(zi[:, None] - z[None, :])
        dw = np.abs(wi[:, None] - w[None, :])
        mask = dz > 0
        ratios = np.where(mask, dw / np.where(mask, dz, 1.0), np.inf)
        j = int(np.argmin(ratios))
        r, c = divmod(j, n)
        if ratios[r, c] < best:
            best = float(ratios[r, c])
            pair = (complex(zi[r]), complex(z[c]))
    return best, pair


def _bucketed_scan(z: np.ndarray, w: np.ndarray, tol: float):
    """Bucketed near-collision scan plus grid-neighbour separation ratios.

    Image-plane buckets of width 2*tol catch every pair with
    |dw| < tol*|dz| (since |dz| <= 2 on the disk); the reported minimum
    ratio additionally scans domain-adjacent pairs, so it is a sampled
    estimate rather than the exact all-pairs minimum.
    """
    cell = max(2 * tol, 1e-12)
    keys = np.stack([np.floor(w.real / cell).astype(np.int64),
                     np.floor(w.imag / cell).astype(np.int64)], axis=1)
    buckets: dict[tuple[int, int], list[int]] = {}
    for idx, (kx, ky) in enumerate(map(tuple, keys)):
        buckets.setdefault((kx, ky), []).append(idx)
    best = np.inf
    pair = None
    for (kx, ky), members in buckets.items():
        cluster = list(members)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == dy == 0:
                    continue
                cluster.extend(buckets.get((kx + dx, ky + dy), ()))
        if len(cluster) < 2:
            continue
        idx = np.array(sorted(set(cluster)))
        zi, wi = z[idx], w[idx]
        dz = np.abs(zi[:, None] - zi[None, :])
        dw = np.abs(wi[:, None] - wi[None, :])
        mask = dz > 0
        ratios = np.where(mask, dw / np.where(mask, dz, 1.0), np.inf)
        j = int(np.argmin(ratios))
        r, c = divmod(j, len(idx))
        if ratios[r, c] < best:
            best = float(ratios[r, c])
            pair = (complex(zi[r]), complex(zi[c]))
    return best, pair


def _neighbor_ratio(w2d: np.ndarray, z2d: np.ndarray):
    best = np.inf
    for dwa, dza in (
        (w2d[1:, :] - w2d[:-1, :], z2d[1:, :] - z2d[:-1, :]),
        (w2d[:, 1:] - w2d[:, :-1], z2d[:, 1:] - z2d[:, :-1]),
    ):
        ratios = np.abs(dwa) / np.abs(dza)
        j = int(np.argmin(ratios))
        if ratios.ravel()[j] < best:
            best = float(ratios.ravel()[j])
    return best


def injectivity_test(f, grid: DiskGrid, tol: float = 1e-6) -> InjectivityReport:
    """Scan the grid image for near-collisions |f(z1)-f(z2)| < tol |z1-z2|."""
    fn = as_callable(f)
    z2d = grid.points()
    w2d = np.asarray(fn(z2d))
    z = z2d.ravel()
    w = w2d.ravel()
    n = len(z)
    if n <= _BUCKETED_ABOVE:
        best, pair = _pair_scan(z, w, tol)
    else:
        best, pair = _bucketed_scan(z, w, tol)
        best = min(best, _neighbor_ratio(w2d, z2d))
    collided = best < tol
    return InjectivityReport(
        injective_on_grid=not collided,
        collision_pair=pair if collided else None,
        min_separation_ratio=float(best),
        n_points=n, tol=tol,
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
    fn = as_callable(f)
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

    The derivative is symbolic for an expression and the subject's own
    ``derivative`` when it has one (the operator's closed form, asked at
    the grid array itself so that a subject which keeps its last pass
    reuses the injectivity scan).  Only a plain callable falls back to
    Richardson central differences.
    """
    pts = grid.points()
    z = np.concatenate([[0j], pts.ravel()])
    if isinstance(f, Expr):
        d = np.asarray(eval_expr(differentiate(f), z))
    elif hasattr(f, "derivative"):
        on_grid = np.ravel(f.derivative(pts))
        d = np.concatenate([np.ravel(f.derivative(z[:1])), on_grid])
    else:
        fn = as_callable(f)
        h = 1e-5 * (1 - np.abs(z))
        d1 = (fn(z + h) - fn(z - h)) / (2 * h)
        d2 = (fn(z + h / 2) - fn(z - h / 2)) / h
        d = (4 * d2 - d1) / 3
    mags = np.abs(d)
    i = int(np.argmin(mags))
    return DerivativeReport(float(mags[i]), complex(z[i]),
                            bool(mags[i] < flag_below))
