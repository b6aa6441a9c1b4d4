"""Shared generators for randomized property tests (all seeded, no hypothesis),
and ``ray_counter`` and ``chunk_counter``, the rays and panels that radial
quadrature integrates."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from schlicht import operators
from schlicht.criteria import CriterionParams
from schlicht.expr import (
    Expr,
    add,
    const,
    div,
    exp_,
    log_,
    mul,
    neg,
    pow_,
    sub,
    var,
)


def random_const(rng) -> Expr:
    re = round(float(rng.uniform(-2, 2)), 3)
    im = round(float(rng.uniform(-2, 2)), 3) if rng.random() < 0.4 else 0.0
    return const(complex(re, im))


def random_expr(rng, depth: int = 0, max_depth: int = 5) -> Expr:
    """Random tree over the full node vocabulary; may be singular somewhere."""
    if depth >= max_depth or rng.random() < 0.25 + 0.1 * depth:
        return var() if rng.random() < 0.6 else random_const(rng)
    kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow", "exp", "log"])
    a = random_expr(rng, depth + 1, max_depth)
    if kind == "neg":
        return neg(a)
    if kind == "exp":
        return exp_(mul(const(0.3), a))
    if kind == "log":
        # keep the argument away from the branch cut on the test domain
        return log_(add(const(3.0), mul(const(0.25), a)))
    if kind == "pow":
        expo = const(rng.integers(2, 4)) if rng.random() < 0.7 else random_const(rng)
        return pow_(add(const(2.5), mul(const(0.25), a)), expo)
    b = random_expr(rng, depth + 1, max_depth)
    if kind == "add":
        return add(a, b)
    if kind == "sub":
        return sub(a, b)
    if kind == "mul":
        return mul(a, b)
    return div(a, add(const(3.0), mul(const(0.25), b)))


def random_point(rng, r: float = 0.8) -> complex:
    return complex(r * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))


def admissible_params(rng, with_h0: bool = True):
    """Draw (params, h0) satisfying the two scalar side conditions.

    alpha sits strictly inside the disk |alpha - m/2a| < m/2a, and the
    constant h0 is solved from a target value of c/h + m/(2 alpha) chosen
    strictly inside its bound.
    """
    while True:
        a = float(rng.uniform(0.1, 3.0))
        b = float(rng.uniform(-2.0, 2.0))
        m = float(rng.uniform(0.5, 6.0))
        radius = m / (2 * a)
        alpha = radius + radius * rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        xi = (m / (2 * abs(alpha))) * rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        target = xi - m / (2 * alpha)  # the value of c/h
        if target == 0:
            continue
        c = complex(-rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        h0 = c / target
        if h0.imag == 0 and h0.real <= 0:
            continue
        params = CriterionParams(alpha=complex(alpha), c=c, s=complex(a, b), m=m)
        return (params, complex(h0)) if with_h0 else params


@pytest.fixture
def _quadrature_log(monkeypatch):
    """Every quadrature call run while active, as its ray count, and every
    group of rays it integrated on one panel layout, as (rays, panels,
    smallest radius |u| where a segment of the group starts, smallest
    endpoint radius |z| of the group).

    Every ray of radial quadrature, a segment beyond the radius of a
    bracket's series, passes through ``operators.iter_radial_brackets``,
    which ``bracket_final`` looks up as a module global; subjects and
    chains integrate only through ``bracket_final``.  Admitting a series
    integrates nothing.
    """
    log = SimpleNamespace(rays=[], chunks=[])
    original = operators.iter_radial_brackets

    def counted(g, alpha, z, *args, start, **kwargs):
        zarr = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        inner = np.abs(zarr) * np.broadcast_to(np.asarray(start[0], dtype=float), zarr.shape)
        rays = 0
        for sel, br in original(g, alpha, z, *args, start=start, **kwargs):
            rays += len(sel)
            log.chunks.append((len(sel), len(br.sigmas), float(np.min(inner[sel])),
                               float(np.min(np.abs(zarr[sel])))))
            yield sel, br
        log.rays.append(rays)

    monkeypatch.setattr(operators, "iter_radial_brackets", counted)
    return log


@pytest.fixture
def ray_counter(_quadrature_log):
    """List of the ray counts of every quadrature call run while active."""
    return _quadrature_log.rays


@pytest.fixture
def chunk_counter(_quadrature_log):
    """List of (rays, panels, smallest start radius, smallest endpoint radius)
    of every group of rays that quadrature integrated on one panel layout
    while active."""
    return _quadrature_log.chunks
