"""Becker extensions of Loewner chains and their Beltrami coefficients.

The extension of a chain L is F(z) = L(z, 0) inside the unit circle and
F(z) = L(z/|z|, log|z|) outside.  With the chain's driving term
p = z L'(z,t) / dL/dt taken at (z/|z|, log|z|), its Beltrami coefficient
mu = F_zbar/F_z is Becker's closed form

    mu(z) = (z/conj z) (1 - p)/(1 + p),

which :func:`beltrami_coefficient` evaluates whenever the chain carries
``driving_term``; for the main chain this is mu = -(z/conj z) w.  Plain
callables fall back to Wirtinger finite differences (:func:`beltrami_field`):
F_x and F_y by central differences with spacing step*|z|, then
F_z = (F_x - i F_y)/2 and F_zbar = (F_x + i F_y)/2.  The tests use that
path as the reference.

The dilatation report is a grid maximum over a geometric annulus plus the
inner-radius trend; |mu| peaks at |z| -> 1+ for every chain built here, so
the default grid resolves that boundary layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateJacobian, ParameterError
from .expr import _raise_at_first, _scalar_out

__all__ = [
    "ExtensionField", "BeltramiSample", "becker_extension",
    "beltrami_coefficient", "beltrami_estimate", "beltrami_field",
    "max_dilatation", "seam_mismatch",
]


class ExtensionField:
    """Callable plane extension of a chain; vectorized over points.

    Each call is one chain call over all its points: (z, 0) for |z| < 1 and
    (z/|z|, log|z|) for the others.
    """

    def __init__(self, chain):
        self.chain = chain

    def __call__(self, z):
        arr = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        r = np.abs(arr)
        outside = r >= 1
        zc, t = arr.copy(), np.zeros(arr.shape)
        zc[outside], t[outside] = arr[outside] / r[outside], np.log(r[outside])
        out = np.asarray(self.chain(zc, t), dtype=complex)
        return _scalar_out(out.reshape(np.shape(z)), z)


def becker_extension(chain, z):
    """Value of the plane extension of ``chain`` at ``z``."""
    return ExtensionField(chain)(z)


@dataclass(frozen=True)
class BeltramiSample:
    z: complex
    F: complex
    F_z: complex
    F_zbar: complex
    mu: complex
    abs_mu: float


def beltrami_field(F, z, step: float = 1e-5):
    """Wirtinger data over an exterior point batch.

    Returns (values, F_z, F_zbar, mu, abs_mu) as arrays.  Points must stay
    clear of the seam: |z| > 1 + 2*step*|z|.
    """
    arr = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    r = np.abs(arr)
    if np.any(r * (1 - 2 * step) <= 1):
        raise ParameterError("Beltrami probes must satisfy |z| > 1 + 2 step |z|")
    h = step * r

    def wirtinger(hh):
        # one batched call for all four stencil arms
        probes = np.concatenate([arr + hh, arr - hh, arr + 1j * hh, arr - 1j * hh])
        fp = np.asarray(F(probes)).reshape(4, -1)
        fx = (fp[0] - fp[1]) / (2 * hh)
        fy = (fp[2] - fp[3]) / (2 * hh)
        return (fx - 1j * fy) / 2, (fx + 1j * fy) / 2

    fz, fzb = wirtinger(h)
    vals = F(arr)
    _raise_at_first(np.abs(fz) <= 1e-12, arr, DegenerateJacobian)
    mu = fzb / fz
    return vals, fz, fzb, mu, np.abs(mu)


def beltrami_estimate(F, z) -> BeltramiSample:
    """Single-point convenience wrapper around :func:`beltrami_field`."""
    vals, fz, fzb, mu, am = beltrami_field(F, complex(z))
    return BeltramiSample(complex(z), complex(vals[0]), complex(fz[0]),
                          complex(fzb[0]), complex(mu[0]), float(am[0]))


def beltrami_coefficient(F, z) -> np.ndarray:
    """Complex mu at exterior points, as a flat array.

    When ``F`` is an :class:`ExtensionField` whose chain carries
    ``driving_term``, mu is the closed form (z/conj z)(1-p)/(1+p) for any
    |z| >= 1, with no chain value and no quadrature.  Any other callable
    goes through :func:`beltrami_field` with its default spacing.
    """
    arr = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    driving_term = getattr(getattr(F, "chain", None), "driving_term", None)
    if driving_term is None:
        return beltrami_field(F, arr)[3]
    r = np.abs(arr)
    if np.any(r < 1):
        raise ParameterError("the closed-form Beltrami coefficient needs |z| >= 1")
    p = np.asarray(driving_term(arr / r, np.log(r)), dtype=complex)
    _raise_at_first((1 + p == 0) | ~np.isfinite(p), arr, DegenerateJacobian)
    return arr / np.conj(arr) * (1 - p) / (1 + p)


def annulus_grid(r_inner: float = 1 + 1e-3, r_outer: float = 10.0,
                 n_radial: int = 64, n_angular: int = 256) -> np.ndarray:
    """Geometric radii in (r_inner, r_outer], uniform angles; radius-major."""
    if not (1 < r_inner <= r_outer):
        raise ParameterError("annulus radii must satisfy 1 < r_inner <= r_outer")
    radii = np.geomspace(r_inner, r_outer, n_radial)
    angles = 2 * np.pi * np.arange(n_angular) / n_angular
    return radii[:, None] * np.exp(1j * angles)[None, :]


def max_dilatation(F, r_inner: float = 1 + 1e-3, r_outer: float = 10.0,
                   n_radial: int = 64, n_angular: int = 256) -> tuple[float, complex]:
    """Grid maximum of |mu| over the standard annulus, with its witness.

    This is a sampled maximum, not an essential supremum; ties break to the
    first point in radius-major enumeration.
    """
    grid = annulus_grid(r_inner, r_outer, n_radial, n_angular)
    flat = grid.ravel()
    am = np.abs(beltrami_coefficient(F, flat))
    i = int(np.argmax(am))
    return float(am[i]), complex(flat[i])


def seam_mismatch(F: ExtensionField, n_angles: int = 360,
                  inner_radius: float = 1 - 1e-7) -> float:
    """Largest gap between the inside limit and the boundary formula.

    F is evaluated once, on the circle of ``inner_radius`` and the unit
    circle together, at ``n_angles`` equally spaced angles each.
    """
    th = 2 * np.pi * np.arange(n_angles) / n_angles
    boundary = np.exp(1j * th)
    inner, outer = np.split(F(np.concatenate([inner_radius * boundary, boundary])), 2)
    return float(np.max(np.abs(inner - outer)))
