"""Checkable predicates for every univalence and extension criterion.

Each check evaluates its inequality field on a polar grid, refines around
the running maximum, and reports the worst margin together with a witness
point.  A passing report means "certified on this grid", never "proved":
the tool is a falsifier and strong-evidence engine, not a proof assistant.

Strict inequalities require a margin above 1e-12; non-strict ones allow a
margin down to -1e-12.  All extremal behaviour of these fields lives near
the boundary, so reports also carry the LHS maxima at the three largest
base radii as a boundary trend.

The fields take f', f'', g' and h' from one jet walk each of f, g and h
(``expr.jet``), in which anything constant in z stays a Python scalar.
A field that comes out as a scalar is constant, as eq-h and qc-h are for
a constant h: its condition is reported without a grid pass or
refinement, with the first grid point as the witness and the constant as
every trend value, which is what refining the constant array would give.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DivisionByZero, ParameterError, UnknownPreset
from .expr import (
    AnalyticTriple,
    Expr,
    Var,
    _raise_at_first,
    add,
    as_subject,
    const,
    div,
    eval_expr,
    jet,
    log_derivative_values,
)
from .operators import GzLogFit, continued_gz_log

__all__ = [
    "CriterionParams", "DiskGrid", "ConditionReport", "CriterionReport",
    "in_uk", "check_alpha_condition", "check_h_condition", "check_main_t2",
    "check_simplified_t21", "check_becker", "check_t3", "check_qc_t5",
    "check_t6", "check_log_derivative_condition", "disk_maximize",
    "apply_preset", "PresetApplication", "Preset", "PRESETS", "PRESET_NAMES",
    "bracket_field",
]

STRICT_SLACK = 1e-12


@dataclass(frozen=True)
class CriterionParams:
    """Parameter bundle (alpha, c, s = a+ib, m, k) shared by the criteria."""

    alpha: complex
    c: complex
    s: complex
    m: float
    k: float = 0.0

    @property
    def a(self) -> float:
        return self.s.real

    @property
    def b(self) -> float:
        return self.s.imag

    def validate(self) -> "CriterionParams":
        for name in ("alpha", "c", "s", "m", "k"):  # Python's json reads NaN and Infinity
            if not cmath.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.a > 0:
            raise ParameterError(f"Re(s)={self.a} must be positive")
        if not self.m > 0:
            raise ParameterError(f"m={self.m} must be positive")
        if not (0 <= self.k < 1):
            raise ParameterError(f"k={self.k} must lie in [0, 1)")
        if self.c.imag == 0 and self.c.real >= 0:
            raise ParameterError(f"c={self.c!r} must avoid [0, inf)")
        if abs(self.alpha) < 1e-9:
            raise ParameterError("alpha too close to 0")
        return self


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling grid; points enumerate radius-major, then angle."""

    n_radial: int = 64
    n_angular: int = 128
    r_max: float = 0.999
    refinement_levels: int = 3

    def __post_init__(self):
        """Reject a value of the wrong type or range, naming its config key.

        A bool is no number here, though Python counts it as an int.
        """
        for name, least in (("n_radial", 1), ("n_angular", 1), ("refinement_levels", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
                raise ParameterError(f"grid.{name} must be an integer >= {least}, got {v!r}")
        r = self.r_max
        if isinstance(r, bool) or not isinstance(r, numbers.Real) or not 0 < r <= 1 - 1e-6:
            raise ParameterError(f"grid.r_max must lie in (0, 1 - 1e-6], got {r!r}")

    def radii(self) -> np.ndarray:
        return self.r_max * np.arange(1, self.n_radial + 1) / self.n_radial

    def angles(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.n_angular) / self.n_angular

    def points(self) -> np.ndarray:
        return self.radii()[:, None] * np.exp(1j * self.angles())[None, :]


@dataclass(frozen=True)
class ConditionReport:
    name: str
    satisfied: bool
    strict: bool
    margin: float
    rhs: float
    witness: complex | None = None


@dataclass(frozen=True)
class CriterionReport:
    criterion_id: str
    satisfied: bool
    margin: float
    witness: complex | None
    conditions: tuple[ConditionReport, ...]
    grid_used: DiskGrid
    boundary_trend: tuple[tuple[float, float], ...] = field(default=())


def _margin_ok(margin: float, strict: bool) -> bool:
    return margin > STRICT_SLACK if strict else margin >= -STRICT_SLACK


def in_uk(w, k: float) -> tuple[bool, float]:
    """Membership of w in U(k) = {|(w-1)/(w+1)| <= k} plus that distance."""
    w = complex(w)
    if w == -1:
        return False, math.inf
    dist = abs((w - 1) / (w + 1))
    return dist <= k, dist


def _uk_distance_field(w: np.ndarray) -> np.ndarray:
    out = np.full(w.shape, np.inf)
    okd = w != -1
    out[okd] = np.abs((w[okd] - 1) / (w[okd] + 1))
    return out


def disk_maximize(objective, grid: DiskGrid) -> tuple[float, complex]:
    """Maximize a scalar field over the disk grid with local refinement.

    ``objective(radii, angles)`` must return the field on the outer product
    of its arguments.  The cell around the running argmax is re-sampled on
    an 8 x 8 sub-grid ``refinement_levels`` times, never extending past
    r_max.  Values within ``_TIE_ULPS`` ulp of the maximum tie with it, and
    ties break to the lowest enumeration index (radius-major), so a moved
    last bit cannot move the witness between conjugate maxima.
    Only the single grid argmax is refined: a second peak of nearly the
    same height elsewhere is never refined, so its true height can exceed
    the returned maximum.
    """
    vals = np.asarray(objective(grid.radii(), grid.angles()), dtype=float)
    return _refine_maximum(objective, grid, vals)


# Fields of real-coefficient subjects are symmetric about the real axis;
# their conjugate maxima differ by up to 5 ulp on the catalog's grids.
_TIE_ULPS = 8


def _first_max(vals: np.ndarray) -> int:
    """Flat index of the first value within ``_TIE_ULPS`` ulp of the maximum.

    A NaN or infinite maximum is taken at its first occurrence.
    """
    flat = vals.ravel()
    top = flat.max()
    if not np.isfinite(top):
        return int(np.argmax(flat))
    return int(np.argmax(flat >= top - _TIE_ULPS * np.spacing(abs(top))))


def _refine_maximum(objective, grid: DiskGrid,
                    vals: np.ndarray) -> tuple[float, complex]:
    """:func:`disk_maximize` from the field's values on the base grid."""
    radii = grid.radii()
    angles = grid.angles()
    i, j = divmod(_first_max(vals), len(angles))
    best = float(vals[i, j])
    best_r, best_th = float(radii[i]), float(angles[j])
    dr = grid.r_max / grid.n_radial
    dth = 2 * np.pi / grid.n_angular
    for _ in range(grid.refinement_levels):
        r_lo = max(best_r - dr, 1e-9)
        r_hi = min(best_r + dr, grid.r_max)
        sub_r = np.linspace(r_lo, r_hi, 8)
        sub_th = np.linspace(best_th - dth, best_th + dth, 8)
        sub = np.asarray(objective(sub_r, sub_th), dtype=float)
        i, j = divmod(_first_max(sub), 8)
        if float(sub[i, j]) > best:
            best = float(sub[i, j])
            best_r, best_th = float(sub_r[i]), float(sub_th[j])
        dr = (r_hi - r_lo) / 7
        dth = (sub_th[-1] - sub_th[0]) / 7
    return best, best_r * np.exp(1j * best_th)


def _grid_condition(name: str, strict: bool, rhs: float, field_fn, grid: DiskGrid):
    """The condition LHS <= rhs (< when ``strict``) for the field ``field_fn``.

    A field that comes out as a scalar is constant in z.  It gets no grid
    pass and no refinement: every grid point ties, so the witness is the
    first one and each trend row is the constant, as refining a constant
    array would give.
    """
    def obj(radii, angles):
        """``field_fn`` over complex points, on the (radii, angles) grid."""
        zz = np.asarray(radii)[:, None] * np.exp(1j * np.asarray(angles))[None, :]
        return field_fn(zz)

    radii = grid.radii()
    base = np.asarray(obj(radii, grid.angles()), dtype=float)
    if base.ndim == 0:
        lhs_max, witness = float(base), complex(radii[0])
        base = np.broadcast_to(base, (grid.n_radial, 1))
    else:
        # refinement starts at the base argmax and only moves up
        lhs_max, witness = _refine_maximum(obj, grid, base)
    margin = rhs - lhs_max
    trend = tuple(
        (float(radii[i]), float(np.max(base[i])))
        for i in range(max(0, grid.n_radial - 3), grid.n_radial)
    )
    report = ConditionReport(
        name=name, satisfied=_margin_ok(margin, strict), strict=strict,
        margin=float(margin), rhs=float(rhs), witness=complex(witness),
    )
    return report, trend


def _assemble(criterion_id: str, conditions: list[ConditionReport],
              grid: DiskGrid, trend) -> CriterionReport:
    satisfied = all(c.satisfied for c in conditions)
    # on ties prefer a grid-backed witness over a scalar parameter check
    worst = min(conditions, key=lambda c: (c.margin, c.witness is None))
    return CriterionReport(
        criterion_id=criterion_id, satisfied=satisfied,
        margin=float(worst.margin), witness=worst.witness,
        conditions=tuple(conditions), grid_used=grid,
        boundary_trend=tuple(trend),
    )


def _eq1_report(p: CriterionParams) -> ConditionReport:
    r = p.m / (2 * p.a)
    margin = r - abs(p.alpha - r)
    return ConditionReport("eq-alpha", _margin_ok(margin, True), True,
                           float(margin), float(r), None)


def check_alpha_condition(p: CriterionParams) -> bool:
    """|alpha - m/(2a)| < m/(2a); equivalently Re(m/alpha) > a."""
    return _eq1_report(p).margin > 0


def _h_values(triple: AnalyticTriple, zz: np.ndarray, error=None):
    """h on ``zz``, a scalar when h is constant; a zero raises ``error(z)``,
    by default DivisionByZero."""
    hv, = jet(triple.h, zz, 0)
    _raise_at_first(hv == 0, zz, error or (lambda w: DivisionByZero(w, triple.h)))
    return hv


def _checked_h_report(triple, p, grid) -> tuple[ConditionReport, tuple]:
    shift = p.m / (2 * p.alpha)
    rhs = p.m / (2 * abs(p.alpha))

    def fld(zz):
        return np.abs(p.c / _h_values(triple, zz) + shift)

    return _grid_condition("eq-h", True, rhs, fld, grid)


def check_h_condition(triple: AnalyticTriple, p: CriterionParams,
                      grid: DiskGrid) -> CriterionReport:
    """|c/h(z) + m/(2 alpha)| < m/(2 |alpha|) over the grid."""
    p.validate()
    rep, trend = _checked_h_report(triple, p, grid)
    return _assemble("eq-h", [rep], grid, trend)


def bracket_field(triple: AnalyticTriple, alpha: complex, zz: np.ndarray) -> np.ndarray:
    """(alpha-1) z g'/g + 1 + z f''/f' + z h'/h with removable limits at 0.

    Each log derivative comes from one jet walk of f, g or h.  At alpha = 1
    the g term is 0 and g is not evaluated, so a zero of g/z in the disk
    does not matter there.
    """
    _, fp, fpp = jet(triple.f, zz, 2, value=False)
    t1 = 0 if alpha == 1 else (
        (alpha - 1) * log_derivative_values(zz, *jet(triple.g, zz, 1), triple.g))
    t2 = log_derivative_values(zz, fp, fpp, triple.f, 1)
    t3 = log_derivative_values(zz, *jet(triple.h, zz, 1), triple.h)
    return t1 + 1 + t2 + t3


def _blend(triple: AnalyticTriple, p: CriterionParams, zz: np.ndarray, lam,
           error=None) -> np.ndarray:
    """lead*lam + (1-lam)*bracket with lead = -c alpha / (a h).

    The criteria take lam = |z|^e; the chain's transfer function A is the
    same blend with lam = e^(-mt).  A zero of h raises as in :func:`_h_values`.
    """
    lead = (-p.c * p.alpha) / (p.a * _h_values(triple, zz, error))
    return lead * lam + (1 - lam) * bracket_field(triple, p.alpha, zz)


def _operator_lhs(triple: AnalyticTriple, p: CriterionParams, zz: np.ndarray,
                  exponent: float) -> np.ndarray:
    return np.abs(_blend(triple, p, zz, np.abs(zz) ** exponent) - p.m / (2 * p.a))


def _operator_criterion(criterion_id: str, p: CriterionParams, grid: DiskGrid,
                        h_cond: ConditionReport, main_name: str, rhs: float,
                        main_field) -> CriterionReport:
    """The conditions [eq-alpha, h side condition, main], assembled in that order."""
    main, trend = _grid_condition(main_name, False, rhs, main_field, grid)
    return _assemble(criterion_id, [_eq1_report(p), h_cond, main], grid, trend)


def check_main_t2(triple: AnalyticTriple, p: CriterionParams,
                  grid: DiskGrid) -> CriterionReport:
    """The main criterion: exponent m/a, together with its two side conditions."""
    p.validate()
    return _operator_criterion(
        "T2", p, grid, _checked_h_report(triple, p, grid)[0], "main",
        p.m / (2 * p.a), lambda zz: _operator_lhs(triple, p, zz, p.m / p.a))


def check_simplified_t21(triple: AnalyticTriple, p: CriterionParams,
                         grid: DiskGrid) -> CriterionReport:
    """Radius-free form: |bracket - m/(2a)| <= m/(2a) plus the side conditions."""
    p.validate()
    rhs = p.m / (2 * p.a)
    return _operator_criterion(
        "T21", p, grid, _checked_h_report(triple, p, grid)[0], "main",
        rhs, lambda zz: np.abs(bracket_field(triple, p.alpha, zz) - rhs))


def becker_lhs(f: Expr, m: float, zz: np.ndarray, jets=None) -> np.ndarray:
    """|(m-2)/2 - (1-|z|^m) z f''/f'| on ``zz``.

    ``jets(zz)`` gives (f, f', f'') there; by default one walk of f's tree.
    """
    _, fp, fpp = jet(f, zz, 2, value=False) if jets is None else jets(zz)
    lam = np.abs(zz) ** m
    return np.abs((m - 2) / 2 - (1 - lam) * log_derivative_values(zz, fp, fpp, f, 1))


def check_becker(f: Expr, m: float, grid: DiskGrid, jets=None) -> CriterionReport:
    """|(m-2)/2 - (1-|z|^m) z f''/f'| <= m/2 for m > 1.

    ``jets``, as in :func:`becker_lhs`, lets a run's subject keep the
    base-grid pass of f and f' for the oracle.
    """
    if not m > 1:
        raise ParameterError(f"m={m} must exceed 1")
    main, trend = _grid_condition(
        "main", False, m / 2, lambda zz: becker_lhs(f, m, zz, jets), grid)
    return _assemble("becker", [main], grid, trend)


def check_t3(triple: AnalyticTriple, p: CriterionParams,
             grid: DiskGrid) -> CriterionReport:
    """Variant for Re(s) >= 1: exponent m instead of m/a."""
    p.validate()
    if p.a < 1:
        raise ParameterError(f"Re(s)={p.a} must be >= 1 for this criterion")
    return _operator_criterion(
        "T3", p, grid, _checked_h_report(triple, p, grid)[0], "main",
        p.m / (2 * p.a), lambda zz: _operator_lhs(triple, p, zz, float(p.m)))


def check_qc_t5(triple: AnalyticTriple, p: CriterionParams,
                grid: DiskGrid) -> tuple[CriterionReport, float | None]:
    """Quasiconformal refinement: k-scaled right-hand sides, returns K on success."""
    from .chains import qc_bound_k  # local import to avoid a cycle

    p.validate()
    eq_h, _ = _grid_condition(
        "qc-h", True, p.k * p.m / 2,
        lambda zz: np.abs(p.c * p.alpha / _h_values(triple, zz) + p.m / 2), grid)
    rep = _operator_criterion(
        "T5-qc", p, grid, eq_h, "qc-main",
        p.k * p.m / (2 * p.a), lambda zz: _operator_lhs(triple, p, zz, p.m / p.a))
    bound = qc_bound_k(p.s, p.k).K if rep.satisfied else None
    return rep, bound


def t6_field(f: Expr, g: Expr, alpha: float, zz: np.ndarray,
             gz_fit: GzLogFit | None = None) -> np.ndarray:
    """z^(1-alpha) g^(alpha-1) f' as the branch-continued (g/z)^(alpha-1) f'.

    f' comes from a jet walk of f.  ``gz_fit``, the ``GzLogFit(g)`` of a
    caller that evaluates many batches, is reused (:func:`continued_gz_log`).
    At alpha = 1 the power is 1: the field is f' on the shape of ``zz``,
    and g is not evaluated.
    """
    if alpha == 1:
        return np.broadcast_to(jet(f, zz, 1, value=False)[1], zz.shape).astype(complex)
    logphi = continued_gz_log(g, zz.ravel(), gz_fit).reshape(zz.shape)
    return np.exp((alpha - 1) * logphi) * jet(f, zz, 1, value=False)[1]


def check_t6(f: Expr, g: Expr, alpha: float, k: float,
             grid: DiskGrid) -> CriterionReport:
    """Membership of z^(1-alpha) g^(alpha-1) f' in U(k) over the grid."""
    alpha = float(alpha)
    if not alpha > 0:
        raise ParameterError("alpha must be a positive real number here")
    if not (0 <= k < 1):
        raise ParameterError(f"k={k} must lie in [0, 1)")
    gz_fit = GzLogFit(g)
    main, trend = _grid_condition(
        "uk-distance", False, k,
        lambda zz: _uk_distance_field(t6_field(f, g, alpha, zz, gz_fit)), grid)
    return _assemble("T6", [main], grid, trend)


def check_log_derivative_condition(G, k: float, grid: DiskGrid) -> CriterionReport:
    """z G'/G in U(k); G may be an expression or a sampled operator callable.

    Each field pass takes G and G' from one ``jet`` call of ``as_subject(G)``.
    """
    if not (0 <= k < 1):
        raise ParameterError(f"k={k} must lie in [0, 1)")
    subject = as_subject(G)

    def fld(zz):
        vals, deriv = subject.jet(zz)[:2]
        vals = np.asarray(vals)
        _raise_at_first(vals == 0, zz, DivisionByZero)
        return _uk_distance_field(zz * deriv / vals)

    main, trend = _grid_condition("uk-logderiv", False, k, fld, grid)
    return _assemble("logderiv-Uk", [main], grid, trend)


@dataclass(frozen=True)
class PresetApplication:
    f: Expr
    g: Expr
    h: Expr
    params: CriterionParams
    check_id: str
    notes: tuple[str, ...] = ()


def _require_one_at_origin(preset: str, label: str, e: Expr) -> None:
    v = eval_expr(e, 0j)
    if abs(v - 1) > 1e-9:
        raise ParameterError(f"{preset} requires {label}(0)=1, got {v!r}")


def _ruscheweyh(f, g, h, params, k_fn):
    params = replace(params, alpha=1 / params.s, m=2.0)
    return PresetApplication(f, f, const(1), params, "T3")


def _moldoveanu_pascu_remark(f, g, h, params, k_fn):
    params = replace(params, c=-1 / params.alpha, s=complex(1, params.s.imag), m=2.0)
    return PresetApplication(f, Var(), const(1), params, "T3")


def _singh_chichra(f, g, h, params, k_fn):
    _require_one_at_origin("singh-chichra", "h", h)
    params = replace(params, alpha=1 / params.s, m=2.0)
    return PresetApplication(f, f, div(const(1), h), params, "T3")


def _lewandowski(f, g, h, params, k_fn):
    if k_fn is None:
        raise ParameterError("lewandowski requires a positive-real-part k_fn")
    _require_one_at_origin("lewandowski", "k_fn", k_fn)
    params = CriterionParams(alpha=1, c=-1, s=1, m=2.0, k=params.k)
    return PresetApplication(
        f, f, div(add(k_fn, const(1)), const(2)), params, "T3",
        ("positive real part of k_fn is assumed, not verified symbolically",))


def _ovesea(f, g, h, params, k_fn):
    _require_one_at_origin("ovesea", "h", h)
    return PresetApplication(f, g, h, replace(params, m=2.0), "T2")


def _becker(f, g, h, params, k_fn):
    params = replace(params, alpha=1, s=1)
    return PresetApplication(f, Var(), const(-params.c), params, "becker")


@dataclass(frozen=True)
class Preset:
    """A classical reduction: its one-line help and its rewrite of (f, g, h, params)."""

    help: str
    apply: Callable[..., PresetApplication]


PRESETS = {
    "ruscheweyh": Preset("m=2, h=1, g=f, alpha=1/s (routes to T3)", _ruscheweyh),
    "moldoveanu-pascu-remark": Preset(
        "m=2, h=1, g=z, Re(s)=1, c=-1/alpha (routes to T3)", _moldoveanu_pascu_remark),
    "singh-chichra": Preset(
        "m=2, g=f, alpha=1/s, h replaced by 1/h with h(0)=1 (routes to T3)",
        _singh_chichra),
    "lewandowski": Preset(
        "m=2, g=f, s=alpha=1, c=-1, h=(k_fn+1)/2 (routes to T3)", _lewandowski),
    "ovesea": Preset("m=2, h(0)=1 (routes to T2)", _ovesea),
    "becker": Preset("s=alpha=1, h=-c, routed to the (m-2)/2 inequality", _becker),
}
PRESET_NAMES = tuple(PRESETS)


def apply_preset(name: str, f: Expr, g: Expr | None = None, h: Expr | None = None,
                 params: CriterionParams | None = None,
                 k_fn: Expr | None = None) -> PresetApplication:
    """Apply the classical parameter reduction ``name`` from :data:`PRESETS`.

    Each reduction returns the criterion id it routes to.
    """
    if name not in PRESETS:
        raise UnknownPreset(name, PRESET_NAMES)
    g = g if g is not None else Var()
    h = h if h is not None else const(1)
    if params is None:
        params = CriterionParams(alpha=1, c=-1, s=1, m=2.0)
    return PRESETS[name].apply(f, g, h, params, k_fn)
