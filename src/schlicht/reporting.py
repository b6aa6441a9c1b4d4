"""Config resolution, criterion runs and JSON report assembly for the CLI.

Reports are deterministic: with a fixed config and seed (and timings
suppressed) repeated runs serialize to identical bytes.  Files are written
atomically, temp-then-rename.
"""

from __future__ import annotations

import errno
import json
import numbers
import os
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from . import __version__
from .chains import chain_callable, chain_t6_callable, qc_bound_k
from .criteria import (
    CriterionParams,
    CriterionReport,
    DiskGrid,
    apply_preset,
    check_becker,
    check_log_derivative_condition,
    check_main_t2,
    check_qc_t5,
    check_simplified_t21,
    check_t3,
    check_t6,
)
from .dsl import parse
from .errors import NonFiniteValue, ParameterError
from .expr import (
    AnalyticTriple,
    Expr,
    _raise_at_first,
    _scalar_out,
    as_subject,
    const,
    eval_expr,
    jet,
    sub,
)
from .operators import BracketFit, operator_values_with_derivative
from .oracle import derivative_nonvanishing, injectivity_test, preimage_count

__all__ = ["ResolvedConfig", "load_config", "run_check", "report_json",
           "atomic_write", "oracle_block", "subject_function", "build_chain",
           "Criterion", "CRITERIA", "CRITERION_IDS"]


@dataclass
class ResolvedConfig:
    f: Expr
    g: Expr
    h: Expr
    params: CriterionParams
    check: str
    preset: str | None
    grid: DiskGrid
    seed: int
    sources: dict


def _param(key: str, v, pair: bool):
    """params.<key> as a float, or as a complex when a [re, im] ``pair`` may
    stand for it.  A bool, a string or null is no number here."""
    parts = v if pair and isinstance(v, (list, tuple)) and len(v) == 2 else [v]
    if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in parts):
        kind = "a real number or a [re, im] pair of real numbers" if pair else "a real number"
        raise ParameterError(f"params.{key} must be {kind}, got {v!r}")
    return complex(*map(float, parts)) if pair else float(v)


# The keys a config may hold: top level (""), then the sections.
_CONFIG_KEYS = {"": ("f", "g", "h", "k_fn", "params", "check", "preset", "grid", "seed"),
                "grid": ("n_radial", "n_angular", "r_max", "refinement_levels"),
                "params": ("alpha", "c", "s", "m", "k")}


def load_config(raw: dict, overrides: dict | None = None) -> ResolvedConfig:
    """Resolve a config mapping; flags in ``overrides`` win over the file.

    A key that a config cannot hold, a config or a ``grid`` or ``params``
    section that is not a JSON object (null counts as an empty section),
    and a value of the wrong type or range raise ParameterError naming it.
    """
    overrides = overrides or {}
    if not isinstance(raw, dict):
        raise ParameterError(f"a config must be a JSON object, got {type(raw).__name__}")
    merged = dict(raw)
    for key in ("grid", "params"):
        section = {} if raw.get(key) is None else raw[key]
        if not isinstance(section, dict):
            raise ParameterError(f"config section {key!r} must be a JSON object, "
                                 f"got {type(section).__name__}")
        merged[key] = {**section, **(overrides.get(key) or {})}
    for key in ("check", "preset", "seed", "f", "g", "h", "k_fn"):
        if overrides.get(key) is not None:
            merged[key] = overrides[key]
    for section, known in _CONFIG_KEYS.items():
        unknown = [k for k in (merged[section] if section else merged) if k not in known]
        if unknown:
            name = f"{section}.{unknown[0]}" if section else unknown[0]
            raise ParameterError(f"unknown config key {name!r}; "
                                 f"known: {', '.join(known)}")

    f = parse(merged.get("f", "z"))
    g = parse(merged.get("g", "z"))
    h = parse(merged.get("h", "1"))
    k_fn = parse(merged["k_fn"]) if merged.get("k_fn") else None

    pr = merged.get("params") or {}
    params = CriterionParams(**{
        key: _param(key, pr.get(key, default), key in ("alpha", "c", "s"))
        for key, default in (("alpha", 1), ("c", -1), ("s", 1), ("m", 2.0), ("k", 0.0))})
    seed = merged.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")

    gr = merged.get("grid") or {}
    grid = DiskGrid(**{k: gr[k] for k in _CONFIG_KEYS["grid"] if k in gr})

    preset = merged.get("preset")
    check = merged.get("check")
    if preset:
        applied = apply_preset(preset, f, g, h, params, k_fn)
        f, g, h, params = applied.f, applied.g, applied.h, applied.params
        check = check or applied.check_id
    if not check:
        raise ParameterError("config must name a check (or a preset that routes one)")
    if check not in CRITERION_IDS:
        raise ParameterError(f"unknown check {check!r}; known: {', '.join(CRITERION_IDS)}")
    params.validate()

    sources = {
        "f": merged.get("f", "z"), "g": merged.get("g", "z"),
        "h": merged.get("h", "1"), "k_fn": merged.get("k_fn"),
        "preset": preset,
    }
    return ResolvedConfig(f=f, g=g, h=h, params=params, check=check,
                          preset=preset, grid=grid,
                          seed=int(seed), sources=sources)


def _cplx(v) -> list[float] | None:
    if v is None:
        return None
    v = complex(v)
    return [v.real, v.imag]


def _params_dict(p: CriterionParams) -> dict:
    return {"alpha": _cplx(p.alpha), "c": _cplx(p.c), "s": _cplx(p.s),
            "m": p.m, "k": p.k}


def _report_dict(rep: CriterionReport) -> dict:
    return {
        "criterion": rep.criterion_id,
        "satisfied": rep.satisfied,
        "margin": rep.margin,
        "witness": _cplx(rep.witness),
        "conditions": [
            {
                "name": c.name, "satisfied": c.satisfied, "strict": c.strict,
                "margin": c.margin, "rhs": c.rhs, "witness": _cplx(c.witness),
            }
            for c in rep.conditions
        ],
        "boundary_trend": [[r, v] for r, v in rep.boundary_trend],
        "grid": asdict(rep.grid_used),
    }


def _run_subject(rc: ResolvedConfig, order: int, walk):
    """The run's subject G: one evaluation contract, one keep rule.

    ``subject(z)`` is G, ``subject.derivative(z)`` G', ``subject.jet(zz)``
    (G, G', ...) to ``order`` from one pass ``walk(zz, n, value)`` (G may
    be None without ``value``); a non-finite G or G' raises NonFiniteValue.
    The first pass on the run's grid (an array of its shape) that gives G
    and G' is kept with its points, read-only and not copied, but not its
    higher orders; a request at those points takes it, and any other makes
    one pass of what it asks.  A plain function, so ``functools.wraps``
    keeps ``derivative`` and ``jet``.
    """
    shape = (rc.grid.n_radial, rc.grid.n_angular)
    kept: dict = {}  # "points" and "values", (G, G') on them

    def entries(z, n: int, value: bool = True):
        zz = np.asarray(z, dtype=complex)
        points = kept.get("points")
        if n <= 1 and points is not None and (zz is points or np.array_equal(zz, points)):
            return zz, kept["values"]
        out = walk(zz, n, value)
        for x in out[:2]:
            if x is not None and not np.isfinite(x).all():
                _raise_at_first(~np.isfinite(x), zz, NonFiniteValue)
        if points is None and zz.shape == shape and len(out) > 1 and out[0] is not None:
            for x in (zz, *out[:2]):
                if isinstance(x, np.ndarray):  # another caller gets it too
                    x.flags.writeable = False
            kept.update(points=zz, values=out[:2])
        return zz, out

    def at(z, n: int):
        zz, out = entries(z, n, value=not n)
        x = out[n] if isinstance(out[n], np.ndarray) else np.full(zz.shape, out[n], dtype=complex)
        return _scalar_out(x, z)

    def subject(z):
        return at(z, 0)

    subject.derivative = lambda z: at(z, 1)
    subject.jet = lambda zz: entries(zz, order)[1]
    return subject


def _operator_subject(rc: ResolvedConfig):
    """The operator G as a run subject of order 1 (:func:`_run_subject`).

    At alpha = 1 the operator is int_0^z f' du = f - f(0), whatever g is,
    so the subject is :func:`_expr_subject` of f - f(0) (of f itself when
    f(0) = 0): nothing is fitted or integrated.  Otherwise a pass is one
    bracket pass of the subject's one fit, giving G and G' together, so
    the subject integrates one cross-check sample in all.
    """
    if rc.params.alpha == 1:
        f0 = eval_expr(rc.f, 0j)
        return _expr_subject(rc if f0 == 0 else replace(rc, f=sub(rc.f, const(f0))), 1)
    fit = BracketFit(rc.g, rc.params.alpha, f=rc.f)

    def bracket_pass(zz, n, value):
        vals, derivs, _ = operator_values_with_derivative(
            rc.f, rc.g, rc.params.alpha, zz.ravel(), fit)
        return vals.reshape(zz.shape), derivs.reshape(zz.shape)

    return _run_subject(rc, 1, bracket_pass)


def _expr_subject(rc: ResolvedConfig, order: int):
    """f as a run subject whose ``jet`` has order ``order``; a pass walks f's tree once."""
    return _run_subject(rc, order, lambda zz, n, value: jet(rc.f, zz, n, value=value))


def _triple(rc: ResolvedConfig) -> AnalyticTriple:
    return AnalyticTriple.build(rc.f, rc.g, rc.h)


def _real_alpha(rc: ResolvedConfig) -> float:
    if rc.params.alpha.imag != 0:
        raise ParameterError("this criterion needs real alpha > 0")
    return float(rc.params.alpha.real)


def _main_chain(rc: ResolvedConfig):
    return chain_callable(_triple(rc), rc.params)


def _becker_chain(rc: ResolvedConfig):
    # the classical chain of the becker preset's reduction: s = alpha = 1, h = -c
    becker = apply_preset("becker", rc.f, rc.g, rc.h, rc.params)
    return chain_callable(AnalyticTriple.build(becker.f, becker.g, becker.h), becker.params)


def _logderiv_chain(rc: ResolvedConfig):
    op = subject_function(rc)

    def chain(z, t):
        return np.exp(np.asarray(t, dtype=float)) * np.asarray(op(z))

    def driving_term(z, t):
        # L = e^t G gives p = z G'/G, from one pass of the subject
        zz = np.asarray(z, dtype=complex)
        vals, deriv = op.jet(zz)
        p = zz * deriv / vals
        return np.broadcast_to(p, np.broadcast_shapes(zz.shape, np.shape(t)))

    chain.driving_term = driving_term
    return chain


@dataclass(frozen=True)
class Criterion:
    """How one criterion id runs; every field maps a ResolvedConfig.

    ``subject`` gives the run's subject (:func:`_run_subject`: f for
    becker, else the operator G), ``check`` the CriterionReport, taking
    the run's subject object too, so that the criterion and the oracle
    share its grid pass, and ``chain`` the Loewner chain, carrying
    ``driving_term``, that the extension uses.  A satisfied check with
    ``qc_bound`` set reports the dilatation bound K(s, k).
    """

    check: Callable[[ResolvedConfig, object], CriterionReport]
    subject: Callable[[ResolvedConfig], object]
    chain: Callable[[ResolvedConfig], object]
    qc_bound: bool = False


# The entries call the checks, the subject and the chain builders by their
# module-level names rather than holding the functions, so a wrapper
# installed on those module attributes (a profiler, say) sees every call.
CRITERIA = {
    "T2": Criterion(lambda rc, _: check_main_t2(_triple(rc), rc.params, rc.grid),
                    _operator_subject, _main_chain),
    "T21": Criterion(lambda rc, _: check_simplified_t21(_triple(rc), rc.params, rc.grid),
                     _operator_subject, _main_chain),
    "becker": Criterion(
        lambda rc, subject: check_becker(rc.f, rc.params.m, rc.grid, subject.jet),
        lambda rc: _expr_subject(rc, 2), _becker_chain),
    "T3": Criterion(lambda rc, _: check_t3(_triple(rc), rc.params, rc.grid),
                    _operator_subject, _main_chain),
    "T5-qc": Criterion(lambda rc, _: check_qc_t5(_triple(rc), rc.params, rc.grid)[0],
                       _operator_subject, _main_chain, qc_bound=True),
    "T6": Criterion(
        lambda rc, _: check_t6(rc.f, rc.g, _real_alpha(rc), rc.params.k, rc.grid),
        _operator_subject,
        lambda rc: chain_t6_callable(rc.f, rc.g, _real_alpha(rc))),
    "logderiv-Uk": Criterion(
        lambda rc, op: check_log_derivative_condition(op, rc.params.k, rc.grid),
        _operator_subject, _logderiv_chain),
}
CRITERION_IDS = tuple(CRITERIA)


def subject_function(rc: ResolvedConfig):
    """The function a criterion speaks about: f itself, or the operator."""
    return CRITERIA[rc.check].subject(rc)


def build_chain(rc: ResolvedConfig):
    """Loewner chain matching the configured criterion.

    Every chain carries its driving term p = z L'(z,t) / dL/dt as
    ``chain.driving_term(z, t)``, from which the extension takes mu.
    """
    return CRITERIA[rc.check].chain(rc)


def oracle_block(rc: ResolvedConfig, subject) -> dict:
    """Injectivity, winding-count and derivative evidence for ``subject``."""
    n_probes = 20
    fn = as_subject(subject)
    inj = injectivity_test(fn, rc.grid)
    deriv = derivative_nonvanishing(fn, rc.grid)
    rng = np.random.default_rng(rc.seed)
    zz = 0.85 * np.sqrt(rng.uniform(0, 1, n_probes)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, n_probes))
    counts = preimage_count(fn, [complex(w0) for w0 in np.asarray(fn(zz))], r=0.9)
    return {
        "injective_on_grid": inj.injective_on_grid,
        "collision_pair": ([_cplx(inj.collision_pair[0]), _cplx(inj.collision_pair[1])]
                           if inj.collision_pair else None),
        # a one-point grid has no pair: null, since JSON has no Infinity
        "min_separation_ratio": inj.min_separation_ratio if inj.n_points > 1 else None,
        "n_points": inj.n_points,
        "collision_tol": inj.tol,
        "preimage_counts": counts,
        "preimage_counts_ok": all(c in (0, 1) for c in counts),
        "n_probes": n_probes,
        "derivative_min_abs": deriv.min_abs,
        "derivative_flagged": deriv.flagged,
    }


def run_check(rc: ResolvedConfig, with_oracle: bool = True,
              with_timings: bool = True) -> tuple[dict, int]:
    """Run the configured criterion plus the oracle cross-check."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    criterion = CRITERIA[rc.check]
    # one subject object per run, so an operator subject is fitted once
    subject = subject_function(rc)
    rep = criterion.check(rc, subject)
    qc_bound = None
    if criterion.qc_bound and rep.satisfied:
        qb = qc_bound_k(rc.params.s, rc.params.k)
        qc_bound = {"s": _cplx(qb.s), "k": qb.k, "l1": qb.l1,
                    "l2": qb.l2, "l3": qb.l3, "K": qb.K}
    timings["check_s"] = time.perf_counter() - t0

    report = {
        "version": __version__,
        "config": {
            **rc.sources,
            "check": rc.check,
            "params": _params_dict(rc.params),
            "grid": asdict(rc.grid),
            "seed": rc.seed,
        },
        "check": _report_dict(rep),
        "qc_bound": qc_bound,
        "certified_on_grid": rep.satisfied,
    }
    if with_oracle:
        t0 = time.perf_counter()
        report["oracle"] = oracle_block(rc, subject)
        timings["oracle_s"] = time.perf_counter() - t0
    if with_timings:
        report["timings"] = timings
    return report, (0 if rep.satisfied else 1)


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _new_temp(target: str, binary: bool):
    """(path, handle) of a new file beside ``target``, which ``open`` creates
    with 0666 less the umask, so the umask is never read (which means
    setting it for every thread); a taken name is drawn again, as
    ``tempfile.mkstemp`` does."""
    directory = os.path.dirname(os.path.abspath(target))
    for _ in range(tempfile.TMP_MAX):
        tmp = os.path.join(directory, f".schlicht-{os.urandom(8).hex()}")
        try:
            return tmp, open(tmp, "xb" if binary else "x")
        except FileExistsError:
            continue
    raise FileExistsError(errno.EEXIST, "no unused temp file name", target)


def atomic_write(path: str, data, *more) -> None:
    """Write text or bytes via a temp file and rename.

    ``more`` holds further (path, data) pairs.  Every temp file is written
    before any is renamed, so a failed write leaves none of the outputs.
    Files get the mode ``open`` gives them (0666 less the umask), and an
    error names the path asked for, not its temp file.
    """
    outputs = [(path, data), *more]
    temps: list[str] = []
    try:
        for target, payload in outputs:
            try:
                tmp, handle = _new_temp(target, isinstance(payload, (bytes, bytearray)))
                temps.append(tmp)
                with handle:
                    handle.write(payload)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, target) from None
        for (target, _), tmp in zip(outputs, temps):
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, target) from None
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
