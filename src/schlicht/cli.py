"""Command-line entry points: check, extend, ktable, oracle, preset-list.

Exit codes: 0 criterion satisfied / output written, 1 criterion
unsatisfied, 2 input error (bad config, malformed DSL, bad flags).

Heap policy.  The first :func:`main` call of a process sets three glibc
malloc parameters with ``mallopt``, so that memory freed by one pass stays
in the process for the next: the heap top is trimmed only once 64 MiB lie
free there (``M_TRIM_THRESHOLD``), and then down to 16 MiB
(``M_TOP_PAD``), and blocks under 32 MiB come from the heap, not from
fresh mappings (``M_MMAP_THRESHOLD``).  Without it glibc hands the freed
heap top back after each pass and the next pass faults the same pages in
again: about 577 minor page faults per ``check`` of
``demos/configs/t5_qc.json`` on its 64 x 128 grid, whose temporaries are
128 KiB complex arrays, against 2 with it.  The two thresholds are the
ceilings to which glibc's own rule raises them as large blocks are freed
on 64-bit platforms; setting any parameter stops that rule.  With
``M_TOP_PAD`` alone, a check of ``t6_eps02.json`` on a 256 x 512 grid
mapped its 2 MiB temporaries anew each time: 4,878 faults per check,
against 10,303 with no policy and 2 with all three.  The policy applies
only where the C library is glibc and has ``mallopt``; elsewhere it is
skipped.  It belongs to the CLI, which owns its process: importing
``schlicht`` as a library leaves the host program's allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .chains import qc_bound_k
from .criteria import PRESETS
from .errors import DslSyntaxError, SchlichtError
from .extension import ExtensionField, beltrami_coefficient
from .reporting import (
    atomic_write,
    build_chain,
    load_config,
    oracle_block,
    report_json,
    run_check,
    subject_function,
)

def _load(path: str, args) -> "ResolvedConfig":
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    overrides: dict = {"grid": {}, "params": {}}
    if getattr(args, "grid", None):
        nr, _, na = args.grid.partition("x")
        overrides["grid"]["n_radial"] = int(nr)
        overrides["grid"]["n_angular"] = int(na)
    if getattr(args, "rmax", None) is not None:
        overrides["grid"]["r_max"] = args.rmax
    return load_config(raw, overrides)


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    rc = _load(args.config, args)
    report, code = run_check(rc, with_oracle=not args.no_oracle,
                             with_timings=not args.no_timings)
    _emit(args, report_json(report))
    return code


@functools.lru_cache(maxsize=1)
def _export_grid(resolution: int, annulus_rmax: float):
    """The points of an ``extend`` CSV and the ``x,y,`` text of each row.

    Returns (points, n_interior, prefixes): ``resolution // 2`` rings
    (at least one) of ``resolution`` angles inside the circle, radii up to
    0.999, then as many geometric rings from 1.001 to ``annulus_rmax``, in
    one read-only array.  Each prefix holds the Python float reprs of x and
    y.  They depend on the two arguments alone, so the last grid is kept per
    process; it takes 0.11 MB at resolution 32 and 1.8 MB at 128.
    """
    n_r = max(resolution // 2, 1)
    radii = (1 - 1e-3) * np.arange(1, n_r + 1) / n_r
    ext_radii = np.geomspace(1 + 1e-3, annulus_rmax, n_r)
    circle = np.exp(1j * (2 * np.pi * np.arange(resolution) / resolution))
    points = (np.concatenate([radii, ext_radii])[:, None] * circle[None, :]).ravel()
    points.flags.writeable = False
    prefixes = tuple(f"{x!r},{y!r}," for x, y in zip(points.real.tolist(), points.imag.tolist()))
    return points, n_r * resolution, prefixes


def _csv_rows(prefixes: tuple[str, ...], f: np.ndarray, mu: np.ndarray) -> list[str]:
    """One ``x,y,reF,imF,absMu`` row per point: its cached ``x,y,`` text,
    then reF, imF and |mu| as Python's float repr."""
    return [f"{p}{a!r},{b!r},{c!r}" for p, a, b, c in
            zip(prefixes, f.real.tolist(), f.imag.tolist(), mu.tolist())]


def _field_csv(chain, annulus_rmax: float, resolution: int) -> str:
    """The CSV of the extension of ``chain`` on the grid of :func:`_export_grid`.

    F is evaluated once over the whole grid and mu once over the exterior,
    where it comes from the chain's driving term; inside, |mu| is 0.
    """
    points, n_inner, prefixes = _export_grid(resolution, annulus_rmax)
    F = ExtensionField(chain)
    values = F(points)
    mu = np.zeros(len(points))
    mu[n_inner:] = np.abs(beltrami_coefficient(F, points[n_inner:]))
    return "\n".join(["x,y,reF,imF,absMu", *_csv_rows(prefixes, values, mu)]) + "\n"


def _hsv_to_rgb(h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    i = np.floor(h * 6.0).astype(int) % 6
    f = h * 6.0 - np.floor(h * 6.0)
    p = v * (1 - s)
    q = v * (1 - f * s)
    t = v * (1 - (1 - f) * s)
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def _field_ppm(chain, resolution: int, window: float) -> bytes:
    F = ExtensionField(chain)
    xs = np.linspace(-window, window, resolution)
    grid = xs[None, :] + 1j * xs[::-1, None]
    flat = grid.ravel()
    vals = F(flat)
    mus = np.zeros(flat.shape)
    outer = np.abs(flat) >= 1
    if np.any(outer):
        mus[outer] = np.abs(beltrami_coefficient(F, flat[outer]))
    hue = (np.angle(vals) / (2 * np.pi)) % 1.0
    sat = np.clip(mus, 0.0, 1.0)
    rgb = _hsv_to_rgb(hue, sat, np.ones_like(hue))
    img = (np.clip(rgb, 0, 1) * 255).astype(np.uint8).reshape(resolution, resolution, 3)
    header = f"P6\n{resolution} {resolution}\n255\n".encode("ascii")
    return header + img.tobytes()


def cmd_extend(args) -> int:
    rc = _load(args.config, args)
    report, code = run_check(rc, with_oracle=False, with_timings=False)
    if code != 0 and not args.force:
        sys.stderr.write(report_json(report))
        sys.stderr.write("criterion unsatisfied; rerun with --force to export anyway\n")
        return 1
    chain = build_chain(rc)
    # both outputs exist before either is written, and are written together
    csv_text = _field_csv(chain, args.annulus_rmax, args.resolution)
    ppm = ([(args.ppm, _field_ppm(chain, args.ppm_resolution, args.window))]
           if args.ppm else [])
    atomic_write(args.out, csv_text, *ppm)
    return 0


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


def cmd_ktable(args) -> int:
    lines = ["s,k,l1,l2,l3,K"]
    for s_text in args.s:
        s = _parse_complex(s_text)
        for k in args.k:
            qb = qc_bound_k(s, k)
            cells = ["" if v is None else repr(v) for v in (qb.l1, qb.l2, qb.l3)]
            lines.append(f"{s_text},{k!r},{cells[0]},{cells[1]},{cells[2]},{qb.K!r}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_oracle(args) -> int:
    rc = _load(args.config, args)
    block = oracle_block(rc, subject_function(rc))
    _emit(args, report_json({"version": __version__, "oracle": block}))
    ok = block["injective_on_grid"] and block["preimage_counts_ok"]
    return 0 if ok else 1


def cmd_preset_list(_args) -> int:
    for name, preset in PRESETS.items():
        sys.stdout.write(f"{name}: {preset.help}\n")
    return 0


def _checked(kind, ok, what: str):
    """An argparse type: ``kind(text)``, rejected unless ``ok`` holds for it."""
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    convert.__name__ = kind.__name__  # named in argparse's "invalid ..." message
    return convert


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "an integer >= 1")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first :func:`main` call.

    Each subcommand looks up its ``cmd_*`` function by name when it runs,
    so a wrapper installed on ``cli.cmd_check`` later still sees the calls.
    """
    ap = argparse.ArgumentParser(
        prog="schlicht",
        description="Numerical certification of univalence criteria for "
                    "integral operators, with Becker extension export.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a criterion plus the oracle cross-check")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--grid", default=None, metavar="NxM",
                   help="override grid as n_radial x n_angular")
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--no-timings", action="store_true",
                   help="omit the timings block (byte-stable reports)")
    p.add_argument("--no-oracle", action="store_true")
    p.set_defaults(fn=lambda a: cmd_check(a))

    p = sub.add_parser("extend", help="export the Becker extension field")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--grid", default=None, metavar="NxM")
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--annulus-rmax", default=10.0,
                   type=_checked(float, lambda v: 1 <= v < math.inf, "finite and >= 1"))
    p.add_argument("--resolution", type=_AT_LEAST_ONE, default=128)
    p.add_argument("--force", action="store_true",
                   help="export even when the criterion fails")
    p.add_argument("--ppm", default=None, help="also write a P6 raster here")
    p.add_argument("--ppm-resolution", type=_AT_LEAST_ONE, default=256)
    p.add_argument("--window", default=2.0,
                   type=_checked(float, lambda v: 0 < v < math.inf, "finite and > 0"))
    p.set_defaults(fn=lambda a: cmd_extend(a))

    p = sub.add_parser("ktable", help="tabulate the dilatation bound K(s, k)")
    p.add_argument("--s", nargs="+", required=True,
                   help="complex values like 1, 2, 1+1i")
    p.add_argument("--k", nargs="+", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=lambda a: cmd_ktable(a))

    p = sub.add_parser("oracle", help="run only the univalence oracle")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--grid", default=None, metavar="NxM")
    p.add_argument("--rmax", type=float, default=None)
    p.set_defaults(fn=lambda a: cmd_oracle(a))

    p = sub.add_parser("preset-list", help="list parameter presets")
    p.set_defaults(fn=lambda a: cmd_preset_list(a))
    return ap


# (mallopt parameter number in glibc's <malloc.h>, value)
_HEAP_POLICY = (
    (-2, 16 << 20),  # M_TOP_PAD
    (-3, 32 << 20),  # M_MMAP_THRESHOLD
    (-1, 64 << 20),  # M_TRIM_THRESHOLD
)


@functools.cache
def _keep_freed_heap() -> bool:
    """Set the heap policy of the module docstring once per process.

    True if glibc accepted every setting; False where the C library is
    not glibc or has no ``mallopt``.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    accepted = [mallopt(param, value) for param, value in _HEAP_POLICY]
    return all(ok == 1 for ok in accepted)


def main(argv=None) -> int:
    _keep_freed_heap()
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DslSyntaxError as exc:
        d = exc.diagnostic
        sys.stderr.write(json.dumps({
            "error": "parse", "position": d.position,
            "message": d.message, "expected": list(d.expected),
        }) + "\n")
        return 2
    except SchlichtError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
