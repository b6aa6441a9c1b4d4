"""Command-line entry points: check, extend, ktable, oracle, preset-list.

Exit codes: 0 criterion satisfied / output written, 1 criterion
unsatisfied, 2 input error (bad config, malformed DSL, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import json
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


def _csv_rows(z: np.ndarray, f: np.ndarray, mu: np.ndarray) -> list[str]:
    """One ``x,y,reF,imF,absMu`` row per point, each value as Python's float repr."""
    table = np.column_stack([z.real, z.imag, f.real, f.imag, mu]).tolist()
    return [",".join(map(repr, row)) for row in table]


def _field_csv(chain, annulus_rmax: float, resolution: int) -> str:
    F = ExtensionField(chain)
    n_r = max(resolution // 2, 1)
    radii = (1 - 1e-3) * np.arange(1, n_r + 1) / n_r
    angles = 2 * np.pi * np.arange(resolution) / resolution
    interior = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    ext_radii = np.geomspace(1 + 1e-3, annulus_rmax, n_r)
    exterior = (ext_radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    lines = (["x,y,reF,imF,absMu"]
             + _csv_rows(interior, F(interior), np.zeros(len(interior)))
             + _csv_rows(exterior, F(exterior),
                         np.abs(beltrami_coefficient(F, exterior))))
    return "\n".join(lines) + "\n"


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
    p.add_argument("--annulus-rmax", type=_checked(float, lambda v: v >= 1, ">= 1"),
                   default=10.0)
    p.add_argument("--resolution", type=_AT_LEAST_ONE, default=128)
    p.add_argument("--force", action="store_true",
                   help="export even when the criterion fails")
    p.add_argument("--ppm", default=None, help="also write a P6 raster here")
    p.add_argument("--ppm-resolution", type=_AT_LEAST_ONE, default=256)
    p.add_argument("--window", type=_checked(float, lambda v: v > 0, "> 0"),
                   default=2.0)
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


def main(argv=None) -> int:
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
