"""Workloads of the schlicht benchmark: seeded items, their execution, and
the correctness checks each output must pass.

An item is one user-visible operation: a ``schlicht check`` run, or for
extend-field the dilatation scan, seam check and ``schlicht extend`` export
of one Loewner chain.  A workload is a fixed list of item kinds; the seed
draws each kind's free parameter (the perturbation size of the subject,
and for one kind the operator exponent) from a small catalog, and the order
of the list.  Every catalog entry has a golden reference in ``golden.json``
recorded by ``record_golden.py``, so any seed is checkable.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from schlicht import cli, extension, reporting

REPO = Path(__file__).resolve().parent.parent
DEMO_CONFIGS = REPO / "demos" / "configs"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

EPS_CATALOG = (0.02, 0.05, 0.08, 0.11, 0.14, 0.17)
F_FAMILIES = {
    "quad": "z + {e}*z^2",
    "cubic": "z + {e}*z^3",
    "exp": "z*exp({e}*z)",
    "moeb": "z/(1 - {e}*z)",
}
G_SET = ("z", "z*exp(0.1*z)", "z + 0.1*z^2", "z/(1 - 0.3*z)")
LADDER_G = "z*exp(0.1*z)"

# Extend-field sizes: a quarter of the default 64x256 annulus and of the
# default 128 CSV resolution, so that a pass over the four chains fits in a
# run several times.  The PPM raster is left out.
ANNULUS = (16, 128)
CSV_RESOLUTION = 32

# Tolerances pinned in tests/test_acceptance.py.
MARGIN_TOL = 1e-9          # acceptance 01: identity T2 margin
FD_MARGIN_TOL = 1e-6       # margins that come from finite differences
DILATATION_REL_TOL = 0.02  # acceptance 03 and 08
SEAM_TOL = 1e-6            # acceptance 09
IDENTITY_MU_TOL = 1e-8     # acceptance 01
WITNESS_ANGLE_DEG = 1.0    # acceptance 03


@dataclass(frozen=True)
class Item:
    """One operation; ``key`` names its catalog entry and golden reference."""

    key: str
    kind: str  # "check" or "extend"
    config: dict
    oracle: bool = True


@dataclass
class Outcome:
    key: str
    latency_s: float
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _grid(n_radial: int, n_angular: int) -> dict:
    return {"n_radial": n_radial, "n_angular": n_angular, "r_max": 0.999,
            "refinement_levels": 3}


def _config(f: str, g: str = "z", h: str = "1", alpha=(1, 0), c=(-1, 0),
            s=(1, 0), m: float = 2, k: float = 0.0, check: str | None = "T2",
            preset: str | None = None, grid=(64, 128)) -> dict:
    cfg = {"f": f, "g": g, "h": h,
           "params": {"alpha": list(alpha), "c": list(c), "s": list(s),
                      "m": m, "k": k},
           "grid": _grid(*grid), "seed": 2024}
    if check:
        cfg["check"] = check
    if preset:
        cfg["preset"] = preset
    return cfg


def _family(name: str, eps: float) -> str:
    return F_FAMILIES[name].format(e=eps)


# --- check-oracle ----------------------------------------------------------

def _demo_items() -> list[Item]:
    return [Item(f"demo:{p.stem}", "check", json.loads(p.read_text()))
            for p in sorted(DEMO_CONFIGS.glob("*.json"))]


def check_oracle_catalog() -> dict[str, list[Item]]:
    """Seeded item kinds of check-oracle, each with its catalog of inputs.

    The demo configs use the default 64x128 grid (8,192 points, all-pairs
    injectivity scan); ``big`` uses 128x256 (32,768 points, bucketed scan).
    The operator subjects use smaller grids so that one pass fits in a run.
    """
    kinds: dict[str, list[Item]] = {k: [] for k in
                                    ("smooth", "hard03", "hard07", "ladder",
                                     "logderiv", "big")}
    for e in EPS_CATALOG:
        f = _family("quad", e)
        for alpha, m in ((1, 2), (2, 5)):
            kinds["smooth"].append(Item(
                f"smooth:a{alpha}:e{e}", "check",
                _config(f, alpha=(alpha, 0), m=m, grid=(32, 64))))
        kinds["hard03"].append(Item(
            f"hard03:e{e}", "check", _config(f, alpha=(0.3, 0), grid=(32, 64))))
        kinds["hard07"].append(Item(
            f"hard07:e{e}", "check",
            _config(_family("cubic", e), alpha=(0.7, 0.2), grid=(32, 64))))
        kinds["ladder"].append(Item(
            f"ladder:e{e}", "check",
            _config(f, g=LADDER_G, alpha=(2, 0), k=0.6, check="T6",
                    grid=(16, 32))))
        kinds["logderiv"].append(Item(
            f"logderiv:e{e}", "check",
            _config(f, k=0.5, check="logderiv-Uk", grid=(32, 64))))
        kinds["big"].append(Item(
            f"big:e{e}", "check",
            _config(_family("exp", e), check=None, preset="becker",
                    grid=(128, 256))))
    return kinds


def check_oracle_items(rng: np.random.Generator) -> list[Item]:
    kinds = check_oracle_catalog()
    # Two draws of each hard-ray kind put four items of like cost at the
    # middle of the latency distribution, which steadies item_s_p50.
    draws = {k: 2 if k.startswith("hard") else 1 for k in kinds}
    picked = [kinds[k][int(rng.integers(len(kinds[k])))]
              for k in kinds for _ in range(draws[k])]
    # the repeated bucketed-scan item checks determinism inside one pass
    items = _demo_items() + picked + [picked[-1]]
    return [items[i] for i in rng.permutation(len(items))]


def check_oracle_warmup() -> list[Item]:
    return [Item("warm:trivial-small", "check",
                 _config("z", k=0.5, grid=(16, 32)))]


# --- criterion-sweep -------------------------------------------------------

_SWEEP_CHECKS = {
    "T2": dict(check="T2"),
    "T21": dict(check="T21"),
    "T3": dict(check="T3"),
    "T5-qc": dict(check="T5-qc", k=0.2),
    "T6": dict(check="T6", alpha=(2, 0), k=0.6),
    "ovesea": dict(check=None, preset="ovesea"),
}


def _sweep_item(check: str, fam: str, gi: int, e: float) -> Item:
    f = _family(fam, e)
    if check == "becker":
        cfg = _config(f, check=None, preset="becker")
    elif check == "ruscheweyh":
        cfg = _config(f, check=None, preset="ruscheweyh")
    else:
        cfg = _config(f, g=G_SET[gi], **_SWEEP_CHECKS[check])
    return Item(f"sweep:{check}:{fam}:g{gi}:e{e}", "check", cfg, oracle=False)


def criterion_sweep_slots() -> list[tuple[str, str, int]]:
    """(check, f family, g index) for every item of one pass."""
    slots = [(c, fam, gi) for c in _SWEEP_CHECKS for fam in F_FAMILIES
             for gi in range(len(G_SET))]
    slots += [(c, fam, 0) for c in ("becker", "ruscheweyh") for fam in F_FAMILIES]
    return slots


def criterion_sweep_catalog() -> list[Item]:
    return [_sweep_item(c, fam, gi, e) for c, fam, gi in criterion_sweep_slots()
            for e in EPS_CATALOG]


def criterion_sweep_items(rng: np.random.Generator) -> list[Item]:
    items = [_sweep_item(c, fam, gi, EPS_CATALOG[int(rng.integers(len(EPS_CATALOG)))])
             for c, fam, gi in criterion_sweep_slots()]
    return [items[i] for i in rng.permutation(len(items))]


def criterion_sweep_warmup() -> list[Item]:
    return [_sweep_item("T2", "quad", 0, 0.05), _sweep_item("T6", "quad", 1, 0.05)]


# --- extend-field ----------------------------------------------------------

def _chain_items(e: float) -> list[Item]:
    f = _family("quad", e)
    return [
        # the T6 epsilon family of acceptance 08: max|mu| = e/(1-e)
        Item(f"chain-t6:e{e}", "extend",
             _config(f, k=e / (1 - e) + 1e-6, check="T6")),
        Item(f"chain-main:e{e}", "extend",
             _config(f, alpha=(1.5, 0), s=(1.3, 0.2), m=2.6)),
        Item(f"chain-becker:e{e}", "extend",
             _config(f, check=None, preset="becker")),
        Item(f"chain-ladder:e{e}", "extend",
             _config(f, g=LADDER_G, alpha=(2, 0), k=0.6, check="T6")),
    ]


def extend_field_catalog() -> list[Item]:
    return [it for e in EPS_CATALOG for it in _chain_items(e)]


def extend_field_items(rng: np.random.Generator) -> list[Item]:
    n = len(_chain_items(EPS_CATALOG[0]))
    items = [_chain_items(EPS_CATALOG[int(rng.integers(len(EPS_CATALOG)))])[j]
             for j in range(n)]
    return [items[i] for i in rng.permutation(len(items))]


def extend_field_warmup() -> list[Item]:
    return [Item("warm:identity-chain", "extend",
                 json.loads((DEMO_CONFIGS / "trivial_t2.json").read_text()))]


@dataclass(frozen=True)
class Workload:
    generate: Callable[[np.random.Generator], list[Item]]  # one pass
    warmup: Callable[[], list[Item]]


WORKLOADS = {
    "check-oracle": Workload(check_oracle_items, check_oracle_warmup),
    "criterion-sweep": Workload(criterion_sweep_items, criterion_sweep_warmup),
    "extend-field": Workload(extend_field_items, extend_field_warmup),
}


def full_catalog() -> list[Item]:
    """Every item any seed can draw, plus the warm-up items."""
    items = _demo_items()
    for kind in check_oracle_catalog().values():
        items += kind
    items += criterion_sweep_catalog() + extend_field_catalog()
    for wl in WORKLOADS.values():
        items += wl.warmup()
    return list({it.key: it for it in items}.values())


# --- execution -------------------------------------------------------------

class Executor:
    """Runs items against files in a scratch directory inside the checkout."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._paths: dict[str, Path] = {}

    def prepare(self, items: list[Item]) -> None:
        """Write each config once and resolve it (parse the DSL, apply presets)."""
        for it in items:
            if it.key in self._paths:
                continue
            path = self.workdir / f"cfg{len(self._paths)}.json"
            path.write_text(json.dumps(it.config))
            reporting.load_config(it.config)
            self._paths[it.key] = path

    def run(self, item: Item) -> tuple[float, dict]:
        """Execute one item; returns (latency, raw observations)."""
        cfg = str(self._paths[item.key])
        out = str(self.workdir / "out")
        if item.kind == "check":
            argv = ["check", "--config", cfg, "--out", out, "--no-timings"]
            if not item.oracle:
                argv.append("--no-oracle")
            t0 = time.perf_counter()
            code = cli.main(argv)
            latency = time.perf_counter() - t0
            return latency, {"exit": code, "report": Path(out).read_bytes()}
        t0 = time.perf_counter()
        field = extension.ExtensionField(
            reporting.build_chain(reporting.load_config(item.config)))
        mx, witness = extension.max_dilatation(
            field, n_radial=ANNULUS[0], n_angular=ANNULUS[1])
        seam = extension.seam_mismatch(field)
        code = cli.main(["extend", "--config", cfg, "--out", out,
                         "--resolution", str(CSV_RESOLUTION)])
        latency = time.perf_counter() - t0
        return latency, {"exit": code, "max_mu": mx, "witness": witness,
                         "seam": seam, "csv": Path(out).read_bytes()}


def observe(item: Item, raw: dict) -> tuple[dict, str]:
    """Values compared with the golden reference, and the output digest."""
    if item.kind == "check":
        report = json.loads(raw["report"])
        check = report["check"]
        obs = {"exit": raw["exit"], "satisfied": check["satisfied"],
               "margin": check["margin"]}
        if "oracle" in report:
            o = report["oracle"]
            obs.update(injective=o["injective_on_grid"],
                       preimage_counts=o["preimage_counts"],
                       derivative_flagged=o["derivative_flagged"],
                       n_points=o["n_points"])
        if item.key == "demo:becker_fail":
            cond = check["conditions"][0]
            w = check["witness"]
            obs["lhs_max"] = cond["rhs"] - check["margin"]
            obs["witness_deg"] = abs(math.degrees(math.atan2(w[1], w[0])))
            obs["r_max"] = check["grid"]["r_max"]
        return obs, hashlib.sha256(raw["report"]).hexdigest()
    lines = raw["csv"].decode("ascii").splitlines()
    cols = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    obs = {"exit": raw["exit"], "max_mu": raw["max_mu"], "seam": raw["seam"],
           "csv_header": lines[0], "csv_rows": len(lines) - 1,
           "csv_finite": bool(np.all(np.isfinite(cols))),
           "csv_absmu_max": float(np.max(cols[:, 4]))}
    h = hashlib.sha256(raw["csv"])
    h.update(repr((raw["max_mu"], raw["witness"], raw["seam"])).encode())
    return obs, h.hexdigest()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def verify(item: Item, obs: dict, golden: dict) -> list[str]:
    """Problems found in one output: closed forms first, then the golden."""
    bad: list[str] = []
    ref = golden.get(item.key)
    if ref is None:
        return [f"{item.key}: no golden reference"]
    if obs["exit"] != ref["exit"]:
        bad.append(f"exit code {obs['exit']} != {ref['exit']}")
    if item.kind == "check":
        tol = FD_MARGIN_TOL if item.config.get("check") == "logderiv-Uk" else MARGIN_TOL
        if obs["satisfied"] != ref["satisfied"]:
            bad.append(f"verdict {obs['satisfied']} != {ref['satisfied']}")
        if abs(obs["margin"] - ref["margin"]) > tol * max(1.0, abs(ref["margin"])):
            bad.append(f"margin {obs['margin']!r} != {ref['margin']!r}")
        if item.oracle:
            # every subject here is univalent
            if obs.get("injective") is not True:
                bad.append("oracle found a collision")
            if not all(c in (0, 1) for c in obs.get("preimage_counts", [2])):
                bad.append(f"preimage counts {obs.get('preimage_counts')}")
            if obs.get("derivative_flagged") is not False:
                bad.append("oracle flagged a vanishing derivative")
            if obs.get("n_points") != ref["n_points"]:
                bad.append(f"oracle grid {obs.get('n_points')} != {ref['n_points']}")
        if item.key in ("demo:trivial_t2", "warm:trivial-small"):
            if abs(obs["margin"] - 1.0) > MARGIN_TOL:
                bad.append(f"identity T2 margin {obs['margin']!r} != 1")
        if item.key == "demo:becker_fail":
            r = obs["r_max"]
            if _rel(obs["lhs_max"], 2 * r * (1 + r)) > DILATATION_REL_TOL:
                bad.append(f"becker LHS max {obs['lhs_max']!r} != 2r(1+r)")
            if obs["witness_deg"] > WITNESS_ANGLE_DEG:
                bad.append(f"becker witness angle {obs['witness_deg']:.3g} deg")
        return [f"{item.key}: {b}" for b in bad]

    if _rel(obs["max_mu"], ref["max_mu"]) > DILATATION_REL_TOL and not (
            ref["max_mu"] <= IDENTITY_MU_TOL and obs["max_mu"] <= IDENTITY_MU_TOL):
        bad.append(f"max|mu| {obs['max_mu']!r} != {ref['max_mu']!r}")
    if item.key.startswith("chain-t6:"):
        eps = float(item.key.split(":e")[1])
        if _rel(obs["max_mu"], eps / (1 - eps)) > DILATATION_REL_TOL:
            bad.append(f"max|mu| {obs['max_mu']!r} != eps/(1-eps)")
    if item.key == "warm:identity-chain":
        if obs["max_mu"] > IDENTITY_MU_TOL or obs["csv_absmu_max"] > IDENTITY_MU_TOL:
            bad.append(f"identity chain max|mu| {obs['max_mu']!r}")
    if obs["seam"] > SEAM_TOL:
        bad.append(f"seam mismatch {obs['seam']!r}")
    if obs["csv_header"] != "x,y,reF,imF,absMu" or not obs["csv_finite"]:
        bad.append("malformed extend CSV")
    if obs["csv_rows"] != ref["csv_rows"]:
        bad.append(f"CSV rows {obs['csv_rows']} != {ref['csv_rows']}")
    if (ref["csv_absmu_max"] > IDENTITY_MU_TOL
            and _rel(obs["csv_absmu_max"], ref["csv_absmu_max"]) > DILATATION_REL_TOL):
        bad.append(f"CSV max|mu| {obs['csv_absmu_max']!r} != {ref['csv_absmu_max']!r}")
    return [f"{item.key}: {b}" for b in bad]


class Runner:
    """Executes items, checks each output, and keeps one digest per item key.

    ``tracer``, when set, is told which item (by position in ``outcomes``)
    is running, so that its spans carry the item id.
    """

    def __init__(self, golden: dict):
        self.golden = golden
        self.tracer = None
        self.digests: dict[str, str] = {}
        self.outcomes: list[Outcome] = []

    def execute(self, executor: Executor, item: Item) -> Outcome:
        if self.tracer is not None:
            self.tracer.item = len(self.outcomes)
        t0 = time.perf_counter()
        try:
            latency, raw = executor.run(item)
        except Exception as exc:  # an item that raises is a failed item
            out = Outcome(item.key, time.perf_counter() - t0,
                          problems=[f"{item.key}: raised {exc!r}"])
        else:
            out = Outcome(item.key, latency)
            obs, out.digest = observe(item, raw)
            out.problems += verify(item, obs, self.golden)
            if self.digests.setdefault(item.key, out.digest) != out.digest:
                out.problems.append(f"{item.key}: output differs from an earlier run")
        finally:
            if self.tracer is not None:
                self.tracer.item = -1
        self.outcomes.append(out)
        return out


def golden_entry(item: Item, obs: dict) -> dict:
    """The part of an observation that ``golden.json`` keeps."""
    if item.kind == "check":
        keep = ("exit", "satisfied", "margin", "n_points")
    else:
        keep = ("exit", "max_mu", "seam", "csv_rows", "csv_absmu_max")
    return {k: obs[k] for k in keep if k in obs}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
