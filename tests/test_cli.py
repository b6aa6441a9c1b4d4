import argparse
import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import schlicht
from schlicht import cli
from schlicht.cli import main
from schlicht.reporting import atomic_write, load_config

REPO = Path(__file__).resolve().parent.parent

TRIVIAL = {
    "f": "z", "g": "z", "h": "1",
    "params": {"alpha": [1, 0], "c": [-1, 0], "s": [1, 0], "m": 2, "k": 0.5},
    "check": "T2",
    "grid": {"n_radial": 24, "n_angular": 48, "r_max": 0.999, "refinement_levels": 2},
    "seed": 11,
}

BECKER_FAIL = {
    "f": "z/(1-z)",
    "preset": "becker",
    "params": {"alpha": [1, 0], "c": [-1, 0], "s": [1, 0], "m": 2, "k": 0},
    "grid": {"n_radial": 24, "n_angular": 48, "r_max": 0.999, "refinement_levels": 2},
    "seed": 11,
}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_check_pass_exit_zero(tmp_path):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    out = tmp_path / "rep.json"
    assert main(["check", "--config", cfg, "--out", str(out), "--no-timings"]) == 0
    rep = json.loads(out.read_text())
    assert rep["check"]["satisfied"]
    assert rep["check"]["margin"] == pytest.approx(1.0, abs=1e-9)
    assert rep["oracle"]["injective_on_grid"]


def test_check_fail_exit_one(tmp_path):
    cfg = _write(tmp_path, "cfg.json", BECKER_FAIL)
    out = tmp_path / "rep.json"
    assert main(["check", "--config", cfg, "--out", str(out), "--no-timings"]) == 1
    rep = json.loads(out.read_text())
    assert not rep["check"]["satisfied"]
    w = rep["check"]["witness"]
    assert abs(np.angle(complex(w[0], w[1]))) < np.deg2rad(2)


def test_check_bad_dsl_exit_two(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"f": "z+", "check": "becker"})
    assert main(["check", "--config", cfg]) == 2
    err = capsys.readouterr().err
    diag = json.loads(err)
    assert diag["position"] == 2


def test_check_unknown_criterion_exit_two(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"f": "z", "check": "T99"})
    assert main(["check", "--config", cfg]) == 2


def test_determinism_byte_identical(tmp_path):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", "--config", cfg, "--out", str(a), "--no-timings"]) == 0
    assert main(["check", "--config", cfg, "--out", str(b), "--no-timings"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_flag_precedence_over_config(tmp_path):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    out = tmp_path / "rep.json"
    assert main(["check", "--config", cfg, "--out", str(out), "--no-timings",
                 "--grid", "12x20", "--rmax", "0.9"]) == 0
    rep = json.loads(out.read_text())
    assert rep["check"]["grid"]["n_radial"] == 12
    assert rep["check"]["grid"]["n_angular"] == 20
    assert rep["check"]["grid"]["r_max"] == 0.9


def test_report_validates_against_schema(tmp_path):
    import schlicht
    from pathlib import Path

    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    out = tmp_path / "rep.json"
    main(["check", "--config", cfg, "--out", str(out)])
    schema_path = Path(schlicht.__file__).parent / "schemas" / "report.schema.json"
    schema = json.loads(schema_path.read_text())
    jsonschema.validate(json.loads(out.read_text()), schema)


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("grid, ratio", [("1x1", None), ("1x2", 1.0)])
def test_a_one_point_grid_reports_no_separation_ratio(tmp_path, grid, ratio):
    # with one point there is no pair: null, not the Infinity that strict
    # JSON parsers reject
    out = tmp_path / "rep.json"
    assert main(["check", "--config", str(REPO / "demos" / "configs" / "becker_pass.json"),
                 "--grid", grid, "--out", str(out), "--no-timings"]) == 0
    report = _strict_json(out.read_text())
    assert report["oracle"]["injective_on_grid"] is True
    assert report["oracle"]["min_separation_ratio"] == ratio
    schema_path = Path(schlicht.__file__).parent / "schemas" / "report.schema.json"
    jsonschema.validate(report, json.loads(schema_path.read_text()))


def test_ktable_values(tmp_path):
    out = tmp_path / "ktable.csv"
    assert main(["ktable", "--s", "1", "2", "1+1i", "--k", "0", "0.2", "0.3",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "s,k,l1,l2,l3,K"
    table = {}
    for row in rows[1:]:
        s_txt, k_txt, _, _, _, K_txt = row.split(",")
        table[(s_txt, float(k_txt))] = float(K_txt)
    for k in (0.0, 0.2, 0.3):
        assert table[("1", k)] == k
    assert table[("2", 0.0)] == pytest.approx(1 / 3, abs=1e-12)
    assert table[("1+1i", 0.2)] == pytest.approx(0.5940, abs=5e-4)


def test_extend_trivial_field(tmp_path):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    out = tmp_path / "field.csv"
    assert main(["extend", "--config", cfg, "--out", str(out),
                 "--resolution", "16"]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,y,reF,imF,absMu"
    mus = [float(r.split(",")[4]) for r in rows[1:]]
    assert max(mus) <= 1e-8
    # identity chain: F(x, y) = x + iy on every row
    for r in rows[1:5]:
        x, y, re_f, im_f, _ = map(float, r.split(","))
        assert re_f == pytest.approx(x, abs=1e-10)
        assert im_f == pytest.approx(y, abs=1e-10)


def test_extend_zero_resolution_exit_two(tmp_path):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    assert main(["extend", "--config", cfg, "--out", str(tmp_path / "f.csv"),
                 "--resolution", "0"]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--resolution", "0"), ("--ppm-resolution", "0"), ("--ppm-resolution", "-3"),
    ("--window", "0"), ("--window", "nan"), ("--annulus-rmax", "0.5"),
    ("--window", "inf"), ("--annulus-rmax", "inf"),
])
def test_extend_bad_flag_exit_two_writes_nothing(tmp_path, capsys, flag, value):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    out = tmp_path / "f.csv"
    ppm = tmp_path / "f.ppm"
    assert main(["extend", "--config", cfg, "--out", str(out),
                 "--ppm", str(ppm), flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()
    assert not ppm.exists()


def test_extend_failing_criterion_needs_force(tmp_path):
    cfg = _write(tmp_path, "cfg.json", BECKER_FAIL)
    out = tmp_path / "f.csv"
    assert main(["extend", "--config", cfg, "--out", str(out),
                 "--resolution", "8"]) == 1
    assert not out.exists()
    assert main(["extend", "--config", cfg, "--out", str(out),
                 "--resolution", "8", "--force"]) == 0
    assert out.exists()


def test_extend_ppm_raster(tmp_path):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    out = tmp_path / "f.csv"
    ppm = tmp_path / "f.ppm"
    assert main(["extend", "--config", cfg, "--out", str(out),
                 "--resolution", "8", "--ppm", str(ppm),
                 "--ppm-resolution", "32"]) == 0
    data = ppm.read_bytes()
    assert data.startswith(b"P6\n32 32\n255\n")
    assert len(data) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3


@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
def test_output_files_honour_the_umask(tmp_path, mask):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    outs = [tmp_path / name for name in ("rep.json", "f.csv", "f.ppm")]
    old = os.umask(mask)
    try:
        assert main(["check", "--config", cfg, "--out", str(outs[0]),
                     "--no-timings", "--no-oracle"]) == 0
        assert main(["extend", "--config", cfg, "--out", str(outs[1]),
                     "--resolution", "4", "--ppm", str(outs[2]),
                     "--ppm-resolution", "4"]) == 0
    finally:
        os.umask(old)
    for out in outs:
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~mask


def test_atomic_write_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # reading the umask means setting it, and a file that another thread
    # creates meanwhile would get the mode 0666 or 0777
    def umask(mask):
        raise AssertionError("atomic_write set the process umask")

    monkeypatch.setattr(os, "umask", umask)
    text, data = tmp_path / "r.json", tmp_path / "f.ppm"
    atomic_write(str(text), "{}\n", (str(data), b"P6"))
    assert text.read_text() == "{}\n" and data.read_bytes() == b"P6"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.ppm", "r.json"]


def test_atomic_write_draws_another_temp_name_when_one_exists(tmp_path, monkeypatch):
    taken = tmp_path / f".schlicht-{bytes(8).hex()}"
    taken.write_text("kept")
    draws = iter([bytes(8), bytes(8), b"\x01" * 8])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    atomic_write(str(tmp_path / "out.txt"), "new")
    assert (tmp_path / "out.txt").read_text() == "new" and taken.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "out.txt"]


@pytest.mark.parametrize("bad", ["ppm", "csv"])
def test_extend_failed_write_leaves_no_output(tmp_path, capsys, bad):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    missing = str(tmp_path / "nodir" / f"f.{bad}")
    out = missing if bad == "csv" else str(tmp_path / "f.csv")
    ppm = missing if bad == "ppm" else str(tmp_path / "f.ppm")
    assert main(["extend", "--config", cfg, "--out", out, "--resolution", "4",
                 "--ppm", ppm, "--ppm-resolution", "4"]) == 2
    err = capsys.readouterr().err
    assert repr(missing) in err and ".schlicht-" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_extend_t6_family_mu_column(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "f": "z + 0.2*z^2", "g": "z",
        "params": {"alpha": [1, 0], "c": [-1, 0], "s": [1, 0], "m": 2,
                   "k": 0.250001},
        "check": "T6",
        "grid": {"n_radial": 24, "n_angular": 48},
        "seed": 5,
    })
    out = tmp_path / "field.csv"
    assert main(["extend", "--config", cfg, "--out", str(out),
                 "--resolution", "16"]) == 0
    mus = [float(r.split(",")[4]) for r in out.read_text().strip().splitlines()[1:]]
    assert max(mus) == pytest.approx(0.25, rel=0.1)


def test_check_remaining_routes(tmp_path):
    base_grid = {"n_radial": 16, "n_angular": 32, "refinement_levels": 1}
    cases = [
        ({"f": "z + 0.1*z^2", "check": "T21",
          "params": {"alpha": [1, 0], "c": [-1, 0], "s": [1, 0], "m": 2, "k": 0}}, 0),
        ({"f": "z", "check": "T3",
          "params": {"alpha": [0.5, 0], "c": [-1, 0], "s": [2, 0], "m": 2, "k": 0}}, 0),
        ({"f": "z", "check": "T5-qc",
          "params": {"alpha": [1, 0], "c": [-1, 0], "s": [1, 0], "m": 2, "k": 0.5}}, 0),
        ({"f": "z + 0.1*z^2", "check": "logderiv-Uk",
          "params": {"alpha": [1, 0], "c": [-1, 0], "s": [1, 0], "m": 2, "k": 0.15}}, 0),
    ]
    for payload, expected in cases:
        payload["grid"] = base_grid
        payload["seed"] = 9
        cfg = _write(tmp_path, "route.json", payload)
        out = tmp_path / "route_out.json"
        code = main(["check", "--config", cfg, "--out", str(out), "--no-timings"])
        assert code == expected, payload["check"]
        rep = json.loads(out.read_text())
        assert rep["check"]["criterion"] == payload["check"]
        if payload["check"] == "T5-qc":
            assert rep["qc_bound"]["K"] == 0.5


def test_invalid_params_exit_two(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "f": "z", "check": "T2",
        "params": {"alpha": [1, 0], "c": [1, 0], "s": [1, 0], "m": 2, "k": 0},
    })
    assert main(["check", "--config", cfg]) == 2


@pytest.mark.parametrize("payload, key", [
    ({"grid": {"n_radail": 8}}, "grid.n_radail"),
    ({"parms": {"k": 0.9}}, "parms"),
    ({"params": {"alpha": [1, 0], "kk": 0.9}}, "params.kk"),
    ({"quadrature": {"nodes_per_panel": 16, "abs_tolerance": 1e-10}}, "quadrature"),
])
def test_unknown_config_key_exit_two(tmp_path, capsys, payload, key):
    cfg = _write(tmp_path, "cfg.json", {"f": "z", "check": "T2", **payload})
    assert main(["check", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown config key {key!r}" in captured.err


@pytest.mark.parametrize("payload, message", [
    ({"f": "z", "check": "T2", "grid": 5},
     "config section 'grid' must be a JSON object, got int"),
    ({"f": "z", "check": "T2", "params": "x"},
     "config section 'params' must be a JSON object, got str"),
    ([1, 2], "a config must be a JSON object, got list"),
], ids=["grid", "params", "top-level"])
def test_config_that_is_not_an_object_exit_two(tmp_path, capsys, payload, message):
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main(["check", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("grid, message", [
    ({"refinement_levels": -2}, "grid.refinement_levels must be an integer >= 0, got -2"),
    ({"refinement_levels": 1.5}, "grid.refinement_levels must be an integer >= 0, got 1.5"),
    ({"n_radial": 2.7}, "grid.n_radial must be an integer >= 1, got 2.7"),
    ({"n_radial": 0}, "grid.n_radial must be an integer >= 1, got 0"),
    ({"n_angular": True}, "grid.n_angular must be an integer >= 1, got True"),
    ({"n_angular": "64"}, "grid.n_angular must be an integer >= 1, got '64'"),
    ({"r_max": 1.5}, "grid.r_max must lie in (0, 1 - 1e-6], got 1.5"),
    ({"r_max": "0.9"}, "grid.r_max must lie in (0, 1 - 1e-6], got '0.9'"),
], ids=["levels-negative", "levels-fractional", "radial-fractional", "radial-zero",
        "angular-bool", "angular-string", "rmax-above-one", "rmax-string"])
def test_invalid_grid_value_exit_two(tmp_path, capsys, grid, message):
    cfg = _write(tmp_path, "cfg.json", {"f": "z", "check": "T2", "grid": grid})
    out = tmp_path / "rep.json"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


def test_invalid_grid_flag_exit_two(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    assert main(["check", "--config", cfg, "--grid", "0x48"]) == 2
    assert "grid.n_radial must be an integer >= 1, got 0" in capsys.readouterr().err


_REAL_OR_PAIR = "must be a real number or a [re, im] pair of real numbers"


@pytest.mark.parametrize("change, message", [
    ({"seed": 2.7}, "seed must be an integer >= 0, got 2.7"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"seed": None}, "seed must be an integer >= 0, got None"),
    ({"params": {"m": True}}, "params.m must be a real number, got True"),
    ({"params": {"m": None}}, "params.m must be a real number, got None"),
    ({"params": {"k": "0.5"}}, "params.k must be a real number, got '0.5'"),
    ({"params": {"alpha": "1"}}, f"params.alpha {_REAL_OR_PAIR}, got '1'"),
    ({"params": {"s": [1, "2"]}}, f"params.s {_REAL_OR_PAIR}, got [1, '2']"),
    ({"params": {"c": [-1, 0, 0]}}, f"params.c {_REAL_OR_PAIR}, got [-1, 0, 0]"),
    ({"params": {"c": [False, 0]}}, f"params.c {_REAL_OR_PAIR}, got [False, 0]"),
    # Python's json reads NaN, Infinity and -Infinity; T5-qc with s = [1, Infinity]
    # was certified with K = NaN, and the others reported NaN margins
    ({"check": "T5-qc", "params": {"s": [1, math.inf], "k": 0.2}},
     "s must be finite, got (1+infj)"),
    ({"params": {"alpha": math.nan}}, "alpha must be finite, got (nan+0j)"),
    ({"params": {"alpha": [1, math.inf]}}, "alpha must be finite, got (1+infj)"),
    ({"params": {"c": [-math.inf, 0]}}, "c must be finite, got (-inf+0j)"),
    ({"params": {"m": math.inf}}, "m must be finite, got inf"),
    ({"params": {"m": math.nan}}, "m must be finite, got nan"),
    ({"params": {"k": math.nan}}, "k must be finite, got nan"),
], ids=["seed-fractional", "seed-negative", "seed-bool", "seed-null", "m-bool",
        "m-null", "k-string", "alpha-string", "s-string-part", "c-triple", "c-bool-part",
        "t5qc-s-infinite", "alpha-nan", "alpha-infinite-part", "c-minus-infinite",
        "m-infinite", "m-nan", "k-nan"])
def test_invalid_param_or_seed_exit_two(tmp_path, capsys, change, message):
    payload = {**TRIVIAL, **change}
    if "params" in change:
        payload["params"] = {**TRIVIAL["params"], **change["params"]}
    cfg = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "rep.json"
    for oracle in ([], ["--no-oracle"]):
        assert main(["check", "--config", cfg, "--out", str(out), *oracle]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()


def test_params_and_seed_accept_numpy_scalars():
    rc = load_config({**TRIVIAL, "seed": np.int64(11), "params": {
        "alpha": [np.float64(1), np.int32(0)], "c": np.float64(-1), "s": 1,
        "m": np.int64(2), "k": np.float32(0.5)}})
    assert (rc.seed, rc.params.alpha, rc.params.c, rc.params.m) == (11, 1, -1, 2.0)
    assert type(rc.seed) is int and type(rc.params.m) is float


def test_every_shipped_config_loads(monkeypatch):
    # the demo configs and the benchmark's item configs hold only known keys
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    configs = [json.loads(p.read_text())
               for p in sorted((REPO / "demos" / "configs").glob("*.json"))]
    for raw in configs + [item.config for item in workloads.full_catalog()]:
        load_config(raw)


def test_oracle_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    assert main(["oracle", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["oracle"]["preimage_counts_ok"]


def test_preset_list(capsys):
    assert main(["preset-list"]) == 0
    out = capsys.readouterr().out
    for name in ("ruscheweyh", "becker", "lewandowski", "ovesea"):
        assert name in out


PRESET_LIST = """\
ruscheweyh: m=2, h=1, g=f, alpha=1/s (routes to T3)
moldoveanu-pascu-remark: m=2, h=1, g=z, Re(s)=1, c=-1/alpha (routes to T3)
singh-chichra: m=2, g=f, alpha=1/s, h replaced by 1/h with h(0)=1 (routes to T3)
lewandowski: m=2, g=f, s=alpha=1, c=-1, h=(k_fn+1)/2 (routes to T3)
ovesea: m=2, h(0)=1 (routes to T2)
becker: s=alpha=1, h=-c, routed to the (m-2)/2 inequality
"""


def test_preset_list_exact_text(capsys):
    assert main(["preset-list"]) == 0
    assert capsys.readouterr().out == PRESET_LIST


def test_missing_config_exit_two(tmp_path):
    assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2


def _calls_of_every_kind(tmp_path):
    """One check, extend, ktable and preset-list call, each exiting 0."""
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "rep.json"),
                 "--no-timings", "--no-oracle"]) == 0
    assert main(["extend", "--config", cfg, "--out", str(tmp_path / "f.csv"),
                 "--resolution", "4"]) == 0
    assert main(["ktable", "--s", "1", "--k", "0.2",
                 "--out", str(tmp_path / "k.csv")]) == 0
    assert main(["preset-list"]) == 0


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "schlicht":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _calls_of_every_kind(tmp_path)
    _calls_of_every_kind(tmp_path)
    # none when an earlier call in this process already built it
    assert len(built) <= 1


def test_wrappers_installed_after_the_first_call_see_later_calls(tmp_path, monkeypatch):
    _calls_of_every_kind(tmp_path)
    seen = []

    def wrap(name):
        original = getattr(cli, name)

        def wrapper(args):
            seen.append(name)
            return original(args)
        monkeypatch.setattr(cli, name, wrapper)

    wrap("cmd_check")
    wrap("cmd_extend")
    _calls_of_every_kind(tmp_path)
    assert seen == ["cmd_check", "cmd_extend"]


def test_a_reused_parser_still_rejects_and_reports(tmp_path, capsys):
    _calls_of_every_kind(tmp_path)
    capsys.readouterr()
    cfg = _write(tmp_path, "cfg.json", TRIVIAL)
    out, ppm = tmp_path / "bad.csv", tmp_path / "bad.ppm"
    assert main(["extend", "--config", cfg, "--out", str(out), "--ppm", str(ppm),
                 "--resolution", "0"]) == 2
    assert "--resolution" in capsys.readouterr().err
    assert not out.exists() and not ppm.exists()
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == schlicht.__version__ + "\n"
    assert main(["preset-list"]) == 0
    assert capsys.readouterr().out == PRESET_LIST


def test_fresh_process_and_reused_parser_print_the_same_report(tmp_path, capsys):
    argv = ["check", "--config", str(REPO / "demos" / "configs" / "trivial_t2.json"),
            "--no-timings"]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    fresh = subprocess.run([sys.executable, "-m", "schlicht.cli", *argv], cwd=REPO,
                           env=env, capture_output=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    _calls_of_every_kind(tmp_path)
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == fresh.stdout


def test_warm_and_fresh_processes_write_the_same_bytes(tmp_path, capsys):
    # the export grid and the series are kept per process; a process that
    # exported other configs at the same resolutions writes what a fresh one does
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    configs = REPO / "demos" / "configs"
    t6 = str(configs / "t6_eps02.json")
    runs = [["extend", "--config", t6, "--resolution", r, "--out"] for r in ("8", "16")]
    check = ["check", "--config", t6, "--no-timings"]
    fresh = []
    for i, argv in enumerate(runs):
        out = tmp_path / f"fresh{i}.csv"
        done = subprocess.run([sys.executable, "-m", "schlicht.cli", *argv, str(out)],
                              cwd=REPO, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        fresh.append(out.read_bytes())
    done = subprocess.run([sys.executable, "-m", "schlicht.cli", *check], cwd=REPO,
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for i, argv in enumerate(runs):
        for other in ("t5_qc", "becker_pass"):
            assert main(["extend", "--config", str(configs / f"{other}.json"),
                         *argv[3:], str(tmp_path / "other.csv")]) == 0
        hits = cli._export_grid.cache_info().hits
        assert main([*argv, str(tmp_path / "warm.csv")]) == 0
        assert cli._export_grid.cache_info().hits == hits + 1
        assert (tmp_path / "warm.csv").read_bytes() == fresh[i]
    capsys.readouterr()
    assert main(check) == 0
    assert capsys.readouterr().out.encode() == done.stdout


def _has_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Checks a config in one process: twice to warm up, then five times
# counting minor page faults.  Prints the faults per check.
_FAULTS_PER_CHECK = """
import resource, sys
from schlicht import cli
assert cli._keep_freed_heap.cache_info().currsize == 0, "set at import"
argv = ["check", "--config", sys.argv[1], "--out", sys.argv[2], "--no-timings",
        *sys.argv[3:]]
for _ in range(2):
    assert cli.main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    assert cli.main(argv) == 0
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli._keep_freed_heap.cache_info().misses == 1, "set more than once"
print((after - before) / 5)
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _has_glibc()),
                    reason="the heap policy applies only under glibc")
@pytest.mark.parametrize("name, flags", [
    # about 577 faults per check when glibc trims the heap top after every pass
    ("t5_qc", []),
    # 2 MiB temporaries: about 10,300 when trimmed, 4,900 with the pad alone
    ("t6_eps02", ["--grid", "256x512"]),
])
def test_repeated_checks_keep_their_heap(tmp_path, name, flags):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_CHECK,
         str(REPO / "demos" / "configs" / f"{name}.json"), str(tmp_path / "rep.json"),
         *flags],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 50


def test_heap_policy_is_skipped_without_glibc_or_mallopt(monkeypatch):
    keep = cli._keep_freed_heap.__wrapped__  # unmemoized
    opened = []

    def no_mallopt(name):
        opened.append(name)
        return argparse.Namespace()

    def unknown_name(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_mallopt)
    for confstr in (unknown_name, lambda name: None):
        monkeypatch.setattr(cli.os, "confstr", confstr)
        assert keep() is False
    monkeypatch.delattr(cli.os, "confstr")
    assert keep() is False
    assert opened == []  # no C library was opened

    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.99", raising=False)
    assert keep() is False
    assert opened == [None]

    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: argparse.Namespace(
        mallopt=lambda param, value: calls.append((param, value)) or 1))
    assert keep() is True
    # M_TOP_PAD 16 MiB, M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 64 MiB
    assert calls == [(-2, 16 << 20), (-3, 32 << 20), (-1, 64 << 20)]
