"""The benchmark's span tracer changes no output.

``perfbench/tracing.py`` wraps public functions of every layer, and the
run subject too, with ``functools.wraps``; a subject that lost its
``derivative`` or ``jet`` under the wrapper would still give a report, but
one whose G' came from finite differences.  So every report and export
must come out byte-identical with the tracer installed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from schlicht.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "demos" / "configs"
SMALL = {"n_radial": 16, "n_angular": 32}

CASES = [
    *[pytest.param(json.loads(p.read_text()), id=p.stem) for p in sorted(CONFIGS.glob("*.json"))],
    pytest.param({"f": "z + 0.02*z^2", "check": "logderiv-Uk", "grid": SMALL, "seed": 5,
                  "params": {"alpha": [2, 0], "k": 0.5}}, id="logderiv-Uk-alpha2"),
    pytest.param({"f": "z + 0.05*z^2", "g": "z*exp(0.1*z)", "check": "T2", "grid": SMALL,
                  "seed": 5, "params": {"alpha": [2, 0], "m": 5}}, id="T2-alpha2"),
]


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, loaded by path as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outputs(config: Path, out: Path) -> tuple[bytes, bytes]:
    """The ``check`` report and the ``extend --resolution 8`` CSV of ``config``."""
    main(["check", "--config", str(config), "--out", str(out), "--no-timings"])
    report = out.read_bytes()
    assert main(["extend", "--config", str(config), "--out", str(out), "--force",
                 "--resolution", "8"]) == 0
    return report, out.read_bytes()


@pytest.mark.parametrize("raw", CASES)
def test_traced_and_untraced_outputs_are_byte_identical(tracing, tmp_path, raw):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    untraced = _outputs(config, tmp_path / "untraced")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _outputs(config, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert b'"oracle"' in traced[0]
    assert traced == untraced
    # the tracer saw the run, the subject included
    assert "reporting.subject" in tracer.names and "cli.cmd_extend" in tracer.names
