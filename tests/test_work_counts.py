"""Exact quadrature work of the oracle, so extra rays fail a test.

An operator subject is integrated once on the grid (the injectivity scan,
whose pass the derivative check reuses), once on the preimage circle shared
by all probes, and once at the probe points; G'(0) = f'(0) needs no ray.
"""

import json
from pathlib import Path

import pytest

from schlicht import reporting

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


@pytest.mark.parametrize("name, grid, expected", [
    ("trivial_t2", {"n_radial": 16, "n_angular": 32}, 512 + 512 + 20),
    ("t6_eps02", None, 8192 + 512 + 20),
])
def test_oracle_block_ray_count(ray_counter, name, grid, expected):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    rc = reporting.load_config(raw, {"grid": grid} if grid else None)
    block = reporting.oracle_block(rc)
    assert block["preimage_counts_ok"] and not block["derivative_flagged"]
    assert sum(ray_counter) == expected
