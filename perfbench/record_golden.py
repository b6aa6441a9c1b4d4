"""Record the golden references of every benchmark item into golden.json.

Run from the repository root on the commit whose outputs are the
reference:

    python3 perfbench/record_golden.py

It executes each catalog entry once (about three minutes on two cores) and
stops with an error if an output already fails a closed-form check or sits
so close to its verdict threshold that the margin tolerance could flip it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    items = wl.full_catalog()
    golden: dict = {}
    problems: list[str] = []
    tmp_root = wl.REPO / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        ex = wl.Executor(Path(tmp))
        ex.prepare(items)
        for n, it in enumerate(items, 1):
            latency, raw = ex.run(it)
            obs, _ = wl.observe(it, raw)
            golden[it.key] = wl.golden_entry(it, obs)
            problems += wl.verify(it, obs, golden)
            margin = obs.get("margin")
            if margin is not None and abs(margin) < 1e-6:
                problems.append(f"{it.key}: margin {margin!r} too close to 0")
            print(f"[{n}/{len(items)}] {it.key} {latency:.3f}s", flush=True)
    if problems:
        sys.stderr.write("\n".join(problems) + "\n")
        return 1
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} references to {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
