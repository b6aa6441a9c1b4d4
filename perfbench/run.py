"""Benchmark of the schlicht package: one workload per invocation.

    python3 perfbench/run.py --workload check-oracle --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload is a closed loop with one
caller: items run one after another in this process, with BLAS threads
pinned to 1.  Inputs come from ``--seed``.  After set-up, whole passes over
the workload's item list run until ``--seconds`` would be exceeded (at
least one pass).  Set-up (imports, inputs, config resolution, a warm-up
item) is timed in this process and in four fresh processes started during
the timed phase; ``setup_s`` is their median.  Every output is checked
against closed forms and the golden references; a failure makes the exit
code 1.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the layers are traced and the per-layer metrics are printed instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(provenance, per-item digests, work counters) goes to
``.perfbench-results/`` in the repository root.
"""

from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("check-oracle", "criterion-sweep", "extend-field")
# Seed kept out of tuning; use it only to confirm a claimed change.
HELD_OUT_SEED = 20261017
# Set-up is sampled this many times: once in this process before the first
# timed item, and in fresh processes at even intervals of the timed phase,
# so that setup_s is not one sample of whatever the host was doing at start.
SETUP_SAMPLES = 5

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_s_p50", "s"),
              ("peak_rss_mb", "MB"))
# Per-layer metrics that BENCHMARK.json lists, per pass over the item list.
# Times of layers a workload never enters (oracle, extension, quadrature
# chunks, chain sampling, cli.extend_s) are zero there, so they are kept
# in the results file and the printed table only.
PER_LAYER = (
    ("dsl.parse_s", "s"), ("dsl.self_s", "s"),
    ("expr.build_s", "s"), ("expr.logderiv_s", "s"), ("expr.logderiv_points", "count"),
    ("expr.eval_s", "s"), ("expr.eval_points", "count"), ("expr.self_s", "s"),
    ("operators.rays", "count"), ("operators.panels_per_ray", "count"),
    ("operators.err_max", "abs"), ("operators.gz_log_s", "s"),
    ("operators.gz_log_points", "count"), ("operators.self_s", "s"),
    ("oracle.injectivity_points", "count"), ("oracle.preimage_subject_points", "count"),
    ("oracle.derivative_subject_points", "count"),
    ("chains.points", "count"), ("chains.self_s", "s"),
    ("extension.mu_points", "count"), ("extension.chain_points_per_mu", "count"),
    ("criteria.check_s", "s"), ("criteria.self_s", "s"), ("criteria.verdicts", "count"),
    ("reporting.load_s", "s"), ("reporting.report_s", "s"), ("reporting.self_s", "s"),
    ("cli.self_s", "s"), ("trace.items_per_s", "1/s"), ("trace.coverage", "ratio"),
)
# Metrics that are not totals, so they are not divided by the pass count.
_NOT_PER_PASS = ("operators.panels_per_ray", "operators.err_max", "operators.us_per_ray",
                 "chains.us_per_point", "extension.chain_points_per_mu",
                 "trace.coverage", "trace.items_per_s")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process and exit
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "schlicht"
    for p in sorted(src.rglob("*")):
        if p.suffix in (".py", ".json") and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _why(workload: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == workload), None)


def provenance(args, np_version: str) -> dict:
    return {
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np_version,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "workload": args.workload, "why": _why(args.workload),
        "seconds": args.seconds, "trace": args.trace,
    }


def _untraced_rate(path: Path, source_sha256: str) -> float | None:
    """items_per_s of an earlier untraced run of the same seed and sources."""
    try:
        prev = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if prev["provenance"]["source_sha256"] != source_sha256:
        return None
    return prev["metrics"]["items_per_s"]


def _tail(latencies: list[float]):
    """Latency at the highest percentile with ten samples beyond it, if that
    percentile lies above the median; else None."""
    n = len(latencies)
    if n <= 20:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


class SetupSampler:
    """Set-up times from fresh processes, taken at even intervals of a run.

    Each child runs this script with ``--setup-only``: it imports, builds the
    inputs, resolves the configs, runs and checks the warm-up items, and
    reports its set-up time and output digests.
    """

    def __init__(self, args, first_sample: float, digests: dict):
        self.args = args
        self.samples = [first_sample]
        self.digests = digests
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.spent_s = 0.0  # wall time spent waiting for children

    def due(self, timed_s: float) -> bool:
        n = len(self.samples)
        return n < SETUP_SAMPLES and timed_s >= self.args.seconds * n / SETUP_SAMPLES

    def take(self) -> bool:
        """Time one set-up in a fresh process; False if that process failed."""
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               self.args.workload, "--seed", str(self.args.seed), "--seconds", "0",
               "--setup-only"]
        t0 = time.perf_counter()
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired:
            done = None
        self.spent_s += time.perf_counter() - t0
        if done is None or done.returncode != 0:
            self.attempted += 1
            self.failed += 1
            why = "timed out" if done is None else done.stderr.strip()[-500:]
            self.problems.append(f"set-up process failed: {why}")
            return False
        child = json.loads(done.stdout.splitlines()[-1])
        self.attempted += child["attempted"]
        self.failed += child["failed"]
        self.problems += child["problems"]
        for key, digest in child["digests"].items():
            if self.digests.get(key, digest) != digest:
                self.failed += 1
                self.problems.append(f"{key}: output differs between processes")
        self.samples.append(child["setup_s"])
        return True


def _check_counters(counters: dict[int, dict], outcomes: list) -> None:
    """Work counters must repeat exactly for every run of the same item."""
    first: dict[str, dict] = {}
    for item_id, c in sorted(counters.items()):
        out = outcomes[item_id]
        if first.setdefault(out.key, c) != c:
            out.problems.append(
                f"{out.key}: work counters differ between runs: {first[out.key]} vs {c}")


def _print_layers(layers, metrics: dict, passes: int, item_time: float) -> None:
    print(f"per-layer, per pass over the item list ({passes} passes traced):")
    print(f"  {'layer':<10} {'total_s':>10} {'self_s':>10} {'self/item time':>15}")
    for layer in layers:
        total = metrics.get(f"{layer}.total_s", 0.0)
        own = metrics.get(f"{layer}.self_s", 0.0)
        print(f"  {layer:<10} {total:>10.4f} {own:>10.4f} "
              f"{100 * own * passes / item_time:>14.1f}%")
    for name in sorted(metrics):
        if not name.endswith(("total_s", "self_s")):
            print(f"  {name:<36} {metrics[name]!r}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "schlicht" / "__init__.py").is_file():
        sys.stderr.write(f"error: no schlicht sources under {ROOT / 'src'}; "
                         "run from a full checkout of the repository\n")
        return 2
    if not (ROOT / "demos" / "configs").is_dir():
        sys.stderr.write("error: demos/configs is missing from this checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import tracing
    import workloads as wl
    import_s = time.perf_counter() - _T_PROCESS

    workload = wl.WORKLOADS[args.workload]
    golden = wl.load_golden()
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        runner = wl.Runner(golden)
        t0 = time.perf_counter()
        items = workload.generate(np.random.default_rng(args.seed))
        warm = workload.warmup()
        executor = wl.Executor(workdir)
        executor.prepare(warm + items)
        for it in warm:
            runner.execute(executor, it)
        setup_s = import_s + time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "digests": runner.digests,
                              "attempted": len(runner.outcomes),
                              "failed": sum(o.failed for o in runner.outcomes),
                              "problems": [p for o in runner.outcomes for p in o.problems]}))
            return 0

        sampler = SetupSampler(args, setup_s, runner.digests)
        tracer = tracing.Tracer() if args.trace else None
        runner.tracer = tracer
        timed_from = len(runner.outcomes)  # the warm-up items come first
        passes = 0
        if tracer is not None:
            tracer.install()
        t_start = time.perf_counter()
        try:
            while True:
                t_pass, spent_before = time.perf_counter(), sampler.spent_s
                for it in items:
                    runner.execute(executor, it)
                    if sampler.due(time.perf_counter() - t_start - sampler.spent_s):
                        sampler.take()
                passes += 1
                now = time.perf_counter()
                pass_s = now - t_pass - (sampler.spent_s - spent_before)
                if (now - t_start - sampler.spent_s) + pass_s > args.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - t_start - sampler.spent_s
        while len(sampler.samples) < SETUP_SAMPLES and sampler.take():
            pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = runner.outcomes[timed_from:]
    latencies = [o.latency_s for o in timed]
    metrics = {
        "setup_s": statistics.median(sampler.samples),
        "items_per_s": len(timed) / elapsed,
        "item_s_p50": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = _tail(latencies)
    prov = provenance(args, np.__version__)
    results_dir = ROOT / ".perfbench-results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    layer_metrics, functions, counters, overhead = {}, {}, {}, None
    if tracer is not None:
        layer_metrics, functions, counters = tracer.aggregate(
            {timed_from + i: o.latency_s for i, o in enumerate(timed)})
        _check_counters(counters, runner.outcomes)
        for name, value in list(layer_metrics.items()):
            if name not in _NOT_PER_PASS:
                layer_metrics[name] = value / passes
        layer_metrics["trace.items_per_s"] = metrics["items_per_s"]
        overhead = _untraced_rate(results_dir / f"{args.workload}-seed{args.seed}-trace0.json",
                                  prov["source_sha256"])
    problems = [p for o in runner.outcomes for p in o.problems] + sampler.problems
    attempted = len(runner.outcomes) + sampler.attempted
    failed = sum(o.failed for o in runner.outcomes) + sampler.failed
    correct = not problems
    record = {
        "provenance": prov,
        "metrics": metrics,
        "item_s_tail": None if tail is None else {"value": tail[0], "percentile": tail[1],
                                                  "samples": len(latencies)},
        "fail_ratio": failed / attempted,
        "attempted": attempted, "failed": failed, "problems": problems,
        "import_s": import_s, "setup_samples_s": sampler.samples,
        "passes": passes, "items_per_pass": len(items), "timed_s": elapsed,
        "per_layer": layer_metrics, "functions": functions,
        "untraced_items_per_s": overhead,
        "items": [{"key": o.key, "latency_s": o.latency_s, "digest": o.digest,
                   "failed": o.failed} for o in runner.outcomes],
        "digests": dict(sorted(runner.digests.items())),
        "counters": {runner.outcomes[i].key: c for i, c in sorted(counters.items())},
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_csv(results_dir / f"{stem}-spans.csv")

    print(f"schlicht benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"why: {prov['why']}")
    print(f"provenance: commit {prov['commit']}, source sha256 {prov['source_sha256'][:16]}, "
          f"python {prov['python']}, numpy {prov['numpy']}, nproc {prov['nproc']}, "
          f"cpu {prov['cpu_model']}, BLAS threads 1, held-out seed {HELD_OUT_SEED}")
    print(f"closed loop, one caller: {len(items)} items per pass x {passes} passes "
          f"= {len(timed)} timed items in {elapsed:.3f} s; "
          f"{timed_from} warm-up items here and {sampler.attempted} in "
          f"{len(sampler.samples) - 1} set-up processes")
    if tracer is None:
        for name, unit in END_TO_END:
            print(f"  {name:<12} {metrics[name]:.6g} {unit}")
        if tail is None:
            print(f"  item_s_tail  not defined: {len(latencies)} items leave no percentile "
                  "above the median with ten samples beyond it")
        else:
            print(f"  item_s_tail  {tail[0]:.6g} s (p{tail[1]:.2f} of {len(latencies)} items)")
    else:
        _print_layers(tracing.LAYERS, layer_metrics, passes, sum(latencies))
        if overhead is None:
            print("  tracing overhead: run the same seed with --trace 0 first to compare")
        else:
            print(f"  tracing overhead: {metrics['items_per_s']:.6g} items/s traced against "
                  f"{overhead:.6g} untraced (ratio {metrics['items_per_s'] / overhead:.4f})")
    print(f"  fail_ratio   {failed / attempted:.6g} ({failed} of {attempted} items)")
    for p in problems:
        print(f"  FAIL {p}")
    print(f"full record: {results_dir.relative_to(ROOT) / (stem + '.json')}")

    names = PER_LAYER if tracer is not None else END_TO_END
    source = layer_metrics if tracer is not None else metrics
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": float(source.get(n, 0.0)), "unit": u} for n, u in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
