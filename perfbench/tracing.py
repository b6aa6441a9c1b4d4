"""Span tracing of the schlicht layers, installed from outside the package.

``Tracer.install`` replaces public functions of each module with wrappers
that record a span (name, start, end, parent span, item id) around every
call, in every schlicht module namespace that bound the function, and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.
Spans stay in memory; ``aggregate`` turns them into per-layer metrics and
``write_csv`` writes them out at the end of a run.

A layer is the module a span's function belongs to.  A layer's total time
counts each outermost span of that layer once; its self time subtracts the
child spans, which may belong to other layers.  A function that re-enters
itself (``differentiate`` recurses) gets one span for the outermost call.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

from schlicht import (chains, cli, criteria, dsl, expr, extension, operators,
                      oracle, reporting)

LAYERS = ("dsl", "expr", "operators", "criteria", "chains", "extension",
          "oracle", "reporting", "cli")

_CHECKS = ("check_main_t2", "check_simplified_t21", "check_t3", "check_becker",
           "check_qc_t5", "check_t6", "check_log_derivative_condition")
_ORACLE_STAGES = {"oracle.injectivity_test": "injectivity",
                  "oracle.preimage_count": "preimage",
                  "oracle.derivative_nonvanishing": "derivative"}
_SUBJECT_SPANS = ("reporting.subject", "expr.eval_expr")

# (module, function, arguments whose broadcast size is the call's points)
_FUNCTIONS = [
    (dsl, "parse", ()),
    (expr, "eval_expr", ("z",)),
    (expr, "differentiate", ()),
    (expr, "log_derivative_field", ("z",)),
    (operators, "continued_gz_log", ("z",)),
    (operators, "bracket_final", ()),
    (operators, "operator_values", ()),
    *[(criteria, name, ()) for name in _CHECKS],
    (criteria, "apply_preset", ()),
    (chains, "chain_l", ("z", "t")),
    (chains, "chain_t6", ("z", "t")),
    (chains, "chain_t6_p", ()),
    (chains, "transfer_a", ()),
    (chains, "qc_bound_k", ()),
    (extension, "beltrami_field", ("z",)),
    (extension, "max_dilatation", ()),
    (extension, "seam_mismatch", ()),
    (oracle, "injectivity_test", ()),
    (oracle, "preimage_count", ()),
    (oracle, "derivative_nonvanishing", ()),
    (reporting, "load_config", ()),
    (reporting, "run_check", ()),
    (reporting, "oracle_block", ()),
    (reporting, "build_chain", ()),
    (reporting, "report_json", ()),
    (reporting, "atomic_write", ()),
    (cli, "main", ()),
    (cli, "cmd_check", ()),
    (cli, "cmd_extend", ()),
]


def _points_of(fn, names):
    """Counter of the points a call evaluates: broadcast size of ``names``."""
    if not names:
        return None
    sig = inspect.signature(fn)

    def points(args, kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        return math.prod(np.broadcast_shapes(*(np.shape(bound[n]) for n in names)))
    return points


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.item = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.items.append(self.item)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()
        if attrs:
            self.attrs[idx] = attrs

    def wrap(self, name: str, fn, points=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.stack and tracer.names[tracer.stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            attrs = {"ok": True}
            if points is not None:
                attrs["points"] = points(args, kwargs)
            elif isinstance(result, oracle.InjectivityReport):
                # the scanned grid size is only known from the report
                attrs["points"] = result.n_points
            tracer.close(idx, attrs)
            return result
        return traced

    def _wrap_chunks(self, fn):
        """Spans around each chunk that ``iter_radial_brackets`` yields."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer.open("operators.bracket_chunk")
                try:
                    sel, br = next(gen)
                except StopIteration:
                    tracer.close(idx)
                    return
                except BaseException:
                    tracer.close(idx)
                    raise
                tracer.close(idx, {"rays": len(sel), "panels": len(br.sigmas),
                                   "err": float(np.max(br.error))})
                yield sel, br
        return traced

    def _wrap_subject_factory(self, fn):
        """Give callable subjects a span that counts the points evaluated."""
        tracer = self

        @functools.wraps(fn)
        def traced(rc):
            subject = fn(rc)
            if isinstance(subject, expr.Expr):
                return subject
            return tracer.wrap("reporting.subject", subject,
                               lambda args, kwargs: int(np.size(args[0])))
        return traced

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "schlicht" and not modname.startswith("schlicht."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, name, arg_names in _FUNCTIONS:
            layer = module.__name__.rsplit(".", 1)[-1]
            original = getattr(module, name)
            self._patch_everywhere(original, self.wrap(
                f"{layer}.{name}", original, _points_of(original, arg_names)))
        self._patch_everywhere(operators.iter_radial_brackets,
                               self._wrap_chunks(operators.iter_radial_brackets))
        self._patch_everywhere(reporting.subject_function,
                               self._wrap_subject_factory(reporting.subject_function))
        build = expr.AnalyticTriple.__dict__["build"].__func__
        self._patch_attr(expr.AnalyticTriple, "build",
                         staticmethod(self.wrap("expr.AnalyticTriple.build", build)))
        call = extension.ExtensionField.__dict__["__call__"]
        self._patch_attr(extension.ExtensionField, "__call__",
                         self.wrap("extension.ExtensionField.__call__", call))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def write_csv(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,item,parent,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.items[i]},{self.parents[i]},"
                         f"{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f}\n")

    def aggregate(self, item_latency: dict[int, float]):
        """Totals over the traced items.

        Returns (metrics, functions, counters): the named per-layer metrics,
        calls/busy/self time per traced function, and the exact work
        counters of each item id.
        """
        n = len(self.names)
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(n)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        self_t = dur - child
        layers = [nm.split(".", 1)[0] for nm in self.names]
        bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
        anc = [0] * n            # bit set of the layers among the ancestors
        under_mu = [False] * n   # inside a Beltrami estimate

        m: dict[str, float] = defaultdict(float)
        fns: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                                    "self_s": 0.0})
        counters: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        err_max = 0.0
        for i in range(n):
            name, layer, a = self.names[i], layers[i], self.attrs.get(i, {})
            p = self.parents[i]
            if p >= 0:
                anc[i] = anc[p] | bit[layers[p]]
                under_mu[i] = under_mu[p] or self.names[p] == "extension.beltrami_field"
            m[f"{layer}.self_s"] += self_t[i]
            if not anc[i] & bit[layer]:
                m[f"{layer}.total_s"] += dur[i]
            f = fns[name]
            f["calls"] += 1
            f["busy_s"] += dur[i]
            f["self_s"] += self_t[i]

            c = counters[self.items[i]]
            pts = a.get("points", 0)
            if name == "operators.bracket_chunk" and "rays" in a:
                c["operators.rays"] += a["rays"]
                c["operators.panels"] += a["rays"] * a["panels"]
                err_max = max(err_max, a["err"])
            elif name == "operators.continued_gz_log":
                c["operators.gz_log_points"] += pts
            elif name == "expr.log_derivative_field":
                c["expr.logderiv_points"] += pts
            elif name == "expr.eval_expr":
                c["expr.eval_points"] += pts
            elif name in ("chains.chain_l", "chains.chain_t6"):
                c["chains.points"] += pts
                if under_mu[i]:
                    c["extension.mu_chain_points"] += pts
            elif name == "extension.beltrami_field":
                c["extension.mu_points"] += pts
            elif name.split(".", 1)[1] in _CHECKS and a.get("ok"):
                c["criteria.verdicts"] += 1
            elif name == "oracle.injectivity_test":
                c["oracle.injectivity_points"] += pts
            if name in _ORACLE_STAGES:
                m[f"oracle.{_ORACLE_STAGES[name]}_s"] += self_t[i]
                m["oracle.subject_s"] += child[i]
            if p >= 0 and self.names[p] in _ORACLE_STAGES and name in _SUBJECT_SPANS:
                c[f"oracle.{_ORACLE_STAGES[self.names[p]]}_subject_points"] += pts

        def busy(*names):
            return sum(fns[x]["busy_s"] for x in names if x in fns)

        for c in counters.values():
            for k, v in c.items():
                m[k] += v
        rays, mu = m["operators.rays"], m["extension.mu_points"]
        m["operators.busy_s"] = busy("operators.bracket_chunk")
        m["operators.us_per_ray"] = 1e6 * m["operators.busy_s"] / rays if rays else 0.0
        panels = m.pop("operators.panels", 0.0)
        m["operators.panels_per_ray"] = panels / rays if rays else 0.0
        m["operators.err_max"] = err_max
        m["operators.gz_log_s"] = busy("operators.continued_gz_log")
        m["chains.sample_s"] = busy("chains.chain_l", "chains.chain_t6")
        m["chains.us_per_point"] = (1e6 * m["chains.sample_s"] / m["chains.points"]
                                    if m["chains.points"] else 0.0)
        m["extension.beltrami_s"] = busy("extension.beltrami_field")
        mu_chain = m.pop("extension.mu_chain_points", 0.0)
        m["extension.chain_points_per_mu"] = mu_chain / mu if mu else 0.0
        m["criteria.check_s"] = busy(*(f"criteria.{c}" for c in _CHECKS))
        m["expr.build_s"] = busy("expr.AnalyticTriple.build")
        m["expr.logderiv_s"] = busy("expr.log_derivative_field")
        m["expr.eval_s"] = busy("expr.eval_expr")
        m["dsl.parse_s"] = busy("dsl.parse")
        m["reporting.load_s"] = busy("reporting.load_config")
        m["reporting.report_s"] = busy("reporting.report_json", "reporting.atomic_write")
        m["cli.extend_s"] = fns["cli.cmd_extend"]["self_s"] if "cli.cmd_extend" in fns else 0.0

        roots = sum(dur[i] for i in range(n) if self.parents[i] < 0 and self.items[i] >= 0)
        total = sum(item_latency.values())
        m["trace.coverage"] = roots / total if total else 0.0
        m["trace.spans"] = n
        per_item = {k: dict(v) for k, v in counters.items() if k >= 0}
        return {k: float(v) for k, v in m.items()}, dict(fns), per_item
