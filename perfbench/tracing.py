"""Span tracing of the package's layers, installed from outside.

`Tracer.install` swaps each listed function for a timing wrapper in its
defining module and at every site that imported it by name (``from .clearing
import solve_clearing`` leaves a second reference in ``sysrisk.replicator``).
Spans (name, start, end, parent, op) stay in memory and are written out at
the end; a function's self time is its busy time minus the time its child
spans cover.  Wrappers record only inside an op, so output checks run through
them untraced.

Besides timing, a few wrappers count work at the layer boundary, and the
clearing wrapper certifies every result from outside: it applies the round's
clearing map once to the returned payments and counts residuals above
``tol * y``.  Time spent on these counts is taken off the trace clock.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

CLEARING_TOL = 1e-9  # the clearing solver's own default tolerance

TRACED = {
    "replicator": ("run_simulation", "step_round", "initial_state"),
    "netgen": ("sample_network", "sample_shocks"),
    "model": ("derive",),
    "clearing": ("solve_clearing", "compute_returns", "default_stats"),
    "harness": ("run_many", "write_trajectories", "flow_curve", "round_clock",
                "theory_at_horizon", "assert_horizon"),
    "analytic": ("thresholds", "clearing_limit", "limit_returns", "q_eps"),
    "odeflow": ("ode_solution", "ode_solution_departures", "finite_round_estimate",
                "ode_numeric", "classify_attractors", "avg_limit"),
    "ess": ("check_mixed_ess", "check_multi_mutation", "check_avg_ess"),
}

COUNTERS = (
    ("clearing.solve_clearing.complete.iterations", "count"),
    ("clearing.solve_clearing.complete.iterations_max", "count"),
    ("clearing.solve_clearing.sparse.iterations", "count"),
    ("clearing.solve_clearing.sparse.iterations_max", "count"),
    ("clearing.solve_clearing.unconverged", "count"),
    ("clearing.solve_clearing.uncertified", "count"),
    ("netgen.sample_network.indicator_bytes", "B"),
    ("harness.write_trajectories.bytes", "B"),
)


def layer_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]


def clearing_residual(graph, shocks, params, X: np.ndarray) -> float:
    """max_j |T(X)_j - X_j| / y, T the clearing map of the round."""
    y = graph.y
    if X.size == 0 or y <= 0.0:
        return 0.0
    if graph.indicator is None:
        owed_in = graph.w_g2 / y * (X.sum() - X)
    else:
        owed_in = graph.w_g2 / y * (X @ graph.indicator[:, graph.n1:])
    mapped = np.clip(shocks.k + owed_in - params.v, 0.0, y)
    return float(np.max(np.abs(mapped - X))) / y


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []   # [name id, start, end, parent span, op]
        self.counts = {name: 0 for name, _ in COUNTERS}
        self.certificate_s = 0.0      # diagnostics, printed but not reported
        self.residual_max = 0.0
        self._stack: list[int] = []
        self._op: int | None = None
        self._paused = 0.0

    def now(self) -> float:
        """The trace clock: wall time minus time spent counting."""
        return time.perf_counter() - self._paused

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every traced function wherever the package or `extra_modules` holds it."""
        hooks = {"clearing.solve_clearing": self._after_clearing,
                 "netgen.sample_network": self._after_network,
                 "harness.write_trajectories": self._after_write}
        sites = [mod for name, mod in sys.modules.items()
                 if name == "sysrisk" or name.startswith("sysrisk.")]
        sites.extend(extra_modules)
        for module, fns in TRACED.items():
            home = sys.modules[f"sysrisk.{module}"]
            for fn_name in fns:
                name = f"{module}.{fn_name}"
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original, hooks.get(name))
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, attr, wrapper)

    def _wrap(self, name: str, fn, after):
        nid = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [nid, self.now(), 0.0, self._stack[-1], self._op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.now()
                self._stack.pop()
            if after is not None:
                start = time.perf_counter()
                after(args, kwargs, result)
                self._paused += time.perf_counter() - start
            return result
        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Trace one op under a root span named ``op``."""
        if "op" not in self.names:
            self.names.append("op")
        span = [self.names.index("op"), self.now(), 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op = op_id
        try:
            yield
        finally:
            span[2] = self.now()
            self._stack.pop()
            self._op = None

    # -- counters -----------------------------------------------------------

    def _after_clearing(self, args, kwargs, result) -> None:
        graph = _arg(args, kwargs, 0, "graph")
        shocks = _arg(args, kwargs, 1, "shocks")
        params = _arg(args, kwargs, 2, "params")
        kind = "complete" if graph.indicator is None else "sparse"
        c = self.counts
        c[f"clearing.solve_clearing.{kind}.iterations"] += result.iterations
        key = f"clearing.solve_clearing.{kind}.iterations_max"
        c[key] = max(c[key], result.iterations)
        c["clearing.solve_clearing.unconverged"] += getattr(result, "converged", True) is False
        start = time.perf_counter()
        residual = clearing_residual(graph, shocks, params, result.X)
        self.certificate_s += time.perf_counter() - start
        c["clearing.solve_clearing.uncertified"] += residual > CLEARING_TOL
        self.residual_max = max(self.residual_max, residual)

    def _after_network(self, args, kwargs, graph) -> None:
        if graph.indicator is not None:
            self.counts["netgen.sample_network.indicator_bytes"] += graph.indicator.nbytes

    def _after_write(self, args, kwargs, result) -> None:
        target = _arg(args, kwargs, 0, "path_or_file")
        written = len(target.getvalue()) if hasattr(target, "getvalue") \
            else Path(target).stat().st_size
        self.counts["harness.write_trajectories.bytes"] += written

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls/busy_s/self_s per traced function, plus the counters."""
        n = len(self.names)
        calls, busy, child = [0] * n, [0.0] * n, [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            calls[nid] += 1
            busy[nid] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * n
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            self_s[nid] += end - start - child[i]
        metrics: dict[str, tuple[float, str]] = {}
        for name in layer_names():
            nid = self.names.index(name)
            metrics[f"{name}.calls"] = (calls[nid], "count")
            metrics[f"{name}.busy_s"] = (busy[nid], "s")
            metrics[f"{name}.self_s"] = (self_s[nid], "s")
        for name, unit in COUNTERS:
            metrics[name] = (self.counts[name], unit)
        return metrics

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i, (nid, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\n")
