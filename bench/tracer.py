"""In-memory span tracer for btlab's layer functions.

`instrument` wraps the functions in FUNCTIONS and patches each wrapper into
every btlab module that holds the name, because the package imports across
modules with ``from .basis import weighted_pair_sum``.  Time in a function
that is not wrapped counts as self time of its nearest wrapped caller, down
to the per-invocation ``cli.*`` span the child opens.  Spans (name, start,
end, parent, thread id, work counts) stay in memory until the traced pass
ends.  A span opened on a thread with no open span of its own (the
``basis`` pool workers) is parented to the innermost open
``basis.weighted_pair_sum`` span, which is the call that submitted the work.

Untraced passes never import this module, so input hashing for
``unique_frac`` costs them nothing.
"""

import functools
import hashlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Per layer: the end-to-end metric it should move and on which workload,
# with its share of traced wall time on the seed-7 phase.  Self times are
# summed over threads, so on n2-assembly-t2 basis exceeds 100% of wall.
LAYER_MOVES = {
    "basis": "wall_s, cpu_s on n2-assembly (97%); ~23% of n1-suites; none "
             "on n1-egorov; monomial_table busy_s against wall moves wall_s, "
             "cpu_s, peak_rss_mb on n2-assembly-t2",
    "quadrature": "wall_s, peak_rss_mb on n2-assembly (~1%; the same grid "
                  "is rebuilt per operator)",
    "bargmann": "wall_s on n1-egorov (99%); none on n2",
    "heat": "wall_s on n1-suites (~39%, mostly sw)",
    "symbols": "wall_s on n1-suites (~29%, eval_symbol from sw and bound)",
    "operators": "wall_s on n1-suites (~2%); slightly on n2",
    "geometry": "wall_s on n1-suites (~1%; deformation rebuilds per h)",
    "config": "wall_s on every workload (<1%)",
    "cli": "wall_s on every workload (per-suite invocation time)",
}

LAYERS = tuple(LAYER_MOVES)
SUITES = ("space-info", "gram", "weyl", "bound", "diag", "deformation",
          "egorov", "sw")


def cli_span(suite):
    """Name of the span around one CLI invocation of `suite`."""
    return "cli.space-info" if suite == "space-info" else f"cli.verify.{suite}"


def _points(X, n):
    return int(np.size(X) // n)


def _wps_counts(mset, h, W_bra, W_ket, wt, threads=1):
    npts = int(wt.shape[0])
    return {"nodes": npts, "gflop_computed": 8.0 * len(mset) ** 2 * npts / 1e9}


def _monomial_counts(W, mset, h):
    return {"entries": len(mset) * int(W.shape[1])}


def _grid_counts(rule, n, sigma):
    return {"nodes": rule.order ** (2 * n)}


def _grid_key(rule, n, sigma):
    return (rule.order, n, float(sigma))


def _transform_counts(ctx, u, X, rule):
    return {"evals": _points(X, ctx.n) * rule.order ** ctx.n}


def _projector_counts(ctx, fw, X, rule, symbol=None):
    return {"evals": _points(X, ctx.n) * rule.order ** (2 * ctx.n)}


def _sw_counts(ctx, b, lam_grid, X_grid=None):
    return {"lambdas": _points(lam_grid, ctx.n)}


def _eval_counts(b, X):
    return {"points": _points(X, b.n)}


def _norm_counts(M):
    entries = getattr(M, "entries", M)
    return {"dim_total": int(np.shape(entries)[0])}


# Functions reported one by one: work counts taken from the call's arguments
# (same signature as the wrapped function), and the metric unit and direction
# of each count.
FUNCTIONS = {
    "basis.weighted_pair_sum": (_wps_counts, {
        "nodes": ("count", "lower"), "gflop_computed": ("GFLOP", "lower")}),
    "basis.monomial_table": (_monomial_counts, {
        "entries": ("count", "lower")}),
    "quadrature.complex_grid": (_grid_counts, {
        "nodes": ("count", "lower"), "unique_frac": ("frac", "higher")}),
    "quadrature.gauss_hermite_rule": (None, {}),
    "bargmann.bargmann_transform_weighted": (_transform_counts, {
        "evals": ("count", "lower"), "unique_frac": ("frac", "higher")}),
    "bargmann.projector_apply_weighted": (_projector_counts, {
        "evals": ("count", "lower")}),
    "bargmann.egorov_guillemin_check": (None, {}),
    "heat.heat_flow": (None, {}),
    "heat.sw_diagnostic": (_sw_counts, {"lambdas": ("count", "lower")}),
    "symbols.eval_symbol": (_eval_counts, {"points": ("count", "lower")}),
    "operators.toeplitz_matrix": (None, {}),
    "operators.weyl_unitary_matrix": (None, {}),
    "operators.operator_norm": (_norm_counts, {
        "dim_total": ("count", "lower")}),
    "operators.weyl_conjugation_check": (None, {}),
    "operators.deformation_residuals": (None, {}),
    "geometry.build_context": (None, {}),
    "config.load_config": (None, {}),
    "config.phase_from_config": (None, {}),
}

# busy_s of the pool's monomial tables is the summed span time across
# threads; it replaces total_s there.
_TIMES = {"basis.monomial_table": ("calls", "busy_s", "self_s")}


def _probe_key(u):
    fields = getattr(u, "__dataclass_fields__", None)
    if fields is None:
        return ("object", id(u))
    return ("value", type(u).__name__) + tuple(
        np.asarray(getattr(u, f)).tobytes() for f in fields
    )


def _transform_key(ctx, u, X, rule):
    digest = hashlib.blake2b(
        np.ascontiguousarray(X).tobytes(), digest_size=16
    ).digest()
    return (_probe_key(u), np.shape(X), digest)


_KEYS = {
    "quadrature.complex_grid": _grid_key,
    "bargmann.bargmann_transform_weighted": _transform_key,
}

_COVERING = "basis.weighted_pair_sum"


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for fname, (_, counts) in FUNCTIONS.items():
        for t in _TIMES.get(fname, ("calls", "total_s", "self_s")):
            unit = "count" if t == "calls" else "s"
            out.append((f"{fname}.{t}", unit, "lower"))
        for c, (unit, better) in counts.items():
            out.append((f"{fname}.{c}", unit, better))
    out += [(f"{cli_span(suite)}.s", "s", "lower") for suite in SUITES]
    out += [
        ("cli.checks_failed_frac", "frac", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Spans kept as lists [name, start, end, parent, thread id, counts]."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._covering = []
        self._keys = defaultdict(set)
        self._keep = []  # probes keyed by id() stay alive so ids stay unique

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._covering[-1] if self._covering else None
        rec = [name, time.perf_counter(), None, parent,
               threading.get_ident(), None]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(rec)
            if name == _COVERING:
                self._covering.append(sid)
        stack.append(sid)
        return sid

    def close(self, sid, counts=None):
        rec = self.spans[sid]
        rec[2] = time.perf_counter()
        rec[5] = counts
        self._stack().pop()
        if rec[0] == _COVERING:
            with self._lock:
                self._covering.remove(sid)

    def wrap(self, name, func):
        counter = FUNCTIONS[name][0]
        keyer = _KEYS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(sid, counter(*args, **kwargs) if counter else None)
                if keyer is not None:
                    self._keys[name].add(keyer(*args, **kwargs))
                    self._keep.append(args)

        return traced

    def summary(self, wall_s):
        """Per-layer metrics of the traced pass, as {name: value}."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[rec[3]].append((rec[1], rec[2]))
        vals = {name: 0.0 for name, _, _ in metric_specs()}
        for sid, (name, start, end, _, _, counts) in enumerate(self.spans):
            dur = end - start
            own = dur - _covered(children.get(sid, ()), start, end)
            layer_key = name.split(".")[0] + ".self_s"
            if layer_key in vals:
                vals[layer_key] += own
            if name.startswith("cli."):
                vals[f"{name}.s"] += dur
            if name not in FUNCTIONS:
                continue
            busy = "busy_s" if name in _TIMES else "total_s"
            vals[f"{name}.calls"] += 1
            vals[f"{name}.{busy}"] += dur
            vals[f"{name}.self_s"] += own
            for key, value in (counts or {}).items():
                vals[f"{name}.{key}"] += value
        for name, keys in self._keys.items():
            calls = vals[f"{name}.calls"]
            vals[f"{name}.unique_frac"] = len(keys) / calls if calls else 0.0
        vals["trace.wall_s"] = wall_s
        return vals


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def instrument(tracer, package="btlab"):
    """Route every function in FUNCTIONS through `tracer`, under every name
    any btlab module binds it to."""
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == package
                                  or name.startswith(package + "."))]
    for name in FUNCTIONS:
        layer, attr = name.split(".")
        func = getattr(sys.modules[f"{package}.{layer}"], attr)
        traced = tracer.wrap(name, func)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, key, traced)
