"""Span tracer for the traced benchmark run, installed from outside the package.

The tracer wraps the entry points of each layer (module functions and class
methods of ``slopestrike``) for the duration of a ``with Tracer(...)`` block,
and swaps ``autodiff.Node`` for a subclass that counts recorded graph nodes by
kind.  Nothing in ``src/`` knows about it, and nothing is patched outside the
block, so the untimed and untraced runs execute the unmodified program.

Spans are kept in memory as ``(name, start, end, parent, run_id)`` tuples and
written out once, at the end of the run.  A span's self time is its duration
minus the durations of its direct children (calls are single-threaded, so
children never overlap).  ``*.hwm_mb`` is the growth of the process's peak
resident set (``ru_maxrss``) during a span, minus the growth inside its
children.
"""

from __future__ import annotations

import resource
import time
from collections import Counter, defaultdict

# Layer name -> list of (owner, attribute) entry points that start a span of it.
# ``compute_features`` is patched in every module that imported it by name.
SPAN_TARGETS = {
    "features": [("attacks", "compute_features"), ("forecaster", "compute_features"),
                 ("agan", "compute_features")],
    "forecaster.windows": [("forecaster.NhitsModel", "_window_tensors")],
    "forecaster.core": [("forecaster.NhitsModel", "core")],
    "forecaster.head": [("forecaster.NhitsModel", "rolling_median_path")],
    "forecaster.batch": [("forecaster", "_assemble_batch")],
    "forecaster.train": [("forecaster", "train")],
    "forecaster.rolling": [("forecaster", "rolling_forecast")],
    "attacks.step": [("attacks", "run_attack")],
    "agan.train": [("agan", "train_agan")],
    "agan.evaluate": [("agan", "evaluate_gan")],
    "agan.generator": [("agan.TcnGenerator", "forward")],
    "agan.critic": [("agan.MlpCritic", "forward")],
    "agan.gp": [("agan", "gradient_penalty")],
    "agan.second_critic": [("agan", "_forecaster_slope_loss")],
    "agan.forecast_slopes": [("agan", "forecast_slopes")],
    "metrics.mmd": [("metrics", "mmd")],
    # ``gradients`` is split by create_graph into backward and grad2 below
    "autodiff.backward": [("autodiff", "backward"), ("autodiff", "gradients")],
}

LAYERS = tuple(SPAN_TARGETS) + ("autodiff.grad2",)
COUNTED_LAYERS = ("features", "forecaster.windows", "forecaster.core", "autodiff.backward")
NODE_KINDS = ("reshape", "slice", "concat", "matmul", "conv1d")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Context manager that records spans and node counts while it is active."""

    def __init__(self, package):
        self.pkg = package
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.hwm_kb: list[int] = []
        self.core_rows = 0
        self.node_counts: Counter = Counter()
        self.run_id = -1          # operation index, set by the caller; -1 is warm-up
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []   # entry points not found at installation

    # -- installation -----------------------------------------------------

    def _owner(self, path: str):
        mod, _, cls = path.partition(".")
        obj = getattr(self.pkg, mod, None)
        return getattr(obj, cls, None) if cls else obj

    def __enter__(self):
        ad = self.pkg.autodiff
        self.missing = []
        for layer, targets in SPAN_TARGETS.items():
            for owner_path, attr in targets:
                owner = self._owner(owner_path)
                orig = vars(owner).get(attr) if owner is not None else None
                if orig is None:
                    # an entry point the program no longer has: the layer reads as unused
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(layer, orig))
        counts = self.node_counts

        class CountingNode(ad.Node):
            __slots__ = ()

            def __init__(self, kind, *rest):
                counts[kind] += 1
                super().__init__(kind, *rest)

        self._saved.append((ad, "Node", ad.Node))
        ad.Node = CountingNode
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    def _wrap(self, layer: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            name = layer
            if fn.__name__ == "gradients" and kwargs.get("create_graph",
                                                         args[2] if len(args) > 2 else False):
                name = "autodiff.grad2"
            elif fn.__name__ == "core":
                tracer.core_rows += args[1].shape[0]
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)  # reserve the slot so children see our index
            tracer.hwm_kb.append(0)
            tracer._stack.append(idx)
            rss0 = _maxrss_kb()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.hwm_kb[idx] = _maxrss_kb() - rss0
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.run_id)

        wrapper.__name__ = fn.__name__
        return wrapper

    # -- summaries ----------------------------------------------------------

    def reset_counts(self) -> None:
        """Drop node and row counts gathered so far (e.g. during warm-up)."""
        self.node_counts.clear()
        self.core_rows = 0

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls and self seconds over the operations (run_id >= 0),
        and self high-water growth in MB over every span, warm-up included."""
        child_s = defaultdict(float)
        child_kb = defaultdict(int)
        for i, (_, t0, t1, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += t1 - t0
                child_kb[parent] += self.hwm_kb[i]
        out = {layer: {"calls": 0, "self_s": 0.0, "hwm_mb": 0.0} for layer in LAYERS}
        for i, (name, t0, t1, _, run_id) in enumerate(self.spans):
            row = out[name]
            row["hwm_mb"] += (self.hwm_kb[i] - child_kb[i]) / 1024.0
            if run_id >= 0:
                row["calls"] += 1
                row["self_s"] += (t1 - t0) - child_s[i]
        return out
