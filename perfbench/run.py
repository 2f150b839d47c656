"""slopestrike benchmark: one workload per invocation, or all of them.

    python3 perfbench/run.py --workload attack-grid --seed 0 --seconds 22 --trace 0

Run from the root of a source checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones, and the spans are written to ``bench_out/``.  See README.md in
this directory for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "bench_out"
REFERENCE = HERE / "reference.json"

BLAS_THREADS = "1"        # one BLAS thread: steadier on a machine shared with other jobs
SETUP_CHILDREN = 4        # extra fresh-process set-ups; setup_s is the median of five
# Seconds the yardstick takes on the baseline machine (see spec.json).  Reported
# times are scaled by YARDSTICK_S over the yardstick's time measured next to them.
YARDSTICK_S = 0.02
WORKLOAD_NAMES = ("attack-grid", "train-forecast", "gan-train", "long-forecast")


def yardstick_s() -> float:
    """Seconds a fixed computation takes now: small numpy products and slices and
    a Python loop, the mix of the program's hot paths, using none of its code.

    A shared host's speed can swing by as much as 40 % within minutes (it did on
    the 2-vCPU baseline machine of spec.json).  Scaling each measured time by
    how long the yardstick took next to it removes most of that swing and none
    of the program's own cost, since the program never runs the yardstick.
    """
    import numpy as np
    a = np.linspace(0.0, 1.0, 4096).reshape(64, 64)
    t0 = time.perf_counter()
    for _ in range(1000):
        b = a @ a
        b[1:, :-1] + 1.0
        sum(range(200))
    return time.perf_counter() - t0


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    """Import slopestrike from ROOT/src (never from anywhere else)."""
    src = ROOT / "src"
    if not (src / "slopestrike" / "__init__.py").is_file():
        _fail(f"no slopestrike sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import slopestrike
    from slopestrike import agan, attacks, autodiff, forecaster, metrics  # noqa: F401
    if Path(slopestrike.__file__).resolve().parent != (src / "slopestrike").resolve():
        _fail(f"imported slopestrike from {slopestrike.__file__}, not from {src}")
    return slopestrike


class Checker:
    """Compares operation fingerprints with the recorded reference and with
    earlier operations of the same run that had the same key."""

    def __init__(self, workload: str, seed: int):
        ref = json.loads(REFERENCE.read_text())
        self.rtol, self.atol = ref["rtol"], ref["atol"]
        self.reference = ref["fingerprints"].get(workload, {}).get(str(seed), {})
        self.seen: dict[int, list[float]] = {}

    def note(self) -> str:
        if self.reference:
            return f"fingerprints checked against {len(self.reference)} recorded reference(s)"
        return "no recorded fingerprints for this seed: invariant and repeat checks only"

    def _close(self, a, b) -> bool:
        return len(a) == len(b) and all(
            abs(x - y) <= self.atol + self.rtol * max(abs(x), abs(y)) for x, y in zip(a, b))

    def check(self, key: int, fingerprint: list[float]) -> str | None:
        for label, want in (("reference", self.reference.get(str(key))),
                            ("earlier run of the same operation", self.seen.get(key))):
            if want is not None and not self._close(fingerprint, want):
                return f"fingerprint {fingerprint} differs from {label} {want}"
        self.seen.setdefault(key, fingerprint)
        return None


class Loop:
    """Runs operations one after another and keeps their timings and outcomes.

    Closed loop: each call starts when the previous one returns.  A failed
    operation (an exception or a failed check) is counted and reported on
    standard error, and the loop goes on.
    """

    def __init__(self, wl, checker: Checker):
        self.wl = wl
        self.checker = checker
        self.results = []     # OpResult of every operation that returned
        self.work_s = []      # seconds of each returned operation's units of work
        self.call_s = []      # wall seconds of every attempted operation
        self.returned = []    # index into call_s of each entry of results
        self.yard_s = []      # run_for: yardstick seconds before each call and after the last
        self.failed = 0

    def run_one(self, i: int) -> None:
        t0 = time.perf_counter()
        try:
            res = self.wl.op(i)
        except Exception:  # counted and reported; one bad operation must not end the run
            self.call_s.append(time.perf_counter() - t0)
            self.failed += 1
            print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return
        self.call_s.append(time.perf_counter() - t0)
        self.work_s.append(res.parts.get("work_s", self.call_s[-1]))
        self.returned.append(len(self.call_s) - 1)
        self.results.append(res)
        mismatch = self.checker.check(res.key, res.fingerprint)
        if mismatch:
            self.failed += 1
            print(f"operation {i} failed its check: {mismatch}", file=sys.stderr)

    def run_for(self, seconds: float) -> None:
        """As many operations as start within `seconds`, at least one, each
        between two runs of the yardstick."""
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            self.yard_s.append(yardstick_s())
            self.run_one(i)
            i += 1
        self.yard_s.append(yardstick_s())

    @property
    def speed(self) -> list[float]:
        """Per attempted call: YARDSTICK_S over the mean of the yardsticks around it."""
        y = self.yard_s
        return [2.0 * YARDSTICK_S / (y[k] + y[k + 1]) for k in range(len(self.call_s))]

    @property
    def result_speed(self) -> list[float]:
        speed = self.speed
        return [speed[k] for k in self.returned]

    @property
    def attempted(self) -> int:
        return len(self.call_s)

    @property
    def work_per_s(self) -> float:
        work_s = sum(w * f for w, f in zip(self.work_s, self.result_speed))
        return sum(r.units for r in self.results) / work_s if self.results else 0.0

    @property
    def call_p50(self) -> float:
        return statistics.median(c * f for c, f in zip(self.call_s, self.speed))

    def call_tail(self) -> tuple[float, str]:
        """The highest percentile with at least ten calls beyond it, and its label."""
        ordered = sorted(c * f for c, f in zip(self.call_s, self.speed))
        n = len(ordered)
        if n > 10:
            return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n}"
        return ordered[-1], f"max of {n}, fewer than 11 calls"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_setup(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        _fail(f"set-up in a fresh process failed:\n{proc.stderr}", code=3)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_untraced(args) -> int:
    # half the fresh-process set-ups run before the loop and half after it,
    # so a slow spell of a shared machine weighs on setup_s no more than on the loop
    children = 0 if args.setup_only else SETUP_CHILDREN
    setups = [_child_setup(args.workload, args.seed) for _ in range(children // 2)]
    t0 = time.perf_counter()
    _import_program()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    # the yardstick runs after set-up, so that numpy's import stays inside it,
    # and five times, since a single 20 ms run of it is noisy
    setups.append({"setup_s": setup_s,
                   "yardstick_s": statistics.median(yardstick_s() for _ in range(5))})
    if args.setup_only:
        print(json.dumps(setups[-1]))
        return 0
    loop = Loop(wl, Checker(args.workload, args.seed))
    loop.run_for(args.seconds)
    setups += [_child_setup(args.workload, args.seed) for _ in range(children - children // 2)]
    setup_s = statistics.median(s["setup_s"] * YARDSTICK_S / s["yardstick_s"] for s in setups)
    rss = _peak_rss_mb()
    print(f"{args.workload} seed={args.seed}: {loop.attempted} calls, {loop.failed} failed, "
          f"{sum(r.units for r in loop.results):.0f} {wl.unit}; {loop.checker.note()}")
    print(f"  BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, closed loop, one caller")
    print(f"  yardstick median {statistics.median(loop.yard_s):.6f} s (scaled to {YARDSTICK_S} s); "
          f"unscaled: set-up median {statistics.median(s['setup_s'] for s in setups):.6g} s, "
          f"call median {statistics.median(loop.call_s):.6g} s")
    named = [("setup_s", setup_s, "s"), ("peak_rss_mb", rss, "MB"),
             ("failed_ratio", loop.failed / max(loop.attempted, 1), "failed/attempted")]
    for name, value, unit in named + wl.named(loop):
        print(f"  {name:26s} {value:12.6g} {unit}")
    _print_result(loop.failed == 0, loop.attempted, loop.failed, {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "work_per_s": (loop.work_per_s, "1/s"),
        "call_s_p50": (loop.call_p50, "s"),
    })
    return 0


def run_traced(args) -> int:
    pkg = _import_program()
    from tracer import COUNTED_LAYERS, LAYERS, NODE_KINDS, Tracer
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    checker = Checker(args.workload, args.seed)
    traced, untraced = Loop(wl, checker), Loop(wl, checker)
    tracer = Tracer(pkg)
    with tracer:
        wl.warm_up()
    tracer.reset_counts()
    k = wl.trace_ops
    # traced and untraced calls alternate, so slow spells of a shared machine
    # fall on both sides of trace.overhead_ratio alike
    for i in range(k):
        tracer.run_id = i
        with tracer:
            traced.run_one(i)
        untraced.run_one(i)
    traced_wall, untraced_wall = sum(traced.call_s), sum(untraced.call_s)
    totals = tracer.layer_totals()
    backward_calls = totals["autodiff.backward"]["calls"]
    nodes = sum(tracer.node_counts.values())
    hits = [r.slope_hit for r in traced.results + untraced.results if r.slope_hit is not None]

    metrics = {}
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = (totals[layer]["calls"], "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (totals[layer]["self_s"] / traced_wall, "ratio")
    for layer in ("features", "forecaster.head"):
        metrics[f"{layer}.hwm_mb"] = (totals[layer]["hwm_mb"], "MB")
    metrics["forecaster.core.rows"] = (tracer.core_rows, "count")
    metrics["autodiff.nodes"] = (nodes / max(backward_calls, 1), "nodes/backward")
    for kind in NODE_KINDS:
        metrics[f"autodiff.nodes.{kind}"] = (tracer.node_counts[kind] / max(backward_calls, 1),
                                             "nodes/backward")
    metrics["attacks.target_hit_ratio"] = (sum(hits) / len(hits) if hits else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.self_coverage"] = (sum(t["self_s"] for t in totals.values()) / traced_wall,
                                      "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "ops": k,
        "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
        "layers": totals, "node_counts": dict(tracer.node_counts),
        "span_fields": ["name", "start", "end", "parent", "run_id"],
        "spans": tracer.spans}))
    if tracer.missing:
        print(f"entry points not found, their layers read 0: {', '.join(tracer.missing)}",
              file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {k} traced calls ({traced_wall:.3f} s) and "
          f"{k} untraced ({untraced_wall:.3f} s); spans in {out.relative_to(ROOT)}")
    print(f"  {'layer':24s} {'calls':>8s} {'self_s':>10s} {'share':>7s} {'hwm_mb':>8s}")
    for layer in LAYERS:
        t = totals[layer]
        if t["calls"] or t["hwm_mb"]:
            print(f"  {layer:24s} {t['calls']:8d} {t['self_s']:10.4f} "
                  f"{t['self_s'] / traced_wall:7.1%} {t['hwm_mb']:8.1f}")
    failed = traced.failed + untraced.failed
    _print_result(failed == 0, traced.attempted + untraced.attempted, failed, metrics)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    combined = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with code {proc.returncode}", code=3)
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "workloads": combined}))
    return 0


def record_reference(seeds: list[int]) -> int:
    """Record the fingerprints of each workload's first operations at this commit."""
    _import_program()
    from workloads import WORKLOADS
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref.setdefault("rtol", 1e-6)
    ref.setdefault("atol", 1e-12)
    prints = ref.setdefault("fingerprints", {})
    for name, cls in WORKLOADS.items():
        for seed in seeds:
            wl = cls(seed)
            prints.setdefault(name, {})[str(seed)] = {
                str(i): wl.op(i).fingerprint for i in range(cls.reference_keys)}
            print(f"recorded {name} seed {seed}", file=sys.stderr)
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def _seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", metavar="SEEDS",
                   help="record reference fingerprints for seeds like 0-31,101")
    args = p.parse_args(argv)
    # set before numpy is first imported, in this process and every child
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.record_reference:
        return record_reference(_seed_list(args.record_reference))
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        args.trace = 0
    if args.trace:
        return run_traced(args)
    return run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
