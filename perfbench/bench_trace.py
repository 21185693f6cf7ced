"""Span tracer that wraps semlink's public functions from outside the package.

A traced function is replaced, in every loaded ``semlink`` module that binds
it, by a wrapper that records one span per call: its wall time, its self time
(duration minus the time covered by child spans) and a call count.  Patching
every module that binds the function matters because consumers import names
(``from .codec import encode``) and resolve them in their own namespace at
call time; patching only the defining module would miss those calls.

Span stacks are kept per thread.  ``cli.run_trials`` gets a wrapper of its
own that wraps each trial in a ``cli.run_trials.trial`` span on whichever
thread runs it.  Its self time is its duration minus the union of its trial
intervals, so with a thread pool the self times over all threads add up to
the root wall time plus the time trials overlapped each other (reported as
``cli.run_trials.overlap_pct``).
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict

MARK = "__perfbench_original__"
ROOT = "trace.unattributed"
TRIAL = "cli.run_trials.trial"
BOOKKEEPING = "trace.bookkeeping"

# (module, qualified name) of every traced function.  A name with a dot is a
# method, patched on its class.
TARGETS = (
    ("tensor", "backward"),
    ("tensor", "softmax_attention"),
    ("tensor", "layer_norm"),
    ("tensor", "matmul"),
    ("tensor", "gelu"),
    ("ctensor", "real_view_to_complex"),
    ("ctensor", "complex_to_real_view"),
    ("rng", "RngStream.substream"),
    ("snapshot", "save_tensors"),
    ("snapshot", "load_tensors"),
    ("scenes", "generate_scene"),
    ("scenes", "locate"),
    ("scenes", "locate_any"),
    ("masking", "patchify"),
    ("masking", "unpatchify"),
    ("masking", "sample_mask"),
    ("masking", "random_mask"),
    ("codec", "encode"),
    ("codec", "decode"),
    ("chancodec", "chan_encode"),
    ("chancodec", "chan_decode"),
    ("chancodec", "chan_encode_real"),
    ("chancodec", "chan_decode_real"),
    ("channel", "draw_channel"),
    ("channel", "transmit_detect"),
    ("channel", "normalize_power"),
    ("channel", "power_scale"),
    ("channel", "calibrate_noise"),
    ("channel", "surrogate_channel"),
    ("sharing", "synth_correlated_semantics"),
    ("sharing", "partition"),
    ("sharing", "transport"),
    ("training", "train_phase"),
    ("training", "sample_nonempty_mask"),
    ("training", "Adam.step"),
    ("metrics", "psnr"),
    ("metrics", "ssim"),
    ("metrics", "region_metric"),
    ("metrics", "nmse"),
    ("link", "codec_only_pass"),
    ("link", "surrogate_link"),
    ("link", "evaluate_link"),
    ("cli", "main"),
    ("cli", "run_trials"),
)

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, name in TARGETS) + (TRIAL,)

# counters beside the spans: name -> unit.  Times other than the wall time
# are shares of the traced wall time, so a layer a workload never calls
# reads 0 as a share, not as a time.
COUNTERS = {
    "tensor.graph_nodes": "nodes/unit",
    "snapshot.save_tensors.bytes": "bytes/unit",
    "snapshot.load_tensors.bytes": "bytes/unit",
    "cli.run_trials.workers": "threads",
    "cli.run_trials.parallelism": "ratio",
    "cli.run_trials.overlap_pct": "%",
    "scenes.generate_scene.per_trial": "ratio",
    "masking.sample_mask.per_plan": "ratio",
    "trace.wall_ms": "ms/unit",
    "trace.unattributed_pct": "%",
    "trace.bookkeeping_pct": "%",
    "trace.overhead_pct": "%",
}


def per_layer_metrics() -> list:
    """Every per-layer metric a traced run prints, as (name, unit)."""
    out = []
    for span in SPAN_NAMES:
        out.append((f"{span}.calls", "calls/unit"))
        out.append((f"{span}.self_pct", "%"))
    out.extend(COUNTERS.items())
    return out


def _semlink_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "semlink" or name.startswith("semlink."))]


def _resolve(mod: str, qual: str):
    """(owner object, attribute, current value) for one target."""
    owner = sys.modules[f"semlink.{mod}"]
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def wrapped_names() -> list:
    """Every semlink binding that currently holds a tracing wrapper."""
    found = []
    for module in _semlink_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("semlink"):
                found.extend(f"{module.__name__}.{attr}.{a}"
                             for a, v in vars(value).items() if hasattr(v, MARK))
    return found


def _union_length(intervals: list) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _graph_nodes(loss) -> int:
    """Nodes reachable from loss through parents that require gradients."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in getattr(node, "_parents", ()):
            if getattr(parent, "requires_grad", False) and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _file_bytes(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


class Tracer:
    """Per-thread span stacks plus per-thread totals merged on read."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (self seconds, calls) dicts of every thread seen
        self.counts = defaultdict(float)  # counters, updated under _lock
        self.max_workers = 0
        self._restore = []

    # -- recording ------------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(float), defaultdict(int))
            with self._lock:
                self._threads.append(state)
        return state

    def _count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def _span(self, name: str, fn, after=None):
        perf = time.perf_counter
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, self_s, calls = state()
            frame = [perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                # counter bookkeeping is charged to its own bucket, not the caller
                t0 = perf()
                after(args, result)
                spent = perf() - t0
                self_s[BOOKKEEPING] += spent
                if stack:
                    stack[-1][1] += spent
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _run_trials_span(self, name: str, fn):
        perf = time.perf_counter
        state = self._state
        tracer = self

        @functools.wraps(fn)
        def wrapper(n, trial_fn, *args, **kwargs):
            intervals, threads = [], set()
            lock = threading.Lock()

            def traced_trial(i):
                stack, self_s, calls = state()
                frame = [perf(), 0.0]
                stack.append(frame)
                try:
                    return trial_fn(i)
                finally:
                    end = perf()
                    stack.pop()
                    self_s[TRIAL] += end - frame[0] - frame[1]
                    calls[TRIAL] += 1
                    # not added to the caller's child time: run_trials
                    # subtracts the union of its trial intervals instead
                    with lock:
                        intervals.append((frame[0], end))
                        threads.add(threading.get_ident())

            stack, self_s, calls = state()
            frame = [perf(), 0.0]
            stack.append(frame)
            try:
                return fn(n, traced_trial, *args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                with lock:
                    cover = _union_length(intervals)
                    busy = sum(e - s for s, e in intervals)
                    used = len(threads)
                self_s[name] += dur - cover - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                with tracer._lock:
                    tracer.counts["run_trials.busy_s"] += busy
                    tracer.counts["run_trials.wall_s"] += dur
                    tracer.counts["run_trials.overlap_s"] += busy - cover
                    tracer.max_workers = max(tracer.max_workers, used)

        setattr(wrapper, MARK, fn)
        return wrapper

    def root(self, fn, *args, **kwargs):
        """Run fn inside the root span; returns (result, wall seconds)."""
        stack, self_s, calls = self._state()
        frame = [time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame[0]
            self_s[ROOT] += dur - frame[1]
            calls[ROOT] += 1
            self._count("root.wall_s", dur)
        return result, dur

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every target by its wrapper."""
        modules = _semlink_modules()
        for mod, qual in TARGETS:
            owner, attr, original = _resolve(mod, qual)
            name = f"{mod}.{qual}"
            if name == "cli.run_trials":
                wrapper = self._run_trials_span(name, original)
            elif name == "tensor.backward":
                wrapper = self._span(name, original, lambda a, r: self._count(
                    "tensor.graph_nodes", _graph_nodes(a[0])))
            elif name in ("snapshot.save_tensors", "snapshot.load_tensors"):
                wrapper = self._span(name, original, lambda a, r, key=f"{name}.bytes":
                                     self._count(key, _file_bytes(a[0])))
            else:
                wrapper = self._span(name, original)
            if "." in qual:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back, in reverse order of patching."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def totals(self):
        """(self seconds, calls) summed over every thread."""
        self_s, calls = defaultdict(float), defaultdict(int)
        with self._lock:
            for _, thread_self, thread_calls in self._threads:
                for k, v in list(thread_self.items()):
                    self_s[k] += v
                for k, v in list(thread_calls.items()):
                    calls[k] += v
        return self_s, calls

    def identity_gap_s(self) -> float:
        """Sum of all self times, less trial overlap, minus the root wall time.

        Zero up to rounding when every traced second is attributed exactly once.
        """
        self_s, _ = self.totals()
        return (sum(self_s.values()) - self.counts["run_trials.overlap_s"]
                - self.counts["root.wall_s"])

    def self_ms(self, units: int) -> dict:
        """Self time of every span in milliseconds per workload unit."""
        self_s, _ = self.totals()
        return {f"{span}.self_ms": 1e3 * self_s[span] / units
                for span in SPAN_NAMES + (ROOT, BOOKKEEPING)}

    def per_layer(self, units: int, untraced_unit_s: float, traced_unit_s: float) -> dict:
        """The per-layer metrics: counts per workload unit, self times as a
        percentage of the traced wall time (with a pool they add up to 100
        plus the overlap)."""
        self_s, calls = self.totals()
        pct = 100.0 / self.counts["root.wall_s"]
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = calls[span] / units
            out[f"{span}.self_pct"] = pct * self_s[span]
        wall = self.counts["run_trials.wall_s"]
        plans = calls["training.sample_nonempty_mask"]
        trials = calls[TRIAL]
        out.update({
            "tensor.graph_nodes": self.counts["tensor.graph_nodes"] / units,
            "snapshot.save_tensors.bytes": self.counts["snapshot.save_tensors.bytes"] / units,
            "snapshot.load_tensors.bytes": self.counts["snapshot.load_tensors.bytes"] / units,
            "cli.run_trials.workers": float(self.max_workers),
            "cli.run_trials.parallelism": self.counts["run_trials.busy_s"] / wall if wall else 0.0,
            "cli.run_trials.overlap_pct": pct * self.counts["run_trials.overlap_s"],
            "scenes.generate_scene.per_trial":
                calls["scenes.generate_scene"] / trials if trials else 0.0,
            "masking.sample_mask.per_plan": calls["masking.sample_mask"] / plans if plans else 0.0,
            "trace.wall_ms": 1e3 * self.counts["root.wall_s"] / units,
            "trace.unattributed_pct": pct * self_s[ROOT],
            "trace.bookkeeping_pct": pct * self_s[BOOKKEEPING],
            "trace.overhead_pct": 100.0 * (traced_unit_s / untraced_unit_s - 1.0),
        })
        return out
