#!/usr/bin/env python3
"""Run one semlink benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload {train,eval,detect,share} --seed N \
        --seconds S --trace {0,1}

Run from the repository root (the directory holding ``src/semlink``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones from
a run that alternates untraced and traced rounds.  See README.md beside this
file for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORKLOAD_NAMES = ("train", "eval", "detect", "share")
SETUP_SAMPLES = 5  # fresh processes timed for setup_s; the median is reported
REFERENCE_PY_STEPS = 50_000  # the host-speed reference loop, about 10 ms in all
REFERENCE_NP_STEPS = 750
REFERENCE_NOMINAL_S = 0.010  # host speed the timed metrics are normalized to
SETUP_TIMEOUT_S = 150

# name -> unit of every end-to-end metric, reported by every workload
END_TO_END = {
    "units_per_s": "1/s",
    "output_mse": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every round and set-up (smoke test only)")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _environment(args, cli) -> dict:
    import numpy
    import scipy

    blas = None
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    workers = None
    try:
        workers = cli._worker_count()
    except Exception as exc:  # private helper; its absence or failure is recorded
        workers = f"unavailable: {exc!r}"
    sha = None
    if (REPO / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "semlink").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "SEMLINK_THREADS": os.environ.get("SEMLINK_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "run_trials_workers": workers,
    }


def _time_setup(args, setup_dir: Path, tally):
    """Wall time of a fresh process doing imports, set-up and warm-up.

    Returns it with the two host-speed reference times the process took at
    its start and end, so that its time is normalized by the speed of the
    CPU it ran on.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
           "--setup-only", str(setup_dir)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        ok, err = proc.returncode == 0, proc.stderr
    except subprocess.TimeoutExpired:
        ok, err = False, f"timed out after {SETUP_TIMEOUT_S} s"
    seconds = time.perf_counter() - t0
    if ok:
        try:
            references = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            ok, err = False, "set-up process printed no reference times\n"
    if not ok:
        sys.stderr.write(err)
        references = [_reference_s(), _reference_s()]
    tally.check(ok, f"set-up process in {setup_dir.name} failed")
    return seconds, references


def _reference_s() -> float:
    """Wall time of a fixed loop of Python arithmetic and small numpy products.

    It calls no semlink code, so its time moves only with the host: on a
    shared host a contended core runs everything slower for seconds at a
    time.  Timed beside every measured operation, it tells how fast the
    host ran then.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_PY_STEPS):
        acc += i * i % 7
    for _ in range(REFERENCE_NP_STEPS):
        a @ a
    return time.perf_counter() - t0


class HostSpeed:
    """Host-speed reference timings taken around every measured operation.

    ``timer`` is a workload timer (see ``bench_workloads.plain_timer``) that
    also times the reference loop just before and just after the operation;
    ``add`` records an operation timed elsewhere.  ``slowdown(k)`` is the
    mean of the two reference times of operation ``k`` over
    ``REFERENCE_NOMINAL_S``: how much slower than a host on which the loop
    takes that long the host ran during the operation.
    """

    def __init__(self):
        self.ops = []  # (seconds, reference before, reference after)

    def add(self, seconds: float, before: float, after: float) -> None:
        self.ops.append((seconds, before, after))

    def timer(self, fn, *args):
        before = _reference_s()
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        self.add(seconds, before, _reference_s())
        return result, seconds

    def slowdown(self, k: int) -> float:
        _, before, after = self.ops[k]
        return (before + after) / 2.0 / REFERENCE_NOMINAL_S

    def normalized_seconds(self, k: int) -> float:
        """Time operation ``k`` would have taken on the nominal host."""
        return self.ops[k][0] / self.slowdown(k)


def _measure_untraced(wl, args, workdir: Path, tally, bt):
    """Rounds until their timed operations add up to --seconds.

    Returns the rounds, each with the range of its operations in
    ``host.ops``, the operation index of every set-up process, and the
    HostSpeed that timed them all.  The set-up processes are spread over
    the run (none runs while a round does), so that their median does not
    rest on one moment of the host's speed.
    """
    host = HostSpeed()
    setups = []

    def time_setup():
        setups.append(len(host.ops))
        seconds, references = _time_setup(args, workdir / f"setup-{len(setups) - 1}", tally)
        host.add(seconds, *references)

    time_setup()
    tally.check(wl.adopt(workdir / "setup-0"), "set-up artifacts missing")
    wl.warm_up()
    rounds, measured = [], 0.0
    while len(rounds) < wl.sizes.quality_rounds or measured < args.seconds:
        first = len(host.ops)
        rd = wl.run_round(len(rounds), host.timer)
        rounds.append((rd, range(first, len(host.ops))))
        measured += rd.seconds
        tally.add(rd)
        if len(setups) < SETUP_SAMPLES and measured >= args.seconds * len(setups) / SETUP_SAMPLES:
            time_setup()
    while len(setups) < SETUP_SAMPLES:
        time_setup()
    tally.check(not bt.wrapped_names(), "untraced run found tracing wrappers installed")
    return rounds, setups, host


def _measure_traced(wl, args, tally, bt):
    """Alternate an untraced and a traced round on the same inputs."""
    tracer = bt.Tracer()

    def traced(fn, *fn_args):
        tracer.install()
        try:
            return tracer.root(fn, *fn_args)
        finally:
            tracer.uninstall()

    plain, traced_rounds = [], []
    t0 = time.perf_counter()
    r = 0
    while r < max(2, wl.sizes.quality_rounds) or time.perf_counter() - t0 < args.seconds:
        plain.append(wl.run_round(r))
        tally.check(not bt.wrapped_names(), "untraced round ran with tracing wrappers")
        traced_rounds.append(wl.run_round(r, traced))
        tally.check(not bt.wrapped_names(), "tracing wrappers left installed")
        tally.add(plain[-1])
        tally.add(traced_rounds[-1])
        r += 1
    wall = tracer.counts["root.wall_s"]
    gap = tracer.identity_gap_s()
    tally.check(abs(gap) <= 1e-6 * wall + 1e-6,
                f"self times do not add up to the traced wall time (gap {gap:.3e} s)")
    units = sum(rd.units for rd in traced_rounds)
    per_unit = statistics.median
    metrics = tracer.per_layer(units,
                               per_unit(rd.seconds / rd.units for rd in plain),
                               per_unit(rd.seconds / rd.units for rd in traced_rounds))
    return plain, traced_rounds, metrics, tracer.self_ms(units)


def _setup_only(args, bw, sizes) -> int:
    """Set-up and warm-up; prints the reference times taken at start and end."""
    first = _reference_s()
    setup_dir = Path(args.setup_only)
    setup_dir.mkdir(parents=True, exist_ok=True)
    wl = bw.WORKLOADS[args.workload](setup_dir, args.seed, sizes)
    ok = wl.setup(setup_dir)
    wl.warm_up()
    print(json.dumps([first, _reference_s()]))
    return 0 if ok else 3


def _number(value: float) -> float:
    return float(value) if math.isfinite(value) else -1.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "semlink" / "__init__.py").is_file():
        print(f"perfbench: no semlink sources at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bench_trace as bt
    import bench_workloads as bw

    sizes = bw.TINY if args.size == "tiny" else bw.Sizes()
    if args.setup_only:
        return _setup_only(args, bw, sizes)

    base = REPO / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    tally = bw.Round()  # attempts and failures across set-up, rounds and self-checks
    record = {"env": _environment(args, bw.cli)}
    try:
        wl = bw.WORKLOADS[args.workload](workdir, args.seed, sizes)
        if args.trace:
            (workdir / "setup").mkdir()
            tally.check(wl.setup(workdir / "setup"), "set-up failed")
            wl.warm_up()
            plain, traced, metrics, self_ms = _measure_traced(wl, args, tally, bt)
            units = dict(bt.per_layer_metrics())
            record.update({"details": self_ms,
                           "rounds": {"untraced": len(plain), "traced": len(traced)}})
        else:
            timed, setups, host = _measure_untraced(wl, args, workdir, tally, bt)
            rounds = [rd for rd, _ in timed]
            setup_times = [host.ops[k][0] for k in setups]
            details = wl.details(rounds)
            details["error_rate"] = tally.failed / tally.attempted
            details["raw_units_per_s"] = statistics.median(rd.units / rd.seconds for rd in rounds)
            details["raw_setup_s"] = statistics.median(setup_times)
            details["host_slowdown"] = statistics.median(
                host.slowdown(k) for k in range(len(host.ops)))
            metrics = {
                "units_per_s": statistics.median(
                    rd.units / sum(host.normalized_seconds(k) for k in ops) for rd, ops in timed),
                "output_mse": wl.output_mse(details),
                "setup_s": statistics.median(host.normalized_seconds(k) for k in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "success_rate": 1.0 - tally.failed / tally.attempted,
            }
            units = END_TO_END
            record.update({"details": details, "rounds": len(rounds), "unit": wl.unit,
                           "setup_times_s": setup_times,
                           "round_units": [rd.units for rd in rounds],
                           "round_seconds": [rd.seconds for rd in rounds],
                           "round_ops": [[ops.start, ops.stop] for _, ops in timed],
                           "ops": host.ops, "reference_nominal_s": REFERENCE_NOMINAL_S})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["problems"] = tally.problems
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    records = base / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print("perfbench-env " + json.dumps(record["env"], sort_keys=True))
    if "details" in record:
        print("perfbench-details " + json.dumps(record["details"], sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": _number(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
