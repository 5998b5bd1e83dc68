"""One benchmark run of one workload, in a process of its own.

Started by ``bench/run.py``, which pins BLAS to one thread first.  The run
is a closed loop with one client: set up, then sweep until the next sweep
would end after ``--seconds``, checking every sweep's outputs.  With
``--trace 1`` untraced and traced sweeps alternate; the traced ones give
the per-layer metrics and the difference gives the tracing overhead.
Set-up and sweep times are reported both as wall time and scaled by the
speed probe below.  Prints one JSON line for the launcher.
``--setup-only`` stops after the set-up and reports its time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy  # before the set-up clock: the speed probe needs it

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

# The speed of a shared machine drifts: by a third from one second to the
# next, and by more over minutes (bench/README.md).  The speed probe times a
# fixed piece of work every PROBE_PERIOD_S, on a timer signal in the
# worker's own thread, so it runs on the same core under the same load as
# the program.  The work is of the program's kind: Python calls, small
# objects and dicts, and numpy operations on short arrays.  The samples
# fall evenly in wall time, so the mean of PROBE_REF_S / probe over a span
# is the span's mean speed relative to the speed at which the probe takes
# PROBE_REF_S (about the median probe on the reference machine); the span's
# time times that mean is its time at the reference speed.  The probe costs
# about 0.6 % of a span.
PROBE_PERIOD_S = 0.05
PROBE_OBJECTS = 150
PROBE_ARRAY_OPS = 20
PROBE_REF_S = 3.0e-4


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def norm(self):
        return abs(self.a) + abs(self.b)


def _affine(x, slope=2.0):
    return x * slope + 1.0


class SpeedProbe:
    """Samples the machine's speed while the program runs."""

    def __init__(self):
        self.samples = []
        self._x = numpy.linspace(0.0, 1.0, 16)

    def sample(self, *_signal_args):
        started = time.perf_counter()
        acc = 0.0
        points = {}
        for i in range(PROBE_OBJECTS):
            point = points[i % 7] = _Point(_affine(i), _affine(i, 3.0))
            acc += point.norm() + len(str(i))
        for _ in range(PROBE_ARRAY_OPS):
            acc += float(numpy.dot(self._x, self._x)) + numpy.diff(self._x)[3]
        self.samples.append(time.perf_counter() - started)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, since):
        """Mean of PROBE_REF_S / probe from sample ``since`` on; one sample
        taken now keeps a short span's window from being empty."""
        self.sample()
        return statistics.fmean(PROBE_REF_S / s for s in self.samples[since:])


def _sweep(cli, workload, configs, outdir, probe, tracer=None):
    """(seconds, speed-scaled seconds, problems) of one sweep; the check
    runs outside the clock."""
    shutil.rmtree(outdir, ignore_errors=True)
    codes = {}
    first = len(probe.samples)
    started = time.perf_counter()
    try:
        with tracer or contextlib.nullcontext():
            for call, path in configs:
                codes[call.label] = cli.main([call.command, str(path)])
        elapsed = time.perf_counter() - started
        scaled = elapsed * probe.scale(first)
        problems = workload.check(outdir, codes)
    except Exception as exc:  # a sweep that raises is a failed sweep
        elapsed = time.perf_counter() - started
        scaled = elapsed * probe.scale(first)
        traceback.print_exc()
        problems = [f"raised {type(exc).__name__}: {exc}"]
    return elapsed, scaled, problems


def run(args, clock_start, probe):
    from workloads import WORKLOADS, write_configs

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        # --- set-up: imports, writing and loading the configs
        import idikit.cli as cli
        from idikit.config import load_config
        configs = write_configs(workload, workdir, args.seed)
        for _, path in configs:
            load_config(str(path))
        setup_wall_s = time.perf_counter() - clock_start
        setup = {"setup_wall_s": setup_wall_s,
                 "setup_s": setup_wall_s * probe.scale(0)}
        if args.setup_only:
            return setup
        return _measure(args, cli, workload, configs, workdir, probe) | setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, cli, workload, configs, workdir, probe):
    import scipy

    import checks
    import spans

    outdir = workdir / "out"
    tracer = spans.Tracer() if args.trace else None
    plain, scaled, traced, layer_runs, dumps, problems = [], [], [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        traced_turn = tracer is not None and len(traced) < len(plain)
        if traced_turn:
            tracer.reset()
        seconds, seconds_scaled, sweep_problems = _sweep(
            cli, workload, configs, outdir, probe, tracer if traced_turn else None)
        attempted += 1
        failed += bool(sweep_problems)
        problems += sweep_problems
        if traced_turn:
            traced.append(seconds)
            layers = spans.layer_metrics(tracer)
            audit_csv = outdir / "au_audit.csv"
            layers["cli.audit_instances"] = (checks.audit_instances(audit_csv)
                                             if audit_csv.exists() else 0)
            layer_runs.append(layers)
            dumps.append((list(tracer.names), tracer.start, tracer.end,
                          tracer.name_id, tracer.parent))
        else:
            plain.append(seconds)
            scaled.append(seconds_scaled)
        elapsed = time.perf_counter() - started
        if tracer is None:
            next_s = statistics.median(plain)
        elif not traced:
            continue
        else:
            next_s = statistics.median(plain if len(traced) == len(plain) else traced)
        if elapsed + next_s > args.seconds:
            break

    result = {
        "sweeps": scaled,
        "wall_sweeps": plain,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        # the lower median is a value one sweep actually had
        layers = {name: statistics.median_low(run[name] for run in layer_runs)
                  for name in layer_runs[0]}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        layers["trace.absent"] = len(tracer.absent)
        span_file = OUT / f"spans-{args.workload}.npz"
        spans.save_spans(span_file, dumps)
        result |= {"traced_sweeps": traced, "layers": layers,
                   "absent": tracer.absent,
                   "absent_metrics": spans.absent_metrics(tracer.absent),
                   "span_file": str(span_file.relative_to(ROOT))}
    return result


def main(argv=None) -> int:
    probe = SpeedProbe()  # built outside the set-up clock
    clock_start = time.perf_counter()  # set-up time starts before idikit loads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "idikit" / "__init__.py").is_file():
        print(f"worker: no idikit sources under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    with probe:
        result = run(args, clock_start, probe)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
