"""Benchmark of the idikit CLI, end to end, on one workload per run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: volterra_audit and control_sweep (gated in BENCHMARK.json), and
volterra_sweep, bound_audit and memory_control (by hand); see
bench/README.md.  Each run goes through ``idikit.cli.main`` in a worker
process with BLAS pinned to one thread.  With ``--trace 0`` it prints the
end-to-end metrics (setup_s and sweep_s scaled to a reference machine speed
measured during each span, see worker.py, and peak_rss_mb); with
``--trace 1`` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exits non-zero
without a result when the run cannot be made (for instance without the
idikit sources next to the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).with_name("worker.py")
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# extra set-ups in fresh processes, half before and half after the measured
# run so that they fall into different stretches of a drifting machine's
# speed; setup_s is the median of these and the run's own set-up
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}


class RunError(RuntimeError):
    pass


def _worker(args, extra, deadline):
    env = dict(os.environ, **{var: BLAS_THREADS for var in BLAS_VARS})
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or commit
    return {"python": sys.version.split()[0], **versions,
            "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": f"{'/'.join(BLAS_VARS)}={BLAS_THREADS}",
            "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups = [_worker(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(probes)]
        res = _worker(args, ["--seconds", str(args.seconds),
                             "--trace", str(args.trace)], deadline)
        setups += [_worker(args, ["--setup-only"], deadline)["setup_s"]
                   for _ in range(probes)]
    except (RunError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(_environment(res["versions"])))
    for problem in res["problems"]:
        print(f"check failed: {problem}")
    print(f"fail_frac {checks.fail_frac(res['failed'], res['attempted']):.6g} "
          f"({res['failed']} of {res['attempted']} sweeps)")
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, (unit, _, _) in spans.PER_LAYER.items()}
        print(f"traced sweeps {len(res['traced_sweeps'])}, untraced "
              f"{len(res['sweeps'])}; spans in {res['span_file']}")
        absent = set(res["absent_metrics"])
        for name in res["absent"]:
            print(f"absent wrapped name: {name}")
    else:
        values = {"setup_s": statistics.median(setups + [res["setup_s"]]),
                  "sweep_s": statistics.median(res["sweeps"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print(f"setup_s over {len(setups) + 1} set-ups, sweep_s over "
              f"{len(res['sweeps'])} sweeps: "
              + " ".join(f"{s:.3f}" for s in res["sweeps"]))
        print(f"wall time, not speed-scaled: set-up {res['setup_wall_s']:.3f} s, "
              f"sweeps " + " ".join(f"{s:.3f}" for s in res["wall_sweeps"])
              + f", median {statistics.median(res['wall_sweeps']):.3f} s")
        absent = set()
    for name, m in metrics.items():
        note = "  (absent)" if name in absent else ""
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
