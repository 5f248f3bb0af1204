"""subcss benchmark: four workloads of in-process `subcss.cli.main(argv)` requests.

    python3 perfbench/run.py --workload algebra|search|decode|codewords|all \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory. Each workload is measured in fresh Python processes
(worker.py), so module-level caches start empty as they do for a user.

--trace 0 prints the end-to-end metrics: set-up time (median over
SETUP_SAMPLES fresh processes), requests/s, median and tail request
latency, and peak RSS. --trace 1 prints the per-layer metrics of a
traced run, its tracing overhead against an untraced run of the same
passes, and decode trials/s. The last line of output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import calib  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
# Closed loop, one client, one thread: keep numeric libraries from
# starting worker threads of their own.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time (start to READY)."""
    env = {**os.environ, **CHILD_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        _finish(proc)
        raise BenchError(f"worker did not get ready: {line!r}")
    return proc, ready


def _finish(proc: subprocess.Popen) -> tuple[int, str, str]:
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        raise BenchError("worker timed out")
    return proc.returncode, out, err


def _result(proc: subprocess.Popen) -> dict:
    rc, out, err = _finish(proc)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"worker exited {rc}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def _worker_args(mode, workload, seed, seconds, workdir, extra=()):
    return ["--mode", mode, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--workdir", workdir, *extra]


def measure(workload: str, seed: int, seconds: float, workdir: str) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and the worker's raw result."""
    setups, raw_setups = [], []
    for i in range(SETUP_SAMPLES):
        mode = "run" if i == SETUP_SAMPLES - 1 else "setup"
        factor = calib.factor_now()
        proc, ready = _spawn(_worker_args(mode, workload, seed, seconds, os.path.join(workdir, f"{mode}{i}")))
        setups.append(ready * factor)
        raw_setups.append(ready)
        if mode == "setup":
            rc, _, err = _finish(proc)
            if rc != 0:
                raise BenchError(f"set-up worker exited {rc}: {err.strip()[-2000:]}")
    res = _result(proc)
    res["raw"]["setup_s"] = statistics.median(raw_setups)
    nominal = res["nominal"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (nominal["requests_per_s"], "1/s"),
        "request_p50_ms": (nominal["request_p50_ms"], "ms"),
        "request_tail_ms": (nominal["request_tail_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }
    return metrics, res


def trace(workload: str, seed: int, seconds: float, workdir: str) -> tuple[dict, dict]:
    """Traced run, after an untraced run of the same passes for the overhead."""
    proc, _ = _spawn(_worker_args("run", workload, seed, seconds / 2, os.path.join(workdir, "plain")))
    plain = _result(proc)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")
    extra = ["--trace-out", spans_path]
    proc, _ = _spawn(_worker_args("trace", workload, seed, seconds / 2, os.path.join(workdir, "traced"), extra))
    traced = _result(proc)
    metrics = {name: (value, _unit(name)) for name, value in traced["layers"].items()}
    metrics["tracing_overhead_ratio"] = (traced["nominal"]["loop_s"] / plain["nominal"]["loop_s"], "1")
    metrics["decode_trials_per_s"] = (plain["nominal"]["decode_trials_per_s"] or 0.0, "1/s")
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["problems"] += plain["problems"]
    print(f"spans = {spans_path}")
    return metrics, traced


_UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_us", "us"), ("_ratio", "1"), (".bytes", "B"))


def _unit(name: str) -> str:
    return next((unit for suffix, unit in _UNITS if name.endswith(suffix)), "count")


def report(workload: str, seed: int, metrics: dict, res: dict, traced: bool) -> dict:
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload = {workload}  seed = {seed}  passes = {res['passes']} x "
          f"{res['requests_per_pass']} requests  nproc = {len(os.sched_getaffinity(0))}  "
          f"python = {platform.python_version()}  numpy = {res['numpy']}  "
          f"load = closed loop, 1 client, 1 process, 1 thread")
    for name, (value, unit) in metrics.items():
        label = f"{name} (p{res['tail_percentile']:g})" if name == "request_tail_ms" else name
        print(f"{label} = {value:.6g} {unit}")
    if not traced:
        trials = res["nominal"]["decode_trials_per_s"]
        print("decode_trials_per_s = " + (f"{trials:.6g} 1/s" if trials else "n/a (decode workload only)"))
    print(f"failed_ratio = {failed / attempted:.6g} 1  ({failed} of {attempted})")
    raw = res["raw"]
    print("unscaled: " + "  ".join(f"{k} = {v:.6g}" for k, v in raw.items() if v is not None)
          + f"  kernel_median_s = {res['kernel_median_s']:.6g}")
    for problem in res["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "subcss", "__init__.py")):
        print(f"error: no subcss sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run = trace if args.trace else measure
            metrics, res = run(workload, args.seed, args.seconds, os.path.join(workdir, workload))
            result = report(workload, args.seed, metrics, res, bool(args.trace))
            if args.workload != "all":
                summary = result
                break
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
