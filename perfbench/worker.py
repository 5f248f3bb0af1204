"""One measured process of a benchmark run (started by run.py).

Set-up (import subcss, write the input files, build the request list)
ends with a READY line, which run.py timestamps. A `setup` worker exits
there. A `run` worker then drives the requests through
`subcss.cli.main(argv)` in a closed loop: one client, one thread, the
next request starting when the previous one returns. It runs a fixed
number of whole passes over the request list, checks every distinct
output after the loop, and prints its result as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import subcss  # noqa: E402
import subcss.cli  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402


def _run_one(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = subcss.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a request that raised is a failed request
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def run_loop(reqs, seed: int, passes: int, speed, tracer=None):
    """Run `passes` whole passes over the requests.

    Returns (records, outputs). A record is (request index, latency_s,
    output key, start, end); `outputs` maps each distinct output key to
    (rc, stdout, stderr, written file text). `speed` (a calib.Speed) gets a
    calibration kernel sample before every request and after the last.
    """
    records, outputs = [], {}
    for done in range(passes):
        for i, req in enumerate(reqs):
            argv = req.argv(workloads.mc_seed(seed, done, i) if req.q is not None else None)
            if tracer is not None:
                tracer.request = done * len(reqs) + i + 1
            speed.sample()
            t0 = time.perf_counter()
            rc, out, err = _run_one(argv)
            t1 = time.perf_counter()
            written = None
            if req.out is not None and os.path.exists(req.out):
                with open(req.out) as fh:
                    written = fh.read()
                os.remove(req.out)
            key = (i, hash((str(rc), out, err, written)))
            outputs.setdefault(key, (rc, out, err, written))
            records.append((i, t1 - t0, key, t0, t1))
    speed.sample()
    return records, outputs


def hd_quantile(sorted_values, pct: float) -> float:
    """Harrell-Davis estimate of a quantile: a Beta-weighted mean of the
    order statistics around the target rank. A run holds a few copies of
    each of a few dozen request types, so the plain order statistic jumps
    between neighbouring types from run to run; the weighted mean does not.
    """
    x = np.asarray(sorted_values, dtype=float)
    n, q = len(x), pct / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    t = np.linspace(0, 1, 20001)[1:-1]
    log_density = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    density = np.exp(log_density - log_density.max())
    cdf = np.concatenate([[0.0], np.cumsum(density)])
    cdf /= cdf[-1]
    grid = np.concatenate([[0.0], t])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def summarize(reqs, records, outputs, speed) -> dict:
    """Check every distinct output, then compute the end-to-end figures,
    both raw and scaled to nominal machine speed."""
    import checks  # not imported earlier: checking is not part of set-up

    verdicts = {key: checks.check(reqs[key[0]], *outputs[key]) for key in outputs}
    failed = sum(1 for _, _, key, _, _ in records if verdicts[key])
    problems = sorted({f"{reqs[key[0]].label}: {p}" for key, ps in verdicts.items() for p in ps})
    out = {"attempted": len(records), "failed": failed, "problems": problems[:20],
           "tail_percentile": workloads.tail_percentile(len(records))}
    for kind in ("raw", "nominal"):
        lat = [lat * (speed.factor(t0, t1) if kind == "nominal" else 1.0)
               for _, lat, _, t0, t1 in records]
        lat_ms = sorted(1e3 * x for x in lat)
        mc = [x for x, (i, *_) in zip(lat, records) if reqs[i].q is not None]
        out[kind] = {
            "loop_s": sum(lat),
            "requests_per_s": (len(records) - failed) / sum(lat),
            "request_p50_ms": hd_quantile(lat_ms, 50),
            "request_tail_ms": hd_quantile(lat_ms, workloads.tail_percentile(len(lat_ms))),
            "decode_trials_per_s": len(mc) * workloads.MC_TRIALS / sum(mc) if mc else None,
        }
    out["kernel_median_s"] = statistics.median(speed.took)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    if not os.path.realpath(subcss.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"subcss imported from {subcss.__file__}, not this checkout", file=sys.stderr)
        return 2
    reqs = workloads.build(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    speed = calib.Speed()
    passes = workloads.passes(args.workload, args.seconds)
    records, outputs = run_loop(reqs, args.seed, passes, speed, tracer)
    result = summarize(reqs, records, outputs, speed)
    result["passes"] = passes
    result["requests_per_pass"] = len(reqs)
    result["numpy"] = np.__version__
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
