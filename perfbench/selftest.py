"""Self-test of the output checks: corrupted outputs must count as failures.

    python3 perfbench/selftest.py

Runs one pass of a sample of requests from every workload, requires
their real outputs to pass, then corrupts each output several ways and
requires every corruption to be rejected and counted in `failed`.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import sys

import worker  # noqa: F401  (puts the checkout's src/ on sys.path)
import checks
import workloads

# (workload, label prefix) of the sampled requests.
SAMPLE = [
    ("search", "info bs3"), ("search", "distance five2_p3"),
    ("algebra", "info five_qubit"), ("algebra", "classify five_qubit"),
    ("algebra", "goursat rand_p3_n10"), ("algebra", "double rand_p3_n10"),
    ("decode", "decode bs3 q=0.05"), ("decode", "decode five2_p2 W=2"),
    ("codewords", "codewords five2_p2 --dense"),
]


def _bump_first_int(text: str) -> str:
    return re.sub(r"\d+", lambda m: str(int(m.group()) + 1), text, count=1)


def corruptions(rc, out, err, written):
    """Corrupted variants of one request's (rc, stdout, stderr, written file)."""
    yield "bumped number", (rc, _bump_first_int(out), err, written)
    yield "dropped last line", (rc, "\n".join(out.splitlines()[:-1]) + "\n", err, written)
    yield "exit code 1", (1, out, "error: injected\n", written)
    if "True" in out:
        yield "True -> False", (rc, out.replace("True", "False", 1), err, written)
    if written is not None:
        yield "file row dropped", (rc, out, err, "\n".join(written.splitlines()[:-1]) + "\n")


def main() -> int:
    work = os.path.join(worker.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    errors = 0
    detected = 0
    try:
        for workload, prefix in SAMPLE:
            reqs = [r for r in workloads.build(workload, 7, os.path.join(work, workload))
                    if r.label.startswith(prefix)][:1]
            speed = worker.calib.Speed()
            _, outputs = worker.run_loop(reqs, 7, 1, speed)
            (result,) = outputs.values()
            clean = checks.check(reqs[0], *result)
            if clean:
                print(f"real output rejected for {reqs[0].label}: {clean}")
                errors += 1
            for what, bad in corruptions(*result):
                if bad == result:
                    continue
                bad_key = (0, "corrupted")
                summary = worker.summarize(reqs, [(0, 1.0, bad_key, *speed.at[:2])], {bad_key: bad}, speed)
                if summary["failed"] != 1:
                    print(f"{what} not counted as a failure for {reqs[0].label}")
                    errors += 1
                else:
                    detected += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    print(f"selftest: {detected} corruptions counted as failures, {errors} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
