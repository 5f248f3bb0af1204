"""The four benchmark workloads as lists of CLI requests.

A workload is built once per process from the workload seed: the seed
draws the random gauge codes, re-mixes the generator basis written into
every code file (the code itself, and so every golden, is unchanged),
fixes the request order, and seeds each Monte-Carlo request. Every pass
of the timed loop runs the whole list once, so the request mix of a run
does not depend on where the clock stops. Each workload has an odd
number of requests per pass, so the median falls inside one request type.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import inputs

WORKLOADS = ("algebra", "search", "decode", "codewords")

# A run makes round(--seconds / PASS_S) passes, at least two, so two runs
# with the same --seconds do the same work whatever the machine's speed.
# PASS_S is about the nominal time of one pass at the seed commit, lowered
# for algebra and decode to make more passes: algebra's time is mostly one
# 6 s request, and decode's tail sits at the edge of one request type.
PASS_S = {"algebra": 7.0, "search": 5.0, "decode": 1.55, "codewords": 2.2}

MC_TRIALS = 2000
MC_QS = (0.01, 0.05)


@dataclass
class Code:
    """A code handed to the program, with what the benchmark knows of it.

    `gens` is the reference generator matrix (rows a|b over F_p); `spec`
    is how the program is told about it (a file path or a builtin spec).
    `dist` / `dist_xz` are the golden symplectic and per-side CSS
    distances where the code has one; None means "check by rule".
    """

    name: str
    p: int
    gens: np.ndarray
    spec: list[str]
    dist: int | None = None
    dist_xz: int | None = None


@dataclass
class Request:
    command: str
    code: Code
    extra: list[str] = field(default_factory=list)
    out: str | None = None
    q: float | None = None
    sweep: int | None = None

    def argv(self, mc_seed: int | None = None) -> list[str]:
        argv = [self.command, *self.code.spec, *self.extra]
        if self.out is not None:
            argv += ["--out", self.out]
        if self.q is not None:
            argv += ["--q", str(self.q), "--trials", str(MC_TRIALS), "--seed", str(mc_seed)]
        if self.sweep is not None:
            argv += ["--exhaustive-weight", str(self.sweep)]
        return argv

    @property
    def label(self) -> str:
        words = [self.command, self.code.name, *self.extra]
        if self.q is not None:
            words.append(f"q={self.q}")
        if self.sweep is not None:
            words.append(f"W={self.sweep}")
        return " ".join(words)


def passes(workload: str, seconds: float) -> int:
    return max(2, round(seconds / PASS_S[workload]))


def tail_percentile(n_requests: int) -> float:
    """The highest percentile (to 0.1) with at least ten requests beyond it;
    the median for runs too short to have one."""
    return max(50.0, math.floor(1000 * (1 - 10 / n_requests)) / 10)


def mc_seed(seed: int, pass_no: int, index: int) -> int:
    """Sampling seed of one Monte-Carlo request, drawn from the workload seed."""
    return int(np.random.default_rng([seed, pass_no, index]).integers(1 << 31))


def _mix(gens: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    """Same row space, another basis: multiply by a random invertible L @ U."""
    m = gens.shape[0]
    lower = np.tril(rng.integers(0, p, size=(m, m)), -1) + np.eye(m, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(m, m)), 1) + np.eye(m, dtype=np.int64)
    return (((lower @ upper) % p) @ gens) % p


class _Codes:
    """Builds Code records, writing file-based ones under `directory`."""

    def __init__(self, directory: str, rng: np.random.Generator):
        self.directory = directory
        self.rng = rng
        os.makedirs(directory, exist_ok=True)

    def file(self, name, p, gens, note, dist=None, dist_xz=None) -> Code:
        path = os.path.join(self.directory, f"{name}.code")
        inputs.write_code(path, _mix(gens, p, self.rng), p, note)
        return Code(name, p, gens, [path], dist, dist_xz)

    @staticmethod
    def bacon_shor(l: int) -> Code:
        return Code(f"bs{l}", 2, inputs.qudit_bacon_shor(2, l),
                    ["builtin:bacon_shor", "--l", str(l)], l, l)

    @staticmethod
    def five_qubit() -> Code:
        return Code("five_qubit", 2, inputs.five_qubit(), ["builtin:five_qubit"], 3)

    def five_qubit_double(self) -> Code:
        return self.file("five2_p2", 2, inputs.doubled(inputs.five_qubit(), 2),
                         "doubled five-qubit code", 3, 3)

    def five_qudit(self, p: int) -> Code:
        return self.file(f"five_p{p}", p, inputs.five_qudit(p), f"five-qudit code, p={p}", 3)

    def five_qudit_double(self, p: int) -> Code:
        gens = inputs.doubled(inputs.five_qudit(p), p)
        return self.file(f"five2_p{p}", p, gens, f"doubled five-qudit code, p={p}", 3, 3)

    def qudit_bacon_shor(self, p: int, l: int) -> Code:
        return self.file(f"bs{l}_p{p}", p, inputs.qudit_bacon_shor(p, l),
                         f"qudit Bacon-Shor, p={p}, l={l}", l, l)

    def random(self, p: int, n: int) -> Code:
        gens = inputs.random_gauge(p, n, n, self.rng)
        return self.file(f"rand_p{p}_n{n}", p, gens, f"random gauge code, p={p}, n={n}")


def _algebra(c: _Codes, work: str) -> list[Request]:
    reqs = []

    def all_four(code, double=True):
        reqs.extend([
            Request("info", code, ["--budget", "1"]),
            Request("classify", code),
            Request("goursat", code),
        ])
        if double:
            out = os.path.join(work, f"{code.name}.double.code")
            reqs.append(Request("double", code, ["--budget", "1"], out=out))

    for l in range(3, 11):
        all_four(c.bacon_shor(l), double=l in (3, 6, 10))
    all_four(c.five_qubit())
    all_four(c.five_qubit_double())
    for p in (3, 5):
        for n in (10, 20, 40):
            all_four(c.random(p, n))
    return reqs


def _search(c: _Codes, work: str) -> list[Request]:
    bs3_p5 = c.qudit_bacon_shor(5, 3)
    codes = [
        c.five_qubit(), c.five_qubit_double(), c.bacon_shor(3), c.bacon_shor(4),
        c.five_qudit(3), c.five_qudit(5), c.five_qudit_double(3), c.five_qudit_double(5),
        c.qudit_bacon_shor(3, 3), c.qudit_bacon_shor(3, 4), bs3_p5, c.qudit_bacon_shor(7, 3),
    ]
    reqs = [Request(cmd, code) for code in codes for cmd in ("info", "distance")]
    bs5 = c.bacon_shor(5)
    # Full css_distances(bacon_shor(5)) takes ~40 s at the seed commit, so
    # bacon_shor(5) gets the symplectic distance and a budget-3 info; that
    # one and the budget-2 qudit distance are searches that hit their budget.
    reqs += [Request("distance", bs5), Request("info", bs5, ["--budget", "3"]),
             Request("distance", bs3_p5, ["--budget", "2"])]
    return reqs


def _decode(c: _Codes, work: str) -> list[Request]:
    sweeps = [
        (c.bacon_shor(3), 2), (c.bacon_shor(4), 2), (c.five_qubit_double(), 2),
        (c.qudit_bacon_shor(3, 4), 1), (c.qudit_bacon_shor(5, 3), 1),
    ]
    reqs = [Request("decode", code, q=q) for code, _ in sweeps for q in MC_QS]
    reqs += [Request("decode", code, sweep=w) for code, w in sweeps]
    return reqs


def _codewords(c: _Codes, work: str) -> list[Request]:
    dense = [c.bacon_shor(3), c.five_qubit_double(), c.five_qudit_double(3),
             c.qudit_bacon_shor(3, 3)]
    # Every code here has p^n <= 2^20, so every one is cross-checked with
    # dense amplitudes; the three largest also run symbolic-only, which
    # separates `states` work from `dense_vector` work.
    reqs = [Request("codewords", code, ["--dense"]) for code in dense]
    return reqs + [Request("codewords", code) for code in (dense[0], dense[2], dense[3])]


_REQUEST_LISTS = {"algebra": _algebra, "search": _search, "decode": _decode, "codewords": _codewords}


def build(workload: str, seed: int, work: str) -> list[Request]:
    """Write the workload's input files under `work`; return its requests in run order."""
    rng = np.random.default_rng(seed)
    reqs = _REQUEST_LISTS[workload](_Codes(os.path.join(work, "codes"), rng), work)
    return [reqs[i] for i in rng.permutation(len(reqs))]
