"""Output checks for benchmark requests, run outside the timed loop.

The expected values come from goldens (Bacon-Shor, five-qubit/qudit
codes and their doubles, exhaustive-sweep counts) and from a small
reference F_p linear algebra written here, independent of the program:
code parameters, CSS structure and Goursat dimensions are all ranks of
the generator matrix and its commutation (Gram) matrix.

`check(request, result)` returns a list of problems; empty means pass.
"""

from __future__ import annotations

import math
import re
from functools import cached_property

import numpy as np

from workloads import MC_TRIALS, Request

# Exhaustive-sweep rows (weight, trials, corrected, logical failures,
# out of range), recorded from the seed commit.
SWEEP_GOLDENS = {
    ("bs3", 2): [(1, 27, 27, 0, 0), (2, 324, 126, 198, 0)],
    ("bs4", 2): [(1, 48, 48, 0, 0), (2, 1080, 384, 0, 696)],
    ("five2_p2", 2): [(1, 30, 30, 0, 0), (2, 405, 90, 200, 115)],
    ("bs4_p3", 1): [(1, 128, 128, 0, 0)],
    ("bs3_p5", 1): [(1, 216, 216, 0, 0)],
}

# Monte-Carlo reference: (failures, trials) of one 40,000-trial run at the
# seed commit, failure = logical failure or out of range.
MC_REFERENCE = {
    ("bs3", 0.01): (95, 40000),
    ("bs3", 0.05): (1750, 40000),
    ("bs4", 0.01): (299, 40000),
    ("bs4", 0.05): (5145, 40000),
    ("five2_p2", 0.01): (147, 40000),
    ("five2_p2", 0.05): (2751, 40000),
    ("bs4_p3", 0.01): (338, 40000),
    ("bs4_p3", 0.05): (5921, 40000),
    ("bs3_p5", 0.01): (125, 40000),
    ("bs3_p5", 0.05): (2325, 40000),
}

# A sampled rate passes when within Z_BOUND binomial standard deviations
# of the reference (both samples' variance), plus one trial of slack.
Z_BOUND = 5.0


# Reference linear algebra over F_p ---------------------------------------


def _rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    m = np.array(mat, dtype=np.int64).reshape(len(mat), -1) % p
    pivots: list[int] = []
    r = 0
    for c in range(m.shape[1]):
        if r == m.shape[0]:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        col = m[:, c].copy()
        col[r] = 0
        rows = np.flatnonzero(col)
        m[rows] = (m[rows] - np.outer(col[rows], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(mat, p: int) -> int:
    return len(_rref(mat, p)[1]) if len(mat) else 0


def nullspace(mat, p: int, cols: int) -> np.ndarray:
    """Basis (rows) of {v in F_p^cols : mat @ v = 0}."""
    if len(mat) == 0:
        return np.eye(cols, dtype=np.int64)
    red, pivots = _rref(mat, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, pc in enumerate(pivots):
            basis[i, pc] = (-red[row, f]) % p
    return basis


class Facts:
    """What the reference algebra says about the code spanned by `gens`."""

    def __init__(self, p: int, gens: np.ndarray):
        self.p = p
        self.g = np.asarray(gens, dtype=np.int64) % p
        self.n = self.g.shape[1] // 2
        gx, gz = self.g[:, : self.n], self.g[:, self.n :]
        self.gram = (gz @ gx.T - gx @ gz.T) % p
        self.dim = rank(self.g, p)
        self.e_x = rank(gx, p)
        self.e_z = rank(gz, p)
        two_r = rank(self.gram, p)
        self.r = two_r // 2
        self.k = self.n - (self.dim - two_r) - self.r

    @property
    def css(self) -> bool:
        return self.dim == self.e_x + self.e_z

    @property
    def n_x(self) -> int:
        return self.dim - self.e_z

    @property
    def n_z(self) -> int:
        return self.dim - self.e_x

    @cached_property
    def weight_one_logical(self) -> bool:
        """Whether some weight-1 Pauli lies in (H + H^w) minus H."""
        p, n = self.p, self.n
        stab = (nullspace(self.gram, p, self.g.shape[0]) @ self.g) % p
        h_perp = nullspace(self.g, p, 2 * n)
        vals = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
        errs = np.zeros((n * len(vals), 2 * n), dtype=np.int64)
        for j in range(n):
            for t, (a, b) in enumerate(vals):
                errs[j * len(vals) + t, j] = a
                errs[j * len(vals) + t, n + j] = b
        in_h = ~np.any((errs @ h_perp.T) % p, axis=1)
        sympl = (errs[:, n:] @ stab[:, :n].T - errs[:, :n] @ stab[:, n:].T) % p
        in_cent = ~np.any(sympl, axis=1)
        return bool(np.any(in_cent & ~in_h))


_facts_cache: dict[int, Facts] = {}


def facts_of(code) -> Facts:
    key = id(code)
    if key not in _facts_cache:
        _facts_cache[key] = Facts(code.p, code.gens)
    return _facts_cache[key]


# Parsing ------------------------------------------------------------------

_KV = re.compile(r"^(\w+) = (.*?)(?: \((exact|search-bounded)\))?$")


def _kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        m = _KV.match(line)
        if m:
            out[m.group(1)] = m.group(2) + (f" ({m.group(3)})" if m.group(3) else "")
    return out


def _expect(problems: list[str], kv: dict, key: str, want: str) -> None:
    got = kv.get(key)
    if got != want:
        problems.append(f"{key}: expected {want!r}, got {got!r}")


def _distance_text(true_d: int | None, budget: int, f: Facts, side: bool = False) -> str | None:
    """Expected text of a distance line; None when it cannot be predicted."""
    if true_d is not None:
        return f"{true_d} (exact)" if budget >= true_d else f">={budget + 1} (search-bounded)"
    if side:
        return None
    if f.k == 0:
        return "undefined"
    if budget == 1:
        return "1 (exact)" if f.weight_one_logical else ">=2 (search-bounded)"
    return None


def _budget(req: Request, n: int) -> int:
    if "--budget" in req.extra:
        return int(req.extra[req.extra.index("--budget") + 1])
    return n


def _check_distance_line(problems, kv, key, want):
    got = kv.get(key)
    if want == "undefined":
        if got is None or not got.startswith("undefined"):
            problems.append(f"{key}: expected undefined, got {got!r}")
    elif want is None:
        if got is None or not re.fullmatch(r"(\d+ \(exact\)|>=\d+ \(search-bounded\)|undefined.*)", got):
            problems.append(f"{key}: malformed {got!r}")
    else:
        _expect(problems, kv, key, want)


# Per-command checks -------------------------------------------------------


def _info(req: Request, out: str, problems: list[str]) -> None:
    f = facts_of(req.code)
    kv = _kv(out)
    for key, val in (("n", f.n), ("k", f.k), ("r", f.r)):
        _expect(problems, kv, key, f"{val} (exact)")
    budget = _budget(req, f.n)
    _check_distance_line(problems, kv, "d", _distance_text(req.code.dist, budget, f))
    _expect(problems, kv, "is_css", f"{f.css} (exact)")
    if f.css:
        _expect(problems, kv, "dim_H_X", f"{f.n_x} (exact)")
        _expect(problems, kv, "dim_H_Z", f"{f.n_z} (exact)")
        want = _distance_text(req.code.dist_xz, budget, f, side=True)
        _check_distance_line(problems, kv, "d_X", want)
        if not kv.get("d_X", "").startswith("undefined"):
            _check_distance_line(problems, kv, "d_Z", want)
    elif "dim_H_X" in kv:
        problems.append("CSS lines printed for a non-CSS code")


def _distance(req: Request, out: str, problems: list[str]) -> None:
    f = facts_of(req.code)
    want = _distance_text(req.code.dist, _budget(req, f.n), f)
    _check_distance_line(problems, _kv(out), "d", want)


_REGIONS = {
    (True, True): "CSS (maximal and minimal stabilizer)",
    (True, False): "maximal stabilizer, not minimal",
    (False, True): "minimal stabilizer, not maximal",
    (False, False): "neither maximal nor minimal stabilizer",
}


def _classify(req: Request, out: str, problems: list[str]) -> None:
    f = facts_of(req.code)
    kv = _kv(out)
    try:
        maximal = {"True (exact)": True, "False (exact)": False}[kv["maximal"]]
        minimal = {"True (exact)": True, "False (exact)": False}[kv["minimal"]]
    except KeyError:
        problems.append(f"classify output malformed: {kv}")
        return
    _expect(problems, kv, "region", _REGIONS[(maximal, minimal)])
    if (maximal and minimal) != f.css:
        problems.append(f"region CSS is {maximal and minimal} but is_css is {f.css}")
    if req.code.name == "five_qubit" and (maximal, minimal) != (True, False):
        problems.append("five-qubit code must be maximal, not minimal")


def _goursat(req: Request, out: str, problems: list[str]) -> None:
    f = facts_of(req.code)
    kv = _kv(out)
    dims = {"E_X": f.e_x, "E_Z": f.e_z, "N_X": f.n_x, "N_Z": f.n_z}
    for name, val in dims.items():
        _expect(problems, kv, f"dim_{name}", f"{val} (exact)")
    pairs = f.e_x - f.n_x
    if f.e_z - f.n_z != pairs:
        problems.append("reference Goursat quotients disagree")
    _expect(problems, kv, "phi_pairs", f"{pairs} (exact)")
    lines = out.splitlines()
    for name, val in dims.items():
        rows = [ln for ln in lines if ln.startswith(f"{name} basis: ")]
        if len(rows) != val or any(len(ln.split()[2:]) != f.n for ln in rows):
            problems.append(f"{name} basis lines wrong ({len(rows)} for dim {val})")
    if sum(ln.startswith("phi: ") for ln in lines) != pairs:
        problems.append("phi line count differs from phi_pairs")


def parse_code_text(text: str) -> tuple[int, np.ndarray]:
    """Reference reader for the symplectic code-file format."""
    rows, p, n = [], None, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if p is None:
            fields = dict(part.split("=", 1) for part in line.split())
            if fields.get("format") != "symplectic":
                raise ValueError("expected format=symplectic")
            p, n = int(fields["p"]), int(fields["n"])
            continue
        a, b = line.split("|")
        row = [int(t) for t in a.split()] + [int(t) for t in b.split()]
        if len(row) != 2 * n:
            raise ValueError("wrong row length")
        rows.append(row)
    if p is None:
        raise ValueError("missing header")
    return p, np.array(rows, dtype=np.int64).reshape(-1, 2 * n)


def _double(req: Request, out: str, problems: list[str], written: str | None) -> None:
    f = facts_of(req.code)
    kv = _kv(out)
    _expect(problems, kv, "source", f"[[{f.n},{f.k},{f.r}]]")
    _expect(problems, kv, "doubled", f"[[{2 * f.n},{2 * f.k},{2 * f.r}]]")
    _expect(problems, kv, "written", req.out)
    d = _distance_text(req.code.dist, _budget(req, f.n), f)
    if d is not None and d.endswith("(exact)"):
        v = int(d.split()[0])
        _expect(problems, kv, "d_bracket", f"[{v}, {2 * v}] (exact source distance)")
    elif "d_bracket" in kv:
        problems.append("d_bracket printed without an exact source distance")
    if written is None:
        problems.append("no output file written")
        return
    try:
        p, gens = parse_code_text(written)
    except ValueError as exc:
        problems.append(f"doubled file unreadable: {exc}")
        return
    g2 = Facts(p, gens)
    if (p, g2.n, g2.k, g2.r) != (f.p, 2 * f.n, 2 * f.k, 2 * f.r):
        problems.append(f"doubled file is [[{g2.n},{g2.k},{g2.r}]]_{p}")
    if not g2.css:
        problems.append("doubled file is not a CSS code")


_MC_HEADER = "weight_or_q,trials,corrected,logical_failures,out_of_range"


def _rows(out: str, problems: list[str]) -> list[list[str]]:
    lines = out.splitlines()
    if not lines or lines[0] != _MC_HEADER:
        problems.append("decode CSV header missing")
        return []
    return [ln.split(",") for ln in lines[1:]]


def binomial_ok(failures: int, trials: int, ref_failures: int, ref_trials: int) -> bool:
    ref = ref_failures / ref_trials
    var = max(ref * (1 - ref), 1 / ref_trials) * (1 / trials + 1 / ref_trials)
    return abs(failures / trials - ref) <= Z_BOUND * math.sqrt(var) + 1 / trials


def _decode(req: Request, out: str, problems: list[str]) -> None:
    rows = _rows(out, problems)
    if req.q is not None:
        if len(rows) != 1 or len(rows[0]) != 5 or rows[0][0] != str(req.q):
            problems.append(f"expected one row for q={req.q}: {rows}")
            return
        trials, corrected, logical, oor = map(int, rows[0][1:])
        if trials != MC_TRIALS or corrected + logical + oor != trials:
            problems.append(f"counts do not sum to {MC_TRIALS} trials: {rows[0]}")
        ref = MC_REFERENCE[(req.code.name, req.q)]
        if not binomial_ok(logical + oor, trials, *ref):
            problems.append(f"failure count {logical + oor}/{trials} outside bound of {ref}")
        return
    f = facts_of(req.code)
    want = SWEEP_GOLDENS[(req.code.name, req.sweep)]
    got = [tuple(int(v) for v in row) for row in rows]
    if got != want:
        problems.append(f"sweep rows {got} != golden {want}")
    for w, trials, *_ in got:
        if trials != math.comb(f.n, w) * (f.p**2 - 1) ** w:
            problems.append(f"weight-{w} sweep has {trials} errors")


def _is_power(value: int, p: int) -> bool:
    while value > 1 and value % p == 0:
        value //= p
    return value == 1


_WORD = re.compile(r"^l = \(([\d ]*)\) g = \(([\d ]*)\) fixed = (True|False)(?: dense_agrees = (True|False))?$")


def _codewords(req: Request, out: str, problems: list[str]) -> None:
    f = facts_of(req.code)
    kv = _kv(out)
    count = f.p ** (f.k + f.r)
    _expect(problems, kv, "codewords", f"{count} (exact)")
    _expect(problems, kv, "all_fixed", "True (exact)")
    support = kv.get("support_size", "")
    if not re.fullmatch(r"\d+ \(exact\)", support) or not _is_power(int(support.split()[0]), f.p):
        problems.append(f"support_size {support!r} is not a power of p")
    dense = "--dense" in req.extra
    labels = set()
    for line in out.splitlines():
        if not line.startswith("l = "):
            continue
        m = _WORD.match(line)
        if m is None or m.group(3) != "True" or (m.group(4) == "True") != dense:
            problems.append(f"bad codeword line {line!r}")
            continue
        labels.add((m.group(1), m.group(2)))
    if len(labels) != count:
        problems.append(f"{len(labels)} distinct codeword labels, expected {count}")


_CHECKS = {
    "info": _info,
    "distance": _distance,
    "classify": _classify,
    "goursat": _goursat,
    "decode": _decode,
    "codewords": _codewords,
}


def check(req: Request, rc, out: str, err: str, written: str | None = None) -> list[str]:
    """Problems with one request's result; `rc` is the exit code, or the text of
    an exception the request raised."""
    if rc != 0:
        return [f"exit {rc}: {err.strip()[-300:]}"]
    problems: list[str] = []
    try:
        if req.command == "double":
            _double(req, out, problems, written)
        else:
            _CHECKS[req.command](req, out, problems)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"unparseable output: {exc!r}")
    return problems
