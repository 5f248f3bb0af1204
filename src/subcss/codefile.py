"""Code-file formats and built-in example generators.

Grammar: line 1 is ``p=<prime> n=<count> format=<pauli|symplectic>``;
``#`` starts a comment; each remaining line is one generator, either in
Pauli text (per the parser grammar) or as ``a_1 ... a_n | b_1 ... b_n``.
"""

from __future__ import annotations

import numpy as np

from .code import SubsystemCode
from .gf import Subspace, fp_array, validate_prime
from .pauli import PauliVector, format_pauli, parse_pauli, unflatten

FORMATS = ("pauli", "symplectic")


class CodeFileError(Exception):
    """Malformed code file; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_code_file(text: str) -> tuple[SubsystemCode, str]:
    """Parse a code file into a SubsystemCode plus its format tag."""
    lines = text.splitlines()
    header = None
    header_no = 0
    gens: list[PauliVector] = []
    p = n = None
    fmt = None
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            header = line
            header_no = i
            try:
                fields = dict(part.split("=", 1) for part in line.split())
                p = validate_prime(int(fields["p"]))
                n = int(fields["n"])
                fmt = fields["format"]
            except (ValueError, KeyError) as exc:
                raise CodeFileError(i, f"bad header: {exc}") from exc
            if n < 1:
                raise CodeFileError(i, "qudit count must be positive")
            if fmt not in FORMATS:
                raise CodeFileError(i, f"unknown format {fmt!r}")
            continue
        try:
            gens.append(_parse_generator(line, p, n, fmt))
        except ValueError as exc:
            raise CodeFileError(i, str(exc)) from exc
    if header is None:
        raise CodeFileError(1, "missing header line")
    return SubsystemCode.from_generators(p, n, gens), fmt


def _parse_generator(line: str, p: int, n: int, fmt: str) -> PauliVector:
    if fmt == "pauli":
        pv = parse_pauli(line, p)
    else:
        if "|" not in line:
            raise ValueError("symplectic line must contain '|'")
        a_text, b_text = line.split("|", 1)
        x = fp_array([int(t) for t in a_text.split()], p)
        z = fp_array([int(t) for t in b_text.split()], p)
        if x.shape[0] != n or z.shape[0] != n:
            raise ValueError(f"expected {n} entries per block")
        pv = PauliVector(p, x, z)
    if pv.n != n:
        raise ValueError(f"generator has {pv.n} qudits, expected {n}")
    return pv


def emit_code_file(code: SubsystemCode, fmt: str = "symplectic") -> str:
    """Serialize the canonical generators of a code."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    n, basis = code.n, code.gauge.basis
    if fmt == "pauli":
        rows = [format_pauli(unflatten(row, code.p)) for row in basis]
    else:
        rows = [f"{_format_row(row[:n])} | {_format_row(row[n:])}" for row in basis]
    return "\n".join([f"p={code.p} n={code.n} format={fmt}", *rows]) + "\n"


def _format_row(row: np.ndarray) -> str:
    """Space-separated entries of an integer row."""
    return " ".join(map(str, row.tolist()))


# Built-in examples ----------------------------------------------------------

FIVE_QUBIT_GENERATORS = ("ZXXZI", "IZXXZ", "ZIZXX", "XZIZX")


def five_qubit() -> SubsystemCode:
    """The [[5,1,0,3]] code (smallest distance-3 subspace code, non-CSS)."""
    gens = [parse_pauli(s, 2) for s in FIVE_QUBIT_GENERATORS]
    return SubsystemCode.from_generators(2, 5, gens)


def bacon_shor(l: int) -> SubsystemCode:
    """Bacon-Shor code on an l x l qubit grid.

    Row-adjacent site pairs give XX gauge generators; column-adjacent
    pairs give ZZ gauge generators.
    """
    if l < 2:
        raise ValueError("grid size must be at least 2")
    n = l * l
    grid = np.arange(n).reshape(l, l)
    left, top = grid[:, :-1].ravel(), grid[:-1, :].ravel()  # pairs (s, s + 1) and (s, s + l)
    rows = np.arange(left.size)
    gauge = np.zeros((2 * left.size, 2 * n), dtype=np.int64)
    gauge[rows, left] = gauge[rows, left + 1] = 1
    gauge[left.size + rows, n + top] = gauge[left.size + rows, n + top + l] = 1
    return SubsystemCode(2, n, Subspace.span(gauge, 2, 2 * n))


def trivial(n: int, p: int = 2) -> SubsystemCode:
    """The zero gauge group on n qudits: parameters [[n, n, 0, 1]]."""
    if n < 1:
        raise ValueError("qudit count must be positive")
    return SubsystemCode.from_generators(p, n, [])


def random_code(p: int, n: int, dim: int, seed: int) -> SubsystemCode:
    """A reproducible random gauge subspace spanned by `dim` random vectors."""
    validate_prime(p)
    if not 0 <= dim <= 2 * n:
        raise ValueError("dim must be between 0 and 2n")
    rows = np.random.default_rng(seed).integers(0, p, size=(dim, 2 * n))
    return SubsystemCode(p, n, Subspace.span(rows, p, 2 * n))


def builtin_code(name: str, **params) -> SubsystemCode:
    """Dispatch for ``builtin:<name>`` code specs."""
    if name == "five_qubit":
        return five_qubit()
    if name == "bacon_shor":
        return bacon_shor(int(params.get("l", 3)))
    if name == "trivial":
        return trivial(int(params.get("n", 1)), int(params.get("p", 2)))
    if name == "random":
        return random_code(
            int(params.get("p", 2)),
            int(params.get("n", 4)),
            int(params.get("dim", 4)),
            int(params.get("seed", 0)),
        )
    raise ValueError(f"unknown builtin code {name!r}")
