"""Code-file formats and built-in example generators.

Grammar: line 1 is ``p=<prime> n=<count> format=<pauli|symplectic>``;
``#`` starts a comment; each remaining line is one generator, either in
Pauli text (per the parser grammar) or as ``a_1 ... a_n | b_1 ... b_n``.
"""

from __future__ import annotations

import numpy as np

from .code import SubsystemCode
from .gf import Subspace, _grid_digits, validate_prime
from .pauli import flatten, format_pauli, parse_pauli, unflatten

FORMATS = ("pauli", "symplectic")


class CodeFileError(Exception):
    """Malformed code file; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_code_file(text: str) -> tuple[SubsystemCode, str]:
    """Parse a code file into a SubsystemCode plus its format tag."""
    lines = text.splitlines()
    rows: list = []
    p = n = fmt = None
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if fmt is None:
            try:
                fields = _header_fields(line)
                p = validate_prime(int(fields["p"]))
                n = int(fields["n"])
                fmt = fields["format"]
            except (ValueError, KeyError) as exc:
                raise CodeFileError(i, f"bad header: {exc}") from exc
            if n < 0:
                raise CodeFileError(i, f"qudit count must be >= 0, got {n}")
            if fmt not in FORMATS:
                raise CodeFileError(i, f"unknown format {fmt!r}")
            continue
        try:
            rows.append(_parse_row(line, p, n, fmt))
        except ValueError as exc:
            raise CodeFileError(i, str(exc)) from exc
    if fmt is None:
        raise CodeFileError(1, "missing header line")
    gauge = np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n)
    return SubsystemCode(p, n, Subspace.span(gauge, p, 2 * n)), fmt


def _header_fields(line: str) -> dict[str, str]:
    """The header's key=value pairs; ValueError for a part without '=', a
    key given twice, or a key other than p, n and format."""
    fields: dict[str, str] = {}
    for part in line.split():
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {part!r}")
        if key in fields:
            raise ValueError(f"key {key!r} given twice")
        if key not in ("p", "n", "format"):
            raise ValueError(f"unknown key {key!r}")
        fields[key] = value
    return fields


def _parse_row(line: str, p: int, n: int, fmt: str):
    """One generator line as its flattened row (x-block, then z-block)."""
    if fmt == "pauli":
        pv = parse_pauli(line, p)
        if pv.n != n:
            raise ValueError(f"generator has {pv.n} qudits, expected {n}")
        return flatten(pv)
    if "|" not in line:
        raise ValueError("symplectic line must contain '|'")
    blocks = [[int(t) % p for t in text.split()] for text in line.split("|", 1)]
    if any(len(block) != n for block in blocks):
        raise ValueError(f"expected {n} entries per block")
    return blocks[0] + blocks[1]


def emit_code_file(code: SubsystemCode, fmt: str = "symplectic") -> str:
    """Serialize the canonical generators of a code."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    n, basis = code.n, code.gauge.basis
    if fmt == "pauli":
        rows = [format_pauli(unflatten(row, code.p)) for row in basis]
    else:
        halves = zip(_format_rows(basis[:, :n]), _format_rows(basis[:, n:]))
        rows = [f"{x} | {z}" for x, z in halves]
    return "\n".join([f"p={code.p} n={code.n} format={fmt}", *rows]) + "\n"


def _format_rows(mat: np.ndarray) -> list[str]:
    """The space-separated entries of each row of a matrix of non-negative
    integers, the whole matrix in one pass: every entry is written with as
    many decimal digits as the widest one (`_grid_digits`), its leading zeros
    are dropped, and one byte string holds every row."""
    rows, cols = mat.shape
    if rows == 0 or cols == 0:
        return [""] * rows
    width = len(str(int(mat.max())))
    digits = _grid_digits(np.asarray(mat, dtype=np.int64), 10, width)
    text = np.empty((rows, cols, width + 1), dtype=np.uint8)
    text[..., :width] = digits + ord("0")
    text[..., width] = ord(" ")
    text[:, -1, width] = ord("\n")
    # An entry is written from its leading nonzero digit on; 0 keeps its last.
    keep = np.ones(text.shape, dtype=bool)
    keep[..., : width - 1] = np.logical_or.accumulate(digits[..., :-1] != 0, axis=-1)
    return text[keep].tobytes().decode("ascii").split("\n")[:-1]


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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rows = np.random.default_rng(seed).integers(0, p, size=(dim, 2 * n))
    return SubsystemCode(p, n, Subspace.span(rows, p, 2 * n))


# Each builtin with the options it takes and their defaults.
_BUILTINS = {
    "five_qubit": (five_qubit, {}),
    "bacon_shor": (bacon_shor, {"l": 3}),
    "trivial": (trivial, {"n": 1, "p": 2}),
    "random": (random_code, {"p": 2, "n": 4, "dim": 4, "seed": 0}),
}


def _builtin_options(name: str, params: dict) -> dict[str, int]:
    """Every option of builtin `name`, given or defaulted; an unknown builtin,
    or an option the builtin does not take, is a ValueError."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin code {name!r}")
    defaults = _BUILTINS[name][1]
    unknown = [key for key in params if key not in defaults]
    if unknown:
        takes = ", ".join(defaults) or "no options"
        raise ValueError(f"builtin code {name!r} does not take {', '.join(unknown)} "
                         f"(it takes {takes})")
    return {key: int(params.get(key, default)) for key, default in defaults.items()}


def builtin_code(name: str, **params) -> SubsystemCode:
    """Dispatch for ``builtin:<name>`` code specs; an option the builtin does
    not take is a ValueError, not silently dropped."""
    options = _builtin_options(name, params)
    return _BUILTINS[name][0](**options)
