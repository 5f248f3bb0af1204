"""Code-file formats and built-in example generators.

Grammar: line 1 is ``p=<prime> n=<count> format=<pauli|symplectic>``;
``#`` starts a comment; each remaining line is one generator, either in
Pauli text (per the parser grammar) or as ``a_1 ... a_n | b_1 ... b_n``.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .code import SubsystemCode
from .gf import Subspace, _grid_digits, validate_prime
from .pauli import PauliVector, flatten, format_pauli, parse_pauli

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
    n, p, basis = code.n, code.p, code.gauge.basis
    if fmt == "pauli":
        # One token per distinct site value x * p + z, as `format_pauli` writes it.
        keys, inverse = np.unique(basis[:, :n] * p + basis[:, n:], return_inverse=True)
        tokens = np.array([format_pauli(PauliVector(p, [k // p], [k % p])) for k in keys.tolist()])
        sep = "" if p == 2 else " "
        rows = [sep.join(row) for row in tokens[inverse.reshape(len(basis), n)].tolist()]
    else:
        rows = [f"{x} | {z}" for x, z in zip(*_format_rows(basis[:, :n], basis[:, n:]))]
    return "\n".join([f"p={p} n={n} format={fmt}", *rows]) + "\n"


def _format_rows(*blocks: np.ndarray) -> list[list[str]]:
    """The space-separated entries of each row of each block, one list per
    block. The blocks hold non-negative integers in one column count and are
    written into one text array: every entry with as many decimal digits as the
    widest one (`_grid_digits`; when that is one, the entries are the digits),
    its leading zeros dropped, and one byte string holds every row."""
    rows, cols = sum(map(len, blocks)), blocks[0].shape[1]
    if rows == 0 or cols == 0:
        return [[""] * len(block) for block in blocks]
    width = len(str(max(int(block.max()) for block in blocks if len(block))))
    text = np.empty((rows, cols, width + 1), dtype=np.uint8)
    digits = [block[..., None] if width == 1 else _grid_digits(block, 10, width) for block in blocks]
    np.concatenate(digits, out=text[..., :width], casting="unsafe")
    text[..., :width] += ord("0")
    text[..., width] = ord(" ")
    text[:, -1, width] = ord("\n")
    if width > 1:
        # An entry is written from its leading nonzero digit on; 0 keeps its last.
        keep = np.ones(text.shape, dtype=bool)
        keep[..., :-2] = np.logical_or.accumulate(text[..., :-2] != ord("0"), axis=-1)
        text = text[keep]
    lines = iter(text.tobytes().decode("ascii").split("\n"))
    return [list(islice(lines, len(block))) for block in blocks]


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
