"""Pauli strings as symplectic vectors over F_p, plus the forms and weights.

A phase-stripped Pauli operator X^a Z^b on n qudits is the pair (a, b)
with a, b in F_p^n. Pairs are flattened into F_p^{2n} as the a-block
followed by the b-block, which makes the symmetric form theta the plain
dot product and lets the antisymmetric form omega be computed by a block
swap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .gf import Subspace, fp_array, kernel, validate_prime

_QUBIT_LETTERS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_TOKEN_RE = re.compile(r"^X(\d+)Z(\d+)$")


@dataclass(frozen=True)
class PauliVector:
    """Symplectic vector (x_part, z_part) of a phase-stripped Pauli operator."""

    p: int
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        validate_prime(self.p)
        x = fp_array(self.x, self.p)
        z = fp_array(self.z, self.p)
        if x.ndim != 1 or z.ndim != 1 or x.shape != z.shape:
            raise ValueError("x and z parts must be 1-D vectors of equal length")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliVector):
            return NotImplemented
        return (
            self.p == other.p
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.x.tobytes(), self.z.tobytes()))

    def is_zero(self) -> bool:
        return not (np.any(self.x) or np.any(self.z))

    def __add__(self, other: "PauliVector") -> "PauliVector":
        _check_match(self, other)
        return PauliVector(self.p, (self.x + other.x) % self.p, (self.z + other.z) % self.p)

    def __sub__(self, other: "PauliVector") -> "PauliVector":
        _check_match(self, other)
        return PauliVector(self.p, (self.x - other.x) % self.p, (self.z - other.z) % self.p)


def _check_match(u: PauliVector, v: PauliVector) -> None:
    if u.p != v.p or u.n != v.n:
        raise ValueError("Pauli vectors have mismatched modulus or length")


def parse_pauli(text: str, p: int) -> PauliVector:
    """Parse Pauli text into a symplectic vector.

    For p = 2 a bare string over {I, X, Y, Z} is accepted (Y sets both
    parts, phases dropped). For any p, whitespace-separated tokens
    ``X{i}Z{j}`` with 0 <= i, j < p are accepted, with ``I`` shorthand
    for ``X0Z0``.
    """
    validate_prime(p)
    text = text.strip()
    if not text:
        raise ValueError("empty Pauli string")
    if p == 2 and " " not in text and all(c in _QUBIT_LETTERS for c in text):
        pairs = [_QUBIT_LETTERS[c] for c in text]
    else:
        pairs = []
        for tok in text.split():
            if tok == "I":
                pairs.append((0, 0))
                continue
            m = _TOKEN_RE.match(tok)
            if m is None:
                raise ValueError(f"invalid Pauli token {tok!r}")
            i, j = int(m.group(1)), int(m.group(2))
            if i >= p or j >= p:
                raise ValueError(f"exponent out of range in token {tok!r} (p={p})")
            pairs.append((i, j))
    x = np.array([a for a, _ in pairs], dtype=np.int64)
    z = np.array([b for _, b in pairs], dtype=np.int64)
    return PauliVector(p, x, z)


def format_pauli(pv: PauliVector) -> str:
    """Canonical text for a Pauli vector; inverse of parse_pauli."""
    if pv.p == 2:
        letters = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
        return "".join(letters[(int(a), int(b))] for a, b in zip(pv.x, pv.z))
    return " ".join(
        "I" if a == 0 and b == 0 else f"X{int(a)}Z{int(b)}" for a, b in zip(pv.x, pv.z)
    )


def weight(v) -> int:
    """Number of nonzero coordinates."""
    return int(np.count_nonzero(np.asarray(v)))


def swt(pv: PauliVector) -> int:
    """Symplectic weight: number of sites where (x_j, z_j) != (0, 0)."""
    return int(np.count_nonzero((pv.x != 0) | (pv.z != 0)))


def omega(u: PauliVector, v: PauliVector) -> int:
    """Antisymmetric form theta(u.z, v.x) - theta(u.x, v.z) mod p.

    Zero exactly when the corresponding Pauli operators commute.
    """
    _check_match(u, v)
    return int((u.z @ v.x - u.x @ v.z) % u.p)


def flatten(pv: PauliVector) -> np.ndarray:
    """Flatten (a, b) into F_p^{2n} as a-block then b-block."""
    return np.concatenate([pv.x, pv.z])


def unflatten(vec, p: int) -> PauliVector:
    vec = fp_array(vec, p)
    if vec.shape[0] % 2 != 0:
        raise ValueError("flattened Pauli vector must have even length")
    n = vec.shape[0] // 2
    return PauliVector(p, vec[:n], vec[n:])


def psi(pv: PauliVector) -> PauliVector:
    """The swap (a, b) -> (b, -a); weight-preserving, order four."""
    return PauliVector(pv.p, pv.z.copy(), (-pv.x) % pv.p)


def _psi_rows(rows: np.ndarray) -> np.ndarray:
    """psi of each row, unreduced; as psi(X^w) = X^theta, those of a basis of X^w check X."""
    if rows.shape[1] % 2 != 0:
        raise ValueError("ambient dimension must be even")
    n = rows.shape[1] // 2
    return np.hstack([rows[:, n:], -rows[:, :n]])


def psi_subspace(h: Subspace) -> Subspace:
    """Image of a subspace of F_p^{2n} under psi; psi(H) is the H_Z of H's double."""
    return Subspace.span(_psi_rows(h.basis), h.p, h.ambient)


def omega_complement(h: Subspace) -> Subspace:
    """{u : omega(u, h) = 0} = psi(h)^theta, as u . psi(h) = -omega(u, h): the kernel
    of h's psi-rows, with no echelon of psi(h). A code's double (H, psi(H)) has it
    as H_Z^theta, so its X tower is H's own."""
    return kernel(_psi_rows(h.basis), h.p)
