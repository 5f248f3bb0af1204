"""Exact linear algebra over a prime field F_p.

Everything downstream is built on two primitives: reduced row echelon
form (the canonical form for all subspace bases) and kernel computation.
Subspaces are always stored canonically, so equality of subspaces is
entry-for-entry equality of their basis matrices.

At p = 2 the echelon runs on bit rows: each row packed into one Python int,
reduced by XOR (`_rref_f2`), the standard packed-row elimination over GF(2)
(as in M4RI, Albrecht, Bard & Hart, ACM TOMS 37, 2010). At odd p it is a
pivot loop of rank-1 updates on an int64 array, reduced mod p only where a
value is read and once at the end: delayed modular reduction, as in
FFLAS-FFPACK (Dumas, Giorgi & Pernet, ACM TOMS 35, 2008). A row space has
exactly one RREF, so the two paths return the same matrix.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Moduli must lie below this bound. Then every residue product is below
# 2^32, and a dot product or matrix product over an ambient dimension
# below 2^31 -- a sum of at most (p - 1)^2 * ambient -- fits in int64; so
# does an entry of `rref`'s unreduced block, a residue less at most
# min(rows, cols) < 2^31 such products.
P_LIMIT = 1 << 16
# Most rows that an enumeration of all the elements of a span may build.
ROW_LIMIT = 1 << 20
# Most items that one streamed listing may produce: searched vectors, sampled site draws.
STREAM_LIMIT = 1 << 30


class Infeasible(ValueError):
    """A request refused before it runs: too large (`_gate`), or undefined for its code."""


def _gate(what: str, price: int, limit: int, fits: str = "") -> None:
    """Raise Infeasible if `price`, the size of `what` as a Python int (so nothing
    wraps), exceeds `limit`, naming all three and `fits`, the largest parameter that fits."""
    if price > limit:
        fits = f"; {fits} fits" if fits else ""
        raise Infeasible(f"infeasible: {what} ({price:,}) exceed the limit of {limit:,}{fits}")


def is_prime(p: int) -> bool:
    """Trial-division primality test (moduli here are tiny)."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def validate_prime(p: int) -> int:
    """Return p if it is a prime below P_LIMIT, else raise ValueError."""
    if p >= P_LIMIT:
        raise ValueError(f"modulus must be below {P_LIMIT}, got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


def fp_array(data, p: int) -> np.ndarray:
    """Coerce data to an int64 numpy array with entries reduced mod p."""
    return np.asarray(data, dtype=np.int64) % p


def rref(mat, p: int) -> np.ndarray:
    """Reduced row echelon form over F_p.

    Row space is preserved; pivots are 1 with zeros elsewhere in their
    columns; zero rows sink to the bottom. Deterministic.

    At p = 2, `_rref_f2` eliminates by XOR on rows packed into ints. At odd
    p the entries stay unreduced between pivot steps: a step reduces column c
    mod p to find its pivot, swaps it up, reduces and scales the pivot row, and
    clears column c by one rank-1 update of the block right of c, if any other
    row is nonzero there; the block is reduced once at the end. An entry takes
    at most one update per pivot, each a product of two residues below 2^32
    (p < `P_LIMIT`), so it stays within (p - 1) + min(rows, cols) * (p - 1)^2
    of zero, which fits in int64 below 2^31 pivots: the arithmetic is exact.
    Both paths reach the one RREF of the row space, so the output does not
    depend on the path.
    """
    m = fp_array(mat, p)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if p == 2:
        return _rref_f2(m)
    n_rows, n_cols = m.shape
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        f = m[:, c] % p
        if not f[r]:
            nz = f[r:].nonzero()[0]
            if nz.size == 0:
                continue
            i = r + nz[0]
            m[[r, i]] = m[[i, r]]
            f[[r, i]] = f[[i, r]]
        row = m[r, c:]
        row %= p
        if f[r] != 1:
            row *= pow(int(f[r]), p - 2, p)
            row %= p
        f[r] = 0
        if f.any():
            m[:, c:] -= np.multiply.outer(f, row)
        r += 1
    m %= p
    return m


def _rref_f2(m: np.ndarray) -> np.ndarray:
    """`rref` of a 0/1 matrix over F_2 by XOR on bit rows.

    Each row is one Python int, column 0 its top bit (the pad bits of the last
    byte stay zero below column n - 1), so a row's lead column is read from its
    bit length. Rows enter a basis keyed by that length, each XOR-ed with the
    basis row of its lead until it finds a new lead or vanishes. Back
    substitution then runs lowest pivot first: every row it finishes is fully
    reduced, so XOR-ing it into a higher row clears that one pivot bit and sets
    no other.
    """
    n_rows, n_cols = m.shape
    if n_cols == 0:
        return m
    width = -(-n_cols // 8)
    data = np.packbits(m.astype(np.uint8), axis=1).tobytes()
    basis: dict[int, int] = {}
    for start in range(0, n_rows * width, width):
        row = int.from_bytes(data[start : start + width], "big")
        while row:
            lead = row.bit_length()
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    done = 0
    for lead in sorted(basis):
        row = basis[lead]
        hit = row & done
        while hit:
            low = hit.bit_length()
            row ^= basis[low]
            hit ^= 1 << (low - 1)
        basis[lead] = row
        done |= 1 << (lead - 1)
    rows = b"".join(basis[lead].to_bytes(width, "big") for lead in sorted(basis, reverse=True))
    bits = np.frombuffer(rows, dtype=np.uint8).reshape(len(basis), width)
    out = np.zeros(m.shape, dtype=np.int64)
    out[: len(basis)] = np.unpackbits(bits, axis=1, count=n_cols)
    return out


def pivot_columns(rref_mat: np.ndarray) -> list[int]:
    """Pivot columns of an RREF matrix: the first nonzero column of each nonzero row."""
    nonzero = np.asarray(rref_mat) != 0
    rows = nonzero[nonzero.any(axis=1)]
    return rows.argmax(axis=1).tolist() if rows.size else []


def rank(mat, p: int) -> int:
    return len(pivot_columns(rref(mat, p)))


def kernel(mat, p: int) -> "Subspace":
    """Right kernel {v : mat @ v = 0 mod p} as a canonical Subspace, from one
    echelon R of mat's columns reversed: b_f = e_f - sum_i R[i, f] e_{P_i} ends in
    its 1 at free column f, 0 on the other free columns, so reversed it is the RREF."""
    if (mat := np.asarray(mat)).ndim != 2:
        raise ValueError("expected a 2-D matrix")
    red = rref(mat[:, ::-1], validate_prime(p))
    return Subspace(p, red.shape[1], _kernel_rows(red, p)[::-1, ::-1])


def _kernel_rows(red: np.ndarray, p: int) -> np.ndarray:
    """b_f = e_f - sum_i red[i, f] e_{P_i}, one row per free column f of an RREF
    `red` with pivot columns P: a basis of its kernel, in order of f."""
    n_cols = red.shape[1]
    pivots = pivot_columns(red)
    free = np.delete(np.arange(n_cols), pivots)
    rows = np.zeros((free.size, n_cols), dtype=np.int64)
    rows[np.arange(free.size), free] = 1
    rows[:, pivots] = -red[: len(pivots), free].T % p
    return rows


def solve(mat, rhs, p: int) -> np.ndarray | None:
    """One particular solution of mat @ v = rhs mod p, or None if inconsistent."""
    m = fp_array(mat, p)
    aug = rref(np.hstack([m, fp_array(rhs, p).reshape(-1, 1)]), p)
    n_cols = m.shape[1]
    pivots = pivot_columns(aug)
    if pivots and pivots[-1] == n_cols:
        return None
    v = np.zeros(n_cols, dtype=np.int64)
    v[pivots] = aug[: len(pivots), n_cols]
    return v


class Subspace:
    """A subspace of F_p^m held as a canonical (RREF, no zero rows) basis.

    Canonicity means two Subspace values are equal as sets iff their
    basis matrices are identical, which makes equality, hashing, and all
    downstream structure tests exact and cheap.
    """

    __slots__ = ("p", "ambient", "basis", "__dict__")

    def __init__(self, p: int, ambient: int, basis: np.ndarray):
        # Internal: basis must already be canonical. Use span() to build.
        self.p = p
        self.ambient = ambient
        basis = np.ascontiguousarray(basis, dtype=np.int64)
        basis.setflags(write=False)
        self.basis = basis

    @classmethod
    def span(cls, rows, p: int, ambient: int) -> "Subspace":
        """Subspace spanned by the given row vectors (may be dependent)."""
        validate_prime(p)
        rows = fp_array(rows, p)
        if rows.size == 0:
            rows = rows.reshape(0, ambient)
        if rows.ndim != 2 or rows.shape[1] != ambient:
            raise ValueError(f"rows must have length {ambient}")
        red = rref(rows, p)
        nonzero = red[np.any(red != 0, axis=1)]
        return cls(p, ambient, nonzero)

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls.span(np.zeros((0, ambient), dtype=np.int64), p, ambient)

    @classmethod
    def full(cls, p: int, ambient: int) -> "Subspace":
        return cls.span(np.eye(ambient, dtype=np.int64), p, ambient)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        return tuple(pivot_columns(self.basis))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.ambient, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def reduce(self, v) -> np.ndarray:
        """Residue of v after eliminating the pivot coordinates.

        v is one vector or a matrix whose rows are reduced one by one. The
        residue is zero iff v is a member; its support lies entirely
        on non-pivot columns, so it doubles as the coordinate vector of
        v's coset in the standard-basis quotient.
        """
        v = fp_array(v, self.p)
        if v.ndim not in (1, 2) or v.shape[-1] != self.ambient:
            raise ValueError(f"vectors must have length {self.ambient}")
        return (v - v[..., list(self._pivots)] @ self.basis) % self.p

    def contains(self, v) -> bool:
        """Whether v (a vector, or every row of a matrix) lies in this subspace."""
        return not np.any(self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self.contains(other.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        """A + B from one echelon of the stacked bases; `sum_and_intersection`
        gives it too, but over twice the columns."""
        self._check_compatible(other)
        return Subspace.span(np.vstack([self.basis, other.basis]), self.p, self.ambient)

    def sum_and_intersection(self, other: "Subspace") -> tuple["Subspace", "Subspace"]:
        """(A + B, A cap B) from one echelon of [[A, A], [B, 0]] (Zassenhaus).

        The stacked rows are independent, so the echelon has no zero row.
        Its rows nonzero on the left half have the left halves A + B, and
        its rows that vanish there have the right halves A cap B
        (`_block_spaces`).
        """
        self._check_compatible(other)
        a, b, m = self.basis, other.basis, self.ambient
        stacked = np.zeros((len(a) + len(b), 2 * m), dtype=np.int64)
        stacked[: len(a), :m] = stacked[: len(a), m:] = a
        stacked[len(a) :, :m] = b
        red = rref(stacked, self.p)
        return _block_spaces(red, m, self.p)

    def intersect(self, other: "Subspace") -> "Subspace":
        """A cap B: the second half of `sum_and_intersection`."""
        return self.sum_and_intersection(other)[1]

    def complement(self) -> "Subspace":
        """Dot-product (theta) complement {a : a . self = 0}, built once."""
        return self._complement

    @cached_property
    def _complement(self) -> "Subspace":
        # The kernel rows of the canonical basis span it, one per free column;
        # below dim of them, echelon those, else `kernel`'s reversed echelon.
        # The dot product is nondegenerate, so (A^theta)^theta = A: the
        # complement's own complement is this space, with no echelon.
        if self.ambient - self.dim < self.dim:
            comp = Subspace.span(_kernel_rows(self.basis, self.p), self.p, self.ambient)
        else:
            comp = kernel(self.basis, self.p)
        comp.__dict__["_complement"] = self
        return comp

    def quotient_reps(self, small: "Subspace") -> np.ndarray:
        """The rows of a 2-D array, (dim self - dim small) x ambient, whose
        cosets form a basis of self/small (deterministic).

        Greedy scan of this subspace's canonical basis rows.
        """
        self._check_compatible(small)
        if not self.contains_space(small):
            raise ValueError("quotient_reps: denominator is not a subspace of numerator")
        return self.basis[_independent_rows(small, self.basis)]

    def all_elements(self) -> np.ndarray:
        """All p**dim elements as a matrix, at most `ROW_LIMIT` rows; for exhaustive sweeps."""
        return _combinations(self.basis, self.p)


def _block_spaces(red: np.ndarray, m: int, p: int) -> tuple[Subspace, Subspace]:
    """(projection to the first m coordinates, {v : (0, v) in the row space}) of
    an RREF `red` without zero rows: the left blocks of its rows nonzero there
    and the right blocks of its rows that vanish there, each a canonical basis."""
    left = np.any(red[:, :m], axis=1)
    return Subspace(p, m, red[left, :m]), Subspace(p, red.shape[1] - m, red[~left, m:])


def _combinations(rows: np.ndarray, p: int) -> np.ndarray:
    """Every F_p combination of the rows, the coefficients running over the
    `_grid_digits` rows (first row most significant); one zero row when k = 0.

    Raises Infeasible above `ROW_LIMIT` combinations, before building any.
    """
    k = rows.shape[0]
    _gate(f"{p}^{k} combinations", p**k, ROW_LIMIT)
    return _grid_digits(np.arange(p**k, dtype=np.int64), p, k) @ rows % p


def _grid_index(rows: np.ndarray, base: int) -> np.ndarray:
    """Each row's flat index in the (base,)*width grid: C order, the row read
    big-endian base `base`. The unit rows np.eye(width) give the place values."""
    return rows @ int(base) ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)


def _grid_digits(index: np.ndarray, base: int, width: int) -> np.ndarray:
    """The rows at the given flat indices of the (base,)*width grid, one row
    of `width` digits per index, by the place values of `_grid_index`; its inverse."""
    place = int(base) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return index[..., None] // place % base


def _independent_rows(small: Subspace, vecs) -> list[int]:
    """Indices of the rows of vecs that a greedy scan keeps independent mod small.

    Row i is kept iff it is not in small + span(rows before i). These are
    the pivot columns past small's among the columns of [small.basis; vecs]^T.
    """
    vecs = fp_array(vecs, small.p).reshape(len(vecs), small.ambient)
    stacked = np.vstack([small.basis, vecs]).T
    return [c - small.dim for c in pivot_columns(rref(stacked, small.p)) if c >= small.dim]
