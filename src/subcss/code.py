"""Subsystem stabilizer codes: tower, parameters, CSS structure, distances.

A code is a subspace H of F_p^{2n} (the gauge group modulo phases). Its
parameters come from the tower 0 <= H cap H^w <= H <= H + H^w <= F_p^{2n},
and the distance is the minimum symplectic weight over (H + H^w) \\ H.

Every minimum-weight question here is answered by one engine: an
enumerator of the vectors of weight exactly w over an alphabet of nonzero
single-site letters, and a weight-increasing search over its layers.
Hamming weight on F_p^n uses the letters F_p \\ {0}; symplectic weight on
F_p^{2n} is Hamming weight over the alphabet F_p^2, whose letters are the
nonzero (x, z) values of one site.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from typing import Iterable, Iterator

import numpy as np

from .gf import Subspace, kernel, validate_prime
from .pauli import PauliVector, flatten, omega_complement, unflatten


class NoLogicalOperators(Exception):
    """Raised when the distance search set (H + H^w) \\ H is empty (k = 0)."""


@dataclass(frozen=True)
class DistanceResult:
    """Either an exact distance or the lower bound left by a budget cap."""

    value: int
    exact: bool

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">={self.value}"


@dataclass(frozen=True)
class CssSplit:
    """The two classical codes H_X, H_Z <= F_p^n of a subsystem CSS code."""

    h_x: Subspace
    h_z: Subspace

    def __post_init__(self):
        if self.h_x.p != self.h_z.p or self.h_x.ambient != self.h_z.ambient:
            raise ValueError("H_X and H_Z must live in the same F_p^n")

    @property
    def p(self) -> int:
        return self.h_x.p

    @property
    def n(self) -> int:
        return self.h_x.ambient

    @cached_property
    def stab_x(self) -> Subspace:
        """S_X = H_X cap H_Z^theta: the X-type stabilizer space."""
        return self.h_x.intersect(self.h_z.complement())

    @cached_property
    def stab_z(self) -> Subspace:
        """S_Z = H_Z cap H_X^theta: the Z-type stabilizer space."""
        return self.h_z.intersect(self.h_x.complement())

    @cached_property
    def logical_x(self) -> Subspace:
        """L_X = H_X + H_Z^theta: the X-type logical space."""
        return self.h_x + self.h_z.complement()

    @cached_property
    def logical_z(self) -> Subspace:
        """L_Z = H_Z + H_X^theta: the Z-type logical space."""
        return self.h_z + self.h_x.complement()


class SubsystemCode:
    """Immutable code object with lazily memoized tower and parameters."""

    def __init__(self, p: int, n: int, gauge: Subspace):
        validate_prime(p)
        if gauge.p != p or gauge.ambient != 2 * n:
            raise ValueError("gauge subspace must live in F_p^{2n}")
        self.p = p
        self.n = n
        self.gauge = gauge

    @classmethod
    def from_generators(cls, p: int, n: int, gens: Iterable[PauliVector]) -> "SubsystemCode":
        """Build from Pauli generators (dependence and redundancy allowed)."""
        rows = []
        for g in gens:
            if g.p != p or g.n != n:
                raise ValueError("generator has mismatched modulus or length")
            rows.append(flatten(g))
        mat = np.array(rows, dtype=np.int64).reshape(-1, 2 * n)
        return cls(p, n, Subspace.span(mat, p, 2 * n))

    @classmethod
    def from_css_split(cls, split: CssSplit) -> "SubsystemCode":
        """H_X x H_Z: the span of the block-diagonal [[H_X, 0], [0, H_Z]]."""
        x, z = split.h_x.basis, split.h_z.basis
        mat = np.block([[x, np.zeros_like(x)], [np.zeros_like(z), z]])
        return cls(split.p, split.n, Subspace.span(mat, split.p, 2 * split.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubsystemCode):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self.gauge == other.gauge

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.gauge))

    def __repr__(self) -> str:
        n, k, r = self.parameters()
        return f"SubsystemCode(p={self.p}, [[{n},{k},{r}]])"

    # Tower -----------------------------------------------------------------

    @cached_property
    def _omega_comp(self) -> Subspace:
        """H^w, shared by the centralizer and the stabilizer."""
        return omega_complement(self.gauge)

    @cached_property
    def centralizer(self) -> Subspace:
        """H + H^w: all logical (commuting-with-stabilizer) operators."""
        return self.gauge + self._omega_comp

    @cached_property
    def stabilizer(self) -> Subspace:
        """H cap H^w: the stabilizer group modulo phases."""
        return self.gauge.intersect(self._omega_comp)

    def parameters(self) -> tuple[int, int, int]:
        """(n, k, r): physical, logical, and gauge qudit counts."""
        two_k = self.centralizer.dim - self.gauge.dim
        two_r = self.gauge.dim - self.stabilizer.dim
        if two_k % 2 or two_r % 2:
            raise AssertionError("tower dimensions must be even")
        return self.n, two_k // 2, two_r // 2

    # CSS structure ---------------------------------------------------------

    @cached_property
    def _internal(self) -> tuple[Subspace, Subspace]:
        """(N_X, N_Z): N_X = {a : (a, 0) in H} and N_Z = {b : (0, b) in H}.

        N_X is the x-part image of the generator combinations whose z-parts
        cancel (the kernel of pi_Z), and symmetrically for N_Z.
        """
        x, z = self.gauge.basis[:, : self.n], self.gauge.basis[:, self.n :]
        n_x = Subspace.span(kernel(z.T, self.p).basis @ x, self.p, self.n)
        n_z = Subspace.span(kernel(x.T, self.p).basis @ z, self.p, self.n)
        return n_x, n_z

    def is_css(self) -> bool:
        """H = H_X x H_Z iff N_X x N_Z already fills H: dim N_X + dim N_Z = dim H."""
        n_x, n_z = self._internal
        return n_x.dim + n_z.dim == self.gauge.dim

    def css_split(self) -> CssSplit:
        """Split H = N_X x N_Z; raises ValueError if the code is not CSS."""
        if not self.is_css():
            raise ValueError("code is not CSS")
        return CssSplit(*self._internal)

    # Distance --------------------------------------------------------------

    def distance(self, budget: int | None = None) -> DistanceResult:
        """Minimum symplectic weight over (H + H^w) \\ H.

        Weight-increasing exhaustive search; if no witness appears up to
        `budget` (default n), the result is the lower bound budget + 1.
        """
        if self.centralizer == self.gauge:
            raise NoLogicalOperators("H + H^w = H: the code has no logical operators")
        budget = self.n if budget is None else budget
        found = self._logical_search(budget)
        return DistanceResult(found[0], True) if found else DistanceResult(budget + 1, False)

    def min_weight_logical(self, budget: int | None = None) -> PauliVector | None:
        """A minimum-symplectic-weight element of (H + H^w) \\ H, if found."""
        found = self._logical_search(self.n if budget is None else budget)
        return unflatten(found[1], self.p) if found else None

    def _logical_search(self, budget: int) -> tuple[int, np.ndarray] | None:
        in_cent = _membership_checker(self.centralizer)
        in_gauge = _membership_checker(self.gauge)
        return _min_weight_search(
            lambda batch: in_cent(batch) & ~in_gauge(batch), _site_values(self.p), self.n, budget
        )


def css_distances(split: CssSplit, budget: int | None = None) -> tuple[
    DistanceResult, DistanceResult, DistanceResult
]:
    """(d_X, d_Z, d) of a CSS split via single-block weight-increasing search.

    d is exact when either side is: an exact side value v <= budget lies
    below the other side's bound budget + 1.
    """
    d_x = _classical_coset_distance(split.logical_x, split.h_x, budget)
    d_z = _classical_coset_distance(split.logical_z, split.h_z, budget)
    return d_x, d_z, DistanceResult(min(d_x.value, d_z.value), d_x.exact or d_z.exact)


def _classical_coset_distance(
    big: Subspace, small: Subspace, budget: int | None = None
) -> DistanceResult:
    """min wt(big \\ small) by weight-increasing search; bound if capped."""
    if big == small:
        raise NoLogicalOperators("no logical operators on this side")
    n = big.ambient
    budget = n if budget is None else budget
    in_big = _membership_checker(big)
    in_small = _membership_checker(small)
    found = _min_weight_search(
        lambda batch: in_big(batch) & ~in_small(batch), _field_letters(big.p), n, budget
    )
    return DistanceResult(found[0], True) if found else DistanceResult(budget + 1, False)


# Search engine -------------------------------------------------------------

_BATCH_ROWS = 1 << 14


def _membership_checker(space: Subspace):
    """Vectorized membership test: v in space iff C v = 0 for C = basis of space^theta."""
    comp = space.complement().basis
    p = space.p
    if comp.shape[0] == 0:
        return lambda batch: np.ones(batch.shape[0], dtype=bool)
    return lambda batch: ~np.any((batch @ comp.T) % p, axis=1)


def _field_letters(p: int) -> np.ndarray:
    """The p - 1 nonzero values of F_p, as a one-column letter array."""
    return np.arange(1, p, dtype=np.int64)[:, None]


def _site_values(p: int) -> np.ndarray:
    """The p^2 - 1 nontrivial (x, z) single-site values, lexicographic."""
    vals = [(i, j) for i in range(p) for j in range(p) if (i, j) != (0, 0)]
    return np.array(vals, dtype=np.int64)


def _weight_batches(letters: np.ndarray, n: int, w: int) -> Iterator[np.ndarray]:
    """All vectors with exactly w nonzero sites, in batches of <= _BATCH_ROWS rows.

    `letters` is an (m, b) array of the nonzero single-site values; column
    j of a letter placed on a site goes to coordinate j*n + site, so a row
    has length b*n (the `flatten` layout when b = 2). Order: sites
    lexicographic, then letters lexicographic.
    """
    m, b = letters.shape
    per_sites = m**w
    sites_per_batch = max(1, _BATCH_ROWS // per_sites)
    letters_per_batch = min(per_sites, _BATCH_ROWS)
    # Digit i of a letter-tuple index t is letter position i, most significant first.
    place = m ** np.arange(w - 1, -1, -1, dtype=np.int64)
    block_cols = n * np.arange(b, dtype=np.int64)
    site_sets = combinations(range(n), w)
    while chunk := list(islice(site_sets, sites_per_batch)):
        sites = np.array(chunk, dtype=np.int64).reshape(len(chunk), w)
        cols = sites[:, None, :, None] + block_cols
        for lo in range(0, per_sites, letters_per_batch):
            t = np.arange(lo, min(lo + letters_per_batch, per_sites), dtype=np.int64)
            vals = letters[(t[:, None] // place) % m]
            row_ids = np.arange(len(chunk) * len(t)).reshape(len(chunk), len(t), 1, 1)
            batch = np.zeros((row_ids.size, b * n), dtype=np.int64)
            batch[row_ids, cols] = vals[None]
            yield batch


def _min_weight_search(
    pred, letters: np.ndarray, n: int, budget: int, all_at_weight: bool = False
) -> tuple[int, np.ndarray] | None:
    """Weight-increasing search over the layers w = 1..budget.

    `pred` maps a batch to one boolean per row. Returns (w, v) for the
    least w with a hit, v being its first hit in `_weight_batches` order;
    with `all_at_weight`, v holds every hit of weight w instead. None when
    no vector of weight <= budget hits.
    """
    for w in range(1, budget + 1):
        found = []
        for batch in _weight_batches(letters, n, w):
            hits = batch[pred(batch)]
            if len(hits):
                if not all_at_weight:
                    return w, hits[0]
                found.append(hits)
        if found:
            return w, np.vstack(found)
    return None

