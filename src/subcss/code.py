"""Subsystem stabilizer codes: tower, parameters, CSS structure, distances.

A code is a subspace H of F_p^{2n} (the gauge group modulo phases). Its
parameters come from the tower 0 <= H cap H^w <= H <= H + H^w <= F_p^{2n},
and the distance is the minimum symplectic weight over (H + H^w) \\ H.

A CSS code H_X x H_Z has H^w = H_Z^theta x H_X^theta, so its tower is built
from its two classical codes alone: (L_X, S_X) from one Zassenhaus echelon
(`Subspace.sum_and_intersection`) of H_X against H_Z^theta, its theta-dual
(L_Z, S_Z) = (S_X^theta, L_X^theta), H + H^w = L_X x L_Z, H cap H^w = S_X x S_Z.
Any other code's stabilizer is the radical of the symplectic form on H: S is
spanned by the kernel of the Gram matrix of H's basis (`_radical`), and
H + H^w = S^w. Either is the X tower of the double (H, psi(H)), as
psi(H)^theta = H^w, so `delta` hands it to the double's split.

Weights are counted over an alphabet of nonzero single-site letters.
Hamming weight on F_p^n uses the letters F_p \\ {0}; symplectic weight on
F_p^{2n} is Hamming weight over the alphabet F_p^2, whose letters are the
nonzero (x, z) values of one site.

A minimum weight min wt(big \\ small) is read off the syndromes of a check of
small, which the caller holds, as it holds big's: a CSS side's are its split's
(L_X^theta = S_Z), a code's its tower's psi-rows, as (X^w)^theta = psi(X). One
recursion gives the least weight of every syndrome and every coset leader
(`_syndrome_weights`); the syndromes big reaches are the `_combinations` of a
basis of its image. An enumerator of the vectors of weight exactly w
searches the low weights first, while that is cheaper than the recursion
(`_enumeration_reach`), and all of them where the recursion is too costly.
It lists syndromes, not vectors: each is the sum of its letters' rows of the
letter-syndrome table (`_syndrome_batches`), and only a witness, or a row that
may fill a leader slot, is spelled as a vector. `_coset_leaders` alone sizes,
lays out and builds a coset-leader table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb, prod
from typing import Iterable, Iterator

import numpy as np

from . import gf
from .gf import (
    Subspace,
    _block_spaces,
    _combinations,
    _grid_digits,
    _grid_index,
    rref,
)
from .pauli import PauliVector, _psi_rows, flatten, omega_complement, unflatten


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
    """The two classical codes H_X, H_Z <= F_p^n of a subsystem CSS code, and
    their towers: (L_X, S_X) from one echelon, (L_Z, S_Z) as its theta-dual."""

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
    def _x_tower(self) -> tuple[Subspace, Subspace]:
        """(L_X, S_X) from one Zassenhaus echelon of H_X against H_Z^theta."""
        return self.h_x.sum_and_intersection(self.h_z.complement())

    @property
    def stab_x(self) -> Subspace:
        """S_X = H_X cap H_Z^theta: the X-type stabilizer space."""
        return self._x_tower[1]

    @property
    def stab_z(self) -> Subspace:
        """S_Z = H_Z cap H_X^theta = L_X^theta: the Z-type stabilizer space."""
        return self.logical_x.complement()

    @property
    def logical_x(self) -> Subspace:
        """L_X = H_X + H_Z^theta: the X-type logical space."""
        return self._x_tower[0]

    @property
    def logical_z(self) -> Subspace:
        """L_Z = H_Z + H_X^theta = S_X^theta: the Z-type logical space."""
        return self.stab_x.complement()

    def _side_distance(self, side: str, budget: int | None = None) -> DistanceResult:
        """d_X = min wt(L_X \\ H_X) (side "x") or d_Z (side "z") under `budget`: a
        Hamming-weight `_coset_distance` with the checks the split holds,
        L_X^theta = S_Z and L_Z^theta = S_X, answered by the side's record
        where that decides the budget (`_recorded`)."""
        def search(budget):
            big, check, small = ((self.logical_x, self.stab_z, self.h_x) if side == "x"
                                 else (self.logical_z, self.stab_x, self.h_z))
            return _coset_distance(big, check.basis, small.complement().basis,
                                   _field_letters(self.p), budget)

        return _recorded(self, f"_{side}_distance", self.n, budget, search)


class SubsystemCode:
    """Immutable code object with lazily memoized tower and parameters."""

    def __init__(self, p: int, n: int, gauge: Subspace):
        gf.validate_prime(p)
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
        mat = np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n)
        return cls(p, n, Subspace.span(mat, p, 2 * n))

    @classmethod
    def from_css_split(cls, split: CssSplit) -> "SubsystemCode":
        """H_X x H_Z (`_block_product`). Its Goursat spaces are E = N = (H_X, H_Z),
        stored with the split itself, so the split's towers come with it."""
        code = cls(split.p, split.n, _block_product(split.h_x, split.h_z))
        code._goursat = (split.h_x, split.h_z, split)
        return code

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
        """H^w = psi(H)^theta: H_Z^theta x H_X^theta for a CSS code, from its
        split's complements on n columns; else the kernel of H's psi-rows
        (`omega_complement`). Neither echelons psi(H); `delta` hands it to the
        double as psi(H)'s theta-complement."""
        if self.is_css():
            split = self._goursat[2]
            return _block_product(split.h_z.complement(), split.h_x.complement())
        return omega_complement(self.gauge)

    @cached_property
    def _tower(self) -> tuple[Subspace, Subspace]:
        """(H + H^w, H cap H^w), shared by the centralizer and the stabilizer.

        A CSS code H = H_X x H_Z has H^w = H_Z^theta x H_X^theta, so its tower
        factors into the two classical towers of its split: (L_X x L_Z,
        S_X x S_Z), one echelon per side on n columns and none on 2n. Any
        other code's stabilizer S is the radical of the Gram matrix of H's
        basis (`_radical`), and H + H^w = S^w: the kernel of S's psi-rows, or
        H^w itself when S = H. Neither echelons 4n columns. Either tower is
        the X tower of the double (H, psi(H)), which `delta` hands it to.
        """
        if self.is_css():
            split = self._goursat[2]
            return (
                _block_product(split.logical_x, split.logical_z),
                _block_product(split.stab_x, split.stab_z),
            )
        stab = _radical(self.gauge)
        return self._omega_comp if stab is self.gauge else omega_complement(stab), stab

    @cached_property
    def centralizer(self) -> Subspace:
        """H + H^w: all logical (commuting-with-stabilizer) operators; L_X x L_Z
        for a CSS code, and for every code its double's L_X (see `_tower`)."""
        return self._tower[0]

    @cached_property
    def stabilizer(self) -> Subspace:
        """H cap H^w: the stabilizer group modulo phases; S_X x S_Z for a CSS
        code, and for every code its double's S_X (see `_tower`)."""
        return self._tower[1]

    def parameters(self) -> tuple[int, int, int]:
        """(n, k, r): physical, logical, and gauge qudit counts."""
        two_k = self.centralizer.dim - self.gauge.dim
        two_r = self.gauge.dim - self.stabilizer.dim
        if two_k % 2 or two_r % 2:
            raise AssertionError("tower dimensions must be even")
        return self.n, two_k // 2, two_r // 2

    # CSS structure ---------------------------------------------------------

    @cached_property
    def _zx_echelon(self) -> np.ndarray:
        """The RREF of H in (z, x) order, the canonical basis of its block swap,
        built once: `_goursat` of a non-CSS code reads E_Z and N_X off it, and
        `delta` psi(H). A CSS code's is the block product H_Z x H_X of its
        split, with no echelon."""
        if self.is_css():
            split = self._goursat[2]
            return _block_product(split.h_z, split.h_x).basis
        n, basis = self.n, self.gauge.basis
        return rref(np.hstack([basis[:, n:], basis[:, :n]]), self.p)

    @cached_property
    def _goursat(self) -> tuple[Subspace, Subspace, CssSplit]:
        """(E_X, E_Z, CssSplit(N_X, N_Z)): the projections of H, N_X = {a : (a, 0)
        in H} and N_Z = {b : (0, b) in H}. `_block_spaces` reads E_X and N_Z off
        H's basis in (x, z) order. A CSS code has E = N, both read there with no
        echelon (see `is_css`); any other code's E_Z and N_X are read off
        `_zx_echelon`."""
        e_x, n_z = _block_spaces(self.gauge.basis, self.n, self.p)
        if self.is_css():
            return e_x, n_z, CssSplit(e_x, n_z)
        e_z, n_x = _block_spaces(self._zx_echelon, self.n, self.p)
        return e_x, e_z, CssSplit(n_x, n_z)

    def is_css(self) -> bool:
        """H = H_X x H_Z iff the rows of H's canonical basis B with a nonzero x
        block have a zero z block, read off B once with no echelon: the
        block-diagonal [[RREF(H_X), 0], [0, RREF(H_Z)]] is the one RREF of
        H_X x H_Z, so B has that form iff H splits, and then its blocks give
        H_X = E_X = N_X and H_Z = E_Z = N_Z."""
        return self._is_css

    @cached_property
    def _is_css(self) -> bool:
        basis, n = self.gauge.basis, self.n
        return not basis[basis[:, :n].any(axis=1), n:].any()

    def css_split(self) -> CssSplit:
        """Split H = N_X x N_Z (the same object on every call); raises
        ValueError if the code is not CSS."""
        if not self.is_css():
            raise ValueError("code is not CSS")
        return self._goursat[2]

    # Distance --------------------------------------------------------------

    def distance(self, budget: int | None = None) -> DistanceResult:
        """Minimum symplectic weight over (H + H^w) \\ H.

        Exact (`_coset_distance`): a weight-increasing search over the low
        weights, and the syndrome space of H past them where that is cheaper;
        a value above `budget` (default n) is reported as the lower bound
        budget + 1.

        A CSS code is answered by its two classical codes: d = min(d_X, d_Z).
        There H + H^w = L_X x L_Z, so a logical (a, b) not in H has
        a in L_X \\ H_X or b in L_Z \\ H_Z, with wt(a), wt(b) <= swt(a, b),
        while (a, 0) has swt(a, 0) = wt(a). Under a budget B the symplectic
        search finds nothing up to B iff neither side does, so the value and
        its exactness are the symplectic search's for every budget, 0
        included. Both sides raise NoLogicalOperators together, since
        dim L_X - dim H_X = dim L_Z - dim H_Z = k.

        Each distance is searched for once per object that owns it: a CSS
        code's two sides on its split, any other code's on the code itself
        (`_recorded`). A later budget the record decides is answered from it,
        exactly as a fresh search would answer it.
        """
        if self.is_css():
            return css_distances(self.css_split(), budget)[2]

        def search(budget):
            return _coset_distance(self.centralizer, *self._checks, _site_values(self.p), budget)

        return _recorded(self, "_symplectic_distance", self.n, budget, search)

    def min_weight_logical(self, budget: int | None = None) -> PauliVector | None:
        """A minimum-symplectic-weight element of (H + H^w) \\ H, if found.

        Always the symplectic search, CSS codes included, so the witness is
        the first one in `_weight_layout` order over the p^2 - 1 site values.
        """
        found = _coset_search(*self._checks, _site_values(self.p), self.p, budget)
        return unflatten(found[1], self.p) if found else None

    @property
    def _checks(self) -> tuple[np.ndarray, np.ndarray]:
        """Checks of H + H^w and H: the psi-rows of H cap H^w and of H^w, as
        (X^w)^theta = psi(X), with no echelon, CSS codes included."""
        return _psi_rows(self.stabilizer.basis), _psi_rows(self._omega_comp.basis)


def _radical(h: Subspace) -> Subspace:
    """H cap H^w, the radical of omega on H, from the Gram matrix G = B psi(B)^T
    of H's canonical basis B, dim H square and antisymmetric: c B lies in H^w
    iff c G = 0, so it is spanned by ker(G) B; H itself, with no echelon, when
    G = 0. One kernel of G and one echelon of dim S rows, where a Zassenhaus
    echelon of H against H^w has 2n rows and 4n columns."""
    basis, p = h.basis, h.p
    gram = basis @ _psi_rows(basis).T % p
    if not gram.any():
        return h
    return Subspace.span(gf.kernel(gram, p).basis @ basis, p, h.ambient)


def _block_product(a: Subspace, b: Subspace) -> Subspace:
    """A x B <= F_p^{2n}, spanned by the block-diagonal [[A, 0], [0, B]]; two
    canonical bases on disjoint blocks already form its canonical basis."""
    x, z, n = a.basis, b.basis, a.ambient
    mat = np.zeros((len(x) + len(z), 2 * n), dtype=np.int64)
    mat[: len(x), :n], mat[len(x) :, n:] = x, z
    return Subspace(a.p, 2 * n, mat)


def css_distances(split: CssSplit, budget: int | None = None) -> tuple[
    DistanceResult, DistanceResult, DistanceResult
]:
    """(d_X, d_Z, d) of a CSS split, each side a Hamming-weight `_coset_distance`
    with the checks the split holds: L_X^theta = S_Z and L_Z^theta = S_X.

    d is exact when either side is: an exact side value v <= budget lies
    below the other side's bound budget + 1.

    Each side is searched for once per split (`CssSplit._side_distance`):
    the split records what its searches found, and a later budget that the
    record decides, on this call or a decoder's d_R, is answered from it.
    """
    d_x, d_z = split._side_distance("x", budget), split._side_distance("z", budget)
    return d_x, d_z, DistanceResult(min(d_x.value, d_z.value), d_x.exact or d_z.exact)


def _recorded(owner, name: str, n: int, budget: int | None, search) -> DistanceResult:
    """`search(budget)`, a fresh `_coset_distance` of n sites, answered by the
    record `owner.__dict__[name]` of that problem where the record decides the
    budget. A fresh search answers (d, exact) if d <= budget, else the bound
    (budget + 1, bounded): it reads only the true d and the budget. So the
    record is the last such answer, exact or a bound; an exact d decides every
    budget, a bound b + 1 every budget below it. Any other budget searches, and
    its answer, an exact d or a greater bound, replaces the record.

    Only an answer is recorded: a k = 0 problem (NoLogicalOperators), an
    Infeasible search, a MemoryError or a negative budget (ValueError; with a record
    k > 0, so a fresh search would raise it as well) raises on every call."""
    known = owner.__dict__.get(name)
    if known is not None:
        budget = _budget(budget, n)
        if known.exact or budget < known.value:
            return known if known.value <= budget else DistanceResult(budget + 1, False)
    found = owner.__dict__[name] = search(budget)
    return found


def _held(owner, name: str, build):
    """`build(owner)`, computed once per owner and held in its `__dict__` under
    `name`: a code's Goursat data, stabilizer class and double, a split's
    codeword label bases and decoders. The owner is the one holder, so what it
    holds goes with it."""
    if name not in owner.__dict__:
        owner.__dict__[name] = build(owner)
    return owner.__dict__[name]


def _coset_distance(big: Subspace, big_check: np.ndarray, small_check: np.ndarray,
                    letters: np.ndarray, budget: int | None = None) -> DistanceResult:
    """min wt(big \\ small) over `letters`: `_coset_search` up to the
    `_enumeration_reach`, then the syndrome weights; the bound budget + 1 if it
    exceeds `budget` (default n, the sites of `letters`' layout).

    No distance exceeds m, the rows of `small_check`, a full-rank check of small
    (see `_enumeration_reach`): nothing up to m - 1 means d = m, with no recursion.

    Raises NoLogicalOperators if big == small, ValueError for a negative budget.
    """
    p, (m, ambient) = big.p, small_check.shape
    if big.dim + m == ambient:
        raise NoLogicalOperators("no logical operators: the coset space is empty")
    n = ambient // letters.shape[1]
    budget = _budget(budget, n)
    reach = _enumeration_reach(p, m, n, len(letters), budget)
    found = _coset_search(big_check, small_check, letters, p, reach)
    if found:
        d = found[0]
    elif reach >= min(budget, m - 1):
        # Nothing up to the reach: d = m past m - 1, else d is past the budget.
        d = min(m, budget + 1)
    else:
        # big \ small has the syndromes F(big) \ {0}: its basis' combinations but the first.
        image = _combinations(Subspace.span(big.basis @ small_check.T, p, m).basis, p)[1:]
        weights = _syndrome_weights(_letter_syndromes(small_check, letters, p), p)[0]
        d = int(weights.ravel()[_grid_index(image, p)].min())
    return DistanceResult(d, True) if d <= budget else DistanceResult(budget + 1, False)


def _budget(budget: int | None, n: int) -> int:
    """A search budget: n if None; ValueError if negative."""
    budget = n if budget is None else budget
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    return budget


def _coset_search(big_check: np.ndarray, small_check: np.ndarray, letters: np.ndarray, p: int,
                  budget: int | None = None) -> tuple[int, np.ndarray] | None:
    """(w, v): v is the first vector of big \\ small, each given by a check, in
    `_weight_layout` order whose weight w is the least one up to `budget`
    (default n, the sites of `letters`' layout; no vector is heavier); None if none.

    It lists syndromes, not vectors: a row of `_syndrome_batches` over the
    stacked checks [big_check; small_check] is a hit when its big part is zero
    and its small part is not, and only the first hit is spelled as a vector.
    Infeasible, naming budget w - 1, before a layer w that takes the vectors
    listed past `gf.STREAM_LIMIT`; ValueError for a negative budget.
    """
    n = big_check.shape[1] // letters.shape[1]
    top = min(_budget(budget, n), n)
    if top == 0:
        return None
    m = big_check.shape[0]
    table = _letter_syndromes(np.vstack([big_check, small_check]), letters, p)
    listed = 0
    for w in range(1, top + 1):
        listed += comb(n, w) * len(letters) ** w
        gf._gate(f"vectors of weight 1 to {w} on {n} sites", listed, gf.STREAM_LIMIT,
                 f"budget {w - 1}")
        for sites, tuples, syns in _syndrome_batches(table, w, p):
            hits = np.flatnonzero(~syns[:, :m].any(axis=1) & syns[:, m:].any(axis=1))
            if len(hits):
                return w, _spelled(letters, n, sites, tuples, hits[:1])[0]
    return None


# Syndrome engine -------------------------------------------------------------


def _enumeration_reach(p: int, m: int, n: int, n_letters: int, budget: int) -> int:
    """The weight up to which the enumeration lists vectors before
    `_syndrome_weights` answers the rest, for p^m syndromes, n sites and
    `n_letters` letters: the largest w <= min(budget, m) whose vectors, all
    weights up to w, cost no more than the recursion. At min(budget, m) a
    distance needs no recursion, as above `gf.ROW_LIMIT` syndromes, nor at
    m - 1 below the budget.

    No answer lies past weight m: a full-rank check matrix has m independent
    columns, so every syndrome has a preimage of weight at most m. The
    recursion costs, per (site, letter), the index maps of `_translator` (at
    most m * p^ceil(m/2) digits) and one gather of p^m cells; a listed vector
    costs at least its n sites. The enumeration stops at the distance, so it
    goes first while it is the cheaper: whatever the distance, the two together
    cost at most twice the cheaper one. All Python ints, so nothing wraps.
    """
    top = min(budget, m)
    size = int(p) ** m
    if size > gf.ROW_LIMIT:
        return top
    cost, listed = n * n_letters * (size + m * int(p) ** -(-m // 2)), 0
    for w in range(top + 1):
        listed += comb(n, w) * n_letters**w
        if n * listed > cost:
            return w - 1
    return top


def _translator(p: int, m: int):
    """translate(grid, c) = grid[s - c] for every syndrome s of a (p,)*m grid.

    The grid is seen as a matrix whose row (column) index is the first m // 2
    (the other) coordinates of s, read by `_grid_index`. Translating s by -c
    moves rows and columns separately: two index maps of at most p^ceil(m/2)
    entries, built per call, and one gather.
    """
    halves = []
    for part in (slice(0, m // 2), slice(m // 2, m)):
        place = _grid_index(np.eye(part.stop - part.start, dtype=np.int64), p)
        halves.append((part, _grid_digits(np.arange(p ** len(place)), p, len(place)), place))

    def translate(grid: np.ndarray, c: np.ndarray) -> np.ndarray:
        rows, cols = (((digits - c[part]) % p) @ place for part, digits, place in halves)
        return grid.reshape(len(rows), len(cols))[rows].take(cols, axis=1).reshape(grid.shape)

    return translate


def _letter_syndromes(check: np.ndarray, letters: np.ndarray, p: int) -> np.ndarray:
    """(n, L, m): entry [j, x] is the syndrome of letter x placed on site j, its
    column i going to coordinate i*n + j (the `_spelled` layout); Infeasible,
    before it is built, above `_TABLE_BYTES` as int64."""
    (m, cols), b = check.shape, letters.shape[1]
    shape = cols // b, len(letters), m
    gf._gate(f"bytes of the letter-syndrome table of shape {shape}", 8 * prod(shape), _TABLE_BYTES)
    # One batched (L, b) x (b, m) product per site: an einsum costs more per call on small tables.
    return np.matmul(letters, check.reshape(m, b, cols // b).transpose(2, 1, 0)) % p


def _syndrome_weights(
    shifts: np.ndarray, p: int, keep_letters: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """(W, won) for the letter syndromes `shifts` of `_letter_syndromes`: W[s]
    is the least weight over the letters of a v with syndrome s, for every
    syndrome s of the (p,)*m grid; n + 1 where there is no such v.

    One recursion over the sites, last to first, starting from W(0) = 0:
    W_j(s) = min(W_{j+1}(s), min_x W_{j+1}(s - x.F_j) + 1) over the letters x,
    x.F_j being the syndrome of x on site j. If `keep_letters`, won[j][s] is
    the winning letter on site j (1-based, 0 for none); the comparison is
    strict, so no letter and then earlier letters win ties. Else won is None.
    """
    n, n_letters, m = shifts.shape
    translate = _translator(p, m)
    weights = np.full((p,) * m, n + 1, dtype=np.min_scalar_type(n + 2))
    weights[(0,) * m] = 0
    won = np.zeros((n, *weights.shape), np.min_scalar_type(n_letters)) if keep_letters else None
    for j in reversed(range(n)):
        best = weights.copy()
        for x, shift in enumerate(shifts[j], start=1):
            if shift.any():
                step = translate(weights, shift) + 1
                if keep_letters:
                    won[j][step < best] = x
                np.minimum(best, step, out=best)
        weights = best
    return weights, won


def _coset_leaders(
    check: np.ndarray, letters: np.ndarray, p: int, top: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """(slots, leaders): the syndrome of `_grid_index` i has the coset leader
    leaders[slots[i]] if its weight is at most `top`, else slots[i] = -1;
    None above `gf.ROW_LIMIT` syndromes. The leader of s is the least-weight,
    then lexicographically least, v over `letters` with check @ v = s; leaders
    come in order of weight, then index, in the least dtype holding p - 1.
    The recursion builds it where the `_enumeration_reach` falls short of
    `top`, else the enumeration does."""
    m, n = check.shape[0], check.shape[1] // letters.shape[1]
    size = int(p) ** m
    if size > gf.ROW_LIMIT:
        return None
    if _enumeration_reach(p, m, n, len(letters), top) < min(top, m):
        return _syndrome_leaders(check, letters, p, top)
    return _enumerated_leaders(check, letters, p, top, lambda syns: _grid_index(syns, p), size)


def _syndrome_leaders(
    check: np.ndarray, letters: np.ndarray, p: int, top: int
) -> tuple[np.ndarray, np.ndarray]:
    """The `_coset_leaders` table from the letters `_syndrome_weights` kept,
    walked from the first site on."""
    shifts = _letter_syndromes(check, letters, p)
    weights, won = _syndrome_weights(shifts, p, keep_letters=True)
    (n, _, m), b = shifts.shape, letters.shape[1]
    weights, won = weights.ravel(), won.reshape(n, -1)
    order = np.argsort(weights, kind="stable")
    kept = order[weights[order] <= top]
    slots = np.full(weights.size, -1, dtype=np.int64)
    slots[kept] = np.arange(len(kept))
    leaders = np.zeros((len(kept), b * n), dtype=np.min_scalar_type(p - 1))
    values = np.vstack([np.zeros((1, b), dtype=np.int64), letters]).astype(leaders.dtype)
    syn = _grid_digits(kept, p, m)
    for j in range(n):
        x = won[j, _grid_index(syn, p)]
        leaders[:, j + n * np.arange(b)] = values[x]
        syn = (syn - np.vstack([np.zeros((1, m), dtype=np.int64), shifts[j]])[x]) % p
    return slots, leaders


def _enumerated_leaders(
    check: np.ndarray, letters: np.ndarray, p: int, top: int, slot_of, n_slots: int
) -> tuple[np.ndarray, np.ndarray]:
    """The `_coset_leaders` table of `n_slots` slots by enumerating weights 0 to
    `top`: `slot_of` maps a batch of syndromes to one slot per row, -1 where no
    slot wants the row; the least weight, then least row, fills a slot.

    It lists `_syndrome_batches` of the check; only the rows that land in a
    still-empty slot are spelled as vectors, for the lexicographic tie-break."""
    n = check.shape[1] // letters.shape[1]
    table = _letter_syndromes(check, letters, p)
    slots = np.full(n_slots, -1, dtype=np.int64)
    leaders = np.zeros((0, check.shape[1]), dtype=np.min_scalar_type(p - 1))
    for w in range(top + 1):
        # The layer's best so far per slot empty below it, merged by one sort.
        best, best_slot = leaders[:0], slots[:0]
        for sites, tuples, syns in _syndrome_batches(table, w, p):
            slot = slot_of(syns)
            empty = slot >= 0
            empty[empty] = slots[slot[empty]] < 0
            rows = np.vstack([best, _spelled(letters, n, sites, tuples, np.flatnonzero(empty))])
            slot = np.concatenate([best_slot, slot[empty]])
            order = np.lexsort(np.vstack([rows.T[::-1], slot]))
            best_slot, first = np.unique(slot[order], return_index=True)
            best = rows[order[first]]
        slots[best_slot] = len(leaders) + np.arange(len(best))
        leaders = np.vstack([leaders, best.astype(leaders.dtype)])
        if len(leaders) == n_slots:
            break
    return slots, leaders


# Search engine -------------------------------------------------------------

_BATCH_ROWS = 1 << 14
# Most bytes a letter list or a letter-syndrome table may take.
_TABLE_BYTES = 1 << 30


def _field_letters(p: int) -> np.ndarray:
    """The p - 1 nonzero values of F_p, as a one-column letter array."""
    return np.arange(1, p, dtype=np.int64)[:, None]


def _site_values(p: int) -> np.ndarray:
    """The p^2 - 1 nontrivial (x, z) single-site values, lexicographic; Infeasible,
    before they are listed, if their int64 grid exceeds `_TABLE_BYTES`."""
    gf._gate(f"bytes of the single-site value grid of p = {p}", 8 * 2 * p * p, _TABLE_BYTES)
    return np.stack(_site_letters(np.arange(p * p - 1, dtype=np.int64), p), axis=1)


def _site_letters(index: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) of row t of `_site_values(p)` for each index t: divmod(t + 1, p)."""
    return divmod(index + 1, p)


def _weight_layout(n_letters: int, n: int, w: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The batches of the vectors with exactly w nonzero sites, as (sites,
    tuples): each of the site sets (rows of `sites`, lexicographic) carries each
    letter tuple (`tuples`, indices in the (n_letters,)*w grid of
    `_grid_digits`, first site most significant), site set major. A batch has
    at most `_BATCH_ROWS` rows; where one site set has more tuples, its tuples
    are split over several batches."""
    per_sites = n_letters**w
    sites_per_batch = max(1, _BATCH_ROWS // per_sites)
    tuples_per_batch = min(per_sites, _BATCH_ROWS)
    # The site sets' entries as one flat stream, read a batch's rows at a time;
    # w = 0 reads its one empty site set as zero entries.
    entries, total = chain.from_iterable(combinations(range(n), w)), comb(n, w)
    for start in range(0, total, sites_per_batch):
        rows = min(sites_per_batch, total - start)
        sites = np.fromiter(islice(entries, rows * w), np.int64, rows * w).reshape(rows, w)
        for lo in range(0, per_sites, tuples_per_batch):
            yield sites, np.arange(lo, min(lo + tuples_per_batch, per_sites), dtype=np.int64)


def _spelled(letters: np.ndarray, n: int, sites: np.ndarray, tuples: np.ndarray,
             rows: np.ndarray) -> np.ndarray:
    """The vectors at `rows` of the `_weight_layout` batch (sites, tuples), as
    rows of b*n entries: row i is site set i // len(tuples) carrying tuple
    i % len(tuples), column j of a letter on a site going to coordinate j*n + site."""
    n_letters, b = letters.shape
    site_set, t = np.divmod(rows, len(tuples))
    vals = letters[_grid_digits(tuples[t], n_letters, sites.shape[1])]
    cols = sites[site_set, :, None] + n * np.arange(b, dtype=np.int64)
    out = np.zeros((len(rows), b * n), dtype=np.int64)
    out[np.arange(len(rows))[:, None, None], cols] = vals
    return out


def _syndrome_batches(
    table: np.ndarray, w: int, p: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(sites, tuples, syndromes) per `_weight_layout` batch of weight w, for a
    letter-syndrome table (n, L, M) of `_letter_syndromes`: row i of the
    (rows, M) syndromes is that of the vector `_spelled` at row i. No other code
    lists a weight layer; the tests' reference `_weight_batches` spells them all.

    A vector's syndrome is the sum of its w letters' rows of the table, mod p.
    A batch sums by broadcasting over its site sets, S[s1][:, None] + S[s2] ...,
    whose C order is the letter tuples' base-L order: after k sites it holds
    the sums of the tuples' first k digits, the run of k-digit prefixes that
    its tuples span (all L^k of them unless one site set's tuples are split).
    The sums run coordinate-major, each coordinate of a batch one contiguous
    row, and the result is its transposed view. Each partial sum is reduced as
    it goes: two residues sum below 2p, in the least unsigned dtype that holds
    2 (p - 1), where x - p wraps above x exactly when x < p, so min(x, x - p)
    is x mod p and nothing else wraps.
    """
    (n, n_letters, m), acc = table.shape, np.min_scalar_type(2 * (p - 1))
    coords, modulus = np.ascontiguousarray(table.transpose(2, 0, 1), dtype=acc), acc.type(p)
    for sites, tuples in _weight_layout(n_letters, n, w):
        # The run [lo, hi) of k-digit prefixes that the batch's tuples span, k = 0 .. w.
        first, last = int(tuples[0]), int(tuples[-1])
        spans = [(first // n_letters ** (w - k), last // n_letters ** (w - k) + 1)
                 for k in range(w + 1)]
        syns = np.zeros((m, len(sites), 1), dtype=acc)
        for site, (below, _), (lo, hi) in zip(sites.T, spans, spans[1:]):
            start = lo - below * n_letters
            syns = (syns[:, :, :, None] + coords[:, site, None]).reshape(
                m, len(sites), syns.shape[2] * n_letters)[:, :, start:start + hi - lo]
            np.minimum(syns, syns - modulus, out=syns)
        yield sites, tuples, syns.reshape(m, len(sites) * len(tuples)).T
