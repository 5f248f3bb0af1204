"""Steane-type recovery for subsystem CSS codes at the symplectic level.

The quantum measurement step is abstracted to exact inner products: the
X-side syndrome of an error (a, b) is the vector of dot products of a
against a fixed basis of the Z-type stabilizer space, and symmetrically
for the Z side. Classical decoding then identifies each error component
up to the corresponding gauge code, via coset-leader lookup or
weight-increasing search.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import code as _code
from .code import (
    CssSplit,
    _classical_coset_distance,
    _field_letters,
    _membership_checker,
    _min_weight_search,
    _site_values,
    _weight_batches,
)
from .gf import Subspace, fp_array, kernel, pivot_columns, solve
from .pauli import PauliVector

_TABLE_LIMIT = 1 << 20


class InconsistentSyndrome(Exception):
    """The given syndrome is not in the image of the parity check."""


class NotWeightRespecting(Exception):
    """H_X admits no basis of weight-at-most-2 vectors."""


class ClassicalCode:
    """A classical code K = ker F with a designated redundant subcode R <= K.

    Decoding succeeds "up to R": the decoder returns a representative of
    the error's R-coset whenever the coset contains a vector of weight
    below half the distance min wt(K \\ R).
    """

    def __init__(self, k: Subspace, r: Subspace, f: np.ndarray):
        if not k.contains_space(r):
            raise ValueError("redundant subcode must lie inside the code")
        f = fp_array(f, k.p)
        if kernel(f, k.p) != k:
            raise ValueError("parity check kernel does not equal the code")
        f.setflags(write=False)
        self.k = k
        self.r = r
        self.f = f
        self.p = k.p
        self.n = k.ambient

    @cached_property
    def d_r(self) -> int:
        """min wt(K \\ R); exact (search to full length)."""
        return _classical_coset_distance(self.k, self.r, budget=self.n).value

    @cached_property
    def _leader_table(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(slots, leaders): syndrome index i (`_index`) has the coset leader
        leaders[slots[i]], or none of weight below d_R/2 if slots[i] = -1.

        The least weight wins; within a weight, the lexicographically least.
        """
        n_syndromes = self.p ** self.f.shape[0]
        if n_syndromes > _TABLE_LIMIT:
            return None
        slots = np.full(n_syndromes, -1, dtype=np.int64)
        slots[0] = 0
        leaders = np.zeros((1, self.n), dtype=np.int64)
        for w in range(1, (self.d_r - 1) // 2 + 1):
            # The layer's best so far per syndrome empty below it, merged by one sort.
            best, best_idx = leaders[:0], slots[:0]
            for batch in _weight_batches(_field_letters(self.p), self.n, w):
                idx = self._index(self.syndrome(batch))
                empty = slots[idx] < 0
                rows = np.vstack([best, batch[empty]])
                idx = np.concatenate([best_idx, idx[empty]])
                order = np.lexsort(np.vstack([rows.T[::-1], idx]))
                best_idx, first = np.unique(idx[order], return_index=True)
                best = rows[order[first]]
            slots[best_idx] = len(leaders) + np.arange(len(best))
            leaders = np.vstack([leaders, best])
            if len(leaders) == n_syndromes:
                break
        return slots, leaders

    def _index(self, syns: np.ndarray) -> np.ndarray:
        """Each syndrome row read as a little-endian base-p number."""
        return syns @ self.p ** np.arange(self.f.shape[0], dtype=np.int64)

    @cached_property
    def _in_image(self):
        """Membership test of the column space of F: the achievable syndromes."""
        return _membership_checker(Subspace.span(self.f.T, self.p, self.f.shape[0]))

    def syndrome(self, v) -> np.ndarray:
        """F v for a vector v, or one syndrome row per row of a matrix v."""
        return (fp_array(v, self.p) @ self.f.T) % self.p

    def _leaders(self, syns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, found): row i is syndrome i's coset leader if found[i], else zero."""
        if not np.all(self._in_image(syns)):
            raise InconsistentSyndrome("syndrome not in the image of the parity check")
        table = self._leader_table
        if table is not None:
            slots, leaders = table
            slot = slots[self._index(syns)]
            found = slot >= 0
            return np.where(found[:, None], leaders[slot], 0), found
        # Per-query weight-increasing search.
        rows = np.zeros((len(syns), self.n), dtype=np.int64)
        found = ~np.any(syns, axis=1)
        for i in np.nonzero(~found)[0]:
            hits = _min_weight_search(
                lambda batch: np.all(self.syndrome(batch) == syns[i], axis=1),
                _field_letters(self.p), self.n, (self.d_r - 1) // 2, all_at_weight=True,
            )
            if hits is not None:
                # The lexicographically smallest vector of the least weight.
                rows[i] = min(hits[1].tolist())
                found[i] = True
        return rows, found

    def decode_coset(self, syn) -> np.ndarray | None:
        """Minimum-weight vector v with F v = syn and wt(v) < d_R/2, else None.

        Raises InconsistentSyndrome if the syndrome is not achievable.
        """
        syn = fp_array(syn, self.p)
        if syn.shape != (self.f.shape[0],):
            raise ValueError("syndrome has the wrong length")
        rows, found = self._leaders(syn[None])
        return rows[0] if found[0] else None


def make_css_decoder(split: CssSplit) -> tuple[ClassicalCode, ClassicalCode]:
    """The X-side and Z-side classical codes of a subsystem CSS code.

    X side: code H_X + H_Z^theta, redundant subcode H_X, parity check the
    basis matrix of the Z-type stabilizer space H_Z cap H_X^theta (its
    kernel is exactly the code). Z side is the X<->Z mirror.
    """
    x_side = ClassicalCode(split.logical_x, split.h_x, split.stab_z.basis)
    z_side = ClassicalCode(split.logical_z, split.h_z, split.stab_x.basis)
    return x_side, z_side


@dataclass(frozen=True)
class Syndrome:
    x_syn: np.ndarray
    z_syn: np.ndarray


def syndrome_of(split: CssSplit, e: PauliVector) -> Syndrome:
    """Inner products of the error against the fixed stabilizer bases."""
    x_side, z_side = _decoder_pair(split)
    return Syndrome(x_syn=x_side.syndrome(e.x), z_syn=z_side.syndrome(e.z))


@lru_cache(maxsize=32)
def _decoder_pair(split: CssSplit) -> tuple[ClassicalCode, ClassicalCode]:
    """The decoders of a split, shared by every split equal to it in value."""
    return make_css_decoder(split)


class DecodeStatus(enum.Enum):
    CORRECTED = "corrected-up-to-gauge"
    LOGICAL_FAILURE = "logical-failure"
    OUT_OF_RANGE = "out-of-range"


@dataclass(frozen=True)
class DecodeOutcome:
    status: DecodeStatus
    correction: PauliVector
    residual: PauliVector


def _recover(split: CssSplit, ex: np.ndarray, ez: np.ndarray) -> tuple[np.ndarray, ...]:
    """Recover the errors (ex[i], ez[i]) together: (status codes, cx, cz).

    A status code indexes DecodeStatus in declaration order. A side whose
    syndrome has no leader corrects nothing, and the error is out of range.
    """
    x_side, z_side = _decoder_pair(split)
    cx, found_x = x_side._leaders(x_side.syndrome(ex))
    cz, found_z = z_side._leaders(z_side.syndrome(ez))
    # The redundant subcodes are H_X and H_Z, their complements built once per decoder.
    in_h_x, in_h_z = _membership_checker(x_side.r), _membership_checker(z_side.r)
    in_gauge = in_h_x((ex - cx) % split.p) & in_h_z((ez - cz) % split.p)
    return np.where(found_x & found_z, np.where(in_gauge, 0, 1), 2), cx, cz


def steane_recover(split: CssSplit, e: PauliVector) -> DecodeOutcome:
    """Full recovery cycle: syndromes, independent X/Z decoding, residual check.

    Guaranteed corrected-up-to-gauge whenever each error component has a
    coset representative of weight below half the respective distance;
    in particular whenever swt(e) < d/2.
    """
    codes, cx, cz = _recover(split, e.x[None], e.z[None])
    correction = PauliVector(split.p, cx[0], cz[0])
    return DecodeOutcome(list(DecodeStatus)[codes[0]], correction, e - correction)


# Parity-check decoder in a standard-basis quotient (coset-level decoding) ---


class ParDecoder:
    """Decoder working in a standard-basis quotient of G by the gauge code.

    Only available when the gauge code respects weight (admits a basis
    of weight-at-most-2 vectors); then coset weight in the chosen
    standard-basis quotient equals minimum coset-representative weight
    and the two decoders have equal distance.
    """

    def __init__(self, h: Subspace, syn_matrix: np.ndarray, code: Subspace):
        p, n = h.p, h.ambient
        pivots = pivot_columns(h.basis)
        self.sigma0 = tuple(c for c in range(n) if c not in pivots)
        self.h = h
        self.p = p
        self.n = n
        self.f = syn_matrix
        self.par_matrix = syn_matrix[:, self.sigma0].copy()
        self.kernel = kernel(self.par_matrix, p)
        zero = Subspace.zero(p, len(self.sigma0))
        self.d_par = _classical_coset_distance(self.kernel, zero).value
        d_h = _classical_coset_distance(code, h, budget=n).value
        if self.d_par != d_h:
            raise AssertionError(f"quotient distance {self.d_par} != coset distance {d_h}")

    def coset_weight(self, a) -> int:
        """Weight of a + H in the standard-basis quotient."""
        residue = self.h.reduce(a)
        return int(np.count_nonzero(residue))

    def decode(self, syn) -> np.ndarray:
        """Coset representative of a + H (supported on sigma0) from the syndrome.

        Correct whenever the quotient weight of the true coset is below
        d_par / 2. Raises InconsistentSyndrome on unachievable input.
        """
        syn = fp_array(syn, self.p)
        u0 = solve(self.par_matrix, syn, self.p)
        if u0 is None:
            raise InconsistentSyndrome("syndrome not in the image of the quotient check")
        best = None
        best_key = None
        for k in self.kernel.all_elements():
            u = (u0 + k) % self.p
            key = (int(np.count_nonzero(u)), tuple(u))
            if best_key is None or key < best_key:
                best, best_key = u, key
        out = np.zeros(self.n, dtype=np.int64)
        out[list(self.sigma0)] = best
        return out


def respects_weight(h: Subspace) -> bool:
    """Whether h is spanned by its weight-at-most-2 members."""
    p, n = h.p, h.ambient
    in_h = _membership_checker(h)
    rows = [np.zeros((0, n), dtype=np.int64)]
    for w in (1, 2):
        rows.extend(batch[in_h(batch)] for batch in _weight_batches(_field_letters(p), n, w))
    return Subspace.span(np.vstack(rows), p, n) == h


def par_decoder_build(split: CssSplit, side: str = "X") -> ParDecoder:
    """Build the quotient decoder for one side of a CSS split.

    Raises NotWeightRespecting when the gauge code on that side has no
    weight-at-most-2 basis.
    """
    if side not in ("X", "Z"):
        raise ValueError("side must be 'X' or 'Z'")
    if side == "X":
        h, code, checks = split.h_x, split.logical_x, split.stab_z
    else:
        h, code, checks = split.h_z, split.logical_z, split.stab_x
    if not respects_weight(h):
        raise NotWeightRespecting(f"H_{side} has no weight-<=2 basis")
    return ParDecoder(h, checks.basis, code)


# Statistical harness --------------------------------------------------------


@dataclass(frozen=True)
class TrialCounts:
    trials: int
    corrected: int
    logical_failures: int
    out_of_range: int


@dataclass(frozen=True)
class MonteCarloReport:
    q: float
    seed: int
    counts: TrialCounts

    @property
    def failure_rate(self) -> float:
        bad = self.counts.logical_failures + self.counts.out_of_range
        return bad / self.counts.trials


def _tally(split: CssSplit, chunks) -> TrialCounts:
    """Recover every error in a stream of chunks of flattened errors and count the statuses."""
    n = split.n
    counts = np.zeros(len(DecodeStatus), dtype=np.int64)
    for e in chunks:
        counts += np.bincount(_recover(split, e[:, :n], e[:, n:])[0], minlength=len(DecodeStatus))
    # TrialCounts lists the statuses in DecodeStatus order.
    return TrialCounts(int(counts.sum()), *(int(c) for c in counts))


def monte_carlo(split: CssSplit, q: float, trials: int, seed: int) -> MonteCarloReport:
    """Sample i.i.d. site-wise errors and tally recovery statuses.

    Each site is independently nontrivial with probability q, uniform
    over the p^2 - 1 nontrivial single-site values.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("error probability must be in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = _tally(split, _sampled_errors(split, q, trials, seed))
    return MonteCarloReport(q=q, seed=seed, counts=counts)


def _sampled_errors(split: CssSplit, q: float, trials: int, seed: int):
    """Flattened sampled errors in chunks of <= _BATCH_ROWS rows; each trial
    draws its site mask, then its hit values, whatever the chunk size."""
    n, vals = split.n, _site_values(split.p)
    rng = np.random.default_rng(seed)
    for lo in range(0, trials, _code._BATCH_ROWS):
        chunk = np.zeros((min(_code._BATCH_ROWS, trials - lo), 2 * n), dtype=np.int64)
        for row in chunk:
            hit = np.nonzero(rng.random(n) < q)[0]
            if hit.size:
                row[hit], row[n + hit] = vals[rng.integers(0, len(vals), size=hit.size)].T
        yield chunk


def exhaustive_sweep(split: CssSplit, weight: int) -> TrialCounts:
    """Recover every Pauli error of symplectic weight exactly `weight`."""
    return _tally(split, _weight_batches(_site_values(split.p), split.n, weight))
