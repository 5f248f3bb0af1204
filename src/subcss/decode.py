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
from .pauli import PauliVector, unflatten

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
    def _leader_table(self) -> dict[bytes, np.ndarray] | None:
        n_syndromes = self.p ** self.f.shape[0]
        if n_syndromes > _TABLE_LIMIT:
            return None
        table: dict[bytes, np.ndarray] = {}
        zero = np.zeros(self.n, dtype=np.int64)
        table[self._syn_key(zero)] = zero
        max_w = (self.d_r - 1) // 2
        for w in range(1, max_w + 1):
            for batch in _weight_batches(_field_letters(self.p), self.n, w):
                syns = (batch @ self.f.T) % self.p
                for v, syn in zip(batch, syns):
                    key = syn.tobytes()
                    prev = table.get(key)
                    # First hit at the lowest weight wins; within a weight,
                    # keep the lexicographically smallest vector.
                    if prev is None:
                        table[key] = v.copy()
                    elif np.count_nonzero(prev) == w and tuple(v) < tuple(prev):
                        table[key] = v.copy()
            if len(table) == n_syndromes:
                break
        return table

    def _syn_key(self, v: np.ndarray) -> bytes:
        return (((v @ self.f.T) % self.p).astype(np.int64)).tobytes()

    def syndrome(self, v) -> np.ndarray:
        v = fp_array(v, self.p)
        return (self.f @ v) % self.p

    def decode_coset(self, syn) -> np.ndarray | None:
        """Minimum-weight vector v with F v = syn and wt(v) < d_R/2, else None.

        Raises InconsistentSyndrome if the syndrome is not achievable.
        """
        syn = fp_array(syn, self.p)
        if syn.shape != (self.f.shape[0],):
            raise ValueError("syndrome has the wrong length")
        table = self._leader_table
        if table is not None:
            leader = table.get(syn.astype(np.int64).tobytes())
            if leader is not None:
                return leader.copy()
            if solve(self.f, syn, self.p) is None:
                raise InconsistentSyndrome("syndrome not in the image of the parity check")
            return None
        # Per-query weight-increasing search.
        if solve(self.f, syn, self.p) is None:
            raise InconsistentSyndrome("syndrome not in the image of the parity check")
        if not np.any(syn):
            return np.zeros(self.n, dtype=np.int64)
        found = _min_weight_search(
            lambda batch: np.all((batch @ self.f.T) % self.p == syn, axis=1),
            _field_letters(self.p),
            self.n,
            (self.d_r - 1) // 2,
            all_at_weight=True,
        )
        if found is None:
            return None
        # The lexicographically smallest vector of the least weight.
        return np.array(min(found[1].tolist()), dtype=np.int64)


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


def steane_recover(split: CssSplit, e: PauliVector) -> DecodeOutcome:
    """Full recovery cycle: syndromes, independent X/Z decoding, residual check.

    Guaranteed corrected-up-to-gauge whenever each error component has a
    coset representative of weight below half the respective distance;
    in particular whenever swt(e) < d/2.
    """
    x_side, z_side = _decoder_pair(split)
    cx = x_side.decode_coset(x_side.syndrome(e.x))
    cz = z_side.decode_coset(z_side.syndrome(e.z))
    p, n = split.p, split.n
    correction = PauliVector(
        p,
        cx if cx is not None else np.zeros(n, dtype=np.int64),
        cz if cz is not None else np.zeros(n, dtype=np.int64),
    )
    residual = e - correction
    if cx is None or cz is None:
        status = DecodeStatus.OUT_OF_RANGE
    elif split.h_x.contains(residual.x) and split.h_z.contains(residual.z):
        status = DecodeStatus.CORRECTED
    else:
        status = DecodeStatus.LOGICAL_FAILURE
    return DecodeOutcome(status=status, correction=correction, residual=residual)


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
        self.d_par = _min_weight_of(self.kernel)
        d_h = _classical_coset_distance(code, h, budget=n).value
        if self.d_par != d_h:
            raise AssertionError(
                f"quotient distance {self.d_par} != coset distance {d_h}"
            )

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


def _min_weight_of(space: Subspace) -> int:
    """min Hamming weight over the nonzero elements (full enumeration)."""
    elems = space.all_elements()
    weights = np.count_nonzero(elems, axis=1)
    nz = weights[weights > 0]
    return int(nz.min()) if nz.size else 0


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


def _tally(outcomes) -> TrialCounts:
    counts = {status: 0 for status in DecodeStatus}
    total = 0
    for out in outcomes:
        counts[out.status] += 1
        total += 1
    return TrialCounts(
        trials=total,
        corrected=counts[DecodeStatus.CORRECTED],
        logical_failures=counts[DecodeStatus.LOGICAL_FAILURE],
        out_of_range=counts[DecodeStatus.OUT_OF_RANGE],
    )


def monte_carlo(split: CssSplit, q: float, trials: int, seed: int) -> MonteCarloReport:
    """Sample i.i.d. site-wise errors and tally recovery statuses.

    Each site is independently nontrivial with probability q, uniform
    over the p^2 - 1 nontrivial single-site values.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("error probability must be in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p, n = split.p, split.n
    vals = _site_values(p)
    rng = np.random.default_rng(seed)
    outcomes = []
    for _ in range(trials):
        mask = rng.random(n) < q
        x = np.zeros(n, dtype=np.int64)
        z = np.zeros(n, dtype=np.int64)
        hit = np.nonzero(mask)[0]
        if hit.size:
            picks = vals[rng.integers(0, len(vals), size=hit.size)]
            x[hit] = picks[:, 0]
            z[hit] = picks[:, 1]
        outcomes.append(steane_recover(split, PauliVector(p, x, z)))
    return MonteCarloReport(q=q, seed=seed, counts=_tally(outcomes))


def exhaustive_sweep(split: CssSplit, weight: int) -> TrialCounts:
    """Recover every Pauli error of symplectic weight exactly `weight`."""
    p, n = split.p, split.n
    outcomes = []
    for batch in _weight_batches(_site_values(p), n, weight):
        for row in batch:
            outcomes.append(steane_recover(split, unflatten(row, p)))
    return _tally(outcomes)
