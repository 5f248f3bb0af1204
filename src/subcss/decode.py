"""Steane-type recovery for subsystem CSS codes at the symplectic level.

The quantum measurement step is abstracted to exact inner products: the
X-side syndrome of an error (a, b) is the vector of dot products of a
against a fixed basis of the Z-type stabilizer space, and symmetrically
for the Z side. Classical decoding then identifies each error component
up to the corresponding gauge code by coset-leader lookup. It reads an error v
only as [F; Z] v: for a sampled or given error the sum of its hit sites'
columns (`_hit_products`), for a swept error the sum of its letters' rows, as
the distance searches list them (`code._syndrome_batches`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, partial
from math import comb

import numpy as np

from . import code as _code
from .code import (
    CssSplit,
    DistanceResult,
    _coset_distance,
    _coset_leaders,
    _enumerated_leaders,
    _field_letters,
    _held,
    _letter_syndromes,
    _site_letters,
    _site_values,
    _syndrome_batches,
)
from .gf import ROW_LIMIT, STREAM_LIMIT, Subspace, _gate, _grid_index, fp_array, kernel, pivot_columns
from .pauli import PauliVector


class InconsistentSyndrome(Exception):
    """The given syndrome is not in the image of the parity check."""


class NotWeightRespecting(Exception):
    """H_X admits no basis of weight-at-most-2 vectors."""


class ClassicalCode:
    """A classical code K = ker F with a designated redundant subcode R <= K.

    Decoding succeeds "up to R": the decoder returns a representative of
    the error's R-coset whenever the coset contains a vector of weight
    below half the distance min wt(K \\ R).

    It only looks leaders up: in `code._coset_leaders`' table of F, or in a
    batch's own one where F has too many syndromes for a table. Its tests read
    the checks it holds: F for K and R <= K, R^theta for R, F's left kernel for
    syndromes, and rows Z of R^theta for a vector's class modulo R. K is
    echeloned only if read; a CSS side's is its split's L_X or L_Z.
    """

    def __init__(self, f: np.ndarray, r: Subspace):
        f = fp_array(f, r.p)
        if f.ndim != 2 or f.shape[1] != r.ambient:
            raise ValueError(f"parity check must be a matrix with {r.ambient} columns")
        if np.any(r.basis @ f.T % r.p):
            raise ValueError("redundant subcode must lie inside the kernel of the parity check")
        f.setflags(write=False)
        self.r, self.f, self.p, self.n = r, f, r.p, r.ambient

    @cached_property
    def k(self) -> Subspace:
        """K = ker F."""
        return kernel(self.f, self.p)

    @cached_property
    def d_r(self) -> int:
        """min wt(K \\ R), exact (`_distance` to full length), read on first use."""
        return self._distance().value

    def _distance(self) -> DistanceResult:
        """min wt(K \\ R) by `_coset_distance`: a search over the low weights,
        and the syndrome space of R past them where that is cheaper. K = ker F,
        so F is K's check, dependent rows and all. A CSS side's is the same
        problem as its split's side distance, d_X or d_Z, so `make_css_decoder`
        replaces it by the split's recorded one (`CssSplit._side_distance`)."""
        checks = self.f, self.r.complement().basis
        return _coset_distance(self.k, *checks, _field_letters(self.p))

    @cached_property
    def _leader_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(slots, leaders, classes): the `_coset_leaders` table of F's syndromes
        up to weight (d_R - 1) // 2, its leaders `_closed` with their classes;
        None above `gf.ROW_LIMIT` syndromes."""
        table = _coset_leaders(self.f, _field_letters(self.p), self.p, (self.d_r - 1) // 2)
        return None if table is None else (table[0], *self._closed(table[1]))

    @cached_property
    def _class_rows(self) -> np.ndarray:
        """Z: rows of R^theta independent modulo K^theta, one per dimension of K / R.

        R^theta = K^theta + span Z, so a v in K lies in R iff v . Z = 0, and two
        vectors with one syndrome differ by an element of R iff their classes
        v . Z agree. K^theta is F's row space: a CSS side's S_Z or S_X.
        """
        return self.r.complement().quotient_reps(self.k.complement())

    @cached_property
    def _trial_check(self) -> np.ndarray:
        """[F; Z]: its column j gives a hit on site j's syndrome, then its class."""
        return np.vstack([self.f, self._class_rows])

    def _closed(self, leaders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The leaders closed by the zero row slot -1 reads, and their classes v . Z."""
        leaders = np.vstack([leaders, np.zeros((1, self.n), dtype=leaders.dtype)])
        return leaders, leaders @ self._class_rows.T % self.p

    @cached_property
    def _in_image(self) -> np.ndarray:
        """Left kernel of F from one echelon: the check of the achievable syndromes."""
        return kernel(self.f.T, self.p).basis

    def syndrome(self, v) -> np.ndarray:
        """F v for a vector v, or one syndrome row per row of a matrix v."""
        return (fp_array(v, self.p) @ self.f.T) % self.p

    def _slots(self, syns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(slot, leaders, classes): achievable syndrome i has the coset leader
        leaders[slot[i]], of class classes[slot[i]], if slot[i] >= 0; slot -1
        reads the closing zero row. The leaders are the table's, or, where there
        is none, one enumeration's for these syndromes: only here do they differ."""
        table = self._leader_table
        if table is not None:
            slots, leaders, classes = table
            return slots[_grid_index(syns, self.p)], leaders, classes
        # One slot per distinct syndrome, all filled by one enumeration;
        # rows are matched by value, so no base-p index can overflow.
        wanted, inverse = np.unique(syns, axis=0, return_inverse=True)

        def slot_of(batch_syns):
            keys, key = np.unique(np.vstack([wanted, batch_syns]), axis=0, return_inverse=True)
            slot_of_key = np.full(len(keys), -1, dtype=np.int64)
            slot_of_key[key[: len(wanted)]] = np.arange(len(wanted))
            return slot_of_key[key[len(wanted) :]]

        letters, top = _field_letters(self.p), (self.d_r - 1) // 2
        slots, leaders = _enumerated_leaders(self.f, letters, self.p, top, slot_of, len(wanted))
        return slots[inverse], *self._closed(leaders)

    def _leaders(self, syns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, found): row i is syndrome i's coset leader if found[i], else zero."""
        if np.any(syns @ self._in_image.T % self.p):
            raise InconsistentSyndrome("syndrome not in the image of the parity check")
        slot, leaders, _ = self._slots(syns)
        return leaders[slot].astype(np.int64), slot >= 0

    def _lookup(self, out: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """(codes, (slot, leaders)) for vectors v given as rows [F; Z] v in [0, p), as
        `_slots` gives them for their syndromes, achievable by construction; codes[i]
        indexes DecodeStatus: 0 if vector i minus its leader is in R, 1 if not, 2 if none."""
        m = self.f.shape[0]
        slot, leaders, classes = self._slots(out[:, :m])
        codes = np.where(slot >= 0, np.any(out[:, m:] != classes[slot], axis=1), 2)
        return codes, (slot, leaders)

    def decode_coset(self, syn) -> np.ndarray | None:
        """Minimum-weight vector v with F v = syn and wt(v) < d_R/2, else None.
        Raises InconsistentSyndrome if the syndrome is not achievable."""
        syn = fp_array(syn, self.p)
        if syn.shape != (self.f.shape[0],):
            raise ValueError("syndrome has the wrong length")
        rows, found = self._leaders(syn[None])
        return rows[0] if found[0] else None


def make_css_decoder(split: CssSplit) -> _DecoderPair:
    """The X-side and Z-side classical codes of a subsystem CSS code, as a
    `_DecoderPair` (a tuple).

    X side: parity check the basis matrix of the Z-type stabilizer space
    S_Z = H_Z cap H_X^theta, redundant subcode H_X. Its code is
    ker S_Z = H_Z^theta + H_X = L_X, as S_Z = L_X^theta: the split's
    `logical_x`, handed over with no echelon. Z side is the X<->Z mirror.
    """
    x_side = ClassicalCode(split.stab_z.basis, split.h_x)
    z_side = ClassicalCode(split.stab_x.basis, split.h_z)
    x_side.k, z_side.k = split.logical_x, split.logical_z
    # d_R of a side is d_X or d_Z: searched once, by whichever asks first.
    x_side._distance = partial(split._side_distance, "x")
    z_side._distance = partial(split._side_distance, "z")
    return _DecoderPair((x_side, z_side))


@dataclass(frozen=True)
class Syndrome:
    x_syn: np.ndarray
    z_syn: np.ndarray


def _check_error(split: CssSplit, e: PauliVector) -> None:
    """Reject an error whose modulus or length is not the split's."""
    for name, got, want in (("modulus", e.p, split.p), ("length", e.n, split.n)):
        if got != want:
            raise ValueError(f"error {name} {got} differs from the code's {want}")


def syndrome_of(split: CssSplit, e: PauliVector) -> Syndrome:
    """Inner products of the error against the fixed stabilizer bases."""
    _check_error(split, e)
    x_side, z_side = _decoder_pair(split)
    return Syndrome(x_syn=x_side.syndrome(e.x), z_syn=z_side.syndrome(e.z))


class _DecoderPair(tuple):
    """A split's (X side, Z side) decoders and what its errors read of both."""

    @cached_property
    def letter_table(self) -> np.ndarray:
        """The sweeps' `_letter_syndromes` of diag([F; Z]_X, [F; Z]_Z), built on first use."""
        (x, z), n, p = (side._trial_check for side in self), self[0].n, self[0].p
        check = np.zeros((len(x) + len(z), 2 * n), dtype=np.int64)
        check[: len(x), :n], check[len(x) :, n:] = x, z
        return _letter_syndromes(check, _site_values(p), p)


def _decoder_pair(split: CssSplit) -> _DecoderPair:
    """The decoders of a split, built once per split, which holds them
    (`code._held`): they go with it."""
    return _held(split, "_decoder_pair", make_css_decoder)


class DecodeStatus(enum.Enum):
    CORRECTED = "corrected-up-to-gauge"
    LOGICAL_FAILURE = "logical-failure"
    OUT_OF_RANGE = "out-of-range"


@dataclass(frozen=True)
class DecodeOutcome:
    status: DecodeStatus
    correction: PauliVector
    residual: PauliVector


def _hit_products(split: CssSplit, rows, sites, x, z) -> tuple[np.ndarray, np.ndarray]:
    """(hit rows, their `_trials` rows) of errors given by hits: letter (x[i], z[i])
    on site sites[i] of row rows[i], rows sorted. A row's products sum x C_X[site] and
    z C_Z[site] over its hits, C_X[j] column j of [F; Z]_X, by one `reduceat`: a term
    is below (p - 1)^2 < 2^32 and a row has at most n < 2^31, so no int64 sum wraps."""
    c_x, c_z = (side._trial_check for side in _decoder_pair(split))
    # One term per hit and check row: numpy's loops then run along the hits.
    terms = np.empty((len(c_x) + len(c_z), len(rows)), dtype=np.int64)
    np.multiply(c_x.take(sites, axis=1), x, out=terms[: len(c_x)])
    np.multiply(c_z.take(sites, axis=1), z, out=terms[len(c_x) :])
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    out = np.add.reduceat(terms, starts, axis=1)
    # out mod p for out >= 0: numpy divides by a scalar faster than it takes %.
    out -= out // split.p * split.p
    return rows[starts], out.T


def _trials(split: CssSplit, out: np.ndarray) -> tuple[np.ndarray, tuple, tuple]:
    """Decode together the errors whose [F; Z] products are the rows of out: (status
    codes, the X side's (slot, leaders), the Z side's), one `_lookup` per side. A
    status code indexes DecodeStatus in declaration order, the worse side's: a side
    whose syndrome has no leader corrects nothing (slot -1, the zero row), and the
    error is out of range; else it fails if a side's residual leaves its gauge code."""
    x_side, z_side = _decoder_pair(split)
    m = len(x_side._trial_check)
    (codes_x, x), (codes_z, z) = x_side._lookup(out[:, :m]), z_side._lookup(out[:, m:])
    return np.maximum(codes_x, codes_z), x, z


def _recover(split: CssSplit, ex: np.ndarray, ez: np.ndarray) -> tuple[np.ndarray, ...]:
    """Recover the errors (ex[i], ez[i]) together: (status codes, cx, cz). Only the
    errors with a hit, a nonzero site, are looked up, each corrected by the leader in
    the slot `_trials` read, zero where there is none; the rest are corrected by zero."""
    rows, sites = divmod(np.flatnonzero((ex != 0) | (ez != 0)), ex.shape[1])
    rows, out = _hit_products(split, rows, sites, ex[rows, sites], ez[rows, sites])
    codes, cx, cz = np.zeros(len(ex), dtype=np.int64), np.zeros_like(ex), np.zeros_like(ez)
    codes[rows], (sx, lx), (sz, lz) = _trials(split, out)
    cx[rows], cz[rows] = lx[sx], lz[sz]
    return codes, cx, cz


def steane_recover(split: CssSplit, e: PauliVector) -> DecodeOutcome:
    """Full recovery cycle: syndromes, independent X/Z decoding, and each
    residual's logical class against its correction's. Guaranteed
    corrected-up-to-gauge whenever each error component has a coset
    representative of weight below half the respective distance; in
    particular whenever swt(e) < d/2."""
    _check_error(split, e)
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

    def __init__(self, h: Subspace, syn_matrix: np.ndarray):
        p, n = h.p, h.ambient
        self.sigma0 = tuple(np.delete(np.arange(n), pivot_columns(h.basis)).tolist())
        self.h, self.p, self.n, self.f = h, p, n, syn_matrix
        self.par_matrix = syn_matrix[:, self.sigma0]
        # The quotient code ker(par_matrix), decoded up to its zero subcode.
        self._quotient = ClassicalCode(self.par_matrix, Subspace.zero(p, len(self.sigma0)))
        self.kernel = self._quotient.k
        self.d_par = self._quotient.d_r

    def coset_weight(self, a) -> int:
        """Weight of a + H in the standard-basis quotient."""
        return int(np.count_nonzero(self.h.reduce(a)))

    def decode(self, syn) -> np.ndarray | None:
        """Coset representative of a + H (supported on sigma0) from the syndrome:
        the quotient vector of least weight, then lexicographically least, with
        this syndrome, if its weight is below d_par / 2; else None. Raises
        InconsistentSyndrome on unachievable input."""
        u = self._quotient.decode_coset(syn)
        if u is None:
            return None
        out = np.zeros(self.n, dtype=np.int64)
        out[list(self.sigma0)] = u
        return out


def respects_weight(h: Subspace) -> bool:
    """Whether h is spanned by its weight-at-most-2 members: iff no column of its
    canonical check, the RREF basis of h^theta, has two nonzero entries (the
    README's recovery notes prove it). No vector is listed."""
    return bool(np.all(np.count_nonzero(h.complement().basis, axis=0) <= 1))


def par_decoder_build(split: CssSplit, side: str = "X") -> ParDecoder:
    """Build the quotient decoder for one side of a CSS split. Raises
    NotWeightRespecting when the gauge code on that side has no weight-<=2 basis."""
    if side not in ("X", "Z"):
        raise ValueError("side must be 'X' or 'Z'")
    h, checks = (split.h_x, split.stab_z) if side == "X" else (split.h_z, split.stab_x)
    if not respects_weight(h):
        raise NotWeightRespecting(f"H_{side} has no weight-<=2 basis")
    return ParDecoder(h, checks.basis)


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
        return (self.counts.logical_failures + self.counts.out_of_range) / self.counts.trials


def _tally(split: CssSplit, chunks, trials: int) -> TrialCounts:
    """Count the statuses of `trials` errors, decoding those whose `_trials` rows
    come in chunks; no correction row is built. The rest are hitless: syndrome 0,
    whose leader is the zero row of class 0, so corrected with no lookup."""
    for side in _decoder_pair(split):
        side.d_r  # raises NoLogicalOperators, as any lookup would, if nothing is to decode
    counts = np.zeros(len(DecodeStatus), dtype=np.int64)
    for out in chunks:
        if len(out):
            counts += np.bincount(_trials(split, out)[0], minlength=len(DecodeStatus))
    counts[0] += trials - counts.sum()
    # TrialCounts lists the statuses in DecodeStatus order.
    return TrialCounts(trials, *(int(c) for c in counts))


def monte_carlo(split: CssSplit, q: float, trials: int, seed: int) -> MonteCarloReport:
    """Sample i.i.d. site-wise errors and tally recovery statuses. Each site is
    independently nontrivial with probability q, uniform over the p^2 - 1 nontrivial
    single-site values; one uniform draw per site decides both (`_sampled_errors`),
    so a seed fixes the counts. Only trials with a hit are summed and looked up;
    Infeasible, before any draw, above `gf.STREAM_LIMIT` site draws."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"error probability q must be in [0, 1], got {q}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > np.iinfo(np.int64).max:
        raise ValueError(f"trials must be <= 2**63 - 1 (int64 counts), got {trials}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    fits = f"trials {STREAM_LIMIT // split.n:,}" if split.n else ""
    _gate(f"site draws of {trials:,} trials on {split.n} sites", trials * split.n, STREAM_LIMIT, fits)
    chunks = (_hit_products(split, *hits)[1] for hits in _sampled_errors(split, q, trials, seed))
    return MonteCarloReport(q, seed, _tally(split, chunks, trials))


def _sampled_errors(split: CssSplit, q: float, trials: int, seed: int):
    """The hits (rows, sites, x, z) of sampled errors in chunks of <= _BATCH_ROWS
    trials: letter (x[i], z[i]) on site sites[i] of trial rows[i], rows sorted. A
    chunk draws one uniform u per site at once. The site is hit iff u < q; then
    u / q is uniform on [0, 1), so its letter is row t = min(floor(u / q * m), m - 1)
    of the m = p^2 - 1 in `_site_values(p)`, computed, not listed, by `_site_letters`.
    `Generator.random` fills the rows in order: no sample depends on the chunk size."""
    n, p, m = split.n, split.p, split.p**2 - 1
    rng = np.random.default_rng(seed)
    for lo in range(0, trials, _code._BATCH_ROWS):
        u = rng.random((min(_code._BATCH_ROWS, trials - lo), n)).ravel()
        # Letters only at the hit sites, so q = 0 divides nothing.
        hit = np.flatnonzero(u < q)
        (rows, sites), t = divmod(hit, n), np.minimum((u[hit] / q * m).astype(np.int64), m - 1)
        yield rows + lo, sites, *_site_letters(t, p)


def _sweep_errors(split: CssSplit, weights: range) -> int:
    """The Pauli errors of weight in `weights`, C(n, w) (p^2 - 1)^w summed; Infeasible
    above `gf.ROW_LIMIT`, naming the largest top weight that fits."""
    n, errors = split.n, 0
    for w in weights:
        errors += comb(n, w) * (split.p**2 - 1) ** w
        fits = f"weight {w - 1}" if w > weights.start else ""
        _gate(f"errors of weight {weights.start} to {w} on {n} sites", errors, ROW_LIMIT, fits)
    return errors


def exhaustive_sweep(split: CssSplit, weight: int) -> TrialCounts:
    """Recover every Pauli error of symplectic weight exactly `weight`: the zero
    error at weight 0, hitless, so no letter is listed; Infeasible, before anything
    is listed, above `gf.ROW_LIMIT` errors (`_sweep_errors`). An error's [F; Z]
    products sum its letters' rows of the pair's `letter_table`; none is spelled."""
    if weight < 0:
        raise ValueError(f"sweep weight must be >= 0, got {weight}")
    errors = _sweep_errors(split, range(weight, weight + 1))
    layer = _syndrome_batches(_decoder_pair(split).letter_table, weight, split.p) if weight else ()
    return _tally(split, (syns for *_, syns in layer), errors)
