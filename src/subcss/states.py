"""Symbolic codewords of subsystem CSS codes as coset states.

A coset state is a uniform-magnitude superposition over offset + S for a
subgroup S <= F_p^n, decorated with a linear phase functional phi and a
global phase, both valued in F_p (as powers of exp(2*pi*i/p)). All
comparisons are exact; no floating point enters until dense_vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import gf
from .code import _BATCH_ROWS, CssSplit, _held
from .gf import Subspace, _combinations, _gate, _grid_index, fp_array
from .pauli import PauliVector

# Most codeword labels, p^(k+r), that `_label_grid` lists.
_CODEWORD_LIMIT = 1 << 16


@dataclass(frozen=True)
class CosetState:
    """Amplitude exp(2*pi*i/p * (global_phase + phi . x)) on x in offset + S."""

    offset: np.ndarray
    support: Subspace
    phase: np.ndarray
    global_phase: int = 0

    def __post_init__(self):
        p = self.support.p
        offset = fp_array(self.offset, p)
        phase = fp_array(self.phase, p)
        if offset.shape != (self.support.ambient,) or phase.shape != offset.shape:
            raise ValueError("offset and phase must match the ambient dimension")
        offset.setflags(write=False)
        phase.setflags(write=False)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "global_phase", int(self.global_phase) % p)

    @property
    def p(self) -> int:
        return self.support.p

    @property
    def n(self) -> int:
        return self.support.ambient

    def same_up_to_phase(self, other: "CosetState") -> bool:
        """Equal as rays: same support coset, phases agreeing on the support."""
        if self.support != other.support:
            return False
        if not self.support.contains((self.offset - other.offset) % self.p):
            return False
        return self.support.complement().contains((self.phase - other.phase) % self.p)

    def same_state(self, other: "CosetState") -> bool:
        """Equal as vectors, global phase included."""
        if not self.same_up_to_phase(other):
            return False
        here = (self.global_phase + self.phase @ self.offset) % self.p
        there = (other.global_phase + other.phase @ self.offset) % self.p
        return int(here) == int(there)


def codeword(split: CssSplit, l, g) -> CosetState:
    """The codeword labelled by a logical coset l and a gauge coset g.

    Requires l in H_X + H_Z^theta and g in H_X; the support subgroup is
    the X-type stabilizer space H_X cap H_Z^theta.
    """
    p = split.p
    l = fp_array(l, p)
    g = fp_array(g, p)
    if not split.logical_x.contains(l):
        raise ValueError("logical label must lie in H_X + H_Z^theta")
    if not split.h_x.contains(g):
        raise ValueError("gauge label must lie in H_X")
    return CosetState(
        offset=(l + g) % p,
        support=split.stab_x,
        phase=np.zeros(split.n, dtype=np.int64),
    )


def _label_bases(split: CssSplit) -> tuple[np.ndarray, np.ndarray]:
    """The canonical quotient bases of L_X / H_X and H_X / S_X, k and r rows
    of length n: read-only int64 arrays, built once per split, which holds
    them (`code._held`)."""
    return _held(split, "_label_bases", _quotient_bases)


def _quotient_bases(split: CssSplit) -> tuple[np.ndarray, np.ndarray]:
    bases = split.logical_x.quotient_reps(split.h_x), split.h_x.quotient_reps(split.stab_x)
    for basis in bases:
        basis.setflags(write=False)
    return bases


def _label_grid(split: CssSplit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every codeword label at once: (ls, gs, offsets). ls holds the p^k
    distinct logical labels and gs the p^r distinct gauge labels, one
    `_combinations` grid each over the split's held `_label_bases`; offsets
    holds the p^(k+r) sums (l + g) % p, l-major, so row i * p^r + j is
    ls[i] + gs[j]. Rows have length n (one empty row when n = 0). Raises
    Infeasible above `_CODEWORD_LIMIT` offsets, before building any.
    """
    p, n = split.p, split.n
    dim = split.logical_x.dim - split.stab_x.dim
    _gate(f"{p}^{dim} codeword labels", p**dim, _CODEWORD_LIMIT)
    l_basis, g_basis = _label_bases(split)
    ls, gs = _combinations(l_basis, p), _combinations(g_basis, p)
    return ls, gs, (ls[:, None, :] + gs).reshape(len(ls) * len(gs), n) % p


def all_codewords(split: CssSplit) -> list[tuple[np.ndarray, np.ndarray, CosetState]]:
    """Every (l, g, state) over canonical quotient label bases; p^(k+r) states, l-major."""
    ls, gs, offsets = _label_grid(split)
    phase = np.zeros(split.n, dtype=np.int64)
    return [
        (l, g, CosetState(offset=o, support=split.stab_x, phase=phase))
        for (l, g), o in zip(product(ls, gs), offsets)
    ]


def apply_x(state: CosetState, a) -> CosetState:
    """Shift the support by a; picks up a global phase from the functional."""
    a = fp_array(a, state.p)
    return CosetState(
        offset=(state.offset + a) % state.p,
        support=state.support,
        phase=state.phase,
        global_phase=(state.global_phase - state.phase @ a) % state.p,
    )


def apply_z(state: CosetState, b) -> CosetState:
    """Add b to the phase functional (amplitude at x gains b . x)."""
    b = fp_array(b, state.p)
    return CosetState(
        offset=state.offset,
        support=state.support,
        phase=(state.phase + b) % state.p,
        global_phase=state.global_phase,
    )


def apply_pauli(state: CosetState, op: PauliVector) -> CosetState:
    """Action of X^a Z^b: the Z part acts first, then the X shift."""
    if op.p != state.p or op.n != state.n:
        raise ValueError("operator does not match the state's register")
    return apply_x(apply_z(state, op.z), op.x)


def is_fixed_by(state: CosetState, stab: PauliVector) -> bool:
    """True iff applying the operator returns the identical state, phase 1."""
    return state.same_state(apply_pauli(state, stab))


def _gate_dense(p: int, n: int) -> None:
    """Raise Infeasible above `gf.ROW_LIMIT` dense amplitudes, p^n."""
    _gate(f"dense amplitudes of dimension {p}^{n}", p**n, gf.ROW_LIMIT)


def dense_vector(state: CosetState) -> np.ndarray:
    """Explicit normalized amplitude vector; cross-validation on tiny registers."""
    p, n = state.p, state.n
    _gate_dense(p, n)
    amps = np.zeros(p**n, dtype=np.complex128)
    x = (state.offset + state.support.all_elements()) % p
    exponent = (state.global_phase + x @ state.phase) % p
    norm = 1.0 / np.sqrt(len(x))
    # A real angle: numpy's complex division by p rounds unlike a scalar one.
    amps[_grid_index(x, p)] = norm * np.exp(1j * (2 * np.pi * exponent / p))
    return amps


def _fixing_table(support: Subspace, offsets, x_rows, z_rows) -> np.ndarray:
    """fixed[i, j] = is_fixed_by(codeword i, row j): the codewords are
    (offsets[i], support) with phi = 0 and gamma = 0, and the rows are the X^a
    of `x_rows`, then the Z^b of `z_rows`.

    X^a takes o + S to o + a + S, the same state iff a is in S. Z^b
    multiplies the amplitude at x by omega^(b . x), the same state iff
    b . x = 0 on o + S, i.e. b is in S^theta and b . o = 0 mod p. Each
    membership test runs once per row.
    """
    x_fixes = ~np.any(support.reduce(x_rows), axis=1)
    z_fixes = ~np.any(support.complement().reduce(z_rows), axis=1)
    z_fixes = z_fixes & (offsets @ z_rows.T % support.p == 0)
    return np.hstack([np.broadcast_to(x_fixes, (len(offsets), len(x_rows))), z_fixes])


def _dense_fixing_table(support: Subspace, offsets, x_rows, z_rows) -> np.ndarray:
    """The same table as `_fixing_table`, read off the basis states of the
    codewords (offsets[i], support); offsets and X rows have entries in [0, p).

    The offsets lie in distinct cosets of S, as `_label_grid`'s do, so the
    supports are disjoint and one int32 array over the p^n basis states
    (`_grid_index` order) names the codeword that holds each, -1 for none.
    X^a fixes codeword i iff owner[x + a] = i for every x in o_i + S, and
    Z^b iff b . x = 0 mod p there. The codewords go in chunks of
    max(1, `_BATCH_ROWS` // |S|); each chunk marks its supports over what
    earlier chunks marked, which never equals an index of this chunk, so
    nothing is reset. An X row a moves x only on its support, so a chunk
    shifts max(|S|, `_BATCH_ROWS`) x wt(a) cells per row at most. A sum of
    two residues is reduced by one conditional subtraction of p, not `% p`.
    """
    p, n = support.p, support.ambient
    _gate_dense(p, n)
    elements = support.all_elements()
    place = _grid_index(np.eye(n, dtype=np.int64), p)
    owner = np.full(p**n, -1, dtype=np.int32)
    table = np.empty((len(offsets), len(x_rows) + len(z_rows)), dtype=bool)
    step = max(1, _BATCH_ROWS // len(elements))
    for lo in range(0, len(offsets), step):
        ids = np.arange(lo, min(lo + step, len(offsets)))
        x = offsets[ids, None, :] + elements
        x -= (x >= p) * p
        at = x @ place
        owner[at] = ids[:, None]
        for j, a in enumerate(x_rows):
            # x + a moves x only on a's support s, digit x_s to x_s + a_s, less p
            # where that wraps: where x_s >= p - a_s.
            s = a.nonzero()[0]
            shifted = at + (a[s] - (x[..., s] >= p - a[s]) * p) @ place[s]
            table[ids, j] = np.all(owner[shifted] == ids[:, None], axis=1)
        table[ids, len(x_rows):] = ~np.any(x @ z_rows.T % p, axis=1)
    return table
