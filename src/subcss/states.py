"""Symbolic codewords of subsystem CSS codes as coset states.

A coset state is a uniform-magnitude superposition over offset + S for a
subgroup S <= F_p^n, decorated with a linear phase functional phi and a
global phase, both valued in F_p (as powers of exp(2*pi*i/p)). All
comparisons are exact; no floating point enters until dense_vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import CssSplit
from .gf import Subspace, fp_array
from .pauli import PauliVector

_DENSE_LIMIT = 1 << 20
# Most codeword labels, p^(k+r), that `codewords` lists; each builds a coset state.
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


def all_codewords(split: CssSplit) -> list[tuple[np.ndarray, np.ndarray, CosetState]]:
    """Every (l, g, state) over canonical quotient label bases; p^(k+r) states."""
    p = split.p
    l_reps = split.logical_x.quotient_reps(split.h_x)
    g_reps = split.h_x.quotient_reps(split.stab_x)
    out = []
    for l in _span_points(l_reps, p, split.n):
        for g in _span_points(g_reps, p, split.n):
            out.append((l, g, codeword(split, l, g)))
    return out


def _span_points(reps, p: int, n: int):
    from itertools import product

    if not reps:
        yield np.zeros(n, dtype=np.int64)
        return
    mat = np.array(reps, dtype=np.int64)
    for coeffs in product(range(p), repeat=len(reps)):
        yield (np.array(coeffs, dtype=np.int64) @ mat) % p


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


def dense_vector(state: CosetState) -> np.ndarray:
    """Explicit normalized amplitude vector; cross-validation on tiny registers."""
    p, n = state.p, state.n
    if p**n > _DENSE_LIMIT:
        raise ValueError(f"dense vector of dimension {p}^{n} exceeds the size limit")
    amps = np.zeros(p**n, dtype=np.complex128)
    elements = state.support.all_elements()
    norm = 1.0 / np.sqrt(elements.shape[0])
    powers = np.arange(n - 1, -1, -1)
    radix = p ** powers
    for s in elements:
        x = (state.offset + s) % p
        exponent = int((state.global_phase + state.phase @ x) % p)
        amps[int(x @ radix)] = norm * np.exp(2j * np.pi * exponent / p)
    return amps
