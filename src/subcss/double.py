"""The doubling map taking any subsystem stabilizer code to a CSS one.

Each source generator X^a Z^b on n qudits yields two generators on 2n
qudits: an X-type one with x-block (a || b) and a Z-type one with
z-block (b || -a). At the subspace level this is H x psi(H), which
doubles n, k, and r and keeps the distance within [d, 2d].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import SubsystemCode
from .gf import Subspace
from .pauli import PauliVector, psi, psi_subspace, unflatten

# Distance of the doubled five-qubit code, frozen from full enumeration of
# its centralizer (the doubling bracket alone only guarantees 3..6).
DOUBLED_FIVE_QUBIT_DISTANCE = 3


def double_generator(g: PauliVector) -> tuple[PauliVector, PauliVector]:
    """The X-type and Z-type images of one source generator."""
    n = g.n
    zeros = np.zeros(2 * n, dtype=np.int64)
    x_gen = PauliVector(g.p, np.concatenate([g.x, g.z]), zeros)
    swapped = psi(g)
    z_gen = PauliVector(g.p, zeros, np.concatenate([swapped.x, swapped.z]))
    return x_gen, z_gen


def double_subspace(h: Subspace) -> Subspace:
    """H x psi(H) inside F_p^{4n}, under the a-block/b-block flattening.

    A doubled qudit register carries the source a-blocks on the first n
    qudits and the source b-blocks on the last n.
    """
    if h.ambient % 2 != 0:
        raise ValueError("ambient dimension must be even")
    p = h.p
    two_n = h.ambient
    rows = []
    swapped = psi_subspace(h)
    for v in h.basis:
        rows.append(np.concatenate([v, np.zeros(two_n, dtype=np.int64)]))
    for v in swapped.basis:
        rows.append(np.concatenate([np.zeros(two_n, dtype=np.int64), v]))
    mat = np.array(rows, dtype=np.int64).reshape(-1, 2 * two_n)
    return Subspace.span(mat, p, 2 * two_n)


@dataclass(frozen=True)
class DoubledCode:
    source: SubsystemCode
    result: SubsystemCode


def delta(code: SubsystemCode) -> DoubledCode:
    """Double a subsystem stabilizer code into a subsystem CSS code."""
    result = SubsystemCode.from_generators(code.p, 2 * code.n, doubled_generators(code))
    return DoubledCode(source=code, result=result)


def doubled_generators(code: SubsystemCode) -> list[PauliVector]:
    """The doubled generator list (two per source basis generator)."""
    gens: list[PauliVector] = []
    for row in code.gauge.basis:
        gens.extend(double_generator(unflatten(row, code.p)))
    return gens
