"""The doubling map taking any subsystem stabilizer code to a CSS one.

Each source generator X^a Z^b on n qudits yields two generators on 2n
qudits: an X-type one with x-block (a || b) and a Z-type one with
z-block (b || -a). At the subspace level this is H x psi(H): the
subsystem CSS code of the split (H_X, H_Z) = (H, psi(H)), which doubles
n, k, and r and keeps the distance within [d, 2d].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import CssSplit, SubsystemCode
from .gf import Subspace
from .pauli import PauliVector, flatten, psi, psi_subspace, unflatten


def double_generator(g: PauliVector) -> tuple[PauliVector, PauliVector]:
    """The X-type and Z-type images of one source generator."""
    zeros = np.zeros(2 * g.n, dtype=np.int64)
    x_gen = unflatten(np.concatenate([flatten(g), zeros]), g.p)
    z_gen = unflatten(np.concatenate([zeros, flatten(psi(g))]), g.p)
    return x_gen, z_gen


def double_subspace(h: Subspace) -> Subspace:
    """H x psi(H) inside F_p^{4n}, under the a-block/b-block flattening.

    A doubled qudit register carries the source a-blocks on the first n
    qudits and the source b-blocks on the last n.
    """
    return SubsystemCode.from_css_split(CssSplit(h, psi_subspace(h))).gauge


@dataclass(frozen=True)
class DoubledCode:
    source: SubsystemCode
    result: SubsystemCode


def delta(code: SubsystemCode) -> DoubledCode:
    """Double a subsystem stabilizer code into a subsystem CSS code, built from
    its split (H, psi(H)), so the result knows its split without an echelon."""
    result = SubsystemCode.from_css_split(CssSplit(code.gauge, psi_subspace(code.gauge)))
    return DoubledCode(source=code, result=result)
