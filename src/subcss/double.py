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

from .code import CssSplit, SubsystemCode, _block_product
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
    qudits and the source b-blocks on the last n. As psi(H)^theta = H^w,
    the X tower of this split is H's tower, which is why n, k and r double.
    """
    return _block_product(h, psi_subspace(h))


@dataclass(frozen=True)
class DoubledCode:
    source: SubsystemCode
    result: SubsystemCode


def delta(code: SubsystemCode) -> DoubledCode:
    """Double a code into the CSS code of (H, psi(H)); as psi(H)^theta = H^w, the split
    borrows H's tower as its X tower and H^w as psi(H)'s complement, echeloning neither."""
    split = CssSplit(code.gauge, psi_subspace(code.gauge))
    split.__dict__["_x_tower"] = code._tower
    split.h_z.__dict__["_complement"] = code._omega_comp
    return DoubledCode(source=code, result=SubsystemCode.from_css_split(split))
