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
    A bare subspace has no cached echelon, so psi(H) is echeloned here;
    `delta` reads it off its code's (z, x) echelon instead.
    """
    return _block_product(h, psi_subspace(h))


@dataclass(frozen=True)
class DoubledCode:
    source: SubsystemCode
    result: SubsystemCode


def delta(code: SubsystemCode) -> DoubledCode:
    """Double a code into the CSS code of (H, psi(H)), with psi(H) read off the code's
    (z, x) echelon (`_psi_image`). As psi(H)^theta = H^w, the split borrows H's tower
    as its X tower and H^w as psi(H)'s complement, echeloning neither. A CSS source
    also lends H^theta = H_X^theta x H_Z^theta, from the complements of its split
    that its H^w = H_Z^theta x H_X^theta is built from, with no kernel on 2n columns."""
    split = CssSplit(code.gauge, _psi_image(code))
    split.__dict__["_x_tower"] = code._tower
    split.h_z.__dict__["_complement"] = code._omega_comp
    if code.is_css() and "_complement" not in code.gauge.__dict__:
        source = code.css_split()
        comp = _block_product(source.h_x.complement(), source.h_z.complement())
        comp.__dict__["_complement"] = code.gauge
        code.gauge.__dict__["_complement"] = comp
    return DoubledCode(source=code, result=SubsystemCode.from_css_split(split))


def _psi_image(code: SubsystemCode) -> Subspace:
    """psi(H) from the RREF R of H in (z, x) order, with no echelon. psi maps a
    vector (x, z) of H to (z, -x), so psi(H) is spanned by the rows (z, -x) of
    R; negating the x block of the rows whose z block is nonzero keeps their
    pivots, and the zeros above and below the other rows' pivots, while the
    rows (0, x) keep their own sign: that result is already the RREF."""
    red, n = code._zx_echelon.copy(), code.n
    flip = red[:, :n].any(axis=1)
    red[flip, n:] = -red[flip, n:] % code.p
    return Subspace(code.p, 2 * n, red)
