"""Goursat data of a gauge group and the max/min stabilizer taxonomy.

Any subspace H <= F_p^n x F_p^n is pinned down by four subspaces of
F_p^n -- the external pair (E_X, E_Z) and internal pair (N_X, N_Z) --
plus a pairing of coset representatives realizing the isomorphism
between E_X/N_X and E_Z/N_Z. The correspondence is bijective, which the
reconstruction below makes executable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .code import CssSplit, SubsystemCode, _held
from .gf import Subspace, _independent_rows, rank


@dataclass(frozen=True)
class GoursatData:
    """External/internal CSS pairs plus matched coset representatives."""

    e_x: Subspace
    e_z: Subspace
    n_x: Subspace
    n_z: Subspace
    phi_pairs: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if not self.e_x.contains_space(self.n_x):
            raise ValueError("N_X must be a subspace of E_X")
        if not self.e_z.contains_space(self.n_z):
            raise ValueError("N_Z must be a subspace of E_Z")
        q = self.e_x.dim - self.n_x.dim
        if self.e_z.dim - self.n_z.dim != q or len(self.phi_pairs) != q:
            raise ValueError("phi pair count must match both quotient dimensions")
        if len(_independent_rows(self.n_x, [a for a, _ in self.phi_pairs])) != q:
            raise ValueError("X representatives are dependent modulo N_X")
        if len(_independent_rows(self.n_z, [b for _, b in self.phi_pairs])) != q:
            raise ValueError("Z representatives are dependent modulo N_Z")

    @property
    def p(self) -> int:
        return self.e_x.p

    @property
    def n(self) -> int:
        return self.e_x.ambient

    def pair_count(self) -> int:
        return len(self.phi_pairs)


def goursat_of(code: SubsystemCode) -> GoursatData:
    """Goursat data of the gauge group, from the code's cached spaces.

    E_X, E_Z, N_X and N_Z are read off H's canonical basis and, unless the
    code is CSS, its (z, x) echelon (see `SubsystemCode._goursat`); pairs are
    picked by a greedy scan of the canonical generators in order, so the
    result is deterministic. The pairs are rows of H's canonical basis, which
    is read-only, and so are they.

    Built and validated once per code, which holds it (`code._held`).
    """
    return _held(code, "_goursat_data", _goursat_data)


def _goursat_data(code: SubsystemCode) -> GoursatData:
    n = code.n
    x, z = code.gauge.basis[:, :n], code.gauge.basis[:, n:]
    e_x, e_z, split = code._goursat
    pairs = tuple((x[j], z[j]) for j in _independent_rows(split.h_x, x))
    return GoursatData(e_x=e_x, e_z=e_z, n_x=split.h_x, n_z=split.h_z, phi_pairs=pairs)


def reconstruct_from(data: GoursatData) -> SubsystemCode:
    """Rebuild the gauge group: span of the paired generators plus N_X x 0 and 0 x N_Z."""
    p, n = data.p, data.n
    pairs = np.array(data.phi_pairs, dtype=np.int64).reshape(-1, 2 * n)
    internal = SubsystemCode.from_css_split(CssSplit(data.n_x, data.n_z)).gauge.basis
    return SubsystemCode(p, n, Subspace.span(np.vstack([pairs, internal]), p, 2 * n))


@dataclass(frozen=True)
class DataCheckReport:
    passed: bool
    details: dict = field(default_factory=dict)


def check_complement_data(code: SubsystemCode) -> DataCheckReport:
    """Verify the Goursat data of H^w against the theta-complement formulas.

    Externals of H^w must be (N_Z^theta, N_X^theta) and internals
    (E_Z^theta, E_X^theta); a failure indicates an implementation bug.
    Reads the four spaces of each code from `SubsystemCode._goursat`.
    """
    e_x, e_z, internal = code._goursat
    comp_e_x, comp_e_z, comp_internal = SubsystemCode(code.p, code.n, code._omega_comp)._goursat
    checks = {
        "external_x": comp_e_x == internal.h_z.complement(),
        "external_z": comp_e_z == internal.h_x.complement(),
        "internal_x": comp_internal.h_x == e_z.complement(),
        "internal_z": comp_internal.h_z == e_x.complement(),
    }
    return DataCheckReport(passed=all(checks.values()), details=checks)


def check_intersection_data(c1: SubsystemCode, c2: SubsystemCode) -> DataCheckReport:
    """Verify the Goursat data of the intersection of two gauge groups.

    Internals must equal pairwise intersections of the originals'
    internals; externals must sit between those intersections and the
    pairwise intersections of the originals' externals. Reads the four
    spaces of each code from `SubsystemCode._goursat`.
    """
    if c1.p != c2.p or c1.n != c2.n:
        raise ValueError("codes have mismatched modulus or qudit count")
    (e_x1, e_z1, s1), (e_x2, e_z2, s2) = c1._goursat, c2._goursat
    e_xi, e_zi, si = SubsystemCode(c1.p, c1.n, c1.gauge.intersect(c2.gauge))._goursat
    n_x_cap = s1.h_x.intersect(s2.h_x)
    n_z_cap = s1.h_z.intersect(s2.h_z)
    e_x_cap = e_x1.intersect(e_x2)
    e_z_cap = e_z1.intersect(e_z2)
    checks = {
        "internal_x": si.h_x == n_x_cap,
        "internal_z": si.h_z == n_z_cap,
        "sandwich_x": e_xi.contains_space(n_x_cap) and e_x_cap.contains_space(e_xi),
        "sandwich_z": e_zi.contains_space(n_z_cap) and e_z_cap.contains_space(e_zi),
    }
    return DataCheckReport(
        passed=all(checks.values()),
        details={
            **checks,
            "dims": {
                "T": e_xi.dim,
                "W": e_zi.dim,
                "N_cap": (n_x_cap.dim, n_z_cap.dim),
                "E_cap": (e_x_cap.dim, e_z_cap.dim),
            },
        },
    )


@dataclass(frozen=True)
class StabilizerClass:
    minimal: bool
    maximal: bool

    def region(self) -> str:
        """Human label for the taxonomy region."""
        if self.minimal and self.maximal:
            return "CSS (maximal and minimal stabilizer)"
        if self.maximal:
            return "maximal stabilizer, not minimal"
        if self.minimal:
            return "minimal stabilizer, not maximal"
        return "neither maximal nor minimal stabilizer"


def classify_stabilizer(code: SubsystemCode) -> StabilizerClass:
    """Decide the maximal/minimal stabilizer properties of a code.

    Minimal iff H + H^w is a direct product, i.e. is itself a CSS gauge
    group. H + H^w = (H cap H^w)^w and (A x B)^w = B^theta x A^theta, so
    that holds iff the stabilizer is CSS, which the stabilizer's Goursat
    spaces, read for the maximal test anyway, decide. Maximal iff the
    external code of the stabilizer's Goursat data attains
    (E_X cap N_Z^theta) x (E_Z cap N_X^theta). It always lies inside, so it
    attains it iff the dimensions agree: dim (E_X cap N_Z^theta) is dim E_X
    less the rank of the products of E_X's basis with N_Z's, and Z mirrors X.

    Decided once per code, which holds the result (`code._held`).
    """
    return _held(code, "_stabilizer_class", _stabilizer_class)


def _stabilizer_class(code: SubsystemCode) -> StabilizerClass:
    e_x, e_z, internal = code._goursat
    stab = SubsystemCode(code.p, code.n, code.stabilizer)
    stab_e_x, stab_e_z, _ = stab._goursat
    maximal = (
        stab_e_x.dim == e_x.dim - rank(e_x.basis @ internal.h_z.basis.T, code.p)
        and stab_e_z.dim == e_z.dim - rank(e_z.basis @ internal.h_x.basis.T, code.p)
    )
    return StabilizerClass(minimal=stab.is_css(), maximal=maximal)
