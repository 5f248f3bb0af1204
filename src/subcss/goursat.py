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

from .code import CssSplit, SubsystemCode
from .gf import Subspace, _independent_rows


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
    """Extract Goursat data from the gauge group's generator matrices.

    Columns of pi_X / pi_Z are the x- and z-parts of the canonical
    generators; pairs are picked by a greedy scan of generator columns
    in input order, so the result is deterministic.
    """
    p, n = code.p, code.n
    x, z = code.gauge.basis[:, :n], code.gauge.basis[:, n:]
    n_x, n_z = code._internal
    pairs = tuple((x[j].copy(), z[j].copy()) for j in _independent_rows(n_x, x))
    return GoursatData(
        e_x=Subspace.span(x, p, n), e_z=Subspace.span(z, p, n), n_x=n_x, n_z=n_z, phi_pairs=pairs
    )


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
    """
    data = goursat_of(code)
    comp_code = SubsystemCode(code.p, code.n, code._omega_comp)
    comp_data = goursat_of(comp_code)
    checks = {
        "external_x": comp_data.e_x == data.n_z.complement(),
        "external_z": comp_data.e_z == data.n_x.complement(),
        "internal_x": comp_data.n_x == data.e_z.complement(),
        "internal_z": comp_data.n_z == data.e_x.complement(),
    }
    return DataCheckReport(passed=all(checks.values()), details=checks)


def check_intersection_data(c1: SubsystemCode, c2: SubsystemCode) -> DataCheckReport:
    """Verify the Goursat data of the intersection of two gauge groups.

    Internals must equal pairwise intersections of the originals'
    internals; externals must sit between those intersections and the
    pairwise intersections of the originals' externals.
    """
    if c1.p != c2.p or c1.n != c2.n:
        raise ValueError("codes have mismatched modulus or qudit count")
    d1, d2 = goursat_of(c1), goursat_of(c2)
    inter = SubsystemCode(c1.p, c1.n, c1.gauge.intersect(c2.gauge))
    di = goursat_of(inter)
    n_x_cap = d1.n_x.intersect(d2.n_x)
    n_z_cap = d1.n_z.intersect(d2.n_z)
    e_x_cap = d1.e_x.intersect(d2.e_x)
    e_z_cap = d1.e_z.intersect(d2.e_z)
    checks = {
        "internal_x": di.n_x == n_x_cap,
        "internal_z": di.n_z == n_z_cap,
        "sandwich_x": di.e_x.contains_space(n_x_cap) and e_x_cap.contains_space(di.e_x),
        "sandwich_z": di.e_z.contains_space(n_z_cap) and e_z_cap.contains_space(di.e_z),
    }
    return DataCheckReport(
        passed=all(checks.values()),
        details={
            **checks,
            "dims": {
                "T": di.e_x.dim,
                "W": di.e_z.dim,
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
    group. Maximal iff the external code of the stabilizer's
    Goursat data attains (E_X cap N_Z^theta) x (E_Z cap N_X^theta).
    """
    data = goursat_of(code)
    minimal = SubsystemCode(code.p, code.n, code.centralizer).is_css()
    stab_code = SubsystemCode(code.p, code.n, code.stabilizer)
    stab_data = goursat_of(stab_code)
    maximal = (
        stab_data.e_x == data.e_x.intersect(data.n_z.complement())
        and stab_data.e_z == data.e_z.intersect(data.n_x.complement())
    )
    return StabilizerClass(minimal=minimal, maximal=maximal)
