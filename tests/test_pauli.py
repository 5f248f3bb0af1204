"""Symplectic Pauli representation: parsing, forms, weights, and Psi."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcss import (
    PauliVector,
    Subspace,
    flatten,
    format_pauli,
    omega,
    parse_pauli,
    psi,
    swt,
    unflatten,
)
from subcss.pauli import omega_complement, psi_subspace, weight

from conftest import random_subspace, subspaces


def random_pauli(rng, p, n):
    return PauliVector(p, rng.integers(0, p, size=n), rng.integers(0, p, size=n))


def test_parse_qubit_letters():
    pv = parse_pauli("IXYZ", 2)
    assert np.array_equal(pv.x, [0, 1, 1, 0])
    assert np.array_equal(pv.z, [0, 0, 1, 1])


def test_parse_qutrit_tokens():
    pv = parse_pauli("X1Z2 I X0Z1", 3)
    assert np.array_equal(pv.x, [1, 0, 0])
    assert np.array_equal(pv.z, [2, 0, 1])


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_pauli("", 2)
    with pytest.raises(ValueError):
        parse_pauli("X1Z3", 3)  # exponent out of range
    with pytest.raises(ValueError):
        parse_pauli("Q", 2)
    with pytest.raises(ValueError):
        parse_pauli("X1Z1", 4)  # composite modulus


def test_format_roundtrip(rng):
    for _ in range(30):
        p = int(rng.choice([2, 3, 5]))
        pv = random_pauli(rng, p, 6)
        assert parse_pauli(format_pauli(pv), p) == pv


def test_weights():
    pv = parse_pauli("XYZI", 2)
    assert swt(pv) == 3
    assert weight(pv.x) == 2 and weight(pv.z) == 2
    assert swt(parse_pauli("IIII", 2)) == 0


def test_omega_commutation():
    x = parse_pauli("XI", 2)
    z = parse_pauli("ZI", 2)
    assert omega(x, z) == 1  # anticommute
    assert omega(x, parse_pauli("IZ", 2)) == 0  # disjoint support commutes
    assert omega(x, x) == 0


def test_five_qubit_generators_commute():
    gens = [parse_pauli(s, 2) for s in ("ZXXZI", "IZXXZ", "ZIZXX", "XZIZX")]
    for u in gens:
        for v in gens:
            assert omega(u, v) == 0


def test_omega_is_antisymmetric_bilinear(rng):
    for _ in range(30):
        p = int(rng.choice([2, 3, 5]))
        u, v, w = (random_pauli(rng, p, 4) for _ in range(3))
        assert omega(u, v) == (-omega(v, u)) % p
        assert omega(u + v, w) == (omega(u, w) + omega(v, w)) % p


def test_flatten_roundtrip(rng):
    pv = random_pauli(rng, 3, 5)
    assert unflatten(flatten(pv), 3) == pv
    assert flatten(pv).shape == (10,)


def test_psi_pointwise_identities(rng):
    # theta(Psi u, Psi v) = theta(u, v), omega(Psi u, Psi v) = omega(u, v),
    # theta(Psi u, v) = omega(u, v), omega(u, Psi v) = theta(u, v).
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        u, v = random_pauli(rng, p, 4), random_pauli(rng, p, 4)
        theta = lambda a, b: int((flatten(a) @ flatten(b)) % p)
        assert theta(psi(u), psi(v)) == theta(u, v)
        assert omega(psi(u), psi(v)) == omega(u, v)
        assert theta(psi(u), v) == omega(u, v)
        assert omega(u, psi(v)) == theta(u, v)


def test_psi_has_order_four(rng):
    pv = random_pauli(rng, 5, 3)
    twice = psi(psi(pv))
    assert np.array_equal(twice.x, (-pv.x) % 5)
    assert psi(psi(twice)) == pv
    assert swt(psi(pv)) == swt(pv)


def test_psi_subspace_identities(rng):
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        h = random_subspace(rng, p, 6)  # ambient 2n with n = 3
        assert psi_subspace(h.complement()) == psi_subspace(h).complement()
        assert omega_complement(h) == psi_subspace(h).complement()
        assert psi_subspace(psi_subspace(h)) == h  # negation preserves spans


def test_omega_complement_dimension_and_involution(rng):
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        h = random_subspace(rng, p, 8)
        assert h.dim + omega_complement(h).dim == 8
        assert omega_complement(omega_complement(h)) == h


def test_omega_complement_annihilates(rng):
    h = random_subspace(rng, 3, 6)
    comp = omega_complement(h)
    for u in comp.basis:
        for v in h.basis:
            assert omega(unflatten(u, 3), unflatten(v, 3)) == 0


@st.composite
def even_subspaces(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    return draw(subspaces(p, 2 * draw(st.integers(1, 4))))


@settings(max_examples=80, deadline=None)
@given(even_subspaces())
def test_psi_subspace_matches_per_row_psi(h):
    # The block-swap construction equals the span of the vector-level psi images.
    rows = [flatten(psi(unflatten(row, h.p))) for row in h.basis]
    images = np.array(rows, dtype=np.int64).reshape(-1, h.ambient)
    assert psi_subspace(h) == Subspace.span(images, h.p, h.ambient)


def test_pauli_vector_hash_zero_and_mismatch():
    u = PauliVector(3, [1, 0], [0, 2])
    assert hash(u) == hash(PauliVector(3, [4, 0], [0, 5]))
    assert len({u, u + u - u, u - u}) == 2
    assert (u - u).is_zero() and not u.is_zero()
    for other in (PauliVector(3, [1], [0]), PauliVector(2, [1, 0], [0, 1])):
        with pytest.raises(ValueError, match="^Pauli vectors have mismatched modulus or length$"):
            u + other
        with pytest.raises(ValueError, match="^Pauli vectors have mismatched modulus or length$"):
            u - other
    with pytest.raises(ValueError, match="^flattened Pauli vector must have even length$"):
        unflatten([1, 0, 1], 3)


def test_pauli_vector_validation():
    with pytest.raises(ValueError):
        PauliVector(2, np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        PauliVector(6, np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64))
