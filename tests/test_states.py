"""Symbolic coset-state codewords and their stabilizer action."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcss import (
    CosetState,
    CssSplit,
    PauliVector,
    Subspace,
    all_codewords,
    apply_pauli,
    apply_x,
    apply_z,
    bacon_shor,
    codeword,
    dense_vector,
    is_fixed_by,
)

from conftest import css_splits

BS3 = bacon_shor(3).css_split()

# A 4-qubit toy CSS code: H_X = H_Z = <1111>, a [[4,2,0]] subspace code.
TOY = CssSplit(Subspace.span([[1, 1, 1, 1]], 2, 4), Subspace.span([[1, 1, 1, 1]], 2, 4))


def _stabilizer_paulis(split):
    p, n = split.p, split.n
    zeros = np.zeros(n, dtype=np.int64)
    s_x = split.h_x.intersect(split.h_z.complement())
    s_z = split.h_z.intersect(split.h_x.complement())
    gens = [PauliVector(p, row, zeros) for row in s_x.basis]
    gens += [PauliVector(p, zeros, row) for row in s_z.basis]
    return gens


def _dense_apply(op, vec, p):
    """Dense oracle for X^a Z^b acting on an amplitude vector."""
    n = op.n
    out = np.zeros_like(vec)
    radix = p ** np.arange(n - 1, -1, -1)
    for idx in range(len(vec)):
        g = np.array([(idx // r) % p for r in radix], dtype=np.int64)
        phase = np.exp(2j * np.pi * int(op.z @ g % p) / p)
        target = int(((g + op.x) % p) @ radix)
        out[target] += phase * vec[idx]
    return out


def test_zero_label_is_uniform_superposition():
    st = codeword(BS3, np.zeros(9, dtype=np.int64), np.zeros(9, dtype=np.int64))
    assert not np.any(st.offset)
    assert st.support == BS3.h_x.intersect(BS3.h_z.complement())
    assert not np.any(st.phase)
    assert st.global_phase == 0


def test_codeword_label_validation():
    bad = np.zeros(9, dtype=np.int64)
    bad[0] = 1  # e_0 is neither in H_X nor in H_X + H_Z^theta
    with pytest.raises(ValueError):
        codeword(BS3, np.zeros(9, dtype=np.int64), bad)
    with pytest.raises(ValueError):
        codeword(BS3, bad, np.zeros(9, dtype=np.int64))


def test_codeword_count_and_distinctness():
    words = all_codewords(BS3)
    assert len(words) == 2 ** (1 + 4)  # p^(k+r) = 32
    states = [st for _, _, st in words]
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            assert not states[i].same_up_to_phase(states[j])


def test_all_codewords_fixed_by_stabilizer():
    gens = _stabilizer_paulis(BS3)
    for _, _, st in all_codewords(BS3):
        for g in gens:
            assert is_fixed_by(st, g)


def test_apply_x_identity_and_absorption():
    st = codeword(BS3, np.zeros(9, dtype=np.int64), np.zeros(9, dtype=np.int64))
    assert apply_x(st, np.zeros(9, dtype=np.int64)).same_state(st)
    s = st.support.basis[0]
    assert apply_x(st, s).same_state(st)


def test_apply_z_constant_phase():
    # b in S^theta acts as a constant phase on the support.
    st = codeword(BS3, np.zeros(9, dtype=np.int64), np.zeros(9, dtype=np.int64))
    b = st.support.complement().basis[0]
    shifted = apply_z(st, b)
    assert shifted.same_up_to_phase(st)


def test_nontrivial_logical_not_fixed():
    # A bare Z logical pairing nontrivially with the offset is not a fix.
    l = np.zeros(9, dtype=np.int64)
    l[[0, 3, 6]] = 1  # full first grid column: an X logical label
    st = codeword(BS3, l, np.zeros(9, dtype=np.int64))
    b = np.zeros(9, dtype=np.int64)
    b[:3] = 1  # full first row of Z: a Z logical with theta(b, l) = 1
    assert (b @ st.offset) % 2 == 1
    assert not is_fixed_by(st, PauliVector(2, np.zeros(9, dtype=np.int64), b))


def test_dense_vector_point_state():
    st = CosetState(offset=[0], support=Subspace.zero(2, 1), phase=[0])
    assert np.allclose(dense_vector(st), [1.0, 0.0])


def test_dense_vector_bell_like():
    st = CosetState(offset=[0, 0], support=Subspace.span([[1, 1]], 2, 2), phase=[0, 0])
    vec = dense_vector(st)
    assert np.allclose(vec, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_dense_vector_unit_norm():
    for _, _, st in all_codewords(TOY):
        assert np.isclose(np.linalg.norm(dense_vector(st)), 1.0)


def test_dense_vector_size_guard():
    st = codeword(
        bacon_shor(5).css_split(),
        np.zeros(25, dtype=np.int64),
        np.zeros(25, dtype=np.int64),
    )
    with pytest.raises(ValueError):
        dense_vector(st)


def test_symbolic_matches_dense_on_toy_code():
    gens = _stabilizer_paulis(TOY)
    words = all_codewords(TOY)
    assert len(words) == 2**2  # k = 2, r = 0
    for _, _, st in words:
        vec = dense_vector(st)
        for g in gens:
            symbolic = is_fixed_by(st, g)
            dense = np.allclose(_dense_apply(g, vec, 2), vec)
            assert symbolic == dense
            # The symbolic action itself matches the dense oracle.
            assert np.allclose(dense_vector(apply_pauli(st, g)), _dense_apply(g, vec, 2))


def test_apply_pauli_composition(rng):
    st = codeword(TOY, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
    for _ in range(20):
        op = PauliVector(2, rng.integers(0, 2, 4), rng.integers(0, 2, 4))
        vec = dense_vector(st)
        assert np.allclose(dense_vector(apply_pauli(st, op)), _dense_apply(op, vec, 2))


def test_apply_pauli_register_mismatch():
    st = codeword(TOY, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        apply_pauli(st, PauliVector(2, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)))


@st.composite
def _split_word_and_op(draw):
    """A small CSS split, one of its codewords, and an arbitrary Pauli operator."""
    split = draw(css_splits(primes=(2, 3), max_n=4))
    p, n = split.p, split.n
    logicals = split.logical_x.all_elements()
    gauges = split.h_x.all_elements()
    l = logicals[draw(st.integers(0, len(logicals) - 1))]
    g = gauges[draw(st.integers(0, len(gauges) - 1))]
    part = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return split, codeword(split, l, g), PauliVector(p, draw(part), draw(part))


@settings(max_examples=80, deadline=None)
@given(_split_word_and_op())
def test_symbolic_fixing_matches_dense_on_random_splits(case):
    split, word, op = case
    vec = dense_vector(word)
    for g in [op, *_stabilizer_paulis(split)]:
        dense = np.allclose(dense_vector(apply_pauli(word, g)), vec)
        assert is_fixed_by(word, g) == dense
    assert all(is_fixed_by(word, g) for g in _stabilizer_paulis(split))
