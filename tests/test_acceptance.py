"""Acceptance suite: ten golden/property criteria with runtime bounds.

Each test prints a one-line PASS summary (run pytest with -s to see them)
and asserts both the mathematical content and the runtime budget.
"""

import time

import numpy as np
import pytest

from subcss import (
    PauliVector,
    Subspace,
    SubsystemCode,
    all_codewords,
    bacon_shor,
    check_complement_data,
    check_intersection_data,
    classify_stabilizer,
    css_distances,
    delta,
    dense_vector,
    exhaustive_sweep,
    goursat_of,
    is_fixed_by,
    parse_code_file,
    par_decoder_build,
    reconstruct_from,
    steane_recover,
)
from subcss.decode import DecodeStatus
from subcss.double import double_subspace
from subcss.pauli import omega_complement, parse_pauli

from conftest import random_gauge_code, random_subspace
from test_double import DOUBLED_FIVE_QUBIT_DISPLAY
from test_goursat import FIVE_QUBIT_E_X, FIVE_QUBIT_E_Z, _minimal_conditions, _x_span, _z_span
from test_states import TOY, _dense_apply, _stabilizer_paulis

FIVE_QUBIT_FILE = """\
p=2 n=5 format=pauli
ZXXZI
IZXXZ
ZIZXX
XZIZX
"""


def _grid(rows):
    """Flatten a 4x4 matrix display into a length-16 vector."""
    return np.array(rows, dtype=np.int64).reshape(-1)


def test_acceptance_1_five_qubit_golden():
    start = time.perf_counter()
    code, _ = parse_code_file(FIVE_QUBIT_FILE)
    assert code.parameters() == (5, 1, 0)
    d = code.distance()
    assert d.exact and d.value == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: five-qubit [[5,1,0,3]] in {elapsed:.3f}s")


def test_acceptance_2_doubling_golden():
    start = time.perf_counter()
    code, _ = parse_code_file(FIVE_QUBIT_FILE)
    doubled = delta(code).result
    assert doubled.is_css()
    assert doubled.parameters() == (10, 2, 0)
    display = SubsystemCode.from_generators(
        2, 10, [parse_pauli(s, 2) for s in DOUBLED_FIVE_QUBIT_DISPLAY]
    )
    assert doubled == display
    d = doubled.distance()
    assert d.exact and 3 <= d.value <= 6
    assert d.value == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 PASS: doubled five-qubit [[10,2,0,{d.value}]] in {elapsed:.3f}s")


def test_acceptance_3_lattice_identity_suite():
    rng = np.random.default_rng(3)
    failures = 0
    for _ in range(200):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3, 4]))
        h = random_subspace(rng, p, 2 * n)
        k = random_subspace(rng, p, 2 * n)
        ok = (
            double_subspace(h + k) == double_subspace(h) + double_subspace(k)
            and double_subspace(h.intersect(k))
            == double_subspace(h).intersect(double_subspace(k))
            and double_subspace(omega_complement(h)) == omega_complement(double_subspace(h))
            and double_subspace(h).dim == 2 * h.dim
        )
        failures += not ok
    assert failures == 0
    print("ACCEPTANCE 3 PASS: 200/200 subspace pairs satisfy all four doubling identities")


def test_acceptance_4_bacon_shor_golden():
    start = time.perf_counter()
    code = bacon_shor(4)
    assert code.parameters() == (16, 1, 9)
    split = code.css_split()

    row = lambda i: [[1 if r == i else 0 for _ in range(4)] for r in range(4)]
    col = lambda j: [[1 if c == j else 0 for c in range(4)] for _ in range(4)]
    # H_X^theta: spanned by full rows of ones; H_Z^theta: full columns.
    assert split.h_x.complement() == Subspace.span(
        np.array([_grid(row(i)) for i in range(4)]), 2, 16
    )
    assert split.h_z.complement() == Subspace.span(
        np.array([_grid(col(j)) for j in range(4)]), 2, 16
    )
    # H_X + H_Z^theta adds a single column to H_X; mirrored for Z.
    assert split.h_x + split.h_z.complement() == split.h_x + Subspace.span(
        np.array([_grid(col(0))]), 2, 16
    )
    assert split.h_z + split.h_x.complement() == split.h_z + Subspace.span(
        np.array([_grid(row(0))]), 2, 16
    )
    # Stabilizer spaces: adjacent double columns and double rows.
    double_col = lambda j: (_grid(col(j)) + _grid(col(j + 1))) % 2
    double_row = lambda i: (_grid(row(i)) + _grid(row(i + 1))) % 2
    assert split.h_x.intersect(split.h_z.complement()) == Subspace.span(
        np.array([double_col(j) for j in range(3)]), 2, 16
    )
    assert split.h_z.intersect(split.h_x.complement()) == Subspace.span(
        np.array([double_row(i) for i in range(3)]), 2, 16
    )
    # Par_X: the 4-fold repetition check with kernel (1,1,1,1) and distance l.
    dec = par_decoder_build(split, "X")
    assert dec.kernel == Subspace.span(np.array([[1, 1, 1, 1]]), 2, 4)
    assert dec.d_par == 4
    d = code.distance()
    assert d.exact and d.value == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4 PASS: Bacon-Shor l=4 displays, Par_X, and (16,1,9) d=4 in {elapsed:.2f}s")


def test_acceptance_5_goursat_bijection():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, n)
        assert reconstruct_from(goursat_of(code)) == code
    five, _ = parse_code_file(FIVE_QUBIT_FILE)
    data = goursat_of(five)
    assert data.n_x.dim == 0 and data.n_z.dim == 0
    assert data.e_x == _x_span(FIVE_QUBIT_E_X)
    assert data.e_z == _z_span(FIVE_QUBIT_E_Z)
    for xs, zs in zip(FIVE_QUBIT_E_X, FIVE_QUBIT_E_Z):
        paired = np.concatenate([parse_pauli(xs, 2).x, parse_pauli(zs, 2).z])
        assert five.gauge.contains(paired)
    print("ACCEPTANCE 5 PASS: 200/200 Goursat roundtrips; five-qubit data matches the example")


def test_acceptance_6_complement_and_intersection_checks():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, n)
        assert check_complement_data(code).passed
        other = random_gauge_code(rng, p, n)
        assert check_intersection_data(code, other).passed
    print("ACCEPTANCE 6 PASS: complement and intersection Goursat checks on 100 random pairs")


def test_acceptance_7_taxonomy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, n)
        conds = _minimal_conditions(code)
        assert len(set(conds)) == 1, conds
        cls = classify_stabilizer(code)
        assert (cls.minimal and cls.maximal) == code.is_css()
    five, _ = parse_code_file(FIVE_QUBIT_FILE)
    cls = classify_stabilizer(five)
    assert cls.maximal and not cls.minimal
    print("ACCEPTANCE 7 PASS: 200/200 codes consistent; five-qubit is maximal-not-minimal")


def test_acceptance_8_decoder_correctness():
    start = time.perf_counter()
    bs4 = bacon_shor(4).css_split()
    counts = exhaustive_sweep(bs4, 1)
    assert counts.trials == 48 and counts.corrected == 48
    five, _ = parse_code_file(FIVE_QUBIT_FILE)
    dsplit = delta(five).result.css_split()
    counts = exhaustive_sweep(dsplit, 1)
    assert counts.trials == 30 and counts.corrected == 30
    # A bare logical error (full first grid column of X) must be flagged.
    x = np.zeros(16, dtype=np.int64)
    x[[0, 4, 8, 12]] = 1
    out = steane_recover(bs4, PauliVector(2, x, np.zeros(16, dtype=np.int64)))
    assert out.status is DecodeStatus.LOGICAL_FAILURE
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 8 PASS: all sub-d/2 errors corrected, bare logical flagged, {elapsed:.2f}s")


def test_acceptance_9_quotient_weight_inequalities():
    bs4 = bacon_shor(4).css_split()
    dec = par_decoder_build(bs4, "X")
    rng = np.random.default_rng(9)
    vectors, weights = [], []
    for _ in range(10_000):
        a = rng.integers(0, 2, size=16)
        vectors.append(a)
        weights.append(dec.coset_weight(a))
    # The least weight of a + h over all 4096 h in H_X, brute force in blocks
    # of 1000 vectors: rows packed into 16-bit words, a + h as their XOR, and
    # weights read from a popcount table of every word.
    bits = (1 << np.arange(16)).astype(np.uint16)
    elems = bs4.h_x.all_elements().astype(np.uint16) @ bits
    popcount = np.array([bin(w).count("1") for w in range(1 << 16)], dtype=np.uint8)
    packed = np.array(vectors, dtype=np.uint16) @ bits
    min_wt = np.concatenate(
        [popcount[block[:, None] ^ elems].min(axis=1) for block in np.split(packed, 10)]
    )
    assert np.all(min_wt <= np.array(weights))
    # On weight-respecting instances the two distances coincide.
    from subcss.code import _coset_distance, _field_letters

    l_x = bs4.h_x + bs4.h_z.complement()
    checks = l_x.complement().basis, bs4.h_x.complement().basis
    d_hx = _coset_distance(l_x, *checks, _field_letters(2)).value
    assert d_hx == dec.d_par == 4
    print("ACCEPTANCE 9 PASS: 10^4 coset-weight inequalities; d^{H_X} = d^{Par_X} = 4")


def test_acceptance_10_codewords():
    bs3 = bacon_shor(3).css_split()
    words = all_codewords(bs3)
    assert len(words) == 32  # 2^(k+r) = 2^5
    states = [st for _, _, st in words]
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            assert not states[i].same_up_to_phase(states[j])
    gens = _stabilizer_paulis(bs3)
    assert all(is_fixed_by(st, g) for st in states for g in gens)
    # Symbolic results agree with dense amplitudes on the 4-qubit toy code.
    toy_gens = _stabilizer_paulis(TOY)
    for _, _, st in all_codewords(TOY):
        vec = dense_vector(st)
        for g in toy_gens:
            assert is_fixed_by(st, g) == np.allclose(_dense_apply(g, vec, 2), vec)
    print("ACCEPTANCE 10 PASS: 32 distinct fixed codewords; symbolic/dense agreement")
