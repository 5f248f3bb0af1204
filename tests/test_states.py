"""Symbolic coset-state codewords and their stabilizer action."""

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

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

from subcss import states as states_module
from subcss.states import _dense_fixing_table, _fixing_table, _label_bases, _label_grid

from conftest import css_splits, numpy_without, reference_dense_vector, subspaces

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


@st.composite
def _phased_codewords(draw):
    """A codeword of a drawn CSS split (n = 0 included), given a drawn phase
    functional and global phase."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    n = draw(st.integers(0, 4))
    split = CssSplit(draw(subspaces(p, n)), draw(subspaces(p, n)))
    words = all_codewords(split)
    _, _, word = words[draw(st.integers(0, len(words) - 1))]
    phase = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return CosetState(word.offset, word.support, phase, draw(st.integers(0, p - 1)))


@settings(max_examples=150, deadline=None)
@given(_phased_codewords())
def test_dense_vector_is_the_per_element_loop(state):
    assert np.array_equal(dense_vector(state), reference_dense_vector(state))


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


@pytest.mark.parametrize("offset, phase", [
    (np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64)),
    (np.zeros(4, dtype=np.int64), np.zeros(3, dtype=np.int64)),
    (np.zeros((1, 4), dtype=np.int64), np.zeros((1, 4), dtype=np.int64)),
])
def test_coset_state_shapes_must_match_the_register(offset, phase):
    with pytest.raises(ValueError, match="^offset and phase must match the ambient dimension$"):
        CosetState(offset=offset, support=Subspace.zero(2, 4), phase=phase)


def test_dense_fixing_table_is_gated_before_it_allocates(monkeypatch):
    # 3^13 > gf.ROW_LIMIT basis states: refused before any array is built.
    monkeypatch.setattr(states_module, "np", numpy_without("eye", "full", "empty"))
    rows = np.zeros((0, 13), dtype=np.int64)
    with pytest.raises(ValueError, match=r"^infeasible: dense amplitudes of dimension 3\^13 \(1,594,323\) exceed"):
        _dense_fixing_table(Subspace.zero(3, 13), np.zeros((1, 13), dtype=np.int64), rows, rows)


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


def _reference_codewords(split):
    """[codeword(split, l, g)] over the label grid, l-major, coefficients in
    `itertools.product` order on each side's canonical quotient basis."""
    p, n = split.p, split.n

    def grid(reps):
        zero = np.zeros(n, dtype=np.int64)
        return [sum((c * r for c, r in zip(cs, reps)), zero) % p
                for cs in product(range(p), repeat=len(reps))]

    ls = grid(split.logical_x.quotient_reps(split.h_x))
    gs = grid(split.h_x.quotient_reps(split.stab_x))
    return [(l, g, codeword(split, l, g)) for l in ls for g in gs]


def _assert_same_words(words, reference):
    assert len(words) == len(reference)
    for (l, g, state), (l0, g0, state0) in zip(words, reference):
        assert np.array_equal(l, l0) and np.array_equal(g, g0)
        assert state.support == state0.support
        assert np.array_equal(state.offset, state0.offset)
        assert np.array_equal(state.phase, state0.phase)
        assert state.global_phase == state0.global_phase


def test_all_codewords_is_codeword_over_the_label_grid():
    _assert_same_words(all_codewords(BS3), _reference_codewords(BS3))


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=4))
def test_all_codewords_is_codeword_over_random_label_grids(split):
    _assert_same_words(all_codewords(split), _reference_codewords(split))


def test_label_grid_guards_the_whole_grid(monkeypatch):
    # k = 6 and r = 5 in F_2^12: each side's grid fits 2^8 rows, the 2^11
    # pairs do not, and neither the grid nor all_codewords builds them.
    eye = np.eye(12, dtype=np.int64)
    split = CssSplit(Subspace.span(eye[:6], 2, 12), Subspace.span(eye[:5], 2, 12))
    monkeypatch.setattr(states_module, "_CODEWORD_LIMIT", 1 << 8)
    for build in (_label_grid, all_codewords):
        with pytest.raises(ValueError, match=r"2\^11 codeword labels"):
            build(split)


def test_all_codewords_on_the_empty_register():
    # n = 0: one codeword, the empty offset on the zero support.
    split = CssSplit(Subspace.zero(3, 0), Subspace.zero(3, 0))
    [(l, g, state)] = all_codewords(split)
    assert l.shape == g.shape == state.offset.shape == (0,)
    assert state.support.dim == 0


def _element(draw, space):
    """A drawn element of a subspace: a coefficient tuple times its basis."""
    p = space.p
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=space.dim, max_size=space.dim))
    return np.array(coeffs, dtype=np.int64) @ space.basis % p


@st.composite
def _small_css_splits(draw):
    """A CssSplit with p in (2, 3, 5) and n <= 4, n = 0 included."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(0, 4))
    return CssSplit(draw(subspaces(p, n)), draw(subspaces(p, n)))


@st.composite
def _codewords_and_rows(draw):
    """A drawn CSS split, some of its `_label_grid` offsets (distinct rows, in
    drawn order), and X rows and Z rows.

    Each row lies in S = S_X, in S^theta, or is arbitrary, so the fixing
    tables hold both verdicts.
    """
    split = draw(_small_css_splits())
    p, n = split.p, split.n
    _, _, grid = _label_grid(split)
    picks = draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=6, unique=True))
    spaces = (split.stab_x, split.stab_x.complement(), Subspace.full(p, n))

    def rows():
        count = draw(st.integers(0, 3))
        drawn = [_element(draw, draw(st.sampled_from(spaces))) for _ in range(count)]
        return np.array(drawn, dtype=np.int64).reshape(count, n)

    return split, grid[picks], rows(), rows()


def _tables(split, offsets, x_rows, z_rows):
    """Both fixing tables of the codewords (offsets[i], S_X) of a split."""
    return (_fixing_table(split.stab_x, offsets, x_rows, z_rows),
            _dense_fixing_table(split.stab_x, offsets, x_rows, z_rows))


def _words_and_ops(split, offsets, x_rows, z_rows):
    """The codewords as coset states, and the rows as X^a and Z^b, in table order."""
    p, zeros = split.p, np.zeros(split.n, dtype=np.int64)
    words = [CosetState(offset, split.stab_x, zeros) for offset in offsets]
    ops = [PauliVector(p, a, zeros) for a in x_rows] + [PauliVector(p, zeros, b) for b in z_rows]
    return words, ops


@settings(max_examples=200, deadline=None)
@given(_codewords_and_rows())
def test_batched_fixing_table_is_is_fixed_by(case):
    fixed, dense = _tables(*case)
    words, ops = _words_and_ops(*case)
    expected = [[is_fixed_by(word, op) for op in ops] for word in words]
    assert fixed.tolist() == dense.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(_codewords_and_rows())
def test_exact_dense_table_matches_complex_amplitudes(case):
    _, dense = _tables(*case)
    words, ops = _words_and_ops(*case)
    for word, row in zip(words, dense):
        vec = dense_vector(word)
        for op, verdict in zip(ops, row):
            assert verdict == np.allclose(dense_vector(apply_pauli(word, op)), vec)
            assert verdict == np.allclose(_dense_apply(op, vec, word.p), vec)


def test_fixing_tables_hold_false_cells():
    # An X shift off the support, a Z logical that pairs with the offset, and
    # a Z phase outside S^theta each leave the codeword unfixed.
    l = np.zeros(9, dtype=np.int64)
    l[[0, 3, 6]] = 1
    e0 = np.eye(9, dtype=np.int64)[:1]
    offsets = codeword(BS3, l, np.zeros(9, dtype=np.int64)).offset[None]
    x_rows = np.vstack([BS3.stab_x.basis, e0])
    z_rows = np.vstack([BS3.stab_z.basis, np.repeat([1, 0], [3, 6]), e0[0]])
    fixed, dense = _tables(BS3, offsets, x_rows, z_rows)
    stab_x, stab_z = len(BS3.stab_x.basis), len(BS3.stab_z.basis)
    expected = [True] * stab_x + [False] + [True] * stab_z + [False, False]
    assert fixed.tolist() == dense.tolist() == [expected]


def test_z_part_compensates_a_phase_functional_off_s_theta():
    # On o + S = {(t, 1)}, phi = (1, 0) gives amplitude omega^t. X^(1,0) adds
    # phi . a = 1 to it, and Z^(0,1) takes b . x = 1 off again: fixed, though
    # phi is not in S^theta. Z^(0,1) alone is not.
    support = Subspace.span([[1, 0]], 3, 2)
    state = CosetState(offset=[0, 1], support=support, phase=[1, 0])
    ops = [PauliVector(3, [1, 0], [0, 1]), PauliVector(3, [1, 0], [0, 2]),
           PauliVector(3, [0, 0], [0, 1])]
    assert [is_fixed_by(state, op) for op in ops] == [True, False, False]


def test_one_owner_array_tells_codewords_apart():
    # X moves codeword 0's basis state |1> onto |0>, which codeword 1 holds:
    # the owner array names codeword 1 there, so X fixes neither.
    split = CssSplit(Subspace.zero(2, 1), Subspace.full(2, 1))
    offsets = np.array([[1], [0]])
    _, dense = _tables(split, offsets, np.array([[1]]), np.zeros((0, 1), dtype=np.int64))
    assert dense.tolist() == [[False], [False]]


@settings(max_examples=40, deadline=None)
@given(_codewords_and_rows(), st.integers(1, 8))
def test_dense_table_in_codeword_chunks(case, batch_rows):
    # Chunks of batch_rows // |S| codewords, at least one, give the same table.
    _, whole = _tables(*case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states_module, "_BATCH_ROWS", batch_rows)
        _, chunked = _tables(*case)
    assert np.array_equal(chunked, whole)


@settings(max_examples=40, deadline=None)
@given(_small_css_splits())
def test_label_bases_are_built_once_per_split(split):
    # Two quotient echelons per split, L_X / H_X and H_X / S_X, however often
    # its grid is read; the held bases are read-only, and the grids equal a
    # fresh split's.
    calls = []
    quotient_reps = Subspace.quotient_reps

    def counting(self, small):
        calls.append(small)
        return quotient_reps(self, small)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Subspace, "quotient_reps", counting)
        grids = [_label_grid(split) for _ in range(3)]
        all_codewords(split)
        held = _label_bases(split)
    assert len(calls) == 2
    assert split.__dict__["_label_bases"] is held
    assert all(basis.dtype == np.int64 and not basis.flags.writeable for basis in held)
    with pytest.raises(ValueError):
        held[0][...] = 0
    fresh = _label_grid(CssSplit(split.h_x, split.h_z))
    for grid in grids:
        assert all(np.array_equal(got, want) for got, want in zip(grid, fresh))


@settings(max_examples=100, deadline=None)
@given(_small_css_splits())
def test_label_grid_offsets_lie_in_distinct_cosets(split):
    # The dense table's owner array needs disjoint codeword supports.
    _, _, offsets = _label_grid(split)
    assert len(np.unique(split.stab_x.reduce(offsets), axis=0)) == len(offsets)


_DENSE_REPRO = """\
import resource, sys
from subcss.cli import main
rc = main(["codewords", sys.argv[1], "--dense"])
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def test_dense_codewords_hold_one_chunk_of_shifts(tmp_path):
    # p = 2, n = 19: S_X = <e_0..e_16> and S_Z = <e_17>, so 18 stabilizer rows
    # act on |S| = 2^17 support elements. Shifting by all 18 rows at once holds
    # 18 |S| n int64 cells (about 830 MiB peak); one row per chunk holds |S| n.
    n = 19
    eye, zero = np.eye(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    rows = [(e, zero) for e in eye[: n - 2]] + [(zero, eye[n - 2])]
    lines = [f"p=2 n={n} format=symplectic"]
    lines += [" ".join(map(str, x)) + " | " + " ".join(map(str, z)) for x, z in rows]
    path = tmp_path / "repro.code"
    path.write_text("\n".join(lines) + "\n")
    src = Path(__file__).parent.parent / "src"
    run = subprocess.run([sys.executable, "-c", _DENSE_REPRO, str(path)], capture_output=True,
                         text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr[-2000:]
    rc, max_rss_kib = map(int, run.stderr.split())
    row = " ".join("0" * n)
    assert rc == 0
    assert run.stdout == (
        "codewords = 2 (exact)\n"
        "support_size = 131072 (exact)\n"
        f"l = ({row}) g = ({row}) fixed = True dense_agrees = True\n"
        f"l = ({row[:-1]}1) g = ({row}) fixed = True dense_agrees = True\n"
        "all_fixed = True (exact)\n"
    )
    assert max_rss_kib < 400 * 1024
