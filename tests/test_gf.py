"""Exact F_p linear algebra: RREF, kernels, and canonical subspaces."""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subcss import CosetState, CssSplit, Infeasible, Subspace, bacon_shor, kernel, rank, rref, solve
from subcss import code as code_module
from subcss import decode as decode_module
from subcss import gf as gf_module
from subcss import states as states_module
from subcss.code import _coset_search, _field_letters, _letter_syndromes, _site_values
from subcss.gf import (
    P_LIMIT,
    ROW_LIMIT,
    _combinations,
    _grid_digits,
    _grid_index,
    _independent_rows,
    is_prime,
    pivot_columns,
    validate_prime,
)

from conftest import (
    numpy_without,
    random_subspace,
    reference_combinations,
    reference_rref,
    subspaces,
)


def test_is_prime():
    assert [q for q in range(14) if is_prime(q)] == [2, 3, 5, 7, 11, 13]


def test_validate_prime_rejects_composites():
    with pytest.raises(ValueError):
        validate_prime(4)
    with pytest.raises(ValueError):
        validate_prime(1)
    assert validate_prime(7) == 7


def test_validate_prime_bounds_the_modulus():
    assert P_LIMIT == 1 << 16
    assert validate_prime(65521) == 65521  # the largest prime below the bound
    with pytest.raises(ValueError, match="below"):
        validate_prime(65537)
    # Rejected before trial division, which would not finish for 31 digits.
    with pytest.raises(ValueError, match="below"):
        validate_prime(10**30 + 57)


def test_rref_f2():
    m = rref([[1, 1], [1, 0]], 2)
    assert np.array_equal(m, np.eye(2, dtype=np.int64))


def test_rref_f3_rank_deficient():
    # Rows (2,1) and (1,2) are dependent mod 3: det = 3 = 0.
    m = rref([[2, 1], [1, 2]], 3)
    assert np.array_equal(m, [[1, 2], [0, 0]])


def test_rref_is_idempotent(rng):
    for _ in range(30):
        p = int(rng.choice([2, 3, 5]))
        mat = rng.integers(0, p, size=(4, 6))
        once = rref(mat, p)
        assert np.array_equal(rref(once, p), once)


def test_rank():
    assert rank([[1, 0, 1], [0, 1, 1], [1, 1, 0]], 2) == 2
    assert rank(np.eye(3, dtype=np.int64), 5) == 3


def test_kernel_annihilates(rng):
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        mat = rng.integers(0, p, size=(3, 5))
        ker = kernel(mat, p)
        assert ker.dim == 5 - rank(mat, p)
        for v in ker.basis:
            assert not np.any((mat @ v) % p)


def test_solve_consistent():
    mat = [[1, 1, 0], [0, 1, 1]]
    rhs = [1, 1]
    v = solve(mat, rhs, 2)
    assert np.array_equal((np.array(mat) @ v) % 2, rhs)


def test_solve_inconsistent():
    assert solve([[1, 1], [1, 1]], [0, 1], 2) is None


def test_span_canonical_equality():
    a = Subspace.span([[1, 1, 0], [0, 1, 1]], 2, 3)
    b = Subspace.span([[1, 0, 1], [0, 1, 1], [1, 1, 0]], 2, 3)
    assert a == b
    assert hash(a) == hash(b)


def test_zero_and_full():
    z = Subspace.zero(3, 4)
    f = Subspace.full(3, 4)
    assert z.dim == 0 and f.dim == 4
    assert f.contains_space(z)
    assert z.complement() == f


def test_contains_and_reduce():
    s = Subspace.span([[1, 1, 0], [0, 0, 1]], 2, 3)
    assert s.contains([1, 1, 1])
    assert not s.contains([1, 0, 0])
    assert not np.any(s.reduce([1, 1, 1]))
    # The residue is supported on non-pivot columns only.
    residue = s.reduce([1, 0, 0])
    assert np.any(residue)
    pivots = {0, 2}
    assert all(residue[c] == 0 for c in pivots)


def test_modular_dimension_law(rng):
    for _ in range(50):
        p = int(rng.choice([2, 3]))
        a = random_subspace(rng, p, 5)
        b = random_subspace(rng, p, 5)
        assert (a + b).dim + a.intersect(b).dim == a.dim + b.dim


def test_complement_dimension_and_involution(rng):
    for _ in range(50):
        p = int(rng.choice([2, 3, 5]))
        a = random_subspace(rng, p, 4)
        assert a.complement().dim == 4 - a.dim
        assert a.complement().complement() == a


def test_intersection_is_largest_common_subspace(rng):
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        a = random_subspace(rng, p, 5)
        b = random_subspace(rng, p, 5)
        cap = a.intersect(b)
        assert a.contains_space(cap) and b.contains_space(cap)
        assert (a + b).contains_space(a)


def test_quotient_reps(rng):
    big = Subspace.span([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2, 3)
    small = Subspace.span([[1, 1, 0]], 2, 3)
    reps = big.quotient_reps(small)
    assert len(reps) == big.dim - small.dim
    span = small
    for r in reps:
        assert not span.contains(r)
        span = span + Subspace.span(np.array([r]), 2, 3)
    with pytest.raises(ValueError):
        small.quotient_reps(big)


def test_all_elements():
    s = Subspace.span([[1, 1, 0], [0, 0, 1]], 2, 3)
    elems = s.all_elements()
    assert elems.shape == (4, 3)
    assert len({tuple(e) for e in elems}) == 4
    for e in elems:
        assert s.contains(e)
    assert Subspace.zero(3, 2).all_elements().shape == (1, 2)
    # Coefficients of the basis rows run in itertools.product order.
    assert Subspace.full(3, 2).all_elements().tolist() == [
        list(c) for c in product(range(3), repeat=2)
    ]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(0, 5), st.integers(0, 6), st.data())
def test_combinations_match_the_product_order_listing(p, k, n, data):
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    rows = np.array(data.draw(st.lists(vec, min_size=k, max_size=k)), dtype=np.int64)
    rows = rows.reshape(k, n)
    got, want = _combinations(rows, p), reference_combinations(rows, p)
    assert got.dtype == want.dtype and got.shape == want.shape == (p**k, n)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), st.integers(0, 6), st.data())
def test_grid_digits_invert_grid_index(base, width, data):
    index = np.array(data.draw(st.lists(st.integers(0, base**width - 1), max_size=20)),
                     dtype=np.int64)
    digits = _grid_digits(index, base, width)
    assert digits.shape == (len(index), width)
    assert np.all((0 <= digits) & (digits < base))
    assert np.array_equal(_grid_index(digits, base), index)
    # Big-endian: the unit rows give the place values, the first the largest.
    assert _grid_index(np.eye(width, dtype=np.int64), base).tolist() == [
        base ** (width - 1 - i) for i in range(width)
    ]


def test_all_elements_refuses_more_than_the_row_limit():
    assert 2**20 == ROW_LIMIT
    with pytest.raises(ValueError, match="limit"):
        Subspace.full(2, 21).all_elements()
    with pytest.raises(ValueError, match="limit"):
        Subspace.full(2, 40).all_elements()


def _refuse(*args, **kwargs):
    raise AssertionError("built or listed past its gate")


def _combinations_case(mp):
    mp.setattr(gf_module, "np", numpy_without("arange"))
    rows = np.eye(21, dtype=np.int64)
    return lambda: _combinations(rows, 2), r"2\^21 combinations \(2,097,152\)"


def _label_grid_case(mp):
    # k + r = 11 in F_2^12; the labels are refused before their bases are read.
    eye = np.eye(12, dtype=np.int64)
    split = CssSplit(Subspace.span(eye[:6], 2, 12), Subspace.span(eye[:5], 2, 12))
    mp.setattr(states_module, "_CODEWORD_LIMIT", 1 << 8)
    for name in ("_label_bases", "_combinations"):
        mp.setattr(states_module, name, _refuse)
    return lambda: states_module._label_grid(split), r"2\^11 codeword labels \(2,048\)"


def _dense_vector_case(mp):
    zero = np.zeros(13, dtype=np.int64)
    state = CosetState(zero, Subspace.zero(3, 13), zero)
    mp.setattr(states_module, "np", numpy_without("zeros"))
    return lambda: states_module.dense_vector(state), r"dimension 3\^13 \(1,594,323\)"


def _dense_table_case(mp):
    rows, offsets = np.zeros((0, 13), dtype=np.int64), np.zeros((1, 13), dtype=np.int64)
    support = Subspace.zero(3, 13)
    mp.setattr(states_module, "np", numpy_without("eye", "full", "empty"))
    return (lambda: states_module._dense_fixing_table(support, offsets, rows, rows),
            r"dimension 3\^13 \(1,594,323\)")


def _sweep_case(mp):
    split = CssSplit(Subspace.zero(65521, 2), Subspace.zero(65521, 2))
    for name in ("_decoder_pair", "_syndrome_batches"):
        mp.setattr(decode_module, name, _refuse)
    return lambda: decode_module.exhaustive_sweep(split, 1), r"errors of weight 1 to 1 on 2 sites"


def _letter_table_case(mp):
    check, letters = np.zeros((40, 64), dtype=np.int64), _field_letters(65521)
    mp.setattr(code_module, "np", numpy_without("matmul"))
    return (lambda: _letter_syndromes(check, letters, 65521),
            r"table of shape \(64, 65520, 40\) \(1,341,849,600\)")


def _site_values_case(mp):
    mp.setattr(code_module, "np", numpy_without("arange", "stack"))
    return lambda: _site_values(8209), r"grid of p = 8209 \(1,078,202,896\)"


def _monte_carlo_case(mp):
    split = bacon_shor(3).css_split()
    mp.setattr(decode_module, "_sampled_errors", _refuse)
    return (lambda: decode_module.monte_carlo(split, 0.1, 2**27, 0),
            r"site draws of 134,217,728 trials on 9 sites \(1,207,959,552\).*; trials 119,304,647 fits")


def _search_case(mp):
    # The vectors of weight 1 to 2 on 9 sites (9 + 36 = 45) are listed, with no
    # hit (d_X = 3); weight 3 would take the total to 129, past a limit of 100.
    split = bacon_shor(3).css_split()
    checks = split.stab_z.basis, split.h_x.complement().basis
    listed = code_module._syndrome_batches
    mp.setattr(gf_module, "STREAM_LIMIT", 100)
    mp.setattr(code_module, "_syndrome_batches",
               lambda table, w, p: _refuse() if w > 2 else listed(table, w, p))
    return (lambda: _coset_search(*checks, _field_letters(2), 2, 3),
            r"vectors of weight 1 to 3 on 9 sites \(129\) exceed the limit of 100; budget 2 fits$")


@pytest.mark.parametrize("case", [
    _combinations_case, _label_grid_case, _dense_vector_case, _dense_table_case, _sweep_case,
    _letter_table_case, _site_values_case, _monte_carlo_case, _search_case,
], ids=lambda case: case.__name__[1:-5])
def test_every_size_gate_refuses_before_it_builds(monkeypatch, case):
    # Each gate prices its request through `gf._gate`, which raises
    # Infeasible, a ValueError, naming the price and the limit; nothing that
    # the gate guards is allocated or listed (the patched layers would fail).
    call, match = case(monkeypatch)
    with pytest.raises(Infeasible, match=r"^infeasible: .*" + match) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert "exceed the limit of" in str(info.value)


def test_a_search_lists_within_the_budget_its_gate_names(monkeypatch):
    # The refusal names budget 2; at that budget the search lists, finds no
    # vector of weight <= 2 (d_X = 3) and answers None, as without the gate.
    split = bacon_shor(3).css_split()
    checks = split.stab_z.basis, split.h_x.complement().basis
    monkeypatch.setattr(gf_module, "STREAM_LIMIT", 100)
    with pytest.raises(Infeasible, match="budget 2 fits"):
        _coset_search(*checks, _field_letters(2), 2)
    assert _coset_search(*checks, _field_letters(2), 2, 2) is None
    # Only the layers up to the one listed are priced: a weight-1 hit is found
    # when the 9 vectors of weight 1 fit, whatever the listing to the budget
    # (511 vectors) would cost.
    monkeypatch.setattr(gf_module, "STREAM_LIMIT", 9)
    w, v = _coset_search(np.zeros((0, 9), dtype=np.int64), np.eye(9, dtype=np.int64)[:1],
                         _field_letters(2), 2)
    assert w == 1 and v.tolist() == [1] + [0] * 8


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("mat", [np.array(1), np.array([1, 2]), np.zeros((1, 2, 2), dtype=np.int64)])
def test_rref_rejects_a_non_matrix(mat, p):
    with pytest.raises(ValueError, match="^expected a 2-D matrix$"):
        rref(mat, p)


@pytest.mark.parametrize("rows", [[[1, 0]], [[1, 0, 1, 1]], [1, 0, 1]])
def test_span_rejects_rows_of_the_wrong_length(rows):
    with pytest.raises(ValueError, match="^rows must have length 3$"):
        Subspace.span(rows, 2, 3)


def test_mismatched_ambient_raises():
    a = Subspace.zero(2, 3)
    b = Subspace.zero(2, 4)
    with pytest.raises(ValueError):
        a + b


def test_reduce_and_contains_take_matrices():
    s = Subspace.span([[1, 1, 0], [0, 0, 1]], 2, 3)
    rows = np.array([[1, 1, 1], [1, 0, 0]])
    assert np.array_equal(s.reduce(rows), [s.reduce(rows[0]), s.reduce(rows[1])])
    assert s.contains(rows[:1]) and not s.contains(rows)
    assert s.contains(np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        s.reduce(np.zeros((2, 4), dtype=np.int64))


def test_complement_is_built_once():
    s = Subspace.span([[1, 2, 0]], 3, 3)
    assert s.complement() is s.complement()


@pytest.mark.parametrize(
    "mat, p, message",
    [
        (np.eye(3, dtype=np.int64), 4, "modulus must be prime, got 4"),
        (np.eye(3, dtype=np.int64), P_LIMIT, f"modulus must be below {P_LIMIT}, got {P_LIMIT}"),
        (np.eye(3, dtype=np.int64), 65537, f"modulus must be below {P_LIMIT}, got 65537"),
        (np.array(1), 3, "expected a 2-D matrix"),
        (np.array([1, 2]), 3, "expected a 2-D matrix"),
        (np.array([1, 2]), 4, "expected a 2-D matrix"),
    ],
)
def test_kernel_rejects_bad_input(mat, p, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        kernel(mat, p)


def test_complement_runs_one_echelon(monkeypatch, rng):
    """A fresh theta-complement runs one echelon of min(dim, ambient - dim)
    rows: its space's basis, or its kernel rows where there are fewer of them;
    its own complement is the space, with no echelon."""
    spaces = [random_subspace(rng, p, ambient) for p in (2, 3, 7) for ambient in (0, 1, 6, 11)]
    spaces += [Subspace.zero(5, 4), Subspace.full(5, 4)]
    calls = []

    def counting(mat, p):
        calls.append(np.shape(mat))
        return rref(mat, p)

    monkeypatch.setattr(gf_module, "rref", counting)
    for space in spaces:
        calls.clear()
        comp = space.complement()
        assert comp.dim == space.ambient - space.dim and comp.complement() is space
        assert calls == [(min(space.dim, comp.dim), space.ambient)]
        assert kernel(comp.basis, space.p) == space


def _elements(space):
    return {tuple(v) for v in space.all_elements()}


@st.composite
def _subspace_pairs(draw):
    p = draw(st.sampled_from((2, 3)))
    ambient = draw(st.integers(1, 5))
    return draw(subspaces(p, ambient)), draw(subspaces(p, ambient))


@settings(max_examples=80, deadline=None)
@given(_subspace_pairs())
def test_intersect_matches_brute_force(pair):
    a, b = pair
    cap = a.intersect(b)
    assert _elements(cap) == _elements(a) & _elements(b)
    # The Zassenhaus rows are taken as the basis as-is: it must be canonical.
    assert cap == Subspace.span(cap.basis, cap.p, cap.ambient)
    # Its other half is the sum, as `+` builds it from the stacked bases.
    total, cap_too = a.sum_and_intersection(b)
    assert total == a + b and cap_too == cap
    assert total == Subspace.span(total.basis, total.p, total.ambient)


def _greedy_reference(small, vecs):
    """Loop reference: keep a row iff it is outside small + span(kept rows)."""
    kept, span = [], small
    for i, v in enumerate(vecs):
        if not span.contains(v):
            kept.append(i)
            span = span + Subspace.span(np.array([v]), small.p, small.ambient)
    return kept


@st.composite
def _small_and_rows(draw):
    p = draw(st.sampled_from((2, 3)))
    ambient = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, p - 1), min_size=ambient, max_size=ambient)
    rows = draw(st.lists(row, min_size=0, max_size=7))
    return draw(subspaces(p, ambient)), np.array(rows, dtype=np.int64).reshape(-1, ambient)


@settings(max_examples=100, deadline=None)
@given(_small_and_rows())
def test_independent_rows_matches_greedy_loop(case):
    small, rows = case
    assert _independent_rows(small, rows) == _greedy_reference(small, rows)


# Both echelons (odd-p pivot steps, F_2 bit rows) against the dense reference --

# 65521 is the largest prime below P_LIMIT: residue products come near 2^32.
_PRIMES = (2, 3, 5, 7, 65521)


@st.composite
def _matrices(draw):
    """(matrix, p): independent rows stacked with combinations of them, shuffled.

    Fills run from all zero through very sparse to fully dense; either part of
    the stack may be empty, and so may the columns. At p = 2, half the draws
    have up to 40 rows on widths past one byte and one 64-bit word, where the
    bit rows of `rref` carry pad bits and span several machine words.

    One draw in four is instead shaped for the unreduced updates of `rref` at
    odd p (`_edge_matrix`).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 3)) == 0:
        return _edge_matrix(draw(st.sampled_from(_EDGE_KINDS)), draw(st.integers(1, 40)), rng)
    p = draw(st.sampled_from(_PRIMES))
    wide = p == 2 and draw(st.booleans())
    n_cols = draw(st.sampled_from((63, 64, 65, 130)) if wide else st.integers(0, 16))
    n_base = draw(st.integers(0, 30 if wide else 10))
    n_dep = draw(st.integers(0, 10 if wide else 6))
    fill = draw(st.sampled_from((0.0, 0.03, 0.2, 0.6, 1.0)))
    base = rng.integers(1 if fill == 1.0 else 0, p, size=(n_base, n_cols))
    base *= rng.random((n_base, n_cols)) < fill
    stack = np.vstack([base, rng.integers(0, p, size=(n_dep, n_base)) @ base % p])
    return stack[rng.permutation(len(stack))], p


_EDGE_KINDS = ("near_top", "tall", "product", "clear")


def _edge_matrix(kind, n, rng, p=None):
    """(matrix, p) of one kind, for a size 1 <= n <= 40 and p drawn unless given:
    - near_top: n x n, dense at p = 65521, every entry within 3 of p - 1;
    - tall: n + 20 rows on at most 4 columns, at any of `_PRIMES`;
    - product: n x (up to 30), a product of random factors of rank <= 5;
    - clear: n x 2n, [row-shuffled I | two nonzeros per column] (one when
      n = 1), whose pivot columns are already clear, so no update runs.
    """
    p = p or (65521 if kind == "near_top" else int(rng.choice(_PRIMES)))
    if kind == "near_top":
        return rng.integers(p - 3, p, size=(n, n)), p
    if kind == "tall":
        return rng.integers(0, p, size=(n + 20, rng.integers(1, 5))), p
    if kind == "product":
        k, cols = rng.integers(0, 6), rng.integers(0, 31)
        return rng.integers(0, p, size=(n, k)) @ rng.integers(0, p, size=(k, cols)) % p, p
    extra = np.zeros((n, n), dtype=np.int64)
    for col in range(n):
        hit = rng.choice(n, size=min(n, 2), replace=False)
        extra[hit, col] = rng.integers(1, p, size=len(hit))
    return np.hstack([np.eye(n, dtype=np.int64), extra])[rng.permutation(n)], p


def _pivot_loop(mat):
    return [int(np.nonzero(row)[0][0]) for row in mat if np.any(row)]


def _reference_kernel(mat, p):
    red = reference_rref(mat, p)
    n_cols = red.shape[1]
    pivots = _pivot_loop(red)
    basis = np.zeros((n_cols - len(pivots), n_cols), dtype=np.int64)
    for i, fc in enumerate(c for c in range(n_cols) if c not in pivots):
        basis[i, fc] = 1
        for row_idx, pc in enumerate(pivots):
            basis[i, pc] = (-red[row_idx, fc]) % p
    return Subspace.span(basis, p, n_cols)


@settings(max_examples=300, deadline=None)
@given(_matrices())
@example(_edge_matrix("near_top", 40, np.random.default_rng(40)))
@example(_edge_matrix("clear", 40, np.random.default_rng(41)))
def test_rref_matches_reference(case):
    mat, p = case
    before = mat.copy()
    out = rref(mat, p)
    assert out.dtype == np.int64 and out.shape == mat.shape
    assert np.array_equal(out, reference_rref(mat, p))
    assert np.array_equal(mat, before)
    assert pivot_columns(out) == _pivot_loop(out)
    assert pivot_columns(mat) == _pivot_loop(mat)


@pytest.mark.parametrize("p", (3, 65521))
def test_rref_runs_no_update_where_pivot_columns_are_clear(p):
    # Every pivot column of [row-shuffled I | two nonzeros per column] is
    # already clear, so the echelon only swaps rows: no rank-1 update runs.
    mat, _ = _edge_matrix("clear", 40, np.random.default_rng(p), p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf_module, "np", numpy_without("multiply"))
        out = rref(mat, p)
    assert np.array_equal(out, reference_rref(mat, p))


@pytest.mark.parametrize("p", _PRIMES)
@pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0), (5, 1), (1, 1)])
def test_rref_edge_shapes_match_reference(p, shape, rng):
    for mat in (np.zeros(shape, dtype=np.int64), rng.integers(0, p, size=shape)):
        assert np.array_equal(rref(mat, p), reference_rref(mat, p))
        assert pivot_columns(rref(mat, p)) == _pivot_loop(reference_rref(mat, p))
        assert kernel(mat, p) == _reference_kernel(mat, p)


def test_rref_accepts_read_only_input(rng):
    for p in (2, 5):
        space = random_subspace(rng, p, 9)
        mat = rng.integers(0, p, size=(6, 9))
        mat.setflags(write=False)
        for ro in (space.basis, mat):
            before = ro.copy()
            out = rref(ro, p)
            assert out.flags.writeable and not np.shares_memory(out, ro)
            assert np.array_equal(ro, before)
            assert np.array_equal(out, reference_rref(ro, p))


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_kernel_matches_reference(case):
    mat, p = case
    ker = kernel(mat, p)
    assert ker == _reference_kernel(mat, p)
    assert not np.any(mat @ ker.basis.T % p)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.sampled_from(("tall", "wide")), st.data())
def test_complement_of_a_canonical_basis_matches_reference(p, shape, data):
    """complement() of a canonical basis with more rows than kernel rows (tall)
    echelons its kernel rows and calls no `kernel`; else (wide) one `kernel`.
    Either matches the reference kernel, and a fresh copy of the complement,
    holding no cached complement, has the space as its complement."""
    ambient = data.draw(st.integers(1, 16))
    half = ambient // 2
    dim = data.draw(st.integers(half + 1, ambient) if shape == "tall" else st.integers(0, half))
    fill = data.draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # An RREF with random pivot columns and random entries right of each pivot.
    pivots = np.sort(rng.choice(ambient, size=dim, replace=False))
    basis = rng.integers(0, p, size=(dim, ambient)) * (rng.random((dim, ambient)) < fill)
    basis[np.arange(ambient) <= pivots[:, None]] = 0
    basis[:, pivots] = np.eye(dim, dtype=np.int64)
    assert np.array_equal(Subspace.span(basis, p, ambient).basis, basis)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf_module, "kernel", lambda mat, p: calls.append(1) or kernel(mat, p))
        comp = Subspace(p, ambient, basis).complement()
    assert len(calls) == (shape == "wide")
    assert comp == _reference_kernel(basis, p)
    assert not np.any(basis @ comp.basis.T % p)
    assert Subspace(p, ambient, comp.basis.copy()).complement() == Subspace(p, ambient, basis)


@settings(max_examples=150, deadline=None)
@given(_matrices(), st.data())
def test_solve_matches_reference_rank(case, data):
    mat, p = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, p, size=mat.shape[1])
    rhs = mat @ x % p if data.draw(st.booleans()) else rng.integers(0, p, size=len(mat))
    aug = np.hstack([mat, rhs.reshape(-1, 1)])
    consistent = len(_pivot_loop(reference_rref(aug, p))) == len(_pivot_loop(reference_rref(mat, p)))
    v = solve(mat, rhs, p)
    if not consistent:
        assert v is None
    else:
        assert np.array_equal(mat @ v % p, rhs)
