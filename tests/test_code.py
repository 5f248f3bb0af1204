"""Code tower, parameters, CSS structure, and distance search."""

from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcss import (
    CssSplit,
    NoLogicalOperators,
    Subspace,
    SubsystemCode,
    bacon_shor,
    css_distances,
    five_qubit,
    trivial,
)
from subcss import code as code_module
from subcss.code import (
    _BATCH_ROWS,
    DistanceResult,
    _field_letters,
    _site_values,
    _weight_batches,
)
from subcss.pauli import flatten, omega_complement, swt

from conftest import css_splits, gauge_codes, kernel_sum_is_css, random_gauge_code


def test_five_qubit_parameters():
    code = five_qubit()
    assert code.parameters() == (5, 1, 0)
    assert code.gauge.dim == 4
    assert code.stabilizer == code.gauge  # subspace code: r = 0
    assert code.centralizer.dim == 6


def test_five_qubit_distance():
    d = five_qubit().distance()
    assert d.exact and d.value == 3


def test_five_qubit_not_css():
    assert not five_qubit().is_css()
    with pytest.raises(ValueError):
        five_qubit().css_split()


def test_min_weight_logical():
    code = five_qubit()
    op = code.min_weight_logical()
    assert swt(op) == 3
    assert code.centralizer.contains(flatten(op))
    assert not code.gauge.contains(flatten(op))


def test_trivial_code():
    code = trivial(3)
    assert code.parameters() == (3, 3, 0)
    assert code.is_css()
    assert code.distance() == DistanceResult(1, True)


def test_bacon_shor_parameters():
    assert bacon_shor(2).parameters() == (4, 1, 1)
    assert bacon_shor(3).parameters() == (9, 1, 4)
    assert bacon_shor(4).parameters() == (16, 1, 9)


def test_bacon_shor_distances():
    assert bacon_shor(2).distance() == DistanceResult(2, True)
    assert bacon_shor(3).distance() == DistanceResult(3, True)
    d_x, d_z, d = css_distances(bacon_shor(3).css_split())
    assert (d_x.value, d_z.value, d.value) == (3, 3, 3)
    assert d_x.exact and d_z.exact and d.exact


def test_bacon_shor_css_split_dims():
    split = bacon_shor(3).css_split()
    assert split.h_x.dim == 6 and split.h_z.dim == 6


def test_distance_budget_bound():
    d = five_qubit().distance(budget=2)
    assert not d.exact
    assert d.value == 3  # lower bound budget + 1
    assert str(d) == ">=3"
    assert str(DistanceResult(4, True)) == "4"


def test_no_logical_operators():
    # Full gauge group: H + H^w = H, so the search set is empty.
    code = SubsystemCode(2, 2, Subspace.full(2, 4))
    with pytest.raises(NoLogicalOperators):
        code.distance()


def test_tower_invariants(rng):
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, n)
        comp = omega_complement(code.gauge)
        assert code.centralizer == code.gauge + comp
        assert code.stabilizer == code.gauge.intersect(comp)
        assert code.gauge.contains_space(code.stabilizer)
        assert code.centralizer.contains_space(code.gauge)
        assert omega_complement(comp) == code.gauge
        n_, k, r = code.parameters()
        assert code.stabilizer.dim == n_ - k - r
        assert code.centralizer.dim == 2 * n_ - code.stabilizer.dim


def test_css_split_roundtrip(rng):
    for _ in range(60):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, n)
        if not code.is_css():
            continue
        split = code.css_split()
        assert SubsystemCode.from_css_split(split) == code


def test_from_css_split_is_css(rng):
    h_x = Subspace.span([[1, 1, 0], [0, 1, 1]], 2, 3)
    h_z = Subspace.span([[1, 1, 1]], 2, 3)
    code = SubsystemCode.from_css_split(CssSplit(h_x, h_z))
    assert code.is_css()
    split = code.css_split()
    assert split.h_x == h_x and split.h_z == h_z


def test_css_split_mismatch_raises():
    with pytest.raises(ValueError):
        CssSplit(Subspace.zero(2, 3), Subspace.zero(2, 4))
    with pytest.raises(ValueError):
        CssSplit(Subspace.zero(2, 3), Subspace.zero(3, 3))


@settings(max_examples=80, deadline=None)
@given(css_splits(primes=(2, 3), max_n=4), st.data())
def test_css_distance_agrees_with_symplectic(split, data):
    # For CSS codes, min(d_X, d_Z) equals the symplectic-weight search under
    # the same budget, in value and in exactness, and both searches find no
    # logical operator on the same codes.
    budget = data.draw(st.integers(1, split.n))
    code = SubsystemCode.from_css_split(split)
    try:
        d_sym = code.distance(budget)
    except NoLogicalOperators:
        with pytest.raises(NoLogicalOperators):
            css_distances(split, budget)
        return
    assert css_distances(split, budget)[2] == d_sym


def test_css_distance_exact_when_one_side_is_exact():
    # H_X = span{110, 011}, H_Z = 0: d_X = 1 is exact, d_Z = 3 exceeds the budget.
    split = CssSplit(Subspace.span([[1, 1, 0], [0, 1, 1]], 2, 3), Subspace.zero(2, 3))
    d_x, d_z, d = css_distances(split, 2)
    assert (str(d_x), str(d_z), str(d)) == ("1", ">=3", "1")
    assert d == SubsystemCode.from_css_split(split).distance(2)


def test_code_equality_and_repr():
    a, b = five_qubit(), five_qubit()
    assert a == b and hash(a) == hash(b)
    assert "[[5,1,0]]" in repr(a)
    assert a != trivial(5)


# Weight-layer enumerator and minimum-weight search ---------------------------


def _reference_layer(letters, n, w):
    """Loop reference: sites lexicographic, then letter tuples lexicographic."""
    m, b = letters.shape
    tuples = np.array(list(product(range(m), repeat=w)), dtype=np.int64).reshape(-1, w)
    blocks = []
    for sites in combinations(range(n), w):
        block = np.zeros((len(tuples), b * n), dtype=np.int64)
        for pos, site in enumerate(sites):
            block[:, site + n * np.arange(b)] = letters[tuples[:, pos]]
        blocks.append(block)
    return np.vstack(blocks)


@pytest.mark.parametrize(
    "letters, n, w",
    [
        (_field_letters(2), 7, 3),
        (_field_letters(3), 5, 2),
        (_field_letters(5), 4, 4),
        (_site_values(2), 5, 3),
        (_site_values(3), 4, 2),
        (_site_values(7), 3, 3),
    ],
)
def test_weight_batches_contract(letters, n, w):
    m, b = letters.shape
    batches = list(_weight_batches(letters, n, w))
    assert all(0 < batch.shape[0] <= _BATCH_ROWS for batch in batches)
    rows = np.vstack(batches)
    assert rows.shape == (comb(n, w) * m**w, b * n)
    site_weight = np.count_nonzero(np.any(rows.reshape(-1, b, n) != 0, axis=1), axis=1)
    assert np.all(site_weight == w)
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert np.array_equal(rows, _reference_layer(letters, n, w))


def _brute_min_weight(big, small, weight):
    """min weight(big \\ small) by listing both spaces; None if the difference is empty."""
    small_elems = {tuple(v) for v in small.all_elements()}
    outside = [v for v in big.all_elements() if tuple(v) not in small_elems]
    return int(weight(np.array(outside)).min()) if outside else None


@settings(max_examples=60, deadline=None)
@given(gauge_codes(primes=(2, 3), max_n=4))
def test_distance_matches_brute_force(code):
    n = code.n
    expected = _brute_min_weight(
        code.centralizer,
        code.gauge,
        lambda rows: np.count_nonzero(rows[:, :n] | rows[:, n:], axis=1),
    )
    if expected is None:
        with pytest.raises(NoLogicalOperators):
            code.distance()
        return
    assert code.distance() == DistanceResult(expected, True)
    op = code.min_weight_logical()
    assert swt(op) == expected
    assert code.centralizer.contains(flatten(op)) and not code.gauge.contains(flatten(op))


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3), max_n=4))
def test_css_distances_match_brute_force(split):
    hamming = lambda rows: np.count_nonzero(rows, axis=1)  # noqa: E731
    expected = [
        _brute_min_weight(split.h_x + split.h_z.complement(), split.h_x, hamming),
        _brute_min_weight(split.h_z + split.h_x.complement(), split.h_z, hamming),
    ]
    if None in expected:
        with pytest.raises(NoLogicalOperators):
            css_distances(split)
        return
    d_x, d_z, d = css_distances(split)
    assert (d_x, d_z) == (DistanceResult(expected[0], True), DistanceResult(expected[1], True))
    assert d == DistanceResult(min(expected), True)


# CSS structure ----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(gauge_codes(primes=(2, 3), max_n=3))
def test_is_css_and_split_match_kernel_sum_reference(code):
    n = code.n
    assert code.is_css() == kernel_sum_is_css(code.gauge, n)
    elems = code.gauge.all_elements()
    # N_X = {a : (a, 0) in H} and N_Z = {b : (0, b) in H}, listed outright.
    n_x = Subspace.span(elems[~np.any(elems[:, n:], axis=1), :n], code.p, n)
    n_z = Subspace.span(elems[~np.any(elems[:, :n], axis=1), n:], code.p, n)
    if code.is_css():
        assert code.css_split() == CssSplit(n_x, n_z)
    else:
        with pytest.raises(ValueError):
            code.css_split()


def test_derived_spaces_are_built_once(monkeypatch):
    calls = {"omega": 0, "kernel": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(code_module, "omega_complement",
                        counting("omega", code_module.omega_complement))
    monkeypatch.setattr(code_module, "kernel", counting("kernel", code_module.kernel))
    code = bacon_shor(3)
    assert code.parameters() == (9, 1, 4)  # reads the centralizer and the stabilizer
    assert calls["omega"] == 1
    split = code.css_split()
    assert code.is_css() and code.css_split() == split
    assert calls["kernel"] == 2  # ker pi_Z and ker pi_X, once each
    for name in ("stab_x", "stab_z", "logical_x", "logical_z"):
        assert getattr(split, name) is getattr(split, name)
