"""Code tower, parameters, CSS structure, and distance search."""

from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subcss import (
    CssSplit,
    Infeasible,
    NoLogicalOperators,
    Subspace,
    SubsystemCode,
    bacon_shor,
    css_distances,
    delta,
    five_qubit,
    random_code,
    trivial,
)
from subcss import code as code_module
from subcss import double as double_module
from subcss import gf as gf_module
from subcss import pauli as pauli_module
from subcss.cli import main
from subcss.code import (
    _BATCH_ROWS,
    DistanceResult,
    _block_product,
    _coset_distance,
    _coset_search,
    _enumeration_reach,
    _field_letters,
    _radical,
    _letter_syndromes,
    _site_letters,
    _site_values,
    _syndrome_batches,
)
from subcss.decode import ClassicalCode
from subcss.pauli import _psi_rows, flatten, omega_complement, parse_pauli, psi_subspace, swt

from conftest import (
    _weight_batches,
    css_splits,
    five_qudit,
    gauge_codes,
    kernel_sum_is_css,
    numpy_without,
    qudit_bacon_shor,
    random_gauge_code,
    reference_coset_search,
    reference_css_structure,
    reference_goursat_spaces,
    reference_omega_complement,
    reference_tower,
    reference_z_tower,
    same_bits,
    subspaces,
    symplectic_distance,
)


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


def test_negative_budget_is_rejected():
    code = five_qubit()
    with pytest.raises(ValueError, match="budget"):
        code.distance(budget=-1)
    with pytest.raises(ValueError, match="budget"):
        code.min_weight_logical(budget=-1)
    with pytest.raises(ValueError, match="budget"):
        css_distances(bacon_shor(3).css_split(), budget=-3)
    # Budget 0 searches nothing: the bound is 1.
    assert code.distance(budget=0) == DistanceResult(1, False)
    assert code.min_weight_logical(budget=0) is None


def test_coset_search_stops_at_weight_n(monkeypatch):
    """No vector is heavier than n, so a budget past n searches weights 1..n
    only: a k = 0 code answers a budget of 10^9 at once, and a k > 0 code
    gives the witness of the default budget."""
    weights = []

    def recording(table, w, p):
        assert w <= len(table), f"searched weight {w} on {len(table)} sites"
        weights.append(w)
        return _syndrome_batches(table, w, p)

    monkeypatch.setattr(code_module, "_syndrome_batches", recording)
    code = random_code(2, 3, 6, 0)
    assert code.parameters() == (3, 0, 2)
    assert code.min_weight_logical(budget=10**9) is None
    assert weights == [1, 2, 3]
    for code in (five_qubit(), bacon_shor(2), random_code(3, 3, 2, 5)):
        assert code.min_weight_logical(budget=10**9) == code.min_weight_logical()


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


@pytest.mark.parametrize("build", [
    lambda: SubsystemCode(2, 3, Subspace.zero(2, 5)),
    lambda: SubsystemCode(3, 2, Subspace.zero(2, 4)),
], ids=["length", "modulus"])
def test_a_gauge_outside_the_register_is_rejected(build):
    with pytest.raises(ValueError, match=r"^gauge subspace must live in F_p\^\{2n\}$"):
        build()


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2)], ids=["length", "modulus"])
def test_from_generators_rejects_a_mismatched_generator(p, n):
    with pytest.raises(ValueError, match="^generator has mismatched modulus or length$"):
        SubsystemCode.from_generators(p, n, [parse_pauli("XZ", 2)])


def test_css_split_mismatch_raises():
    with pytest.raises(ValueError):
        CssSplit(Subspace.zero(2, 3), Subspace.zero(2, 4))
    with pytest.raises(ValueError):
        CssSplit(Subspace.zero(2, 3), Subspace.zero(3, 3))


@settings(max_examples=150, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=5))
@example(bacon_shor(3).css_split())
@example(delta(five_qubit()).result.css_split())
@example(CssSplit(Subspace.zero(3, 4), Subspace.full(3, 4)))
def test_z_side_is_the_theta_dual_of_the_x_side(split):
    """For any pair (H_X, H_Z), L_Z = S_X^theta and S_Z = L_X^theta: the split
    takes its Z side as those complements, with no echelon of its own."""
    assert (split.logical_z, split.stab_z) == reference_z_tower(split)
    assert split.stab_z is split.logical_x.complement()
    assert split.logical_z is split.stab_x.complement()


@settings(max_examples=80, deadline=None)
@given(css_splits(primes=(2, 3), max_n=4), st.data())
def test_css_distance_agrees_with_symplectic(split, data):
    # For CSS codes, min(d_X, d_Z) equals the symplectic-weight search under
    # the same budget, in value and in exactness, and both find no logical
    # operator on the same codes. `distance` answers CSS codes through the
    # two sides, so the reference is the symplectic search itself.
    budget = data.draw(st.integers(0, split.n))
    code = SubsystemCode.from_css_split(split)
    try:
        expected = symplectic_distance(code, budget)
    except NoLogicalOperators:
        with pytest.raises(NoLogicalOperators):
            css_distances(split, budget)
        with pytest.raises(NoLogicalOperators):
            code.distance(budget)
        return
    assert css_distances(split, budget)[2] == expected
    assert code.distance(budget) == expected


def test_css_distance_exact_when_one_side_is_exact():
    # H_X = span{110, 011}, H_Z = 0: d_X = 1 is exact, d_Z = 3 exceeds the budget.
    split = CssSplit(Subspace.span([[1, 1, 0], [0, 1, 1]], 2, 3), Subspace.zero(2, 3))
    d_x, d_z, d = css_distances(split, 2)
    assert (str(d_x), str(d_z), str(d)) == ("1", ">=3", "1")
    assert d == symplectic_distance(SubsystemCode.from_css_split(split), 2)


def test_css_distance_never_runs_the_symplectic_search(monkeypatch, capsys):
    def refuse(p):
        raise AssertionError("symplectic search on a CSS code")

    monkeypatch.setattr(code_module, "_site_values", refuse)
    assert bacon_shor(5).distance() == DistanceResult(5, True)
    assert str(bacon_shor(5).distance(3)) == ">=4"
    assert main(["info", "builtin:bacon_shor", "--l", "4"]) == 0
    assert "d = 4 (exact)\n" in capsys.readouterr().out


def _answer(search, budget):
    """`search(budget)`, or the type of the exception it raised."""
    try:
        return search(budget)
    except (NoLogicalOperators, ValueError) as exc:
        return type(exc)


def _fresh_side_searches(split):
    """The X and Z `_coset_distance` of a fresh split of (H_X, H_Z), by budget."""
    fresh, letters = CssSplit(split.h_x, split.h_z), _field_letters(split.p)
    sides = ((fresh.logical_x, fresh.stab_z, fresh.h_x), (fresh.logical_z, fresh.stab_x, fresh.h_z))
    return [lambda b, big=big, check=check, small=small: _coset_distance(
                big, check.basis, small.complement().basis, letters, b)
            for big, check, small in sides]


def _searches_counted(mp):
    """Count `code._coset_distance` calls from now on."""
    calls, search = [], code_module._coset_distance

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    mp.setattr(code_module, "_coset_distance", counting)
    return calls


def _decided(answers, budget, n):
    """Whether earlier answers of one problem decide `budget`: an exact one
    decides every budget, a bound b + 1 every budget up to b."""
    budget = n if budget is None else budget
    return budget >= 0 and any(a.exact or budget < a.value for a in answers)


def _budget_lists(n):
    return st.lists(st.one_of(st.none(), st.integers(-1, n + 1)), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=5), st.data())
def test_split_records_answer_as_fresh_searches(split, data):
    # One held split asked a random sequence of budgets answers each exactly as
    # a fresh `_coset_distance` per side, and searches only budgets its earlier
    # answers leave open. Errors raise on every call and record nothing.
    held, fresh = CssSplit(split.h_x, split.h_z), _fresh_side_searches(split)
    answers = {"x": [], "z": []}
    with pytest.MonkeyPatch.context() as mp:
        calls = _searches_counted(mp)
        for budget in data.draw(_budget_lists(split.n)):
            want = [_answer(search, budget) for search in fresh]
            open_sides = [side for side in "xz" if not _decided(answers[side], budget, split.n)]
            calls.clear()
            got = _answer(lambda b: css_distances(held, b), budget)
            if isinstance(want[0], type):
                assert got is want[0]
                continue
            d_x, d_z = want
            assert got == (d_x, d_z, DistanceResult(min(d_x.value, d_z.value),
                                                    d_x.exact or d_z.exact))
            assert len(calls) == len(open_sides)
            answers["x"].append(d_x)
            answers["z"].append(d_z)
    recorded = {name for name in ("_x_distance", "_z_distance") if name in vars(held)}
    assert recorded == ({"_x_distance", "_z_distance"} if answers["x"] else set())


@settings(max_examples=100, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=5),
       st.data())
def test_code_records_answer_as_fresh_searches(code, data):
    # The same for `SubsystemCode.distance`, against a fresh code's symplectic
    # `_coset_distance`, CSS codes included: a CSS code records on its split.
    fresh = SubsystemCode(code.p, code.n, code.gauge)

    def search(budget):
        return _coset_distance(fresh.centralizer, *fresh._checks, _site_values(code.p), budget)

    held, answers = SubsystemCode(code.p, code.n, code.gauge), []
    with pytest.MonkeyPatch.context() as mp:
        calls = _searches_counted(mp)
        for budget in data.draw(_budget_lists(code.n)):
            want = _answer(search, budget)
            # A CSS code's d decides less than its sides' answers; the split test counts those.
            decided = not code.is_css() and _decided(answers, budget, code.n)
            calls.clear()
            assert _answer(held.distance, budget) == want
            if not isinstance(want, type):
                assert not decided or calls == []
                answers.append(want)
    owner, names = ((held.css_split(), {"_x_distance", "_z_distance"}) if held.is_css()
                    else (held, {"_symplectic_distance"}))
    assert names & set(vars(owner)) == (names if answers else set())


def test_k0_and_negative_budgets_raise_on_every_call():
    # Nothing is recorded for a problem with no logical operators, nor for a
    # negative budget, so each call raises as a fresh search does.
    full = SubsystemCode(2, 2, Subspace.full(2, 4))
    split = CssSplit(Subspace.full(3, 3), Subspace.zero(3, 3))
    for _ in range(2):
        with pytest.raises(NoLogicalOperators):
            full.distance()
        with pytest.raises(NoLogicalOperators):
            full.distance(-1)
        with pytest.raises(NoLogicalOperators):
            css_distances(split, 2)
    assert "_symplectic_distance" not in vars(full)
    assert not {"_x_distance", "_z_distance"} & set(vars(split))
    code, bs3 = five_qubit(), bacon_shor(3)
    for _ in range(2):
        with pytest.raises(ValueError, match="budget"):
            code.distance(-1)
        with pytest.raises(ValueError, match="budget"):
            bs3.distance(-2)
    assert "_symplectic_distance" not in vars(code)
    assert not {"_x_distance", "_z_distance"} & set(vars(bs3.css_split()))
    # With a record the negative budget still raises; the record stays as it was.
    assert code.distance(1) == DistanceResult(2, False)
    with pytest.raises(ValueError, match="budget"):
        code.distance(-1)
    assert vars(code)["_symplectic_distance"] == DistanceResult(2, False)
    assert code.distance() == DistanceResult(3, True)
    assert code.distance(2) == DistanceResult(3, False)
    assert code.distance(0) == DistanceResult(1, False)


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3), max_n=4))
def test_css_min_weight_logical_is_a_distance_witness(split):
    # min_weight_logical stays on the symplectic search; its witness has the
    # weight that the two-sided distance reports.
    code = SubsystemCode.from_css_split(split)
    try:
        d = code.distance()
    except NoLogicalOperators:
        assert code.min_weight_logical() is None
        return
    op = code.min_weight_logical()
    assert swt(op) == d.value
    assert code.centralizer.contains(flatten(op)) and not code.gauge.contains(flatten(op))


def test_code_equality_and_repr():
    a, b = five_qubit(), five_qubit()
    assert a == b and hash(a) == hash(b)
    assert "[[5,1,0]]" in repr(a)
    assert a != trivial(5)


# Weight-layer enumerator and minimum-weight search ---------------------------


def _reference_layer(letters, n, w):
    """Loop reference: sites lexicographic, then letter tuples lexicographic."""
    m, b = letters.shape
    tuples = np.array(list(product(range(m), repeat=w)), dtype=np.int64).reshape(m**w, w)
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
        (_field_letters(3), 4, 0),
    ],
)
def test_weight_batches_contract(letters, n, w):
    # w = 0 is one batch: the empty site set carrying the empty tuple.
    m, b = letters.shape
    batches = list(_weight_batches(letters, n, w))
    assert all(0 < batch.shape[0] <= _BATCH_ROWS for batch in batches)
    rows = np.vstack(batches)
    assert rows.shape == (comb(n, w) * m**w, b * n)
    site_weight = np.count_nonzero(np.any(rows.reshape(-1, b, n) != 0, axis=1), axis=1)
    assert np.all(site_weight == w)
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert np.array_equal(rows, _reference_layer(letters, n, w))


@pytest.mark.parametrize(
    "letters, n, w",
    [(_field_letters(2), 7, 3), (_field_letters(3), 6, 2), (_site_values(3), 4, 2),
     (_field_letters(5), 3, 0)],
)
def test_weight_batches_split_in_order(letters, n, w):
    # Batches of at most 7 rows: site sets spread over several batches, the
    # last one short, or one site set's letter tuples over several.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_module, "_BATCH_ROWS", 7)
        batches = list(_weight_batches(letters, n, w))
    assert all(0 < batch.shape[0] <= 7 for batch in batches)
    assert np.array_equal(np.vstack(batches), _reference_layer(letters, n, w))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_site_letters_are_the_rows_of_the_site_values(p):
    # One statement of the letter order: letter t is (x, z) of row t of
    # `_site_values`, whatever the shape of the indices asked for.
    values = _site_values(p)
    assert values.shape == (p * p - 1, 2) and values.dtype == np.int64
    assert np.array_equal(np.stack(_site_letters(np.arange(p * p - 1), p), axis=1), values)
    picks = np.array([[p * p - 2, 0], [1, p]])
    x, z = _site_letters(picks, p)
    assert np.array_equal(x, values[picks, 0]) and np.array_equal(z, values[picks, 1])


def test_letter_tables_are_sized_before_they_are_built():
    # 65520 letters on 64 sites against 40 check rows: 1.25 GiB of int64
    # letter syndromes; 8209 is the least prime whose value grid passes 1 GiB.
    check, letters = np.zeros((40, 64), dtype=np.int64), _field_letters(65521)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_module, "np", numpy_without("matmul", "arange"))
        with pytest.raises(Infeasible, match=r"shape \(64, 65520, 40\) \(1,341,849,600\) exceed"):
            _letter_syndromes(check, letters, 65521)
        with pytest.raises(Infeasible, match=r"grid of p = 8209 \(1,078,202,896\) exceed"):
            _site_values(8209)
    # Below the limit both are built: 8191 is the largest prime whose grid fits.
    assert 16 * 8191**2 <= code_module._TABLE_BYTES
    assert _letter_syndromes(check[:, :4], letters, 65521).shape == (4, 65520, 40)


@pytest.mark.parametrize("batch_rows", [_BATCH_ROWS, 7])
@pytest.mark.parametrize("m", [0, 4])
@pytest.mark.parametrize(
    ("letters", "n", "w"),
    [
        (_field_letters(2), 7, 3),
        (_field_letters(5), 4, 3),
        (_field_letters(5), 4, 0),
        (_site_values(2), 5, 3),
        (_site_values(3), 3, 2),
        (_site_values(7), 2, 2),
    ],
)
def test_syndrome_batches_are_the_weight_batches_checked(rng, batch_rows, m, letters, n, w):
    # Row i of each summed batch is the syndrome of row i of the same
    # `_weight_batches` batch, one site set's letter tuples split or not.
    p = int(letters.max()) + 1
    check = rng.integers(0, p, size=(m, letters.shape[1] * n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_module, "_BATCH_ROWS", batch_rows)
        table = _letter_syndromes(check, letters, p)
        pairs = list(zip(_syndrome_batches(table, w, p), _weight_batches(letters, n, w),
                         strict=True))
    assert len(pairs) >= 1
    for (sites, tuples, syns), batch in pairs:
        assert syns.shape == (len(batch), m) == (len(sites) * len(tuples), m)
        assert np.array_equal(syns, batch @ check.T % p)


def _assert_same_search(big, small, letters, budget):
    """`_coset_search` with the spaces' complements as checks against the
    reference, bit for bit."""
    ref = reference_coset_search(big, small, letters, budget)
    got = _coset_search(big.complement().basis, small.complement().basis, letters, big.p, budget)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert got[0] == ref[0] and got[1].dtype == ref[1].dtype
        assert np.array_equal(got[1], ref[1])


_WIDE_P = 65521


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(subspaces(_WIDE_P, n), subspaces(_WIDE_P, n))),
    st.lists(st.integers(1, _WIDE_P - 1), min_size=1, max_size=3, unique=True),
)
@example((Subspace.span([[1, _WIDE_P - 1, 0], [2, 0, 1]], _WIDE_P, 3), Subspace.zero(_WIDE_P, 3)),
         [40000])
@example((Subspace.full(_WIDE_P, 3), Subspace.span([[1, 2, 3]], _WIDE_P, 3)), [_WIDE_P - 1, 2])
def test_wide_syndrome_sums_find_the_reference_witness(spaces, values):
    # Hamming letters at p = 65521: two residues sum past 2^16, and three
    # letters' syndromes sum to as much as 196,560, so each sum needs a wide type.
    # First example: big is checked by (1, 1, -2), so the letter 40000 has the
    # syndromes 40000, 40000 and 51042 = 2p - 80000. The weight-3 witness sums
    # 80000 > 2^16 on its first two sites, and no lighter vector lies in big.
    big, small = spaces
    letters = np.array(values, dtype=np.int64)[:, None]
    for budget in range(big.ambient + 2):
        _assert_same_search(big, small, letters, budget)


@pytest.mark.parametrize("p", [2, 3])
def test_zero_row_checks_find_the_reference_witness(p):
    # A full space has a check of no rows; with both, the syndromes have none.
    full, zero = Subspace.full(p, 6), Subspace.zero(p, 6)
    for big, small in product((full, zero), repeat=2):
        for letters in (_field_letters(p), _site_values(p)):
            for budget in range(big.ambient // letters.shape[1] + 2):
                _assert_same_search(big, small, letters, budget)


@settings(max_examples=40, deadline=None)
@given(gauge_codes(primes=(2, 3), max_n=3))
@example(five_qubit())
def test_split_letter_tuples_find_the_reference_witness(code):
    # Seven rows a batch: every site set of weight >= 2 has its tuples split.
    letters = _site_values(code.p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_module, "_BATCH_ROWS", 7)
        for budget in range(code.n + 1):
            ref = reference_coset_search(code.centralizer, code.gauge, letters, budget)
            got = _coset_search(*code._checks, letters, code.p, budget)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert got[0] == ref[0] and np.array_equal(got[1], ref[1])


def test_the_search_lists_syndromes_not_vectors(monkeypatch):
    # Neither the dense batches nor a product with a check: the summed letter
    # syndromes alone, and only the witness spelled from its sites and letters.
    spell, spelled = code_module._spelled, []

    def counting(*args):
        rows = spell(*args)
        spelled.append(rows.size // rows.shape[-1])
        return rows

    code = bacon_shor(3)
    expected = code.min_weight_logical()
    monkeypatch.setattr(code_module, "_spelled", counting)
    assert code.min_weight_logical() == expected
    assert spelled == [1]
    assert swt(expected) == 3


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
    calls = {"psi": 0, "kernel": 0, "rref": 0, "tower": 0}
    kernels = []

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    count_rows = counting("kernel", gf_module._kernel_rows)

    def kernel_rows(red, p):
        kernels.append(red.shape)
        return count_rows(red, p)

    # Every kernel, `kernel`'s or a tall complement's, is spelled by `_kernel_rows`.
    psi = counting("psi", pauli_module.psi_subspace)
    monkeypatch.setattr(double_module, "psi_subspace", psi)
    monkeypatch.setattr(pauli_module, "psi_subspace", psi)
    monkeypatch.setattr(gf_module, "_kernel_rows", kernel_rows)
    monkeypatch.setattr(code_module, "rref", counting("rref", code_module.rref))
    monkeypatch.setattr(Subspace, "sum_and_intersection",
                        counting("tower", Subspace.sum_and_intersection))
    # A CSS code: its tower is the block products of its split's two towers.
    code = bacon_shor(3)
    assert code.parameters() == (9, 1, 4)  # reads the centralizer and the stabilizer
    split = code.css_split()
    assert code.is_css() and code.css_split() is split
    for name in ("stab_x", "stab_z", "logical_x", "logical_z"):
        assert getattr(split, name) is getattr(split, name)
    code.parameters()
    # No psi(H), no (z, x) echelon of H (its split is read off H's basis), and
    # one echelon of the split's X side against H_Z^theta; the Z side is the
    # theta-dual, L_Z = S_X^theta and S_Z = L_X^theta, two more complements and
    # no echelon of its own.
    assert calls == {"psi": 0, "kernel": 3, "rref": 0, "tower": 1}
    # Its double borrows that tower and reads psi(H) off the (z, x) echelon,
    # the block product H_Z x H_X: H^w = H_Z^theta x H_X^theta with H_X^theta
    # the one new complement on n columns, and the double's Z side, the
    # complements of the centralizer and the stabilizer.
    assert delta(code).result.parameters() == (18, 2, 8)
    assert calls == {"psi": 0, "kernel": 6, "rref": 0, "tower": 1}
    # A non-CSS code: no Zassenhaus echelon and no psi(H). The five-qubit
    # code is isotropic, its Gram matrix 0: S = H, and H + H^w = H^w, the
    # kernel of H's 4 psi-rows.
    calls.update(psi=0, kernel=0, rref=0, tower=0)
    kernels.clear()
    code = five_qubit()
    assert code.parameters() == (5, 1, 0)
    assert code.centralizer is code.centralizer and code.stabilizer is code.stabilizer
    code.parameters()
    assert calls == {"psi": 0, "kernel": 1, "rref": 0, "tower": 0}
    assert kernels == [(4, 10)]
    # The double borrows the tower and H^w, and reads psi(H) off the (z, x)
    # echelon, its one echelon: only its Z side, two complements, is new.
    assert delta(code).result.parameters() == (10, 2, 0)
    assert calls == {"psi": 0, "kernel": 3, "rref": 1, "tower": 0}
    # A code with 0 < dim S < dim H: the kernel of its 5 x 5 Gram matrix, then
    # S^w from the one psi-row of S; H^w waits for the double, which takes it
    # as psi(H)'s complement.
    calls.update(psi=0, kernel=0, rref=0, tower=0)
    kernels.clear()
    code = random_code(3, 4, 5, 0)
    assert code.parameters() == (4, 1, 2) and code.stabilizer.dim == 1
    assert calls == {"psi": 0, "kernel": 2, "rref": 0, "tower": 0}
    assert kernels == [(5, 5), (1, 8)]
    assert delta(code).result.parameters() == (8, 2, 4)
    assert calls == {"psi": 0, "kernel": 5, "rref": 1, "tower": 0}


@st.composite
def _gauges_with_dependent_rows(draw):
    """A code at p in {2, 3, 5} and n <= 5, spanned by 0..2n random rows and
    up to two F_p combinations of them, shuffled in."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(0, 5))

    def matrix(max_rows, cols):
        vec = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
        rows = draw(st.lists(vec, max_size=max_rows))
        return np.array(rows, dtype=np.int64).reshape(len(rows), cols)

    rows = matrix(2 * n, 2 * n)
    mixed = np.vstack([rows, matrix(2, len(rows)) @ rows % p])
    order = draw(st.permutations(range(len(mixed))))
    return SubsystemCode(p, n, Subspace.span(mixed[list(order)], p, 2 * n))


@settings(max_examples=150, deadline=None)
@given(_gauges_with_dependent_rows())
def test_goursat_spaces_match_the_reference(code):
    e_x, e_z, split = code._goursat
    for got, want in zip((e_x, e_z, split.h_x, split.h_z), reference_goursat_spaces(code)):
        assert got.basis.dtype == want.basis.dtype and got.basis.shape == want.basis.shape
        assert got.basis.tobytes() == want.basis.tobytes()
    assert code.is_css() == kernel_sum_is_css(code.gauge, code.n)


@settings(max_examples=80, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=5))
def test_from_css_split_is_canonical_as_built(split):
    x, z = split.h_x.basis, split.h_z.basis
    mat = np.block([[x, np.zeros_like(x)], [np.zeros_like(z), z]])
    want = Subspace.span(mat, split.p, 2 * split.n).basis
    got = SubsystemCode.from_css_split(split).gauge.basis
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=5))
@example(CssSplit(Subspace.zero(3, 4), Subspace.zero(3, 4)))  # dim H = 0
@example(CssSplit(Subspace.full(2, 3), Subspace.full(2, 3)))  # H = F_p^{2n}
@example(CssSplit(Subspace.zero(5, 2), Subspace.full(5, 2)))
def test_css_tower_matches_the_2n_reference(split):
    built = SubsystemCode.from_css_split(split)
    # The same code as a plain gauge subspace finds its split by echelon.
    for code in (built, SubsystemCode(split.p, split.n, built.gauge)):
        assert code.is_css()
        assert (code.centralizer, code.stabilizer) == reference_tower(code)
        assert code.centralizer.basis.dtype == np.int64


def _symplectic_pair(p):
    """span{X_1 Z_2, Z_1}: omega is nondegenerate on it, so S = 0, and it is
    not CSS (N_X = 0 while N_Z = span{e_1})."""
    return SubsystemCode(p, 2, Subspace.span([[1, 0, 0, 1], [0, 0, 1, 0]], p, 4))


@settings(max_examples=200, deadline=None)
@given(gauge_codes(primes=(2, 3, 5, 7), max_n=5))
def test_gram_tower_matches_reference(code):
    # Bit for bit against H + H^w and H cap H^w built on 2n columns: the
    # radical of the Gram matrix and its omega-complement, CSS codes included,
    # and a non-CSS code's own tower.
    centralizer, stab = reference_tower(code)
    assert same_bits(_radical(code.gauge), stab)
    assert same_bits(omega_complement(_radical(code.gauge)), centralizer)
    assert same_bits(code.centralizer, centralizer) and same_bits(code.stabilizer, stab)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_gram_tower_edge_cases(p):
    zero, full = Subspace.zero(p, 6), Subspace.full(p, 6)
    isotropic, pair = five_qudit(p), _symplectic_pair(p)
    assert not isotropic.is_css() and not pair.is_css()
    # H = 0 and an isotropic H are their own radicals, with no echelon;
    # H = F_p^{2n} and a symplectic H have the radical 0.
    assert _radical(zero) is zero and _radical(isotropic.gauge) is isotropic.gauge
    assert _radical(full) == Subspace.zero(p, 6) and _radical(pair.gauge) == Subspace.zero(p, 4)
    for h in (zero, full, isotropic.gauge, pair.gauge):
        code = SubsystemCode(p, h.ambient // 2, h)
        assert (code.centralizer, code.stabilizer) == reference_tower(code)
    # An isotropic code's centralizer is its H^w, built once.
    assert isotropic.stabilizer is isotropic.gauge
    assert isotropic.centralizer is isotropic._omega_comp
    assert pair.parameters() == (2, 1, 1) and pair.centralizer == Subspace.full(p, 4)


def test_css_double_lends_h_theta_without_a_kernel(monkeypatch):
    # A CSS source's H^theta = H_X^theta x H_Z^theta, from the complements its
    # H^w is built from: after both parameters(), the double's distances
    # run no kernel, on 2n columns or any other.
    code = bacon_shor(10)
    doubled = delta(code).result
    assert code.parameters() == (100, 1, 81)
    assert doubled.parameters() == (200, 2, 162)
    kernels = []
    kernel_rows = gf_module._kernel_rows
    monkeypatch.setattr(gf_module, "_kernel_rows",
                        lambda red, p: kernels.append(red.shape) or kernel_rows(red, p))
    assert css_distances(doubled.css_split(), 1)[2] == DistanceResult(2, False)
    assert kernels == []
    fresh = Subspace(2, 200, code.gauge.basis.copy())
    assert same_bits(doubled.css_split().h_x.complement(), fresh.complement())


@settings(max_examples=100, deadline=None)
@given(css_splits(primes=(2, 3, 5, 7), max_n=5))
def test_css_double_lends_the_complement_built_afresh(split):
    for code in (SubsystemCode.from_css_split(split),
                 SubsystemCode(split.p, split.n, _block_product(split.h_x, split.h_z))):
        fresh = Subspace(code.p, 2 * code.n, code.gauge.basis.copy())
        got = delta(code).result.css_split().h_x.complement()
        assert same_bits(got, fresh.complement()) and got.complement() is code.gauge


@settings(max_examples=120, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=4))
@example(five_qubit())
@example(bacon_shor(2))
@example(SubsystemCode(3, 2, Subspace.zero(3, 4)))
@example(SubsystemCode(2, 2, Subspace.full(2, 4)))
def test_tower_and_double_share_one_omega_complement(code):
    # H^w bit for bit against psi(H)^theta, built by an echelon of psi(H).
    comp = reference_omega_complement(code.gauge)
    assert same_bits(omega_complement(code.gauge), comp)
    assert same_bits(code._omega_comp, comp)
    assert same_bits(code.centralizer, code.gauge + comp)
    assert same_bits(code.stabilizer, code.gauge.intersect(comp))
    # The double's split (H, psi(H)) holds the code's tower as its X tower and
    # the code's H^w as psi(H)'s theta-complement.
    doubled = delta(code).result
    split = doubled.css_split()
    assert split.h_x is code.gauge and split.h_z.complement() is code._omega_comp
    assert split.logical_x is code.centralizer and split.stab_x is code.stabilizer
    assert doubled.parameters() == tuple(2 * v for v in code.parameters())


@settings(max_examples=120, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=4))
@example(five_qubit())
@example(bacon_shor(2))
@example(SubsystemCode(3, 2, Subspace.zero(3, 4)))
@example(SubsystemCode(2, 2, Subspace.full(2, 4)))
def test_double_with_borrowed_spaces_matches_one_built_afresh(code):
    # The same double from a copy of the code that shares no cache with it.
    fresh = Subspace(code.p, 2 * code.n, code.gauge.basis.copy())
    want = SubsystemCode.from_css_split(CssSplit(fresh, psi_subspace(fresh)))
    got = delta(code).result
    got_split, want_split = got.css_split(), want.css_split()
    assert got_split.logical_x is code.centralizer
    for name in ("centralizer", "stabilizer"):
        assert same_bits(getattr(got, name), getattr(want, name))
    for name in ("logical_x", "stab_x", "logical_z", "stab_z"):
        assert same_bits(getattr(got_split, name), getattr(want_split, name))
    assert same_bits(got_split.h_z.complement(), want_split.h_z.complement())
    assert got.parameters() == want.parameters()
    if got.parameters()[1] == 0:
        for split in (got_split, want_split):
            with pytest.raises(NoLogicalOperators):
                css_distances(split, 2)
    else:
        assert css_distances(got_split, 2) == css_distances(want_split, 2)


@settings(max_examples=80, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=5))
def test_from_css_split_stores_its_goursat_spaces(split):
    code = SubsystemCode.from_css_split(split)
    e_x, e_z, internal = code._goursat
    assert internal is split and code.css_split() is split
    assert (e_x, e_z, internal.h_x, internal.h_z) == reference_goursat_spaces(code)


@st.composite
def _codes_css_or_not(draw):
    """A code at p in {2, 3, 5, 7} and n <= 5 of one of three kinds: a split's
    `from_css_split`, the same code rebuilt from mixed generator rows (an
    invertible L U times its basis, dependent combinations and a shuffle), or
    a random gauge code, rarely CSS."""
    kind = draw(st.sampled_from(("split", "mixed", "random")))
    if kind == "random":
        return draw(gauge_codes(primes=(2, 3, 5, 7), max_n=5))
    split = draw(css_splits(primes=(2, 3, 5, 7), max_n=5))
    code = SubsystemCode.from_css_split(split)
    if kind == "split":
        return code
    p, basis = split.p, code.gauge.basis
    k = len(basis)

    def matrix(n_rows):
        entries = draw(st.lists(st.integers(0, p - 1), min_size=n_rows * k, max_size=n_rows * k))
        return np.array(entries, dtype=np.int64).reshape(n_rows, k)

    eye = np.eye(k, dtype=np.int64)
    mixing = (np.tril(matrix(k), -1) + eye) @ (np.triu(matrix(k), 1) + eye)
    rows = np.vstack([mixing, matrix(2)]) @ basis % p
    rows = rows[list(draw(st.permutations(range(len(rows)))))]
    return SubsystemCode(p, split.n, Subspace.span(rows, p, 2 * split.n))


@settings(max_examples=200, deadline=None)
@given(_codes_css_or_not())
@example(five_qubit())
@example(bacon_shor(3))
@example(SubsystemCode(3, 2, Subspace.zero(3, 4)))
def test_css_structure_matches_the_zx_echelon(code):
    # `is_css`, `css_split`, `_goursat` and `_zx_echelon`, read off H's basis
    # for a CSS code, against the (z, x)-echelon definition, bit for bit.
    zx, spaces, css = reference_css_structure(code)
    assert code.is_css() == css
    e_x, e_z, split = code._goursat
    for got, want in zip((e_x, e_z, split.h_x, split.h_z), spaces):
        assert same_bits(got, want)
    if css:
        assert code.css_split() is split
    else:
        with pytest.raises(ValueError, match="not CSS"):
            code.css_split()
    got = code._zx_echelon
    assert got.dtype == zx.dtype and got.shape == zx.shape and got.tobytes() == zx.tobytes()


def test_is_css_runs_no_echelon(monkeypatch):
    css, other = bacon_shor(4), five_qubit()
    calls = []
    rref = gf_module.rref

    def counting(*args):
        calls.append(args)
        return rref(*args)

    # Every binding of `rref` that `is_css` can reach, in gf and in code.
    monkeypatch.setattr(gf_module, "rref", counting)
    monkeypatch.setattr(code_module, "rref", counting, raising=False)
    assert css.is_css() and not other.is_css()
    assert calls == []


# Syndrome engine ---------------------------------------------------------------


# The enumeration's reach forced to nothing (the syndrome engine answers every
# weight), then to the whole budget (the engine never runs), then left alone.
_REACHES = (lambda *args: 0, lambda p, m, n, n_letters, budget: budget, _enumeration_reach)


def _engine_and_search(big, small, letters, budget):
    """`_coset_distance` at each of `_REACHES`; None where it raises
    NoLogicalOperators."""
    results = []
    for reach in _REACHES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(code_module, "_enumeration_reach", reach)
            try:
                checks = big.complement().basis, small.complement().basis
                results.append(_coset_distance(big, *checks, letters, budget))
            except NoLogicalOperators:
                results.append(None)
    return results


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=4))
def test_engine_matches_the_search_on_both_css_sides(split):
    letters = _field_letters(split.p)
    for big, small in ((split.logical_x, split.h_x), (split.logical_z, split.h_z)):
        for budget in range(split.n + 1):
            engine, search, mixed = _engine_and_search(big, small, letters, budget)
            assert engine == search == mixed


@settings(max_examples=60, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=3))
def test_engine_matches_the_search_on_symplectic_weight(code):
    # Also through `distance`, CSS codes included, against the reference search.
    letters = _site_values(code.p)
    for budget in range(code.n + 1):
        engine, search, mixed = _engine_and_search(code.centralizer, code.gauge, letters, budget)
        assert engine == search == mixed
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(code_module, "_enumeration_reach", _REACHES[0])
            if search is None:
                with pytest.raises(NoLogicalOperators):
                    code.distance(budget)
            else:
                assert code.distance(budget) == symplectic_distance(code, budget) == search


def test_one_distance_runs_the_recursion_once(monkeypatch):
    """The recursion path lists F(big) from a basis of it and reads the
    weights once: no second recursion builds the image."""
    weights, calls = code_module._syndrome_weights, []

    def counting(*args, **kwargs):
        calls.append(args)
        return weights(*args, **kwargs)

    monkeypatch.setattr(code_module, "_syndrome_weights", counting)
    monkeypatch.setattr(code_module, "_enumeration_reach", _REACHES[0])
    split, code = qudit_bacon_shor(3, 3).css_split(), five_qubit()
    cases = [(big, big_check, small_check, _field_letters(3))
             for big, _, big_check, small_check in _css_side_checks(split)]
    cases.append((code.centralizer, *code._checks, _site_values(2)))
    for case in cases:
        calls.clear()
        assert _coset_distance(*case) == DistanceResult(3, True)
        assert len(calls) == 1


def test_enumeration_reach_reads_only_sizes():
    # Bacon-Shor 3, one side, at budget 1: 9 * 10 listed sites against the
    # recursion's 9 * (2^3 + 3 * 2^2) cells; the enumeration answers alone.
    assert _enumeration_reach(2, 3, 9, 1, 1) == 1
    # Qudit Bacon-Shor (5, 3): 613 vectors up to weight 2 go first; past them
    # the recursion's 36 * (5^3 + 3 * 5^2) cells answer.
    assert _enumeration_reach(5, 3, 9, 4, 2) == 2
    assert _enumeration_reach(5, 3, 9, 4, 9) == 2
    # Never past weight m, whatever the budget; at m = 1 the recursion answers all.
    assert _enumeration_reach(2, 5, 25, 1, 3) == 1
    assert _enumeration_reach(2, 1, 25, 1, 25) == 0
    # Past gf.ROW_LIMIT syndromes, and past int64 (65521^5 > 2^63), it never runs.
    assert _enumeration_reach(2, 21, 100, 1, 100) == 21
    assert _enumeration_reach(65521, 5, 6, 65520, 6) == 5
    # Symplectic letters at p = 1021 on 3 sites, m = 2: the 3 (p^2 - 1)
    # vectors of weight 1 go before 3 (p^2 - 1) gathers of p^2 cells.
    p = 1021
    assert _enumeration_reach(p, 2, 3, p**2 - 1, 3) == 1


def test_weight_one_logicals_never_wait_for_the_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("syndrome engine ran")

    monkeypatch.setattr(code_module, "_syndrome_weights", refuse)
    # A non-CSS code at p = 1021, n = 3, dim H = 4, so m = 2: Z on the first
    # site is a logical, in the first batch of weight 1. The recursion would
    # take 3 (p^2 - 1) gathers of p^2 cells.
    p = 1021
    x, z = np.eye(6, dtype=np.int64)[:3], np.eye(6, dtype=np.int64)[3:]
    gauge = Subspace.span([x[1], z[1], x[2] + z[2], z[0] + x[2]], p, 6)
    assert not SubsystemCode(p, 3, gauge).is_css()
    assert SubsystemCode(p, 3, gauge).distance() == DistanceResult(1, True)


def test_syndrome_spaces_beyond_int64_take_the_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("syndrome engine above its gate")

    monkeypatch.setattr(code_module, "_syndrome_weights", refuse)
    p = 65521
    # H_X = 0, H_Z = <e_0>: the X side has p^5 syndromes and the Z side p^4,
    # both above 2^63; a weight-1 vector is a logical on each side.
    split = CssSplit(Subspace.zero(p, 5), Subspace.span([[1, 0, 0, 0, 0]], p, 5))
    assert p**4 > 2**63
    one = DistanceResult(1, True)
    assert css_distances(split) == (one, one, one)


def _search_distance(big, small, letters, budget):
    """Reference: the weight-increasing search alone, or the bound budget + 1."""
    found = _coset_search(big.complement().basis, small.complement().basis, letters, big.p,
                          budget)
    return DistanceResult(found[0], True) if found else DistanceResult(budget + 1, False)


def _refuse_the_recursion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(code_module, "_syndrome_weights", refuse)


@pytest.mark.parametrize("p", [5, 7])
def test_distance_m_needs_no_recursion(monkeypatch, p):
    # Qudit Bacon-Shor 3: each side has m = 3 check rows and d = 3; the
    # enumeration reaches weight 2, and no distance exceeds m.
    split = qudit_bacon_shor(p, 3).css_split()
    _refuse_the_recursion(monkeypatch)
    three = DistanceResult(3, True)
    assert css_distances(split) == (three, three, three)
    letters = _field_letters(p)
    for big, small in ((split.logical_x, split.h_x), (split.logical_z, split.h_z)):
        for budget in range(split.n + 1):
            checks = big.complement().basis, small.complement().basis
            assert _coset_distance(big, *checks, letters, budget) == _search_distance(
                big, small, letters, budget
            )


@settings(max_examples=60, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=3), css_splits(primes=(2, 3, 5), max_n=4))
def test_distance_past_reach_m_minus_1_is_m(code, split):
    # With the enumeration's reach at m - 1 the recursion never runs, and every
    # budget gives the search's value, on symplectic weight and on CSS sides.
    letters = _field_letters(split.p)
    cases = [
        (code.centralizer, code.gauge, _site_values(code.p)),
        (split.logical_x, split.h_x, letters),
        (split.logical_z, split.h_z, letters),
    ]
    with pytest.MonkeyPatch.context() as mp:
        _refuse_the_recursion(mp)
        mp.setattr(code_module, "_enumeration_reach", lambda p, m, n, L, budget: min(budget, m - 1))
        for big, small, letters in cases:
            if big == small:
                continue
            for budget in range(big.ambient // letters.shape[1] + 1):
                checks = big.complement().basis, small.complement().basis
                got = _coset_distance(big, *checks, letters, budget)
                assert got == _search_distance(big, small, letters, budget)


# Checks in hand ---------------------------------------------------------------


def _css_side_checks(split):
    """Each side's (big, small, big_check, small_check) as `css_distances`
    passes them: L_X^theta = S_Z and L_Z^theta = S_X."""
    return (
        (split.logical_x, split.h_x, split.stab_z.basis, split.h_x.complement().basis),
        (split.logical_z, split.h_z, split.stab_x.basis, split.h_z.complement().basis),
    )


@settings(max_examples=60, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=3))
@example(five_qubit())
@example(SubsystemCode(3, 2, Subspace.zero(3, 4)))
def test_symplectic_witnesses_match_the_reference(code):
    # The psi-rows checks find the witness the complements found, bit for bit.
    letters = _site_values(code.p)
    for budget in range(code.n + 1):
        ref = reference_coset_search(code.centralizer, code.gauge, letters, budget)
        got = code.min_weight_logical(budget)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert swt(got) == ref[0] and np.array_equal(flatten(got), ref[1])


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=4))
@example(bacon_shor(3).css_split())
def test_css_side_witnesses_match_the_reference(split):
    letters = _field_letters(split.p)
    for budget in range(split.n + 1):
        sides = []
        for big, small, big_check, small_check in _css_side_checks(split):
            ref = reference_coset_search(big, small, letters, budget)
            got = _coset_search(big_check, small_check, letters, split.p, budget)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert got[0] == ref[0] and np.array_equal(got[1], ref[1])
            sides.append(DistanceResult(ref[0], True) if ref else DistanceResult(budget + 1, False))
        if split.logical_x == split.h_x:
            with pytest.raises(NoLogicalOperators):
                css_distances(split, budget)
        else:
            assert css_distances(split, budget)[:2] == tuple(sides)


@settings(max_examples=80, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=4))
@example(SubsystemCode(3, 2, Subspace.zero(3, 4)))
@example(SubsystemCode(3, 2, Subspace.full(3, 4)))
@example(five_qubit())
def test_psi_rows_are_the_checks_of_the_tower(code):
    """(X^w)^theta = psi(X): the psi-rows of H cap H^w span (H + H^w)^theta,
    and those of H^w, as many as its dimension, span H^theta. A CSS code's
    spans are its split's: S_Z x S_X and H_X^theta x H_Z^theta."""
    p, ambient = code.p, 2 * code.n
    big_check, small_check = code._checks
    assert np.array_equal(big_check, _psi_rows(code.stabilizer.basis))
    assert np.array_equal(small_check, _psi_rows(code._omega_comp.basis))
    big, small = (Subspace.span(check, p, ambient) for check in (big_check, small_check))
    assert big == code.centralizer.complement()
    assert small == code.gauge.complement()
    assert len(small_check) + code.gauge.dim == ambient
    if code.is_css():
        split = code.css_split()
        assert big == _block_product(split.stab_z, split.stab_x)
        assert small == _block_product(split.h_x.complement(), split.h_z.complement())


@pytest.mark.parametrize("reach", _REACHES)
def test_the_engine_builds_no_complement(monkeypatch, reach):
    """Given explicit checks, the search and the distance take no complement and
    no kernel, on the search path and on the recursion path alike."""
    split, code = qudit_bacon_shor(3, 3).css_split(), five_qubit()
    cases = [(big, big_check, small_check, _field_letters(3))
             for big, _, big_check, small_check in _css_side_checks(split)]
    cases.append((code.centralizer, *code._checks, _site_values(2)))
    expected = [*css_distances(split)[:2], DistanceResult(3, True)]
    witnesses = [_coset_search(*case[1:], case[0].p) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a complement was built")

    monkeypatch.setattr(Subspace, "complement", refuse)
    monkeypatch.setattr(gf_module, "kernel", refuse)
    monkeypatch.setattr(code_module, "_enumeration_reach", reach)
    for case, d, witness in zip(cases, expected, witnesses):
        big, big_check, small_check, letters = case
        assert _coset_distance(big, big_check, small_check, letters) == d
        found = _coset_search(big_check, small_check, letters, big.p)
        assert found[0] == witness[0] and np.array_equal(found[1], witness[1])


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=3))
@example(bacon_shor(3).css_split())
def test_css_witnesses_are_unchanged(split):
    # The block-product checks of a CSS code, built from its split or found by
    # `_goursat`, give the witness the complements give, bit for bit.
    letters = _site_values(split.p)
    built = SubsystemCode.from_css_split(split)
    for code in (built, SubsystemCode(split.p, split.n, built.gauge)):
        assert code.is_css()
        for budget in range(code.n + 1):
            ref = reference_coset_search(code.centralizer, code.gauge, letters, budget)
            got = code.min_weight_logical(budget)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert np.array_equal(flatten(got), ref[1])


def test_css_checks_are_read_off_the_split(monkeypatch):
    calls = {"kernel": 0, "rref": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # Every kernel, `kernel`'s or a tall complement's, is spelled by `_kernel_rows`.
    monkeypatch.setattr(gf_module, "_kernel_rows", counting("kernel", gf_module._kernel_rows))
    monkeypatch.setattr(gf_module, "rref", counting("rref", gf_module.rref))
    monkeypatch.setattr(code_module, "rref", gf_module.rref)
    # After the tower, only H_X^theta is new: one kernel, its one echelon.
    code = bacon_shor(3)
    code.parameters()
    calls.update(kernel=0, rref=0)
    assert swt(code.min_weight_logical()) == 3
    assert calls == {"kernel": 1, "rref": 1}
    # Once the distances have built H_X^theta, the checks need no echelon.
    code = bacon_shor(3)
    code.parameters()
    css_distances(code.css_split())
    calls.update(kernel=0, rref=0)
    assert swt(code.min_weight_logical()) == 3
    assert calls == {"kernel": 0, "rref": 0}


def test_distances_read_the_checks_in_hand(monkeypatch):
    calls = {"kernel": 0, "rref": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # Every kernel, `kernel`'s or a tall complement's, is spelled by `_kernel_rows`.
    monkeypatch.setattr(gf_module, "_kernel_rows", counting("kernel", gf_module._kernel_rows))
    monkeypatch.setattr(gf_module, "rref", counting("rref", gf_module.rref))
    # A CSS code: the X side's L_X^theta is the split's S_Z and the Z side's
    # L_Z^theta its S_X; H_Z^theta is the X tower's, so only H_X^theta is new.
    code = bacon_shor(5)
    code.parameters()
    calls.update(kernel=0)
    assert css_distances(code.css_split()) == (DistanceResult(5, True),) * 3
    assert calls["kernel"] == 1
    # A non-CSS code: both checks are psi-rows of the tower it holds.
    code = five_qubit()
    code.parameters()
    calls.update(kernel=0)
    assert code.distance() == DistanceResult(3, True)
    assert code.min_weight_logical() is not None
    assert calls["kernel"] == 0
    # A decoder's achievable syndromes: the left kernel of F, one echelon. The
    # rows of F are dependent, so its image is the plane checked by 111.
    side = ClassicalCode(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), Subspace.zero(2, 3))
    calls.update(rref=0)
    assert side._in_image.tolist() == [[1, 1, 1]]
    assert side._in_image is side._in_image
    assert calls["rref"] == 1
