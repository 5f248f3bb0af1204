"""Steane-type recovery, classical coset decoding, and the quotient decoder."""

import gc
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subcss import code as code_module
from subcss import decode as decode_module
from subcss import gf as gf_module
from subcss import (
    ClassicalCode,
    CssSplit,
    DecodeStatus,
    InconsistentSyndrome,
    NoLogicalOperators,
    NotWeightRespecting,
    PauliVector,
    Subspace,
    TrialCounts,
    bacon_shor,
    css_distances,
    delta,
    exhaustive_sweep,
    five_qubit,
    kernel,
    monte_carlo,
    par_decoder_build,
    respects_weight,
    steane_recover,
    syndrome_of,
)
from subcss.code import (
    DistanceResult,
    _enumerated_leaders,
    _field_letters,
    _letter_syndromes,
    _site_values,
    _syndrome_batches,
    _syndrome_leaders,
)
from subcss.decode import (
    _decoder_pair,
    _hit_products,
    _recover,
    _tally,
    _trials,
    make_css_decoder,
)
from subcss.gf import _grid_index

from conftest import (
    _weight_batches,
    brute_force_recover,
    css_splits,
    dense_errors,
    error_hits,
    forget_decoders,
    qudit_bacon_shor,
    random_subspace,
    reference_enumerated_leaders,
    reference_products,
    reference_respects_weight,
    subspaces,
)


BS3 = bacon_shor(3).css_split()
BS4 = bacon_shor(4).css_split()
DOUBLED = delta(five_qubit()).result.css_split()
# d_X = 3 while H_X holds a weight-1 vector, whose syndrome is the zero one.
WEIGHT_ONE_GAUGE = CssSplit(
    Subspace.span([[1, 0, 0, 0]], 2, 4), Subspace.span([[0, 1, 1, 0], [0, 0, 1, 1]], 2, 4)
)


def _pauli(p, n, x_sites=(), z_sites=()):
    x = np.zeros(n, dtype=np.int64)
    z = np.zeros(n, dtype=np.int64)
    x[list(x_sites)] = 1
    z[list(z_sites)] = 1
    return PauliVector(p, x, z)


def test_repetition_code_decoding():
    code = ClassicalCode([[1, 1, 0], [0, 1, 1]], Subspace.zero(2, 3))
    assert code.k == Subspace.span([[1, 1, 1]], 2, 3)
    assert code.d_r == 3
    for i in range(3):
        e = np.zeros(3, dtype=np.int64)
        e[i] = 1
        assert np.array_equal(code.decode_coset(code.syndrome(e)), e)
    assert np.array_equal(code.decode_coset([0, 0]), [0, 0, 0])


def test_classical_code_validation():
    with pytest.raises(ValueError, match="inside the kernel"):
        ClassicalCode([[1, 1, 0], [0, 1, 1]], Subspace.full(2, 3))
    with pytest.raises(ValueError, match="3 columns"):
        ClassicalCode([1, 1, 0], Subspace.zero(2, 3))  # a vector, not a matrix
    with pytest.raises(ValueError, match="3 columns"):
        ClassicalCode([[1, 1, 0, 1]], Subspace.zero(2, 3))


@pytest.mark.parametrize("syn", [[0], [0, 0, 0], [[0, 0]]])
def test_decode_coset_rejects_a_syndrome_of_the_wrong_length(syn):
    code = ClassicalCode([[1, 1, 0], [0, 1, 1]], Subspace.zero(2, 3))
    with pytest.raises(ValueError, match="^syndrome has the wrong length$"):
        code.decode_coset(syn)


def test_inconsistent_syndrome():
    # F has dependent rows, so (1, 0) is outside its image.
    code = ClassicalCode([[1, 1, 1], [1, 1, 1]], Subspace.zero(2, 3))
    with pytest.raises(InconsistentSyndrome):
        code.decode_coset([1, 0])


@pytest.mark.parametrize("table", [True, False])
def test_only_syndromes_from_outside_are_checked(monkeypatch, table):
    # Trials compute their syndromes from errors, so they are in F's image and
    # no trial reads `_in_image`; `decode_coset` still checks what it is given.
    if not table:
        monkeypatch.setattr(ClassicalCode, "_leader_table", None)
    e = _pauli(2, 9, x_sites=(0,), z_sites=(4,))

    def results():
        forget_decoders(BS3)
        counts = monte_carlo(BS3, 0.05, 300, seed=7).counts
        return counts, exhaustive_sweep(BS3, 2), steane_recover(BS3, e)

    def refuse(self):
        raise AssertionError("a computed syndrome was checked")

    expected = results()
    with monkeypatch.context() as patch:
        patch.setattr(ClassicalCode, "_in_image", property(refuse))
        assert results() == expected
    forget_decoders(BS3)
    assert all((side._leader_table is None) != table for side in _decoder_pair(BS3))
    code = ClassicalCode([[1, 1, 1], [1, 1, 1]], Subspace.zero(2, 3))
    with pytest.raises(InconsistentSyndrome):
        code.decode_coset([1, 0])


def test_entry_points_reject_mismatched_errors():
    # X^2 on a qutrit would reduce mod 2 to the identity, with the zero syndrome.
    qutrit = PauliVector(3, [2] + [0] * 8, [0] * 9)
    short = _pauli(2, 4, x_sites=(0,))
    for entry in (syndrome_of, steane_recover):
        with pytest.raises(ValueError, match="error modulus 3 differs from the code's 2"):
            entry(BS3, qutrit)
        with pytest.raises(ValueError, match="error length 4 differs from the code's 9"):
            entry(BS3, short)
    with pytest.raises(ValueError, match="sweep weight must be >= 0, got -1"):
        exhaustive_sweep(BS3, -1)
    # Weight 0 is the identity alone, which needs no correction.
    counts = exhaustive_sweep(BS3, 0)
    assert (counts.trials, counts.corrected) == (1, 1)


def test_sweeps_list_no_letters_they_do_not_need(monkeypatch):
    # p = 65521 has about 4.3e9 single-site values. Weight 0 is the zero error
    # alone, and a weight past gf.ROW_LIMIT errors is refused before any is listed.
    def refuse(*args, **kwargs):
        raise AssertionError("letters listed")

    for name in ("_site_values", "_letter_syndromes", "_syndrome_batches"):
        monkeypatch.setattr(decode_module, name, refuse)
    split = CssSplit(Subspace.zero(65521, 2), Subspace.zero(65521, 2))
    assert exhaustive_sweep(split, 0) == TrialCounts(1, 1, 0, 0)
    with pytest.raises(ValueError, match=r"errors of weight 1 to 1 on 2 sites \(8,586,002,880\) exceed"):
        exhaustive_sweep(split, 1)


def test_out_of_range_syndrome(monkeypatch):
    # Even-weight code: d_R = 2 so no nonzero error is within range.
    code = ClassicalCode([[1, 1, 1, 1]], Subspace.zero(2, 4))
    assert code.d_r == 2
    assert code.decode_coset([1]) is None
    # Without the table the one queried syndrome is nonzero: no slot is filled.
    monkeypatch.setattr(ClassicalCode, "_leader_table", None)
    batched = ClassicalCode([[1, 1, 1, 1]], Subspace.zero(2, 4))
    assert batched._leader_table is None
    assert batched.decode_coset([1]) is None


@settings(max_examples=60, deadline=None)
@given(css_splits((2, 3, 5), 5))
def test_css_decoder_sides_are_the_logical_spaces(split):
    # Each side takes L_X (L_Z) from the split as its K, which is ker F.
    x_side, z_side = make_css_decoder(split)
    assert x_side.k is split.logical_x and x_side.r == split.h_x
    assert z_side.k is split.logical_z and z_side.r == split.h_z
    for side in (x_side, z_side):
        assert side.k == kernel(side.f, side.p)


def test_css_decoders_build_no_kernel(monkeypatch):
    split = bacon_shor(4).css_split()
    for name in ("stab_x", "stab_z", "logical_x", "logical_z"):
        getattr(split, name)

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(gf_module, "kernel", refuse)
    monkeypatch.setattr(decode_module, "kernel", refuse)
    x_side, z_side = make_css_decoder(split)
    assert x_side.k is split.logical_x and z_side.k is split.logical_z


def test_redundant_subcode_must_lie_in_the_kernel():
    # R = <110> is not in ker [1 0 0]; R = <011> is, with no kernel built.
    f = np.array([[1, 0, 0]])
    with pytest.raises(ValueError, match="redundant subcode must lie inside the kernel"):
        ClassicalCode(f, Subspace.span([[1, 1, 0]], 2, 3))
    side = ClassicalCode(f, Subspace.span([[0, 1, 1]], 2, 3))
    assert "k" not in vars(side)
    assert side.k == Subspace.span([[0, 1, 0], [0, 0, 1]], 2, 3)


@settings(max_examples=60, deadline=None)
@given(css_splits((2, 3), 4))
@example(BS3)
@example(WEIGHT_ONE_GAUGE)
def test_leaders_follow_the_one_rule(split):
    # Brute force over F_p^n: the leader of a syndrome is its least-weight,
    # then lexicographically least, vector, kept if its weight is below d_R/2.
    for side in make_css_decoder(split):
        if side.k == side.r:
            continue
        space = sorted(product(range(side.p), repeat=side.n), key=lambda v: (np.count_nonzero(v), v))
        leaders = {}
        for v in space:
            leaders.setdefault(tuple(side.syndrome(v).tolist()), v)
        syns = np.array(list(leaders), dtype=np.int64)
        rows, found = side._leaders(syns)
        # Tables store leaders in the least dtype holding p - 1; lookups give int64.
        assert rows.dtype == np.int64
        for syn, row, hit in zip(syns, rows, found):
            v = leaders[tuple(syn.tolist())]
            assert hit == (2 * np.count_nonzero(v) < side.d_r)
            assert np.array_equal(row, v if hit else np.zeros(side.n, dtype=np.int64))


def test_batched_leaders_enumerate_each_weight_once(monkeypatch):
    # The qutrit repetition code on 5 sites: d_R = 5, leaders up to weight 2.
    rep = [[1, 2, 0, 0, 0], [0, 1, 2, 0, 0], [0, 0, 1, 2, 0], [0, 0, 0, 1, 2]]
    side = ClassicalCode(rep, Subspace.zero(3, 5))
    t = (side.d_r - 1) // 2
    weights = []

    def counting(table, w, p):
        weights.append(w)
        return _syndrome_batches(table, w, p)

    monkeypatch.setattr(ClassicalCode, "_leader_table", None)
    monkeypatch.setattr(code_module, "_syndrome_batches", counting)
    # Errors of weight 1 and 2, each with a leader of its own weight.
    errors = np.vstack([np.eye(5, dtype=np.int64), 2 * np.eye(5, dtype=np.int64), [[1, 0, 2, 0, 0]]])
    syns = side.syndrome(errors)
    rows, found = side._leaders(syns)
    assert found.all() and np.array_equal(rows, errors)
    assert t == 2 and sorted(weights) == [0, 1, 2]


def _assert_table_matches_fill(side):
    """The leader table of the syndrome recursion against the enumeration over
    every syndrome, slot i being the syndrome of `_grid_index` i in both, each
    table's entries in the least dtype that holds p - 1."""
    p, letters, top = side.p, _field_letters(side.p), (side.d_r - 1) // 2
    slots, leaders = _syndrome_leaders(side.f, letters, p, top)
    fill_slots, fill_leaders = _enumerated_leaders(
        side.f, letters, p, top, lambda syns: _grid_index(syns, p), slots.size
    )
    assert leaders.dtype == fill_leaders.dtype == np.min_scalar_type(p - 1)
    assert np.array_equal(slots >= 0, fill_slots >= 0)
    kept = slots >= 0
    assert np.array_equal(leaders[slots[kept]], fill_leaders[fill_slots[kept]])
    # Leaders come in order of weight, then syndrome index.
    index = np.flatnonzero(kept)[np.argsort(slots[kept])]
    weight = np.count_nonzero(leaders, axis=1)
    assert np.array_equal(np.lexsort((index, weight)), np.arange(len(leaders)))


@pytest.mark.parametrize("l", range(3, 8))
def test_bacon_shor_leader_tables_match_the_fill(l):
    for side in make_css_decoder(bacon_shor(l).css_split()):
        _assert_table_matches_fill(side)


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=4))
@example(DOUBLED)
def test_leader_table_matches_the_fill(split):
    for side in make_css_decoder(split):
        if side.k != side.r:
            _assert_table_matches_fill(side)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(0, 3), st.booleans(), st.data())
def test_enumerated_leaders_match_the_reference(p, n, m, symplectic, data):
    # Random checks, dependent and zero rows included, over both alphabets.
    letters = _site_values(p) if symplectic else _field_letters(p)
    cols = letters.shape[1] * n
    row = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
    check = np.array(data.draw(st.lists(row, min_size=m, max_size=m)), dtype=np.int64)
    check = check.reshape(m, cols)
    top = data.draw(st.integers(0, min(n, 3)))

    def slot_of(syns):
        return _grid_index(syns, p)

    got = _enumerated_leaders(check, letters, p, top, slot_of, p**m)
    ref = reference_enumerated_leaders(check, letters, p, top, slot_of, p**m)
    for mine, theirs in zip(got, ref, strict=True):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def test_bacon_shor10_table_comes_from_the_recursion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("leader table enumerated")

    monkeypatch.setattr(code_module, "_enumerated_leaders", refuse)
    x_side = make_css_decoder(bacon_shor(10).css_split())[0]
    slots, leaders, classes = x_side._leader_table
    assert slots.size == 2**9 and np.count_nonzero(leaders, axis=1).max() == 4
    assert leaders.dtype == np.uint8
    # The zero row that slot -1 reads closes the leaders, and its class is zero.
    assert not np.any(leaders[-1]) and not np.any(classes[-1])
    assert np.array_equal(classes, leaders @ x_side._class_rows.T % 2)


def test_leader_table_wherever_the_syndromes_fit():
    # F = [I_6 | 1] over F_7: 7^6 syndromes, a table however many sites and
    # letters; K is spanned by (1, ..., 1, -1), so d_R = 7.
    f = np.hstack([np.eye(6, dtype=np.int64), np.ones((6, 1), dtype=np.int64)])
    code = ClassicalCode(f, Subspace.zero(7, 7))
    assert code.d_r == 7
    slots, leaders, classes = code._leader_table
    assert slots.size == 7**6 and leaders.dtype == np.uint8
    assert not np.any(leaders[-1]) and classes.shape == (len(leaders), 1)
    error = np.array([0, 3, 0, 0, 5, 0, 0])
    assert np.array_equal(code.decode_coset(code.syndrome(error)), error)
    # Weight 4 is beyond d_R / 2, but its coset holds one vector of weight 3.
    leader = code.decode_coset(code.syndrome([1, 1, 1, 1, 0, 0, 0]))
    assert np.array_equal(leader, [0, 0, 0, 0, 6, 6, 1])


@settings(max_examples=25, deadline=None)
@given(css_splits(primes=(5,), max_n=3), st.integers(0, 2**32 - 1))
def test_qudit_recovery_matches_brute_force(split, seed):
    assume(split.logical_x != split.h_x and split.logical_z != split.h_z)
    rng = np.random.default_rng(seed)
    ex, ez = rng.integers(0, 5, size=(2, 200, split.n))
    codes, cx, cz = _recover(split, ex, ez)
    statuses, ref_x, ref_z = brute_force_recover(split, ex, ez)
    assert [list(DecodeStatus)[c] for c in codes] == statuses
    assert np.array_equal(cx, ref_x) and np.array_equal(cz, ref_z)


@pytest.mark.parametrize("l", range(3, 11))
def test_bacon_shor_distances_and_d_r(l):
    split = bacon_shor(l).css_split()
    d = DistanceResult(l, True)
    assert css_distances(split) == (d, d, d)
    assert [side.d_r for side in make_css_decoder(split)] == [l, l]


def _counting_searches(mp):
    """Count the `_coset_distance` calls of `code` and `decode` from now on."""
    calls, search = [], code_module._coset_distance

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    for module in (code_module, decode_module):
        mp.setattr(module, "_coset_distance", counting)
    return calls


@pytest.mark.parametrize("split", [BS3, BS4, DOUBLED, qudit_bacon_shor(3, 3).css_split()],
                         ids=["bs3", "bs4", "doubled", "bs3_p3"])
def test_css_d_r_reads_the_split_record(monkeypatch, split):
    # After css_distances, both sides' d_R are d_X and d_Z with no second search.
    split = CssSplit(split.h_x, split.h_z)
    calls = _counting_searches(monkeypatch)
    d_x, d_z, _ = css_distances(split)
    assert len(calls) == 2
    calls.clear()
    assert [side.d_r for side in make_css_decoder(split)] == [d_x.value, d_z.value]
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=5), st.integers(0, 5))
def test_css_d_r_agrees_with_a_bare_search(split, budget):
    # A side's d_R, read first or after a budgeted css_distances, is the bare
    # classical code's own search of K \ R; k = 0 raises on every read.
    sides = make_css_decoder(split)
    bare = [ClassicalCode(side.f, side.r) for side in sides]
    try:
        want = [code.d_r for code in bare]
    except NoLogicalOperators:
        for _ in range(2):
            with pytest.raises(NoLogicalOperators):
                sides[0].d_r
        assert "_x_distance" not in vars(split) and "_z_distance" not in vars(split)
        return
    css_distances(split, budget)
    assert [side.d_r for side in sides] == want
    assert [d.value for d in css_distances(split)[:2]] == want


def test_classical_code_beyond_int64_takes_the_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("syndrome engine above its gate")

    monkeypatch.setattr(code_module, "_syndrome_weights", refuse)
    monkeypatch.setattr(code_module, "_syndrome_leaders", refuse)
    p = 65521
    # K = <e_5> and R = 0: p^6 syndromes of R for d_R, p^5 of F for the table.
    code = ClassicalCode(np.eye(5, 6, dtype=np.int64), Subspace.zero(p, 6))
    assert code.d_r == 1
    assert code._leader_table is None
    assert np.array_equal(code.decode_coset(np.zeros(5, dtype=np.int64)), np.zeros(6))
    assert code.decode_coset([1, 0, 0, 0, 0]) is None


def test_syndrome_linearity_and_gauge_invariance(rng):
    split = BS3
    p, n = split.p, split.n
    for _ in range(20):
        e1 = PauliVector(p, rng.integers(0, p, n), rng.integers(0, p, n))
        e2 = PauliVector(p, rng.integers(0, p, n), rng.integers(0, p, n))
        s1, s2 = syndrome_of(split, e1), syndrome_of(split, e2)
        s12 = syndrome_of(split, e1 + e2)
        assert np.array_equal(s12.x_syn, (s1.x_syn + s2.x_syn) % p)
        assert np.array_equal(s12.z_syn, (s1.z_syn + s2.z_syn) % p)
    # Adding a gauge element leaves both syndromes unchanged.
    gx = split.h_x.basis[0]
    gz = split.h_z.basis[0]
    e = _pauli(p, n, x_sites=(0,), z_sites=(4,))
    g = PauliVector(p, gx, gz)
    s, sg = syndrome_of(split, e), syndrome_of(split, e + g)
    assert np.array_equal(s.x_syn, sg.x_syn)
    assert np.array_equal(s.z_syn, sg.z_syn)


@settings(max_examples=25, deadline=None)
@given(st.one_of(css_splits(primes=(2, 3), max_n=4), css_splits(primes=(5,), max_n=3)),
       st.booleans())
@example(WEIGHT_ONE_GAUGE, False)
def test_sweep_counts_match_brute_force(split, table):
    # Every weight layer, swept from summed letter syndromes, against the
    # statuses of brute-force recovery of each dense `_weight_batches` error;
    # with the table switched off, each batch fills its own leaders. p = 5
    # stops at n = 3: its 25^4 errors at n = 4 take the brute force seconds.
    assume(split.logical_x != split.h_x and split.logical_z != split.h_z)
    p, n = split.p, split.n
    with pytest.MonkeyPatch.context() as patch:
        if not table:
            patch.setattr(ClassicalCode, "_leader_table", None)
        forget_decoders(split)
        try:
            got = [exhaustive_sweep(split, w) for w in range(n + 1)]
            assert all((side._leader_table is None) != table for side in _decoder_pair(split))
        finally:
            forget_decoders(split)
    for w, counts in enumerate(got):
        errors = np.vstack(list(_weight_batches(_site_values(p), n, w)))
        statuses = brute_force_recover(split, errors[:, :n], errors[:, n:])[0]
        tally = [statuses.count(status) for status in DecodeStatus]
        assert counts == TrialCounts(len(errors), *tally)


@pytest.mark.parametrize("split", [BS3, BS4, DOUBLED], ids=["bs3", "bs4", "doubled"])
def test_all_weight_one_errors_corrected(split):
    counts = exhaustive_sweep(split, 1)
    assert counts.trials == 3 * split.n
    assert counts.corrected == counts.trials
    assert counts.logical_failures == 0 and counts.out_of_range == 0


def test_bare_logical_fails():
    # A full first grid column of X is a bare X logical of Bacon-Shor 3x3:
    # zero syndrome, so the decoder applies nothing and the residual is
    # a logical operator.
    e = _pauli(2, 9, x_sites=(0, 3, 6))
    out = steane_recover(BS3, e)
    assert out.status is DecodeStatus.LOGICAL_FAILURE
    assert not np.any(syndrome_of(BS3, e).x_syn)


def test_recover_reports_residual_in_gauge():
    e = _pauli(2, 9, x_sites=(1,), z_sites=(5,))
    out = steane_recover(BS3, e)
    assert out.status is DecodeStatus.CORRECTED
    assert BS3.h_x.contains(out.residual.x)
    assert BS3.h_z.contains(out.residual.z)


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3), max_n=4), st.booleans())
@example(WEIGHT_ONE_GAUGE, False)
def test_batch_recovery_matches_brute_force(split, table):
    # Every error (a, b) in F_p^n x F_p^n, recovered in one batch; with the
    # table switched off, the corrections come from the batch's own leaders.
    assume(split.logical_x != split.h_x and split.logical_z != split.h_z)
    p, n = split.p, split.n
    vecs = np.array(list(product(range(p), repeat=n)), dtype=np.int64).reshape(-1, n)
    ex, ez = np.repeat(vecs, len(vecs), axis=0), np.tile(vecs, (len(vecs), 1))
    with pytest.MonkeyPatch.context() as patch:
        if not table:
            patch.setattr(ClassicalCode, "_leader_table", None)
        forget_decoders(split)
        try:
            for side, e in zip(_decoder_pair(split), (ex, ez)):
                assert (side._leader_table is None) != table
                # Slot -1 reads the zero row, whose class is zero, on both branches.
                _, leaders, classes = side._slots(side.syndrome(e))
                assert not np.any(leaders[-1]) and not np.any(classes[-1])
            codes, cx, cz = _recover(split, ex, ez)
            picks = range(0, len(ex), 97)
            outs = [steane_recover(split, PauliVector(p, ex[i], ez[i])) for i in picks]
        finally:
            forget_decoders(split)
    statuses, ref_x, ref_z = brute_force_recover(split, ex, ez)
    assert [list(DecodeStatus)[c] for c in codes] == statuses
    assert np.array_equal(cx, ref_x) and np.array_equal(cz, ref_z)
    # steane_recover is the one-error case of the batch.
    for i, out in zip(picks, outs):
        assert out.status is statuses[i]
        assert out.correction == PauliVector(p, cx[i], cz[i])


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=4), st.booleans(), st.integers(0, 2**32 - 1))
@example(BS3, True, 0)
@example(BS3, False, 0)
def test_class_lookup_statuses_match_brute_force(split, table, seed):
    # One batch of errors, summed from their hits; the leaders' classes come from
    # the table, or, with the table switched off, from the batch's own leaders.
    assume(split.logical_x != split.h_x and split.logical_z != split.h_z)
    ex, ez = np.random.default_rng(seed).integers(0, split.p, size=(2, 150, split.n))
    with pytest.MonkeyPatch.context() as patch:
        if not table:
            patch.setattr(ClassicalCode, "_leader_table", None)
        forget_decoders(split)
        try:
            assert all((side._leader_table is None) != table for side in _decoder_pair(split))
            rows, out = _hit_products(split, *error_hits(np.hstack([ex, ez]), split.n))
            codes = _trials(split, out)[0]
        finally:
            forget_decoders(split)
    statuses = brute_force_recover(split, ex, ez)[0]
    assert [list(DecodeStatus)[c] for c in codes] == [statuses[i] for i in rows]
    # A hitless error is never looked up: brute force corrects it too.
    hitless = np.setdiff1d(np.arange(len(ex)), rows)
    assert all(statuses[i] is DecodeStatus.CORRECTED for i in hitless)


@settings(max_examples=80, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=5))
@example(BS3)
def test_class_rows_are_independent_modulo_the_stabilizers(split):
    # X side: k rows of H_X^theta, independent modulo S_Z = F's row space;
    # the Z side mirrors it.
    x_side, z_side = make_css_decoder(split)
    k = split.logical_x.dim - split.h_x.dim
    for side, h, stab in ((x_side, split.h_x, split.stab_z), (z_side, split.h_z, split.stab_x)):
        rows = side._class_rows
        assert rows.shape == (k, split.n)
        assert h.complement().contains(rows)
        assert Subspace.span(np.vstack([stab.basis, rows]), split.p, split.n).dim == stab.dim + k


def test_class_rows_build_no_kernel(monkeypatch):
    # S_Z = L_X^theta and S_X = L_Z^theta are in hand, as are H_X^theta and
    # H_Z^theta once the distances are: the class rows take one greedy scan.
    split = bacon_shor(4).css_split()
    x_side, z_side = make_css_decoder(split)
    x_side.d_r, z_side.d_r

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(gf_module, "kernel", refuse)
    assert len(x_side._class_rows) == len(z_side._class_rows) == 1


def _qutrit_bacon_shor3():
    """Bacon-Shor on a 3 x 3 qutrit grid: H_X from column pairs, H_Z from row pairs."""
    eye = np.eye(9, dtype=np.int64)

    def pairs(step):
        rows = [eye[a] - eye[a + step] for a in range(9 - step) if step == 3 or a % 3 < 2]
        return Subspace.span(rows, 3, 9)

    return CssSplit(pairs(3), pairs(1))


def test_counts_do_not_depend_on_chunk_size(monkeypatch):
    qudit = _qutrit_bacon_shor3()
    assert [side.d_r for side in make_css_decoder(qudit)] == [3, 3]

    def counts():
        forget_decoders(BS3, BS4, qudit)
        return [
            monte_carlo(BS3, 0.05, 300, seed=7).counts,
            monte_carlo(qudit, 0.1, 100, seed=3).counts,
            exhaustive_sweep(BS4, 2),
            exhaustive_sweep(qudit, 2),
        ]

    expected = counts()
    monkeypatch.setattr(code_module, "_BATCH_ROWS", 7)
    assert counts() == expected
    forget_decoders(BS3, BS4, qudit)


@settings(max_examples=60, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=5), st.sampled_from([0.0, 0.01, 0.3, 1.0]),
       st.integers(0, 2**32 - 1))
@example(BS3, 0.3, 0)
def test_monte_carlo_matches_the_dense_product(split, q, seed):
    # The sampler's draws, densified: one dense product per side and a lookup of
    # every trial, hitless or not, give the counts that the hits give. Chunks of
    # 7 trials split the hit rows across chunks; a code with nothing to decode
    # raises on both paths, whatever the draws.
    trials = 40

    def outcome(counts):
        try:
            return counts()
        except NoLogicalOperators:
            return None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(code_module, "_BATCH_ROWS", 7)
        got = outcome(lambda: monte_carlo(split, q, trials, seed).counts)
        hits = decode_module._sampled_errors(split, q, trials, seed)
        errors = dense_errors(hits, trials, split.n)
    want = outcome(lambda: _tally(split, [reference_products(split, errors)], trials))
    assert got == want
    assert (got is None) == (split.logical_x == split.h_x)


def test_hitless_trials_are_not_looked_up(monkeypatch):
    def refuse(*args):
        raise AssertionError("a hitless trial was looked up")

    monkeypatch.setattr(decode_module, "_trials", refuse)
    assert monte_carlo(BS3, 0.0, 500, seed=1).counts == TrialCounts(500, 500, 0, 0)
    assert exhaustive_sweep(BS3, 0) == TrialCounts(1, 1, 0, 0)
    # No logical operators: nothing to decode, hits or none.
    full = Subspace.span(np.eye(3, dtype=np.int64), 2, 3)
    with pytest.raises(NoLogicalOperators):
        monte_carlo(CssSplit(full, full), 0.0, 5, seed=0)


def test_zero_error_is_corrected_by_zero():
    for split in (BS3, _qutrit_bacon_shor3(), DOUBLED):
        zero = PauliVector(split.p, [0] * split.n, [0] * split.n)
        out = steane_recover(split, zero)
        assert out.status is DecodeStatus.CORRECTED
        assert out.correction == zero and out.residual == zero


def test_sweeps_build_one_letter_table_per_decoder_pair(monkeypatch):
    # The table is the pair's, built by the first sweep of weight >= 1 and no sooner.
    expected = [exhaustive_sweep(BS4, w) for w in (1, 2, 3)]
    builds = []

    def counting(*args):
        builds.append(args[0].shape)
        return _letter_syndromes(*args)

    monkeypatch.setattr(decode_module, "_letter_syndromes", counting)
    forget_decoders(BS4)
    try:
        monte_carlo(BS4, 0.05, 300, seed=7)
        exhaustive_sweep(BS4, 0)
        assert builds == []
        assert [exhaustive_sweep(BS4, w) for w in (1, 2, 3)] == expected
    finally:
        forget_decoders(BS4)
    # diag([F; Z]_X, [F; Z]_Z): 3 checks and 1 class row per side, 16 sites per side.
    assert builds == [(8, 32)]


def test_monte_carlo_deterministic():
    a = monte_carlo(BS3, 0.05, 300, seed=7)
    b = monte_carlo(BS3, 0.05, 300, seed=7)
    assert a.counts == b.counts
    assert a.failure_rate == b.failure_rate


def test_monte_carlo_noiseless():
    report = monte_carlo(BS3, 0.0, 50, seed=1)
    assert report.counts.corrected == 50
    with pytest.raises(ValueError):
        monte_carlo(BS3, 1.5, 10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo(BS3, 0.1, 0, seed=0)
    with pytest.raises(ValueError, match="seed"):
        monte_carlo(BS3, 0.1, 10, seed=-1)


def test_readme_failure_rates_of_bacon_shor_3_and_4():
    # The README's sampled table: each cell is one 20,000-trial run at seed 1.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Logical-failure rates (sampled)")[1].split("```")[0]
    for l, split in ((3, BS3), (4, BS4)):
        rates = [monte_carlo(split, q, 20_000, seed=1).failure_rate for q in (0.01, 0.02, 0.05)]
        row = f"| {l} | {split.n} | " + " | ".join(f"{r:.5f}" for r in rates) + " |"
        assert row in table.splitlines()


def test_search_decoding_matches_table(rng, monkeypatch):
    # With the table disabled, leaders are filled per batch of queries; each
    # achievable syndrome, alone or in a batch, gets the table's answer.
    splits = [BS3, BS4, DOUBLED]
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 7))
        splits.append(CssSplit(random_subspace(rng, p, n), random_subspace(rng, p, n)))
    sides = [side for split in splits for side in make_css_decoder(split) if side.k != side.r]
    expected = []
    for side in sides:
        # The achievable syndromes are the column space of the parity check.
        syndromes = Subspace.span(side.f.T, side.p, side.f.shape[0]).all_elements()
        # One batch holds every syndrome twice, the zero one included, shuffled.
        batch = rng.permutation(np.vstack([syndromes, syndromes]))
        answers = [(syn, side.decode_coset(syn)) for syn in syndromes]
        expected.append((batch, side._leaders(batch), answers))
        assert side._leader_table is not None
    monkeypatch.setattr(ClassicalCode, "_leader_table", None)
    nonzero = 0
    for side, (batch, (rows, found), answers) in zip(sides, expected):
        search = ClassicalCode(side.f, side.r)
        assert search._leader_table is None
        got_rows, got_found = search._leaders(batch)
        assert np.array_equal(got_found, found) and np.array_equal(got_rows, rows)
        for syn, leader in answers:
            got = search.decode_coset(syn)
            if leader is None:
                assert got is None
            else:
                assert got is not None and np.array_equal(got, leader)
                nonzero += bool(np.any(leader))
    assert nonzero >= 30


def test_respects_weight():
    assert respects_weight(BS3.h_x)
    assert respects_weight(BS4.h_z)
    assert respects_weight(Subspace.zero(2, 4))
    assert not respects_weight(Subspace.span([[1, 1, 1, 0]], 2, 4))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)).flatmap(
    lambda p: st.integers(1, 6).flatmap(lambda n: subspaces(p, n))))
# Zero columns of the check: e_0 and e_2 lie in h.
@example(Subspace.span([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 4]], 5, 4))
# Parallel columns with different scalars: the check's columns 1 and 3 are 5
# and 2 times its columns 0 and 2.
@example(Subspace.span([[1, 4, 0, 0], [0, 0, 1, 3]], 7, 4))
@example(Subspace.span([[1, 2, 0], [0, 0, 1]], 3, 3))
# The zero space and the full space.
@example(Subspace.zero(7, 5))
@example(Subspace.full(5, 6))
@example(Subspace.zero(2, 1))
@example(Subspace.full(3, 1))
# A weight-3 generator, alone and beside weight-2 ones.
@example(Subspace.span([[1, 2, 1, 0, 0]], 3, 5))
@example(Subspace.span([[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], 2, 5))
@example(Subspace.span([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 0, 0, 2, 3]], 5, 5))
def test_respects_weight_matches_the_enumeration(h):
    assert respects_weight(h) == reference_respects_weight(h)


def test_respects_weight_lists_no_vector(monkeypatch):
    # The check's columns alone: no weight layer, no spelled vector and no
    # echelon, once h's complement is built.
    def refuse(*args, **kwargs):
        raise AssertionError("a vector was listed or echeloned")

    spaces = [BS3.h_x, bacon_shor(10).css_split().h_x, Subspace.span([[1, 1, 1, 0]], 2, 4),
              Subspace.full(3, 4), Subspace.zero(5, 3)]
    expected = [reference_respects_weight(h) for h in spaces]
    assert expected == [True, True, False, True, True]
    for h in spaces:
        h.complement()
    for module, name in ((code_module, "_syndrome_batches"), (code_module, "_spelled"),
                         (decode_module, "_syndrome_batches")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(Subspace, "span", classmethod(refuse))
    assert [respects_weight(h) for h in spaces] == expected


def test_par_decoder_bacon_shor4():
    dec = par_decoder_build(BS4, "X")
    assert dec.sigma0 == (3, 7, 11, 15)
    assert np.array_equal(dec.par_matrix, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    assert dec.kernel.basis.tolist() == [[1, 1, 1, 1]]
    assert dec.d_par == 4


def test_par_decoder_corrects_low_quotient_weight(rng):
    dec = par_decoder_build(BS4, "X")
    for _ in range(40):
        a = rng.integers(0, 2, size=16)
        if dec.coset_weight(a) >= dec.d_par / 2:
            continue
        syn = (dec.f @ a) % 2
        decoded = dec.decode(syn)
        assert BS4.h_x.contains((a - decoded) % 2)


def test_par_decoder_not_weight_respecting():
    h_x = Subspace.span([[1, 1, 1, 0]], 2, 4)
    split = CssSplit(h_x, Subspace.zero(2, 4))
    with pytest.raises(NotWeightRespecting):
        par_decoder_build(split, "X")
    with pytest.raises(ValueError):
        par_decoder_build(BS4, "Y")


@st.composite
def weight_respecting_splits(draw):
    """A CssSplit whose H_X is spanned by random weight-1 and weight-2 rows; any H_Z."""
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 5))
    site = st.integers(0, n - 1)
    # Letter a on one site and b on another; b = 0 or one site twice gives weight 1.
    pairs = draw(st.lists(st.tuples(site, st.integers(1, p - 1), site, st.integers(0, p - 1))))
    rows = np.zeros((len(pairs), n), dtype=np.int64)
    for i, (s, a, t, b) in enumerate(pairs):
        rows[i, t] = b
        rows[i, s] = a
    return CssSplit(Subspace.span(rows, p, n), draw(subspaces(p, n)))


@settings(max_examples=80, deadline=None)
@given(weight_respecting_splits())
def test_par_decoder_matches_coset_distance_and_brute_force_leaders(split):
    p = split.p
    assert respects_weight(split.h_x)
    try:
        d_x = css_distances(split)[0].value
    except NoLogicalOperators:
        with pytest.raises(NoLogicalOperators):
            par_decoder_build(split, "X")
        return
    dec = par_decoder_build(split, "X")
    # On a weight-respecting gauge code the quotient and coset distances agree.
    assert dec.d_par == d_x
    # Brute-force leader of each achievable syndrome: least weight, then
    # lexicographically least, over all of F_p^{|sigma0|}.
    m = len(dec.sigma0)
    space = sorted(product(range(p), repeat=m), key=lambda u: (np.count_nonzero(u), u))
    leaders = {}
    for u in space:
        leaders.setdefault(tuple((dec.par_matrix @ u % p).tolist()), u)
    for syn, u in leaders.items():
        got = dec.decode(syn)
        if 2 * np.count_nonzero(u) < dec.d_par:
            want = np.zeros(split.n, dtype=np.int64)
            want[list(dec.sigma0)] = u
            assert got is not None and np.array_equal(got, want)
        else:
            assert got is None


def test_par_decoder_never_enumerates_the_kernel(monkeypatch):
    def refuse(self):
        raise AssertionError("Subspace.all_elements called")

    monkeypatch.setattr(Subspace, "all_elements", refuse)
    dec = par_decoder_build(BS4, "X")
    a = np.zeros(16, dtype=np.int64)
    a[dec.sigma0[1]] = 1
    assert np.array_equal(dec.decode(dec.f @ a % 2), a)
    zero = Subspace.zero(2, 12)
    dec = par_decoder_build(CssSplit(zero, zero), "X")
    assert dec.d_par == 1 and dec.kernel.dim == 12
    assert np.array_equal(dec.decode(np.zeros(0, dtype=np.int64)), np.zeros(12))


def test_quotient_weight_dominates_coset_weight(rng):
    # Prop. 10: min wt(a + H_X) <= wt_sigma0(a + H_X).
    dec = par_decoder_build(BS4, "X")
    elems = BS4.h_x.all_elements()
    for _ in range(50):
        a = rng.integers(0, 2, size=16)
        min_wt = int(np.count_nonzero((elems + a) % 2, axis=1).min())
        assert min_wt <= dec.coset_weight(a)


def test_decoder_pair_is_held_by_its_split():
    # Built on first use and held in the split's __dict__: the split is its one
    # owner, so the pair goes with it. A split equal in value builds its own,
    # which decodes alike.
    split = bacon_shor(3).css_split()
    assert "_decoder_pair" not in split.__dict__
    first = _decoder_pair(split)
    assert split.__dict__["_decoder_pair"] is first and _decoder_pair(split) is first
    other = bacon_shor(3).css_split()
    assert other == split and _decoder_pair(other) is not first
    assert monte_carlo(other, 0.05, 300, seed=7) == monte_carlo(split, 0.05, 300, seed=7)
    side = weakref.ref(first[0])
    del split, first
    gc.collect()
    assert side() is None
