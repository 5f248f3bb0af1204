"""Steane-type recovery, classical coset decoding, and the quotient decoder."""

import numpy as np
import pytest

from subcss import decode
from subcss import (
    ClassicalCode,
    CssSplit,
    DecodeStatus,
    InconsistentSyndrome,
    NotWeightRespecting,
    PauliVector,
    Subspace,
    bacon_shor,
    delta,
    exhaustive_sweep,
    five_qubit,
    monte_carlo,
    par_decoder_build,
    respects_weight,
    steane_recover,
    syndrome_of,
)
from subcss.decode import _decoder_pair, make_css_decoder

from conftest import random_subspace


BS3 = bacon_shor(3).css_split()
BS4 = bacon_shor(4).css_split()
DOUBLED = delta(five_qubit()).result.css_split()


def _pauli(p, n, x_sites=(), z_sites=()):
    x = np.zeros(n, dtype=np.int64)
    z = np.zeros(n, dtype=np.int64)
    x[list(x_sites)] = 1
    z[list(z_sites)] = 1
    return PauliVector(p, x, z)


def test_repetition_code_decoding():
    k = Subspace.span([[1, 1, 1]], 2, 3)
    code = ClassicalCode(k, Subspace.zero(2, 3), [[1, 1, 0], [0, 1, 1]])
    assert code.d_r == 3
    for i in range(3):
        e = np.zeros(3, dtype=np.int64)
        e[i] = 1
        assert np.array_equal(code.decode_coset(code.syndrome(e)), e)
    assert np.array_equal(code.decode_coset([0, 0]), [0, 0, 0])


def test_classical_code_validation():
    k = Subspace.span([[1, 1, 1]], 2, 3)
    with pytest.raises(ValueError):
        ClassicalCode(k, Subspace.zero(2, 3), [[1, 0, 0]])  # kernel mismatch
    with pytest.raises(ValueError):
        ClassicalCode(k, Subspace.full(2, 3), [[1, 1, 0], [0, 1, 1]])


def test_inconsistent_syndrome():
    # F has dependent rows, so (1, 0) is outside its image.
    k = Subspace.span([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2, 3)
    code = ClassicalCode(k, Subspace.zero(2, 3), [[1, 1, 1], [1, 1, 1]])
    with pytest.raises(InconsistentSyndrome):
        code.decode_coset([1, 0])


def test_out_of_range_syndrome():
    # Even-weight code: d_R = 2 so no nonzero error is within range.
    k = Subspace.span([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], 2, 4)
    code = ClassicalCode(k, Subspace.zero(2, 4), [[1, 1, 1, 1]])
    assert code.d_r == 2
    assert code.decode_coset([1]) is None


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


def test_search_decoding_matches_table(rng, monkeypatch):
    # Per-query search (table disabled) answers every achievable syndrome
    # exactly as the coset-leader table does.
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
        expected.append([(syn, side.decode_coset(syn)) for syn in syndromes])
        assert side._leader_table is not None
    monkeypatch.setattr(decode, "_TABLE_LIMIT", 0)
    nonzero = 0
    for side, answers in zip(sides, expected):
        search = ClassicalCode(side.k, side.r, side.f)
        assert search._leader_table is None
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


def test_quotient_weight_dominates_coset_weight(rng):
    # Prop. 10: min wt(a + H_X) <= wt_sigma0(a + H_X).
    dec = par_decoder_build(BS4, "X")
    elems = BS4.h_x.all_elements()
    for _ in range(50):
        a = rng.integers(0, 2, size=16)
        min_wt = int(np.count_nonzero((elems + a) % 2, axis=1).min())
        assert min_wt <= dec.coset_weight(a)


def test_decoder_cache_is_bounded_and_shared_by_value():
    _decoder_pair.cache_clear()
    for n in range(1, 41):
        zero = Subspace.zero(2, n)
        _decoder_pair(CssSplit(zero, zero))
    assert _decoder_pair.cache_info().currsize <= 32
    # A split equal in value to a cached one reuses its decoders.
    first = _decoder_pair(bacon_shor(3).css_split())
    hits = _decoder_pair.cache_info().hits
    assert _decoder_pair(bacon_shor(3).css_split()) is first
    assert _decoder_pair.cache_info().hits == hits + 1
