"""The Monte-Carlo sampler, checked in distribution against fixed bounds.

Every test runs on the package's sampler (`decode._sampled_errors`), which
yields each chunk's hits, and on `reference_sampled_errors`, the
one-trial-at-a-time sampler of earlier versions, its dense chunks read as
hits. The two draw different streams from one seed, so they are held
to the same laws, not to the same samples: per-site hit rate q, letters
uniform over the p^2 - 1 nontrivial single-site values, and Monte-Carlo
failure counts within binomial bounds of each other. Seeds are fixed, and
each bound is loose enough (5 standard deviations, or a chi-square tail
of e^-16) that a correct sampler passes it on any seed.
"""

import math

import numpy as np
import pytest

from subcss import CssSplit, Subspace, bacon_shor, monte_carlo
from subcss import decode
from subcss.code import _site_values
from subcss.decode import _hit_products, _tally

from conftest import dense_errors, error_hits, qudit_bacon_shor, reference_sampled_errors


def reference_hits(split, q, trials, seed):
    """The hits of `reference_sampled_errors`' chunks, rows counted from the first trial."""
    lo = 0
    for chunk in reference_sampled_errors(split, q, trials, seed):
        rows, *letters = error_hits(chunk, split.n)
        yield rows + lo, *letters
        lo += len(chunk)


SAMPLERS = [
    pytest.param(decode._sampled_errors, id="package"),
    pytest.param(reference_hits, id="reference"),
]

# Binomial counts pass within Z standard deviations of their mean.
Z = 5.0


def _sample(sampler, p, n, q, trials, seed):
    """The sampler's errors on n sites at prime p, its hits densified to one (trials, 2n) array."""
    split = CssSplit(Subspace.zero(p, n), Subspace.zero(p, n))
    return dense_errors(sampler(split, q, trials, seed), trials, n)


def _hits(e, n):
    return (e[:, :n] != 0) | (e[:, n:] != 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_letters_are_rows_of_the_site_values(p):
    # From the same draws, the package's hit letter t = min(floor(u / q * m),
    # m - 1) is row t of `_site_values(p)`, which it computes without listing.
    n, q, trials, seed, m = 6, 0.7, 400, 9, p * p - 1
    e = _sample(decode._sampled_errors, p, n, q, trials, seed)
    u = np.random.default_rng(seed).random((trials, n))
    rows, sites = np.nonzero(u < q)
    t = np.minimum((u[rows, sites] / q * m).astype(np.int64), m - 1)
    expected = np.zeros_like(e)
    expected[rows, sites], expected[rows, n + sites] = _site_values(p)[t].T
    assert np.array_equal(e, expected)
    assert set(t.tolist()) == set(range(m))


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("p, n, q, seed", [(2, 9, 0.05, 1), (3, 9, 0.1, 2), (5, 4, 0.3, 3)])
def test_each_site_is_hit_with_probability_q(sampler, p, n, q, seed):
    trials = 20_000
    hits = _hits(_sample(sampler, p, n, q, trials, seed), n)
    sd = math.sqrt(trials * q * (1 - q))
    assert np.all(np.abs(hits.sum(axis=0) - trials * q) <= Z * sd)
    # Sites are independent: a trial misses every site with probability (1 - q)^n.
    clean = (1 - q) ** n
    clean_sd = math.sqrt(trials * clean * (1 - clean))
    assert abs(np.count_nonzero(~hits.any(axis=1)) - trials * clean) <= Z * clean_sd


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("p, seed", [(2, 4), (3, 5), (5, 6)])
def test_hit_letters_are_uniform(sampler, p, seed):
    n, m = 8, p * p - 1
    e = _sample(sampler, p, n, 0.5, 6000, seed)
    assert e.min() >= 0 and e.max() < p
    # A hit site's letter (x, z) != (0, 0), read as the integer x p + z in 1 .. m.
    letters = (e[:, :n] * p + e[:, n:])[_hits(e, n)]
    counts = np.bincount(letters, minlength=p * p)[1:]
    expected = letters.size / m
    assert expected > 500
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # Laurent-Massart: P(chi2_k >= k + 2 sqrt(k x) + 2 x) <= e^-x, here x = 16.
    k = m - 1
    assert chi2 <= k + 2 * math.sqrt(16 * k) + 32


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_q_one_hits_every_site_and_q_zero_none(sampler, p):
    n, trials = 7, 500
    every = _sample(sampler, p, n, 1.0, trials, 8)
    assert every.shape == (trials, 2 * n) and _hits(every, n).all()
    assert every.min() >= 0 and every.max() < p
    none = _sample(sampler, p, n, 0.0, trials, 8)
    assert none.shape == (trials, 2 * n) and not none.any()


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize(
    "split, q",
    [
        pytest.param(bacon_shor(3).css_split(), 0.05, id="bacon_shor3"),
        pytest.param(qudit_bacon_shor(3, 3).css_split(), 0.1, id="qutrit_bacon_shor3"),
    ],
)
def test_failure_counts_match_the_reference_sampler(monkeypatch, sampler, split, q):
    trials = 10_000
    monkeypatch.setattr(decode, "_sampled_errors", sampler)
    got = monte_carlo(split, q, trials, seed=21).counts
    chunks = reference_hits(split, q, trials, 22)
    ref = _tally(split, (_hit_products(split, *hits)[1] for hits in chunks), trials)
    assert got.trials == ref.trials == trials
    for pick in (
        lambda c: c.logical_failures,
        lambda c: c.out_of_range,
        lambda c: c.logical_failures + c.out_of_range,
    ):
        a, b = pick(got), pick(ref)
        # Two samples of one binomial: their difference has variance 2 T r (1 - r).
        rate = max((a + b) / (2 * trials), 1 / trials)
        assert abs(a - b) <= Z * math.sqrt(2 * trials * rate * (1 - rate)) + 1
