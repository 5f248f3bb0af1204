"""Per-layer micro-benchmarks of decoding and subspace intersection on fixed inputs.

Times the `Par` decoder build and its weight-respect test, coset-leader tables
(alone on Bacon-Shor 5; with `d_r` on Bacon-Shor 7 and 10), the Monte-Carlo
sampler alone (its hits), Monte-Carlo decode trials with warm decoders (table
lookups on Bacon-Shor 4 and 10, the batched leader fill with the table switched
off, and mostly hitless trials at q = 0.01 on the 4 x 4 qutrit Bacon-Shor code),
an exhaustive sweep of every weight-2 error of Bacon-Shor 4 with warm decoders,
and `Subspace.intersect`.

Not part of the test suite (the file name does not match `test_*.py`). Run:

    PYTHONPATH=src python -m pytest tests/bench_decode.py --benchmark-only
"""

import math

import numpy as np
import pytest

from subcss import (
    ClassicalCode,
    Subspace,
    bacon_shor,
    exhaustive_sweep,
    monte_carlo,
    par_decoder_build,
    respects_weight,
)
from subcss.decode import _decoder_pair, _sampled_errors, make_css_decoder

from conftest import qudit_bacon_shor, record_rate


def test_par_decoder_build_bacon_shor6(benchmark):
    split = bacon_shor(6).css_split()
    dec = benchmark(par_decoder_build, split, "X")
    assert dec.d_par == 6


def test_respects_weight_bacon_shor10(benchmark):
    # A fresh copy of H_X each round, so a round also builds its check, the
    # complement that `par_decoder_build` would build.
    h_x = bacon_shor(10).css_split().h_x
    assert benchmark.pedantic(respects_weight, rounds=20,
                              setup=lambda: ((Subspace(h_x.p, h_x.ambient, h_x.basis),), {}))


def test_leader_table_bacon_shor5_x(benchmark):
    # A fresh code each round, its distance known, so a round times only the table.
    x_side = make_css_decoder(bacon_shor(5).css_split())[0]

    def fresh():
        code = ClassicalCode(x_side.f, x_side.r)
        code.d_r = x_side.d_r
        return (code,), {}

    slots, leaders, _ = benchmark.pedantic(lambda code: code._leader_table, setup=fresh, rounds=20)
    # 16 leaders, one per syndrome, and the zero row that slot -1 reads.
    assert slots.size == 2**4 and len(leaders) == 17


@pytest.mark.parametrize("l", [7, 10])
def test_d_r_and_leader_table_bacon_shor_x(benchmark, l):
    # A fresh code each round, handed the split's K as `make_css_decoder` hands
    # it: a round runs d_R, then the table up to weight (d_R - 1) // 2.
    x_side = make_css_decoder(bacon_shor(l).css_split())[0]

    def fresh():
        code = ClassicalCode(x_side.f, x_side.r)
        code.k = x_side.k
        return (code,), {}

    def build(code):
        return code.d_r, code._leader_table

    d_r, (slots, leaders, _) = benchmark.pedantic(build, setup=fresh, rounds=5)
    assert d_r == l and slots.size == 2 ** (l - 1)


def _decode_trials(benchmark, split, trials, q=0.05):
    # Warm decoders: the leader table (if any) and both d_R are built before timing.
    for side in _decoder_pair(split):
        side.d_r, side._leader_table
    report = benchmark(monte_carlo, split, q, trials, 3)
    assert report.counts.trials == trials
    record_rate(benchmark, "trials_per_s", trials)


def test_monte_carlo_bacon_shor4(benchmark):
    _decode_trials(benchmark, bacon_shor(4).css_split(), 5000)


def test_monte_carlo_bacon_shor10(benchmark):
    _decode_trials(benchmark, bacon_shor(10).css_split(), 20_000)


def test_monte_carlo_low_q_qutrit_bacon_shor4(benchmark):
    # q = 0.01 on 16 qutrits: 85% of the trials are hitless, tallied with no lookup.
    _decode_trials(benchmark, qudit_bacon_shor(3, 4).css_split(), 5000, q=0.01)


def test_sampler_bacon_shor10(benchmark):
    # The hits of 20,000 trials on 100 sites, drawn but not decoded.
    split, trials, q = bacon_shor(10).css_split(), 20_000, 0.05

    def draw():
        return sum(len(rows) for rows, *_ in _sampled_errors(split, q, trials, 3))

    # Each of the trials * n sites is hit with probability q: within 5 standard deviations.
    mean = trials * split.n * q
    assert abs(benchmark(draw) - mean) <= 5 * math.sqrt(mean * (1 - q))
    record_rate(benchmark, "trials_per_s", trials)


def test_monte_carlo_bacon_shor5_without_table(benchmark, monkeypatch):
    # Every chunk of trials fills its distinct syndromes in one enumeration.
    monkeypatch.setattr(ClassicalCode, "_leader_table", None)
    split = bacon_shor(5).css_split()
    _decode_trials(benchmark, split, 5000)
    assert all(side._leader_table is None for side in _decoder_pair(split))


def test_exhaustive_sweep_bacon_shor4_weight2(benchmark):
    # All C(16, 2) * 3^2 = 1080 errors of symplectic weight 2, in one batch.
    split = bacon_shor(4).css_split()
    for side in _decoder_pair(split):
        side.d_r, side._leader_table
    counts = benchmark(exhaustive_sweep, split, 2)
    assert counts.trials == 1080
    record_rate(benchmark, "errors_per_s", counts.trials)


def test_intersect_dims_30_40_p3(benchmark):
    rng = np.random.default_rng(30)
    a = Subspace.span(rng.integers(0, 3, size=(30, 120)), 3, 120)
    b = Subspace.span(rng.integers(0, 3, size=(40, 120)), 3, 120)
    assert (a.dim, b.dim) == (30, 40)
    assert benchmark(a.intersect, b).dim == 0
