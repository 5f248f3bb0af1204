"""Per-layer micro-benchmarks of distance search on fixed inputs.

Times the code tower (`parameters()` of a fresh CSS and a fresh non-CSS
code), the core of `double` on a fresh non-CSS code, the CSS distance route
(the syndrome engine on Bacon-Shor 6, 7 and 10), the symplectic search it
replaces on CSS codes, the weight-layer enumerator (`_syndrome_batches`), the
search's test of one batch by its summed letter syndromes, and the symplectic
distance of the five-qudit code at p = 5.
Not part of the test suite (the file name does not match `test_*.py`). Run:

    PYTHONPATH=src python -m pytest tests/bench_code.py --benchmark-only
"""

from math import comb

import numpy as np
import pytest

from subcss import DistanceResult, bacon_shor, css_distances, delta, random_code
from subcss.code import (
    _BATCH_ROWS,
    _letter_syndromes,
    _site_values,
    _syndrome_batches,
)

from conftest import five_qudit, record_rate, symplectic_distance


def test_parameters_delta_bacon_shor10(benchmark):
    # A fresh CSS double each round (n = 200). Its setup builds the source's
    # tower, which the double's split borrows as its X side, so a round times
    # only the double's Z side, the two theta-complements of that tower.
    params = benchmark.pedantic(lambda code: code.parameters(),
                                setup=lambda: ((delta(bacon_shor(10)).result,), {}), rounds=5)
    assert params == (200, 2, 162)


def test_parameters_random_p5_n40(benchmark):
    # A fresh non-CSS code each round: a round builds the Gram-matrix tower.
    params = benchmark.pedantic(lambda code: code.parameters(),
                                setup=lambda: ((random_code(5, 40, 40, 1),), {}), rounds=20)
    assert params == (40, 20, 20)


def test_double_parameters_random_p5_n40(benchmark):
    # The core of `subcss double` on a fresh non-CSS code each round: the
    # source's tower, then the double's, whose X side is the source's tower.
    def double(code):
        return code.parameters(), delta(code).result.parameters()

    params = benchmark.pedantic(double, setup=lambda: ((random_code(5, 40, 40, 1),), {}),
                                rounds=20)
    assert params == ((40, 20, 20), (80, 40, 40))


def test_distance_bacon_shor6(benchmark):
    # A fresh code each round, so a round also builds the split and its spaces.
    d = benchmark.pedantic(lambda code: code.distance(), setup=lambda: ((bacon_shor(6),), {}),
                           rounds=3)
    assert d == DistanceResult(6, True)


@pytest.mark.parametrize("l", [7, 10])
def test_css_distances_bacon_shor(benchmark, l):
    # A fresh split each round, so a round also builds L_X, L_Z and their complements.
    d = benchmark.pedantic(css_distances, setup=lambda: ((bacon_shor(l).css_split(),), {}),
                           rounds=5)
    assert d == (DistanceResult(l, True),) * 3


def test_symplectic_reference_bacon_shor4(benchmark):
    code = bacon_shor(4)
    assert benchmark(symplectic_distance, code) == DistanceResult(4, True)


def test_syndrome_batches_symplectic_p2_n25_w4(benchmark):
    # Every weight-4 vector on 25 sites over the 3 site values, listed as the
    # summed letter syndromes of Bacon-Shor 5's two stacked checks.
    table = _letter_syndromes(np.vstack(bacon_shor(5)._checks), _site_values(2), 2)

    def enumerate_layer():
        return sum(len(syns) for _, _, syns in _syndrome_batches(table, 4, 2))

    vectors = benchmark(enumerate_layer)
    assert vectors == comb(25, 4) * 3**4
    record_rate(benchmark, "vectors_per_s", vectors)


def test_membership_one_batch_bacon_shor5(benchmark):
    # The symplectic search's test of one batch: the summed letter syndromes
    # of the stacked psi-rows of H cap H^w and of H^w, the checks of H + H^w
    # and of H, then in H + H^w (big part zero) and not in H (small part not).
    code = bacon_shor(5)
    big_check, small_check = code._checks
    table = _letter_syndromes(np.vstack(code._checks), _site_values(2), 2)
    m = len(big_check)

    def in_big_not_small():
        # At weight 9 one site set has 3^9 > _BATCH_ROWS letter tuples: a full batch.
        syns = next(_syndrome_batches(table, 9, 2))[2]
        return ~syns[:, :m].any(axis=1) & syns[:, m:].any(axis=1)

    hits = benchmark(in_big_not_small)
    assert hits.shape == (_BATCH_ROWS,)


def test_distance_five_qudit_p5(benchmark):
    # The slowest request of the `search` workload: the symplectic distance of
    # the five-qudit code at p = 5, 24 letters per site, on a fresh code each round.
    d = benchmark.pedantic(lambda code: code.distance(),
                           setup=lambda: ((five_qudit(5),), {}), rounds=5)
    assert d == DistanceResult(3, True)
