"""Per-layer micro-benchmarks of the F_p core: `rref`, `kernel` and `all_elements`
on fixed inputs, the echelons of a random code at the `algebra` workload's
size, and the Goursat spaces built on it (`goursat_of`, `classify_stabilizer`).

Not part of the test suite (the file name does not match `test_*.py`). Run:

    PYTHONPATH=src python -m pytest tests/bench_gf.py --benchmark-only
"""

import numpy as np
import pytest

from subcss import (
    Subspace,
    SubsystemCode,
    bacon_shor,
    classify_stabilizer,
    delta,
    goursat_of,
    kernel,
    omega_complement,
    random_code,
    rref,
)
from subcss.pauli import _psi_rows

from conftest import reference_rref


@pytest.fixture(scope="module")
def zassenhaus_echelon():
    """[[A, A], [B, 0]] for A = gauge, B = H^omega of the doubled Bacon-Shor l = 10.

    A fixed large sparse input, 400 x 800 over F_2 with about 0.6% nonzero
    entries: the 2n-wide tower echelon of that code, which, being CSS, builds
    its tower from its split instead.
    """
    code = delta(bacon_shor(10)).result
    a, b = code.gauge.basis, omega_complement(code.gauge).basis
    return np.block([[a, a], [b, np.zeros_like(b)]])


def test_rref_zassenhaus_echelon(benchmark, zassenhaus_echelon):
    red = benchmark(rref, zassenhaus_echelon, 2)
    assert red.shape == (400, 800)
    assert np.count_nonzero(red.any(axis=1)) == 400


def test_rref_dense_p2(benchmark):
    """A dense random 200 x 400 matrix over F_2: each pivot clears about half
    of the rows."""
    mat = np.random.default_rng(24).integers(0, 2, size=(200, 400))
    assert np.array_equal(rref(mat, 2), reference_rref(mat, 2))
    red = benchmark(rref, mat, 2)
    assert red.shape == (200, 400)


def test_kernel_bacon_shor10_gauge(benchmark):
    gauge = bacon_shor(10).gauge
    ker = benchmark(kernel, gauge.basis, 2)
    assert ker.dim == 200 - gauge.dim


def test_kernel_random_p3_n400_gauge(benchmark):
    """A wide low-rank input: the 10 x 800 gauge basis of a random code, whose
    kernel has 790 rows."""
    gauge = random_code(3, 400, 10, 1).gauge
    ker = benchmark(kernel, gauge.basis, 3)
    assert ker.dim == 800 - gauge.dim == 790


def test_complement_random_p3_n100_gauge(benchmark):
    """A tall canonical input at odd p: the theta-complement of the 180 x 200
    gauge basis of a random code, 20 rows; a fresh Subspace each round, as the
    complement is built once per space."""
    gauge = random_code(3, 100, 180, 1).gauge
    comp = benchmark(lambda: Subspace(3, 200, gauge.basis).complement())
    assert comp == Subspace(3, 200, kernel(gauge.basis, 3).basis)
    assert comp.dim == 200 - gauge.dim == 20


def test_rref_small_dense_p3(benchmark):
    mat = np.random.default_rng(12).integers(0, 3, size=(12, 16))
    red = benchmark(rref, mat, 3)
    assert np.array_equal(red, reference_rref(mat, 3))


# The random codes of the `algebra` workload at n = 40: 40 random generators
# in F_p^80, at p = 3 and 5.


@pytest.mark.parametrize("p", [3, 5])
def test_rref_dense_40x80(benchmark, p):
    """The parse span of a random n = 40 code: its 40 x 80 generator matrix."""
    mat = np.random.default_rng(40).integers(0, p, size=(40, 80))
    red = benchmark(rref, mat, p)
    assert np.array_equal(red, reference_rref(mat, p))


@pytest.mark.parametrize("p", [3, 5])
def test_zx_echelon_random_n40(benchmark, p):
    """The (z, x) echelon of `random_code(p, 40, 40, 1)`, a fresh code each round."""
    gauge = random_code(p, 40, 40, 1).gauge
    assert not SubsystemCode(p, 40, gauge).is_css()
    red = benchmark.pedantic(lambda code: code._zx_echelon,
                             setup=lambda: ((SubsystemCode(p, 40, gauge),), {}), rounds=50)
    assert np.array_equal(red, reference_rref(np.hstack([gauge.basis[:, 40:],
                                                         gauge.basis[:, :40]]), p))


@pytest.mark.parametrize("p", [3, 5])
def test_gram_kernel_random_n40(benchmark, p):
    """The kernel of the 40 x 40 Gram matrix B psi(B)^T that `code._radical`
    takes for `random_code(p, 40, 40, 1)`."""
    basis = random_code(p, 40, 40, 1).gauge.basis
    gram = basis @ _psi_rows(basis).T % p
    ker = benchmark(kernel, gram, p)
    assert not np.any(gram @ ker.basis.T % p)


def test_all_elements_dim16_in_f2_40(benchmark):
    span = Subspace.span(np.random.default_rng(16).integers(0, 2, size=(16, 40)), 2, 40)
    assert span.dim == 16
    elements = benchmark(span.all_elements)
    assert elements.shape == (1 << 16, 40)
    assert len(np.unique(elements, axis=0)) == 1 << 16


# A fresh code each round, so a round also builds the code's Goursat spaces.


def test_goursat_of_bacon_shor10(benchmark):
    data = benchmark.pedantic(goursat_of, setup=lambda: ((bacon_shor(10),), {}), rounds=20)
    assert (data.e_x.dim, data.n_x.dim, data.pair_count()) == (90, 90, 0)


def test_classify_stabilizer_bacon_shor10(benchmark):
    cls = benchmark.pedantic(classify_stabilizer, setup=lambda: ((bacon_shor(10),), {}),
                             rounds=20)
    assert cls.minimal and cls.maximal
