"""Shared helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from subcss import CssSplit, Subspace, SubsystemCode, kernel


def random_subspace(rng, p, ambient):
    """A random subspace of F_p^ambient with dimension drawn uniformly."""
    dim = int(rng.integers(0, ambient + 1))
    rows = rng.integers(0, p, size=(dim, ambient))
    return Subspace.span(rows, p, ambient)


def random_gauge_code(rng, p, n):
    """A random SubsystemCode over F_p^{2n}."""
    dim = int(rng.integers(0, 2 * n + 1))
    rows = rng.integers(0, p, size=(dim, 2 * n))
    return SubsystemCode(p, n, Subspace.span(rows, p, 2 * n))


def kernel_sum_is_css(h, n):
    """Reference CSS test: H <= F_p^{2n} splits as H_X x H_Z iff the kernels
    of its x- and z-part generator matrices sum to the whole coefficient space."""
    if h.dim == 0:
        return True
    pi_x, pi_z = h.basis[:, :n].T, h.basis[:, n:].T
    return (kernel(pi_x, h.p) + kernel(pi_z, h.p)).dim == h.dim


@st.composite
def subspaces(draw, p, ambient):
    """Hypothesis strategy: a subspace of F_p^ambient spanned by random rows."""
    dim = draw(st.integers(0, ambient))
    row = st.lists(st.integers(0, p - 1), min_size=ambient, max_size=ambient)
    rows = draw(st.lists(row, min_size=dim, max_size=dim))
    return Subspace.span(np.array(rows, dtype=np.int64).reshape(dim, ambient), p, ambient)


@st.composite
def gauge_codes(draw, primes, max_n):
    """Hypothesis strategy: a SubsystemCode with p in `primes` and n <= max_n."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_n))
    return SubsystemCode(p, n, draw(subspaces(p, 2 * n)))


@st.composite
def css_splits(draw, primes, max_n):
    """Hypothesis strategy: a CssSplit with p in `primes` and n <= max_n."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_n))
    return CssSplit(draw(subspaces(p, n)), draw(subspaces(p, n)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
