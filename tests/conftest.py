"""Shared helpers for the test suite."""

from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from subcss import CssSplit, DecodeStatus, PauliVector, Subspace, SubsystemCode, kernel
from subcss.gf import fp_array


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


def reference_bacon_shor(l):
    """Reference Bacon-Shor builder: one PauliVector per gauge generator.

    Row-adjacent site pairs of the l x l grid give XX generators and
    column-adjacent pairs give ZZ generators; `codefile.bacon_shor`, which
    writes the gauge matrix by index arithmetic, must give the same code.
    """
    n = l * l
    zeros = np.zeros(n, dtype=np.int64)
    gens = []
    for i in range(l):
        for j in range(l - 1):
            x = zeros.copy()
            x[[i * l + j, i * l + j + 1]] = 1
            gens.append(PauliVector(2, x, zeros))
    for i in range(l - 1):
        for j in range(l):
            z = zeros.copy()
            z[[i * l + j, (i + 1) * l + j]] = 1
            gens.append(PauliVector(2, zeros, z))
    return SubsystemCode.from_generators(2, n, gens)


def reference_rref(mat, p: int) -> np.ndarray:
    """Reference echelon: each pivot step rewrites the whole matrix.

    `gf.rref`, which updates only the rows and columns a pivot step can
    change, must reproduce it bit for bit.
    """
    m = fp_array(mat, p).copy()
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n_rows, n_cols = m.shape
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        factors = m[:, c].copy()
        factors[r] = 0
        m = (m - np.outer(factors, m[r])) % p
        r += 1
    return m


def kernel_sum_is_css(h, n):
    """Reference CSS test: H <= F_p^{2n} splits as H_X x H_Z iff the kernels
    of its x- and z-part generator matrices sum to the whole coefficient space."""
    if h.dim == 0:
        return True
    pi_x, pi_z = h.basis[:, :n].T, h.basis[:, n:].T
    return (kernel(pi_x, h.p) + kernel(pi_z, h.p)).dim == h.dim


def brute_force_recover(split, ex, ez):
    """Reference Steane recovery of the errors (ex[i], ez[i]) by enumerating F_p^n.

    X side: the syndrome of a is its dot products with every element of the
    Z-type stabilizer space {b in H_Z : b . H_X = 0}; the correction is the
    least-weight, then lexicographically least, v with a's syndrome, accepted
    only if wt(v) < d_R / 2, d_R being the least weight of a v outside H_X with
    zero syndrome. The Z side mirrors it. Returns (statuses, cx, cz).
    """
    p, n = split.p, split.n
    space = np.array(list(product(range(p), repeat=n)), dtype=np.int64).reshape(-1, n)
    space = space[np.argsort(np.count_nonzero(space, axis=1), kind="stable")]

    def side(h, other, e):
        h_set = {tuple(v) for v in h.all_elements()}
        checks = np.array([b for b in other.all_elements() if not np.any(h.basis @ b % p)])
        leaders = {}
        for v in space:
            leaders.setdefault(tuple(checks @ v % p), v)
        d_r = min(np.count_nonzero(v) for v in space
                  if tuple(v) not in h_set and not np.any(checks @ v % p))
        c = np.zeros_like(e)
        found, in_h = [], []
        for i, row in enumerate(e):
            v = leaders[tuple(checks @ row % p)]
            found.append(2 * np.count_nonzero(v) < d_r)
            c[i] = v if found[-1] else 0
            in_h.append(tuple((row - c[i]) % p) in h_set)
        return c, found, in_h

    cx, found_x, in_x = side(split.h_x, split.h_z, ex)
    cz, found_z, in_z = side(split.h_z, split.h_x, ez)
    statuses = [
        DecodeStatus.OUT_OF_RANGE if not (fx and fz)
        else DecodeStatus.CORRECTED if ix and iz
        else DecodeStatus.LOGICAL_FAILURE
        for fx, fz, ix, iz in zip(found_x, found_z, in_x, in_z)
    ]
    return statuses, cx, cz


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
