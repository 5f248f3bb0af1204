"""Shared helpers for the test suite."""

import types
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from subcss import (
    CssSplit,
    DecodeStatus,
    DistanceResult,
    NoLogicalOperators,
    PauliVector,
    Subspace,
    SubsystemCode,
    kernel,
)
from subcss import cli
from subcss import code as code_module
from subcss.code import _budget, _field_letters, _site_values, _spelled, _weight_layout
from subcss.decode import make_css_decoder
from subcss.gf import _block_spaces, fp_array, rref
from subcss.pauli import psi_subspace


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


def symplectic_distance(code, budget=None):
    """Reference distance: the weight-increasing search over (H + H^w) \\ H with
    the p^2 - 1 single-site values, whatever the size of H's syndrome space;
    the bound budget + 1 if nothing is found up to `budget` (default n).
    Raises NoLogicalOperators when k = 0."""
    if code.centralizer == code.gauge:
        raise NoLogicalOperators("no logical operators")
    budget = code.n if budget is None else budget
    found = reference_coset_search(code.centralizer, code.gauge, _site_values(code.p), budget)
    return DistanceResult(found[0], True) if found else DistanceResult(budget + 1, False)


def numpy_without(*names):
    """numpy as a module sees it when patched in as its `np`, but for the named
    functions, which raise AssertionError: a guard that must act before they
    run is tested without allocating anything."""

    def refusing(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"np.{name} was called")
        return refuse

    class NumpyWithout(types.ModuleType):
        def __getattr__(self, name):
            return getattr(np, name)

    module = NumpyWithout("numpy")
    for name in names:
        setattr(module, name, refusing(name))
    return module


def _weight_batches(letters, n, w):
    """All vectors with exactly w nonzero sites, in batches of <= `code._BATCH_ROWS`
    rows: the `_weight_layout` batches, each row spelled (`_spelled`).

    `letters` is an (L, b) array of the nonzero single-site values; column
    j of a letter placed on a site goes to coordinate j*n + site, so a row
    has length b*n (the `flatten` layout when b = 2). Order: sites
    lexicographic, then letters lexicographic. The package lists the same
    batches as syndromes (`code._syndrome_batches`); the references here
    spell them.
    """
    for sites, tuples in _weight_layout(len(letters), n, w):
        yield _spelled(letters, n, sites, tuples, np.arange(len(sites) * len(tuples)))


def reference_respects_weight(h):
    """Reference weight-respect test: every vector of weight 1 and 2 listed,
    those in h kept, and h compared with their span. `decode.respects_weight`,
    which reads the columns of h's check, must agree."""
    p, n, check, letters = h.p, h.ambient, h.complement().basis, _field_letters(h.p)
    rows = [np.zeros((0, n), dtype=np.int64)]
    for w in (1, 2):
        rows.extend(batch[~np.any(batch @ check.T % p, axis=1)]
                    for batch in _weight_batches(letters, n, w))
    return Subspace.span(np.vstack(rows), p, n) == h


def reference_membership_checker(space):
    """Reference membership test: v in space iff C v = 0 for C the canonical
    basis of space^theta, built from the space itself."""
    comp, p = space.complement().basis, space.p
    return lambda batch: ~np.any((batch @ comp.T) % p, axis=1)


def reference_coset_search(big, small, letters, budget=None):
    """Reference search: (w, v), v the first vector of big \\ small in
    `_weight_batches` order, of the least weight w up to `budget` (default n);
    None if there is none. Each space's check is its own theta-complement,
    `reference_membership_checker`. `code._coset_search`, which reads the
    checks its callers hold, must give the same witness bit for bit."""
    n = big.ambient // letters.shape[1]
    budget = _budget(budget, n)
    in_big = reference_membership_checker(big)
    in_small = reference_membership_checker(small)
    for w in range(1, min(budget, n) + 1):
        for batch in _weight_batches(letters, n, w):
            hits = batch[in_big(batch) & ~in_small(batch)]
            if len(hits):
                return w, hits[0]
    return None


def reference_enumerated_leaders(check, letters, p, top, slot_of, n_slots):
    """Reference leader fill: every `_weight_batches` vector of weights 0 to
    `top`, its syndrome by one product with the check, and the least weight,
    then least row, per slot by one `lexsort` per batch.
    `code._enumerated_leaders`, which sums letter syndromes and spells only the
    rows it may keep, must give the same (slots, leaders) bit for bit."""
    n = check.shape[1] // letters.shape[1]
    slots = np.full(n_slots, -1, dtype=np.int64)
    leaders = np.zeros((0, check.shape[1]), dtype=np.min_scalar_type(p - 1))
    for w in range(top + 1):
        best, best_slot = leaders[:0], slots[:0]
        for batch in _weight_batches(letters, n, w):
            slot = slot_of(batch @ check.T % p)
            empty = slot >= 0
            empty[empty] = slots[slot[empty]] < 0
            rows = np.vstack([best, batch[empty]])
            slot = np.concatenate([best_slot, slot[empty]])
            order = np.lexsort(np.vstack([rows.T[::-1], slot]))
            best_slot, first = np.unique(slot[order], return_index=True)
            best = rows[order[first]]
        slots[best_slot] = len(leaders) + np.arange(len(best))
        leaders = np.vstack([leaders, best.astype(leaders.dtype)])
        if len(leaders) == n_slots:
            break
    return slots, leaders


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


def qudit_bacon_shor(p, l):
    """The qudit Bacon-Shor code on an l x l grid: X X^-1 on row-adjacent
    sites and Z Z^-1 on column-adjacent ones."""
    n = l * l
    rows = []
    for i in range(l):
        for j in range(l - 1):
            rows.append(np.zeros(2 * n, dtype=np.int64))
            rows[-1][[i * l + j, i * l + j + 1]] = 1, p - 1
    for i in range(l - 1):
        for j in range(l):
            rows.append(np.zeros(2 * n, dtype=np.int64))
            rows[-1][[n + i * l + j, n + (i + 1) * l + j]] = 1, p - 1
    return SubsystemCode(p, n, Subspace.span(rows, p, 2 * n))


def five_qudit(p):
    """The [[5,1,0]]_p code: cyclic shifts of X Z Z^-1 X^-1 I."""
    site = [(1, 0), (0, 1), (0, p - 1), (p - 1, 0), (0, 0)]
    rows = np.zeros((4, 10), dtype=np.int64)
    for shift in range(4):
        for j, (a, b) in enumerate(site):
            rows[shift, [(j + shift) % 5, 5 + (j + shift) % 5]] = a, b
    return SubsystemCode(p, 5, Subspace.span(rows, p, 10))


def reference_rref(mat, p: int) -> np.ndarray:
    """Reference echelon: each pivot step rewrites the whole matrix.

    `gf.rref` must reproduce it bit for bit at every p: at odd p it updates
    only the rows and columns a pivot step can change, at p = 2 it eliminates
    by XOR on bit rows.
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


def reference_combinations(rows, p):
    """Reference span listing: every F_p combination of the rows, one per
    coefficient tuple in `itertools.product` order; one zero row when there
    are no rows. `gf._combinations` must reproduce it bit for bit."""
    k = rows.shape[0]
    coeffs = np.array(list(product(range(p), repeat=k)), dtype=np.int64).reshape(p**k, k)
    return (coeffs @ rows) % p


def reference_format_row(row):
    """Reference text of one integer row: its entries, space-separated.
    `codefile._format_rows`, which formats a whole matrix at once, must give
    this string for every row."""
    return " ".join(map(str, row))


def reference_dense_vector(state):
    """Reference amplitudes: one basis state at a time, its index read
    big-endian base p and its phase norm * exp(2 pi i e / p) from a Python-int
    exponent e. `states.dense_vector`, which writes every amplitude at once,
    must give the same array bit for bit."""
    p, n = state.p, state.n
    amps = np.zeros(p**n, dtype=np.complex128)
    elements = state.support.all_elements()
    norm = 1.0 / np.sqrt(elements.shape[0])
    radix = p ** np.arange(n - 1, -1, -1)
    for s in elements:
        x = (state.offset + s) % p
        exponent = int((state.global_phase + state.phase @ x) % p)
        amps[int(x @ radix)] = norm * np.exp(2j * np.pi * exponent / p)
    return amps


def kernel_sum_is_css(h, n):
    """Reference CSS test: H <= F_p^{2n} splits as H_X x H_Z iff the kernels
    of its x- and z-part generator matrices sum to the whole coefficient space."""
    if h.dim == 0:
        return True
    pi_x, pi_z = h.basis[:, :n].T, h.basis[:, n:].T
    return (kernel(pi_x, h.p) + kernel(pi_z, h.p)).dim == h.dim


def reference_omega_complement(h):
    """Reference H^w = psi(H)^theta: the theta-complement of `psi_subspace(h)`,
    echeloned first. `pauli.omega_complement`, the kernel of H's psi-rows, and
    `SubsystemCode._omega_comp`, which is that kernel or, for a CSS code, the
    block product of its split's complements, must give the same canonical basis."""
    return psi_subspace(h).complement()


def reference_tower(code):
    """Reference tower (H + H^w, H cap H^w) on 2n columns, whatever the code:
    `reference_omega_complement`, then `+` and `intersect` with it.
    `SubsystemCode`, which builds a CSS code's tower from its split and any
    other code's from the split of its double, must give the same spaces."""
    comp = reference_omega_complement(code.gauge)
    return code.gauge + comp, code.gauge.intersect(comp)


def reference_css_structure(code):
    """Reference CSS structure from the (z, x) echelon of H, `rref` of its
    basis with the blocks swapped: (echelon, (E_X, E_Z, N_X, N_Z), is CSS).
    E_X and N_Z are read off H's basis, E_Z and N_X off the echelon, and H is
    CSS iff dim N_X + dim N_Z = dim H. `SubsystemCode`, which reads a CSS
    code's structure off H's basis alone, must give the same bits."""
    p, n, basis = code.p, code.n, code.gauge.basis
    zx = rref(np.hstack([basis[:, n:], basis[:, :n]]), p)
    e_x, n_z = _block_spaces(basis, n, p)
    e_z, n_x = _block_spaces(zx, n, p)
    return zx, (e_x, e_z, n_x, n_z), n_x.dim + n_z.dim == code.gauge.dim


def same_bits(got, want):
    """Two subspaces with the same modulus, ambient and basis bytes, dtype and shape."""
    return (got.p, got.ambient) == (want.p, want.ambient) and (
        got.basis.dtype == want.basis.dtype and got.basis.shape == want.basis.shape
        and got.basis.tobytes() == want.basis.tobytes())


def reference_z_tower(split):
    """Reference Z side (L_Z, S_Z) of a split: one Zassenhaus echelon of H_Z
    against H_X^theta. `CssSplit`, which takes them as the theta-complements
    S_X^theta and L_X^theta of its X side, must give the same spaces."""
    return split.h_z.sum_and_intersection(split.h_x.complement())


def reference_classify_stabilizer(code):
    """Reference taxonomy (minimal, maximal): the stabilizer is CSS, and its
    externals equal (E_X cap N_Z^theta, E_Z cap N_X^theta), each intersection
    built. `classify_stabilizer`, which compares dimensions from two ranks,
    must agree."""
    e_x, e_z, internal = code._goursat
    stab = SubsystemCode(code.p, code.n, code.stabilizer)
    stab_e_x, stab_e_z, _ = stab._goursat
    maximal = (
        stab_e_x == e_x.intersect(internal.h_z.complement())
        and stab_e_z == e_z.intersect(internal.h_x.complement())
    )
    return stab.is_css(), maximal


def reference_goursat_spaces(code):
    """Reference Goursat spaces (E_X, E_Z, N_X, N_Z), each spanned outright:
    the x- and z-parts of the generators, and the x-part (z-part) images of
    the generator combinations whose z-parts (x-parts) cancel."""
    p, n = code.p, code.n
    x, z = code.gauge.basis[:, :n], code.gauge.basis[:, n:]
    return (
        Subspace.span(x, p, n),
        Subspace.span(z, p, n),
        Subspace.span(kernel(z.T, p).basis @ x, p, n),
        Subspace.span(kernel(x.T, p).basis @ z, p, n),
    )


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


def reference_sampled_errors(split, q, trials, seed):
    """Reference Monte-Carlo sampler: one trial at a time, its site mask from
    `rng.random(n) < q`, then one `rng.integers` letter per hit site.

    Flattened errors in chunks of <= `code._BATCH_ROWS` rows. The package's
    sampler draws differently, so its samples must match these only in
    distribution.
    """
    n, vals = split.n, _site_values(split.p)
    rng = np.random.default_rng(seed)
    for lo in range(0, trials, code_module._BATCH_ROWS):
        chunk = np.zeros((min(code_module._BATCH_ROWS, trials - lo), 2 * n), dtype=np.int64)
        for row in chunk:
            hit = np.nonzero(rng.random(n) < q)[0]
            if hit.size:
                row[hit], row[n + hit] = vals[rng.integers(0, len(vals), size=hit.size)].T
        yield chunk


def reference_products(split, e):
    """The rows ([F; Z]_X a, [F; Z]_Z b) of dense errors e = (a, b), one product
    per side mod p; the package sums them from the errors' hits instead."""
    sides, n = make_css_decoder(split), split.n
    x, z = (np.vstack([side.f, side._class_rows]) for side in sides)
    return np.hstack([e[:, :n] @ x.T % split.p, e[:, n:] @ z.T % split.p])


def error_hits(e, n):
    """The hits (rows, sites, x, z) of dense errors e = (a, b): their nonzero sites."""
    rows, sites = divmod(np.flatnonzero((e[:, :n] != 0) | (e[:, n:] != 0)), n)
    return rows, sites, e[rows, sites], e[rows, n + sites]


def dense_errors(chunks, trials, n):
    """The (trials, 2n) errors (a, b) whose hits (rows, sites, x, z) come in chunks."""
    e = np.zeros((trials, 2 * n), dtype=np.int64)
    for rows, sites, x, z in chunks:
        e[rows, sites], e[rows, n + sites] = x, z
    return e


def record_rate(benchmark, key, count):
    """Store count / median seconds per round as the benchmark's extra info
    `key`; nothing when timing is off, as `--benchmark-disable` keeps no stats."""
    if benchmark.stats is not None:
        benchmark.extra_info[key] = count / benchmark.stats.stats.median


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


def forget_decoders(*splits):
    """Drop the decoder pairs the splits hold, so the next lookup builds them
    under whatever layer a test patched (`_leader_table`, `_BATCH_ROWS`)."""
    for split in splits:
        split.__dict__.pop("_decoder_pair", None)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with no code held by `cli.main`'s session, so a test
    that patches a layer (`np`, `_TABLE_BYTES`, `_leader_table`) runs it
    whichever test loaded a code first. A split holds its own decoders: a test
    that patches how they are built forgets those of the splits it reuses."""
    cli._session.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
