"""The doubling map: lattice identities, parameters, and golden examples."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subcss import (
    NoLogicalOperators,
    Subspace,
    SubsystemCode,
    delta,
    double_generator,
    double_subspace,
    five_qubit,
    trivial,
)
from subcss.code import _block_product
from subcss.double import _psi_image
from subcss.gf import rref
from subcss.pauli import omega_complement, parse_pauli, psi_subspace, unflatten

from conftest import (
    css_splits,
    five_qudit,
    gauge_codes,
    random_gauge_code,
    random_subspace,
    same_bits,
    symplectic_distance,
)

# Doubled five-qubit stabilizer generators as displayed (first register block
# then second register block per generator).
DOUBLED_FIVE_QUBIT_DISPLAY = (
    "IXXIIXIIXI",
    "IIXXIIXIIX",
    "IIIXXXIXII",
    "XIIIXIXIXI",
    "ZIIZIIZZII",
    "IZIIZIIZZI",
    "ZIZIIIIIZZ",
    "IZIZIZIIIZ",
)


def test_double_generator():
    g = parse_pauli("ZXXZI", 2)  # a = 01100, b = 10010
    x_gen, z_gen = double_generator(g)
    assert x_gen == parse_pauli("IXXIIXIIXI", 2)
    assert z_gen == parse_pauli("ZIIZIIZZII", 2)


def test_doubled_five_qubit_parameters():
    doubled = delta(five_qubit()).result
    assert doubled.parameters() == (10, 2, 0)
    assert doubled.is_css()


def test_doubled_five_qubit_matches_display():
    gens = [parse_pauli(s, 2) for s in DOUBLED_FIVE_QUBIT_DISPLAY]
    display_code = SubsystemCode.from_generators(2, 10, gens)
    assert delta(five_qubit()).result == display_code


def test_doubled_five_qubit_distance_constant():
    # The doubling bracket alone only guarantees 3..6; both routes give 3.
    doubled = delta(five_qubit()).result
    d = doubled.distance()
    assert d.exact
    assert d.value == 3
    assert symplectic_distance(doubled) == d
    assert 3 <= d.value <= 6  # Theorem bracket for source distance 3


def test_double_trivial():
    doubled = delta(trivial(3)).result
    assert doubled.parameters() == (6, 6, 0)
    assert doubled.gauge.dim == 0


def test_doubling_doubles_parameters(rng):
    for _ in range(25):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, n)
        n0, k0, r0 = code.parameters()
        doubled = delta(code).result
        assert doubled.is_css()
        assert doubled.parameters() == (2 * n0, 2 * k0, 2 * r0)


def test_doubling_twice(rng):
    code = random_gauge_code(rng, 2, 2)
    n0, k0, r0 = code.parameters()
    twice = delta(delta(code).result).result
    assert twice.parameters() == (4 * n0, 4 * k0, 4 * r0)


def test_lattice_identities(rng):
    # Delta(H+K) = Delta(H)+Delta(K), Delta(H cap K) = Delta(H) cap Delta(K),
    # Delta(H^w) = Delta(H)^w, dim Delta(H) = 2 dim H.
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3, 4]))
        h = random_subspace(rng, p, 2 * n)
        k = random_subspace(rng, p, 2 * n)
        assert double_subspace(h + k) == double_subspace(h) + double_subspace(k)
        assert double_subspace(h.intersect(k)) == double_subspace(h).intersect(double_subspace(k))
        assert double_subspace(omega_complement(h)) == omega_complement(double_subspace(h))
        assert double_subspace(h).dim == 2 * h.dim


def test_distance_bracket(rng):
    # d <= d' <= 2d on small random codes where both searches complete.
    checked = 0
    for seed in range(40):
        code = random_gauge_code(np.random.default_rng(seed), 2, 3)
        try:
            d = code.distance()
        except Exception:
            continue
        doubled = delta(code).result
        d2 = doubled.distance()
        assert d2.exact
        assert d.value <= d2.value <= 2 * d.value
        checked += 1
    assert checked >= 10


@settings(max_examples=60, deadline=None)
@given(st.one_of(gauge_codes(primes=(2,), max_n=3), gauge_codes(primes=(3,), max_n=2)))
def test_doubled_distance_matches_symplectic_reference(code):
    # Delta(H) is CSS, so its distance comes from its two classical codes; the
    # reference searches the materialized double symplectically.
    doubled = delta(code).result
    materialized = SubsystemCode(doubled.p, doubled.n, doubled.gauge)
    try:
        expected = symplectic_distance(materialized)
    except NoLogicalOperators:
        with pytest.raises(NoLogicalOperators):
            doubled.distance()
        with pytest.raises(NoLogicalOperators):
            symplectic_distance(code)
        return
    assert doubled.distance() == expected
    d = symplectic_distance(code).value
    assert d <= expected.value <= 2 * d


@settings(max_examples=80, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=4))
def test_delta_matches_double_subspace(code):
    # Reference: the paper's generator-level form, two doubled generators per
    # source basis row, echelonized from scratch. delta and double_subspace
    # build H x psi(H) as a block matrix instead.
    gens = [g for row in code.gauge.basis for g in double_generator(unflatten(row, code.p))]
    reference = SubsystemCode.from_generators(code.p, 2 * code.n, gens)
    assert delta(code).result == reference
    assert double_subspace(code.gauge) == reference.gauge


@settings(max_examples=200, deadline=None)
@given(gauge_codes(primes=(2, 3, 5, 7), max_n=5))
@example(SubsystemCode(3, 3, Subspace.zero(3, 6)))
@example(SubsystemCode(5, 3, Subspace.full(5, 6)))
@example(five_qudit(7))  # isotropic: S = H
@example(SubsystemCode(7, 2, Subspace.span([[1, 0, 0, 1], [0, 0, 1, 0]], 7, 4)))  # S = 0
def test_psi_image_matches_psi_subspace(code):
    # psi(H) read off the (z, x) echelon, bit for bit against its own echelon;
    # delta's split holds it as H_Z.
    assert same_bits(_psi_image(code), psi_subspace(code.gauge))
    assert same_bits(delta(code).result.css_split().h_z, psi_subspace(code.gauge))


@settings(max_examples=100, deadline=None)
@given(css_splits(primes=(2, 3, 5, 7), max_n=5))
def test_from_split_zx_echelon_is_its_block_product(split):
    # A code built from its split holds H_Z x H_X as its (z, x) echelon, the
    # echelon that the same gauge subspace, with no split, computes.
    code = SubsystemCode.from_css_split(split)
    n, basis = code.n, code.gauge.basis
    swapped = rref(np.hstack([basis[:, n:], basis[:, :n]]), code.p)
    assert np.array_equal(code._zx_echelon, _block_product(split.h_z, split.h_x).basis)
    assert code._zx_echelon.tobytes() == swapped.tobytes()
    assert code._zx_echelon.shape == swapped.shape and code._zx_echelon.dtype == swapped.dtype
    assert same_bits(_psi_image(code), psi_subspace(code.gauge))


def test_double_subspace_rejects_odd_ambient():
    odd = random_subspace(np.random.default_rng(0), 2, 5)
    with pytest.raises(ValueError):
        double_subspace(odd)
    with pytest.raises(ValueError):
        omega_complement(odd)
