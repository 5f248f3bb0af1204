"""Goursat data extraction/reconstruction and the stabilizer taxonomy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcss import (
    GoursatData,
    Subspace,
    SubsystemCode,
    bacon_shor,
    check_complement_data,
    check_intersection_data,
    classify_stabilizer,
    five_qubit,
    goursat_of,
    reconstruct_from,
    trivial,
)
from subcss import cli
from subcss import goursat as goursat_module
from subcss.pauli import parse_pauli

from conftest import (
    gauge_codes,
    kernel_sum_is_css,
    random_gauge_code,
    reference_classify_stabilizer,
    subspaces,
)

FIVE_QUBIT_E_X = ("IXXII", "IIXXI", "IIIXX", "XIIIX")
FIVE_QUBIT_E_Z = ("ZIIZI", "IZIIZ", "ZIZII", "IZIZI")


def _x_span(strings):
    rows = [parse_pauli(s, 2).x for s in strings]
    return Subspace.span(np.array(rows), 2, 5)


def _z_span(strings):
    rows = [parse_pauli(s, 2).z for s in strings]
    return Subspace.span(np.array(rows), 2, 5)


def test_five_qubit_goursat_data():
    data = goursat_of(five_qubit())
    # Internal code is trivial: no purely X- or Z-type gauge elements.
    assert data.n_x.dim == 0 and data.n_z.dim == 0
    assert data.e_x == _x_span(FIVE_QUBIT_E_X)
    assert data.e_z == _z_span(FIVE_QUBIT_E_Z)
    assert data.pair_count() == 4


def test_five_qubit_phi_pairing():
    # The displayed pairing e_X -> e_Z holds as coset equalities: since the
    # internal code is trivial, each paired product must itself lie in H.
    code = five_qubit()
    for xs, zs in zip(FIVE_QUBIT_E_X, FIVE_QUBIT_E_Z):
        v = np.concatenate([parse_pauli(xs, 2).x, parse_pauli(zs, 2).z])
        assert code.gauge.contains(v)
    # And the extracted pairs generate H together with the internal code.
    assert reconstruct_from(goursat_of(code)) == code


def test_goursat_roundtrip_random(rng):
    for _ in range(60):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, n)
        assert reconstruct_from(goursat_of(code)) == code


def test_goursat_data_validation():
    e = Subspace.span([[1, 0], [0, 1]], 2, 2)
    n = Subspace.span([[1, 1]], 2, 2)
    with pytest.raises(ValueError, match="^N_X must be a subspace of E_X$"):
        GoursatData(e_x=n, e_z=e, n_x=e, n_z=Subspace.zero(2, 2), phi_pairs=())
    with pytest.raises(ValueError, match="^N_Z must be a subspace of E_Z$"):
        GoursatData(e_x=e, e_z=n, n_x=e, n_z=e, phi_pairs=())
    with pytest.raises(ValueError, match="^phi pair count"):
        # Pair count does not match the quotient dimension.
        GoursatData(e_x=e, e_z=e, n_x=n, n_z=n, phi_pairs=())
    # One pair for the one-dimensional quotients E / N; (1, 1) lies in N.
    inside, outside = np.array([1, 1]), np.array([1, 0])
    with pytest.raises(ValueError, match="^X representatives are dependent modulo N_X$"):
        GoursatData(e_x=e, e_z=e, n_x=n, n_z=n, phi_pairs=((inside, outside),))
    with pytest.raises(ValueError, match="^Z representatives are dependent modulo N_Z$"):
        GoursatData(e_x=e, e_z=e, n_x=n, n_z=n, phi_pairs=((outside, inside),))
    assert GoursatData(e_x=e, e_z=e, n_x=n, n_z=n, phi_pairs=((outside, outside),)).pair_count() == 1


def test_complement_data_checks(rng):
    assert check_complement_data(five_qubit()).passed
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        report = check_complement_data(random_gauge_code(rng, p, n))
        assert report.passed, report.details


def _reference_reports(c1, c2):
    """The two checks' reports from full `goursat_of` data of every code."""
    p, n = c1.p, c1.n
    d, dc = goursat_of(c1), goursat_of(SubsystemCode(p, n, c1._omega_comp))
    complement = {
        "external_x": dc.e_x == d.n_z.complement(),
        "external_z": dc.e_z == d.n_x.complement(),
        "internal_x": dc.n_x == d.e_z.complement(),
        "internal_z": dc.n_z == d.e_x.complement(),
    }
    d2, di = goursat_of(c2), goursat_of(SubsystemCode(p, n, c1.gauge.intersect(c2.gauge)))
    caps = [getattr(d, f).intersect(getattr(d2, f)) for f in ("n_x", "n_z", "e_x", "e_z")]
    intersection = {
        "internal_x": di.n_x == caps[0],
        "internal_z": di.n_z == caps[1],
        "sandwich_x": di.e_x.contains_space(caps[0]) and caps[2].contains_space(di.e_x),
        "sandwich_z": di.e_z.contains_space(caps[1]) and caps[3].contains_space(di.e_z),
        "dims": {"T": di.e_x.dim, "W": di.e_z.dim, "N_cap": (caps[0].dim, caps[1].dim),
                 "E_cap": (caps[2].dim, caps[3].dim)},
    }
    return complement, intersection


@settings(max_examples=60, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=3), st.data())
def test_data_checks_report_as_from_goursat_data(c1, data):
    c2 = SubsystemCode(c1.p, c1.n, data.draw(subspaces(c1.p, 2 * c1.n)))
    complement, intersection = _reference_reports(c1, c2)

    def refuse(*args):
        raise AssertionError("a data check built GoursatData")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(goursat_module, "goursat_of", refuse)
        assert check_complement_data(c1).details == complement
        assert check_intersection_data(c1, c2).details == intersection


def test_intersection_data_checks(rng):
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        c1 = random_gauge_code(rng, p, n)
        c2 = random_gauge_code(rng, p, n)
        report = check_intersection_data(c1, c2)
        assert report.passed, report.details
    with pytest.raises(ValueError):
        check_intersection_data(five_qubit(), trivial(3))


def test_five_qubit_is_maximal_not_minimal():
    cls = classify_stabilizer(five_qubit())
    assert cls.maximal and not cls.minimal
    assert cls.region() == "maximal stabilizer, not minimal"


def test_css_codes_are_both():
    for code in (bacon_shor(2), bacon_shor(3), trivial(2)):
        cls = classify_stabilizer(code)
        assert cls.maximal and cls.minimal
        assert cls.region().startswith("CSS")


def _minimal_conditions(code):
    """The five equivalent characterizations of minimal stabilizer."""
    data = goursat_of(code)
    n = code.n
    c1 = classify_stabilizer(code).minimal
    c2 = kernel_sum_is_css(code.centralizer, n)
    c3 = kernel_sum_is_css(code.stabilizer, n)

    def _product(left, right):
        rows = [np.concatenate([a, np.zeros(n, dtype=np.int64)]) for a in left.basis]
        rows += [np.concatenate([np.zeros(n, dtype=np.int64), b]) for b in right.basis]
        return Subspace.span(np.array(rows).reshape(-1, 2 * n), code.p, 2 * n)

    c4 = code.centralizer == _product(
        data.e_x + data.n_z.complement(), data.e_z + data.n_x.complement()
    )
    c5 = code.stabilizer == _product(
        data.n_x.intersect(data.e_z.complement()), data.n_z.intersect(data.e_x.complement())
    )
    return (c1, c2, c3, c4, c5)


def test_minimal_conditions_agree(rng):
    for _ in range(60):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, n)
        conds = _minimal_conditions(code)
        assert len(set(conds)) == 1, conds


def test_minimal_and_maximal_iff_css(rng):
    for _ in range(60):
        p = int(rng.choice([2, 3]))
        n = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, n)
        cls = classify_stabilizer(code)
        assert (cls.minimal and cls.maximal) == code.is_css()


@settings(max_examples=80, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=3))
def test_centralizer_is_css_iff_stabilizer_is_css(code):
    """H + H^w = (H cap H^w)^w, and an omega-complement of a product is one,
    so `classify_stabilizer` may read minimality off the stabilizer."""
    centralizer = SubsystemCode(code.p, code.n, code.centralizer)
    stabilizer = SubsystemCode(code.p, code.n, code.stabilizer)
    assert centralizer.is_css() == stabilizer.is_css()
    assert classify_stabilizer(code).minimal == kernel_sum_is_css(code.centralizer, code.n)


@settings(max_examples=80, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=3))
def test_maximal_matches_the_goursat_data(code):
    """Maximal iff the stabilizer's externals are (E_X cap N_Z^theta, E_Z cap
    N_X^theta), read here off `goursat_of`, which `classify_stabilizer` skips."""
    data = goursat_of(code)
    stab = goursat_of(SubsystemCode(code.p, code.n, code.stabilizer))
    want = (stab.e_x == data.e_x.intersect(data.n_z.complement())
            and stab.e_z == data.e_z.intersect(data.n_x.complement()))

    def refuse(*args):
        raise AssertionError("classify_stabilizer built GoursatData")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(goursat_module, "goursat_of", refuse)
        fresh = SubsystemCode(code.p, code.n, code.gauge)
        assert classify_stabilizer(fresh).maximal == want


@settings(max_examples=200, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=4))
def test_classify_from_ranks_matches_the_intersections(code):
    """The maximal test compares dimensions from two ranks; the reference
    builds E_X cap N_Z^theta and E_Z cap N_X^theta and compares the spaces."""
    cls = classify_stabilizer(code)
    fresh = SubsystemCode(code.p, code.n, code.gauge)
    assert (cls.minimal, cls.maximal) == reference_classify_stabilizer(fresh)


def test_classify_from_ranks_covers_every_region(rng):
    regions = set()
    for _ in range(300):
        code = random_gauge_code(rng, int(rng.choice([2, 3])), int(rng.integers(1, 4)))
        cls = classify_stabilizer(code)
        assert (cls.minimal, cls.maximal) == reference_classify_stabilizer(code)
        regions.add(cls.region())
    assert len(regions) == 4


@settings(max_examples=60, deadline=None)
@given(gauge_codes(primes=(2, 3, 5), max_n=4))
def test_goursat_data_and_class_are_built_once_per_code(code):
    # A code holds its Goursat data and stabilizer class: every call returns
    # the same objects, equal to a fresh code's, with read-only pair arrays.
    data, cls = goursat_of(code), classify_stabilizer(code)
    assert goursat_of(code) is data and classify_stabilizer(code) is cls
    fresh = SubsystemCode(code.p, code.n, code.gauge)
    want = goursat_of(fresh)
    assert (data.e_x, data.e_z, data.n_x, data.n_z) == (want.e_x, want.e_z, want.n_x, want.n_z)
    assert len(data.phi_pairs) == len(want.phi_pairs)
    for pair, fresh_pair in zip(data.phi_pairs, want.phi_pairs):
        for row, fresh_row in zip(pair, fresh_pair):
            assert np.array_equal(row, fresh_row) and not row.flags.writeable
            with pytest.raises(ValueError):
                row[...] = 0
    assert classify_stabilizer(fresh) == cls
    assert reconstruct_from(data) == code


def test_held_goursat_and_classify_report_as_fresh(capsys):
    # The CLI's reports of a held code's data and class are the fresh ones.
    requests = [[cmd, *spec] for spec in (["builtin:five_qubit"], ["builtin:bacon_shor"],
                                          ["builtin:random", "--p", "3", "--n", "5", "--seed", "2"])
                for cmd in ("goursat", "classify")]
    fresh = []
    for argv in requests:
        cli._session.cache_clear()
        assert cli.main(argv) == 0
        fresh.append(capsys.readouterr().out)
    for _ in range(2):
        for argv, want in zip(requests, fresh):
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == want
    assert cli._session.cache_info().currsize == 3
