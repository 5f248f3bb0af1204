"""Code-file parsing/serialization and the built-in example generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcss import (
    CodeFileError,
    PauliVector,
    SubsystemCode,
    bacon_shor,
    builtin_code,
    emit_code_file,
    five_qubit,
    parse_code_file,
    random_code,
    trivial,
)
from subcss.codefile import FIVE_QUBIT_GENERATORS, _format_rows
from subcss.pauli import format_pauli, parse_pauli, unflatten

from conftest import random_gauge_code, reference_bacon_shor, reference_format_row


def test_five_qubit_matches_display():
    code = five_qubit()
    assert code.parameters() == (5, 1, 0)
    gens = [parse_pauli(s, 2) for s in ("ZXXZI", "IZXXZ", "ZIZXX", "XZIZX")]
    assert code == SubsystemCode.from_generators(2, 5, gens)
    assert FIVE_QUBIT_GENERATORS == ("ZXXZI", "IZXXZ", "ZIZXX", "XZIZX")


@pytest.mark.parametrize("fmt", ["pauli", "symplectic"])
def test_roundtrip_builtin_codes(fmt):
    for code in (five_qubit(), bacon_shor(3), trivial(4), random_code(3, 3, 4, seed=5)):
        if fmt == "pauli" and code.p != 2:
            continue
        parsed, parsed_fmt = parse_code_file(emit_code_file(code, fmt))
        assert parsed == code
        assert parsed_fmt == fmt


def test_roundtrip_qutrit_symplectic():
    code = random_code(3, 4, 5, seed=11)
    parsed, _ = parse_code_file(emit_code_file(code, "symplectic"))
    assert parsed == code


def test_qutrit_pauli_format_roundtrip():
    text = "p=3 n=2 format=pauli\nX1Z2 X0Z1\nI X2Z0\n"
    code, fmt = parse_code_file(text)
    assert fmt == "pauli"
    assert code.p == 3 and code.n == 2
    reparsed, _ = parse_code_file(emit_code_file(code, "pauli"))
    assert reparsed == code


def test_comments_and_blank_lines():
    text = "# a comment\n\np=2 n=3 format=pauli  # trailing comment\nXXI\n\n# more\nIZZ\n"
    code, _ = parse_code_file(text)
    assert code.n == 3 and code.gauge.dim == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CodeFileError) as e:
        parse_code_file("")
    assert e.value.line_no == 1

    with pytest.raises(CodeFileError) as e:
        parse_code_file("p=4 n=2 format=pauli\nXX\n")
    assert e.value.line_no == 1  # composite modulus

    with pytest.raises(CodeFileError) as e:
        parse_code_file("p=2 n=2 format=weird\n")
    assert e.value.line_no == 1

    with pytest.raises(CodeFileError) as e:
        parse_code_file("# intro\np=2 n=2 format=pauli\nXX\nXQ\n")
    assert e.value.line_no == 4  # bad generator letter

    with pytest.raises(CodeFileError) as e:
        parse_code_file("p=2 n=3 format=pauli\nXX\n")
    assert e.value.line_no == 2  # wrong length

    with pytest.raises(CodeFileError) as e:
        parse_code_file("p=2 n=2 format=symplectic\n1 0 1 0\n")
    assert e.value.line_no == 2  # missing block separator


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "# intro\n\np=2 n=2 format=symplectic\n\n# next\n1 0 1 0\n",
            "line 6: symplectic line must contain '|'",
        ),
        (
            "p=3 n=2 format=symplectic\n# one\n\n# two\n1 0 | 1\n",
            "line 5: expected 2 entries per block",
        ),
        (
            "p=3 n=2 format=symplectic\n\n# c\n1 2 | 0 1\n1 x | 0 1\n",
            "line 5: invalid literal for int() with base 10: 'x'",
        ),
        # Both blocks are read before their lengths are checked.
        (
            "p=3 n=2 format=symplectic\n# c\n\n1 | 0 y\n",
            "line 4: invalid literal for int() with base 10: 'y'",
        ),
        ("p=2 n=2 format=pauli\n# c\n\nXX\n# d\nXQ\n", "line 6: invalid Pauli token 'XQ'"),
        (
            "# a\np=2 n=3 format=pauli\n\n# b\nXXZ\nXX\n",
            "line 6: generator has 2 qudits, expected 3",
        ),
        (
            "p=3 n=2 format=pauli\n# c\nX1Z2 I\nX1Z2 X0Z1 I\n",
            "line 4: generator has 3 qudits, expected 2",
        ),
        # A header key given twice, or one the format does not have.
        ("p=2 n=2 format=symplectic p=3\n", "line 1: bad header: key 'p' given twice"),
        ("# c\np=2 n=2 format=pauli bogus=7\nXX\n", "line 2: bad header: unknown key 'bogus'"),
        ("p=2 n 2 format=pauli\n", "line 1: bad header: expected key=value, got 'n'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(CodeFileError) as e:
        parse_code_file(text)
    assert str(e.value) == message


@pytest.mark.parametrize("fmt", ["symplectic", "pauli"])
def test_empty_register_round_trips(fmt):
    code, _ = parse_code_file(f"p=3 n=0 format={fmt}\n")
    assert (code.p, code.parameters()) == (3, (0, 0, 0))
    assert parse_code_file(emit_code_file(code, fmt)) == (code, fmt)
    assert SubsystemCode.from_generators(2, 0, []).parameters() == (0, 0, 0)
    with pytest.raises(CodeFileError, match=r"^line 1: qudit count must be >= 0, got -1$"):
        parse_code_file(f"p=3 n=-1 format={fmt}\n")


def test_symplectic_entries_are_read_mod_p():
    # Entries are reduced as they are read, so no entry overflows the int64 matrix.
    code, _ = parse_code_file("p=3 n=2 format=symplectic\n100000000000000000000001 -1 | 0 4\n")
    # The row (2, 2 | 0, 1), scaled to a leading 1.
    assert code.gauge.basis.tolist() == [[1, 1, 0, 2]]


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_code_file(five_qubit(), "json")


def test_bacon_shor_generator_counts():
    # l*(l-1) X-type and (l-1)*l Z-type generators.
    code = bacon_shor(4)
    split = code.css_split()
    assert split.h_x.dim == 12
    assert split.h_z.dim == 12
    with pytest.raises(ValueError):
        bacon_shor(1)


@pytest.mark.parametrize("l", range(2, 7))
def test_bacon_shor_matches_generator_loop(l):
    assert bacon_shor(l) == reference_bacon_shor(l)


def test_trivial_params():
    assert trivial(2, p=5).parameters() == (2, 2, 0)
    with pytest.raises(ValueError):
        trivial(0)


def test_random_code_determinism():
    a = random_code(3, 4, 5, seed=42)
    b = random_code(3, 4, 5, seed=42)
    c = random_code(3, 4, 5, seed=43)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        random_code(3, 4, 20, seed=0)
    with pytest.raises(ValueError):
        random_code(6, 4, 2, seed=0)
    with pytest.raises(ValueError, match="seed"):
        random_code(3, 4, 5, seed=-1)


def test_random_code_matches_per_row_draws():
    # One (dim, 2n) draw gives the same stream as dim draws of 2n entries.
    for p, n, dim, seed in ((2, 3, 4, 0), (3, 5, 5, 1), (5, 4, 8, 7), (7, 2, 1, 3)):
        rng = np.random.default_rng(seed)
        rows = [rng.integers(0, p, size=2 * n) for _ in range(dim)]
        gens = [PauliVector(p, row[:n], row[n:]) for row in rows]
        assert random_code(p, n, dim, seed) == SubsystemCode.from_generators(p, n, gens)


def test_builtin_dispatch():
    assert builtin_code("five_qubit") == five_qubit()
    assert builtin_code("bacon_shor", l=4) == bacon_shor(4)
    assert builtin_code("trivial", n=3, p=3) == trivial(3, p=3)
    assert builtin_code("random", p=2, n=3, dim=2, seed=9) == random_code(2, 3, 2, seed=9)
    with pytest.raises(ValueError):
        builtin_code("steane")


@pytest.mark.parametrize(
    "name, params, option",
    [
        ("five_qubit", {"n": 9}, "n"),
        ("bacon_shor", {"l": 2, "p": 4}, "p"),
        ("trivial", {"n": 2, "seed": 1}, "seed"),
        ("random", {"p": 3, "l": 2}, "l"),
    ],
)
def test_builtin_rejects_options_it_does_not_take(name, params, option):
    with pytest.raises(ValueError, match=f"{name}' does not take {option} "):
        builtin_code(name, **params)


def test_roundtrip_random_codes(rng):
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, 3)
        for fmt in ("pauli", "symplectic"):
            parsed, _ = parse_code_file(emit_code_file(code, fmt))
            assert parsed == code


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pauli_format_matches_format_pauli(p, rng):
    # Every row of the Pauli format reads as `format_pauli` writes that row.
    for n in (0, 1, 4, 9):
        code = random_gauge_code(rng, p, n)
        lines = emit_code_file(code, "pauli").splitlines()
        assert lines[0] == f"p={p} n={n} format=pauli"
        assert lines[1:] == [format_pauli(unflatten(row, p)) for row in code.gauge.basis]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 65521])
@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0), (1, 1), (4, 7), (60, 33)])
def test_matrix_text_matches_the_row_reference(p, shape, rng):
    mat = rng.integers(0, p, size=shape)
    # Zeros and p - 1 in every column, so every digit count shows up.
    if mat.size:
        mat[0], mat[-1] = 0, p - 1
    assert _format_rows(mat) == [[reference_format_row(row.tolist()) for row in mat]]
    # Several blocks in one call, in either order: an empty one and one whose
    # entries have one digit, beside the matrix, whose entries may have more.
    blocks = [mat, mat[:0], rng.integers(0, min(p, 10), size=(2, shape[1]))]
    reference = [[reference_format_row(row.tolist()) for row in block] for block in blocks]
    assert _format_rows(*blocks) == reference
    assert _format_rows(*blocks[::-1]) == reference[::-1]
    narrow = [block.astype(np.min_scalar_type(p - 1)) for block in blocks]
    assert _format_rows(*narrow) == reference


@st.composite
def _blocks(draw):
    """One to four blocks with one column count, entries in [0, p) for a drawn p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 65521]))
    cols = draw(st.integers(0, 6))
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    return [np.array(draw(st.lists(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                                   min_size=size, max_size=size)), dtype=np.int64).reshape(size, cols)
            for size in sizes]


@settings(max_examples=200, deadline=None)
@given(_blocks())
def test_matrix_text_of_any_blocks_matches_the_row_reference(blocks):
    assert _format_rows(*blocks) == [[reference_format_row(row) for row in mat.tolist()]
                                     for mat in blocks]
