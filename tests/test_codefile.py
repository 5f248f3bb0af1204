"""Code-file parsing/serialization and the built-in example generators."""

import numpy as np
import pytest

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
from subcss.codefile import FIVE_QUBIT_GENERATORS
from subcss.pauli import parse_pauli

from conftest import random_gauge_code, reference_bacon_shor


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


def test_roundtrip_random_codes(rng):
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        code = random_gauge_code(rng, p, 3)
        for fmt in ("pauli", "symplectic"):
            if fmt == "pauli" and p != 2:
                continue
            parsed, _ = parse_code_file(emit_code_file(code, fmt))
            assert parsed == code
