"""End-to-end CLI behavior: commands, formats, and the exit-code contract."""

import pytest

from subcss import parse_code_file
from subcss.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_five_qubit(capsys):
    code, out, _ = run(capsys, "info", "builtin:five_qubit")
    assert code == 0
    assert "n = 5 (exact)" in out
    assert "k = 1 (exact)" in out
    assert "r = 0 (exact)" in out
    assert "d = 3 (exact)" in out
    assert "is_css = False" in out


def test_info_bacon_shor4(capsys):
    code, out, _ = run(capsys, "info", "builtin:bacon_shor", "--l", "4")
    assert code == 0
    assert "n = 16 (exact)" in out
    assert "k = 1 (exact)" in out
    assert "r = 9 (exact)" in out
    assert "d = 4 (exact)" in out
    assert "is_css = True" in out
    assert "d_X = 4 (exact)" in out


def test_info_trivial(capsys):
    code, out, _ = run(capsys, "info", "builtin:trivial", "--n", "3")
    assert code == 0
    assert "n = 3 (exact)" in out and "k = 3 (exact)" in out
    assert "d = 1 (exact)" in out


def test_distance_budget_annotation(capsys):
    code, out, _ = run(capsys, "distance", "builtin:five_qubit", "--budget", "2")
    assert code == 0
    assert "d = >=3 (search-bounded)" in out


def test_gen_and_info_roundtrip(tmp_path, capsys):
    path = tmp_path / "bs3.code"
    code, _, _ = run(capsys, "gen", "bacon_shor", "--l", "3", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0
    assert "n = 9 (exact)" in out and "r = 4 (exact)" in out


def test_gen_stdout_parses(capsys):
    code, out, _ = run(capsys, "gen", "five_qubit", "--format", "pauli")
    assert code == 0
    parsed, fmt = parse_code_file(out)
    assert fmt == "pauli"
    assert parsed.parameters() == (5, 1, 0)


def test_double_writes_css_file(tmp_path, capsys):
    path = tmp_path / "doubled.code"
    code, out, _ = run(capsys, "double", "builtin:five_qubit", "--out", str(path))
    assert code == 0
    assert "source = [[5,1,0]]" in out
    assert "doubled = [[10,2,0]]" in out
    assert "d_bracket = [3, 6]" in out
    parsed, _ = parse_code_file(path.read_text())
    assert parsed.is_css()
    assert parsed.parameters() == (10, 2, 0)


def test_classify_five_qubit(capsys):
    code, out, _ = run(capsys, "classify", "builtin:five_qubit")
    assert code == 0
    assert "maximal = True" in out
    assert "minimal = False" in out
    assert "region = maximal stabilizer, not minimal" in out


def test_goursat_five_qubit(capsys):
    code, out, _ = run(capsys, "goursat", "builtin:five_qubit")
    assert code == 0
    assert "dim_E_X = 4 (exact)" in out
    assert "dim_N_X = 0 (exact)" in out
    assert "phi_pairs = 4 (exact)" in out


def test_decode_exhaustive_csv(capsys):
    code, out, _ = run(
        capsys, "decode", "builtin:bacon_shor", "--l", "4", "--exhaustive-weight", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight_or_q,trials,corrected,logical_failures,out_of_range"
    assert lines[1] == "1,48,48,0,0"


def test_decode_exhaustive_rows_stop_at_n(capsys):
    # Bacon-Shor l = 2 has n = 4: no error has weight above 4, so no rows for it.
    code, out, _ = run(
        capsys, "decode", "builtin:bacon_shor", "--l", "2", "--exhaustive-weight", "4"
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]
    for top in ("6", "1000000000"):
        assert run(capsys, "decode", "builtin:bacon_shor", "--l", "2",
                   "--exhaustive-weight", top) == (0, out, "")


def test_decode_code_flag_and_determinism(capsys):
    args = ["decode", "--code", "builtin:bacon_shor", "--l", "3",
            "--q", "0.05", "--trials", "200", "--seed", "11"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    row = out1.strip().splitlines()[1].split(",")
    assert row[0] == "0.05" and row[1] == "200"
    assert sum(int(v) for v in row[2:]) == 200


def test_codewords_output(capsys):
    code, out, _ = run(capsys, "codewords", "builtin:bacon_shor", "--l", "3")
    assert code == 0
    assert "codewords = 32 (exact)" in out
    assert "all_fixed = True (exact)" in out


def test_exit_code_parse_errors(tmp_path, capsys):
    code, _, err = run(capsys, "info", str(tmp_path / "missing.code"))
    assert code == 2
    assert "error:" in err

    bad = tmp_path / "bad.code"
    bad.write_text("p=4 n=2 format=pauli\nXX\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "line 1" in err

    bad.write_text("p=2 n=2 format=pauli\nXQ\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "line 2" in err

    code, _, err = run(capsys, "gen", "steane")
    assert code == 2


def test_exit_code_infeasible(capsys):
    code, _, err = run(capsys, "decode", "builtin:five_qubit")
    assert code == 3
    assert "CSS" in err

    code, _, err = run(capsys, "codewords", "builtin:bacon_shor", "--l", "5", "--dense")
    assert code == 3
    assert "infeasible" in err

    # 2^26 codeword labels; 1.9e10 errors of symplectic weight <= 5 on 100 qubits.
    for args in (["codewords", "builtin:bacon_shor", "--l", "6"],
                 ["decode", "builtin:bacon_shor", "--l", "10", "--exhaustive-weight", "5"]):
        code, out, err = run(capsys, *args)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "exceed" in err


@pytest.mark.parametrize(
    "bad",
    [["--q", "1.5"], ["--trials", "0"], ["--exhaustive-weight", "0"], ["--exhaustive-weight", "-3"]],
)
def test_decode_rejects_bad_sampling_options_before_output(capsys, bad):
    code, out, err = run(capsys, "decode", "builtin:bacon_shor", "--l", "3", *bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_modulus_bound_at_input(tmp_path, capsys):
    code, out, err = run(capsys, "info", "builtin:random", "--p", "4294967291",
                         "--n", "3", "--dim", "3", "--seed", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err

    big = tmp_path / "big.code"
    big.write_text("p=65537 n=1 format=symplectic\n1 | 0\n")
    code, _, err = run(capsys, "info", str(big))
    assert code == 2
    assert "line 1" in err


def test_threads_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "info", "builtin:trivial", "--n", "2"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys):
    # The cached parser handles a parse error followed by valid commands, and
    # different subcommands in a row, exactly as a freshly built parser does.
    requests = [
        ["info", "--budget", "x", "builtin:trivial"],
        ["info", "builtin:five_qubit"],
        ["gen", "bacon_shor", "--l", "2"],
        ["classify", "builtin:bacon_shor", "--l", "3"],
        ["double", "builtin:trivial", "--n", "2", "--format", "pauli"],
        ["decode", "builtin:bacon_shor", "--l", "2", "--trials", "5"],
    ]

    def outcome(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    assert build_parser() is build_parser()
    shared = [outcome(argv) for argv in requests]
    fresh = []
    for argv in requests:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert shared[0][0] == 2 and "usage:" in shared[0][2]
    assert all(rc == 0 for rc, _, _ in shared[1:])
