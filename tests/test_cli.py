"""End-to-end CLI behavior: commands, formats, and the exit-code contract."""

import contextlib
import io
import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcss import (
    CssSplit,
    PauliVector,
    Subspace,
    SubsystemCode,
    all_codewords,
    bacon_shor,
    delta,
    emit_code_file,
    is_fixed_by,
    parse_code_file,
)
from subcss import cli, codefile, decode, states
from subcss import code as code_module
from subcss.cli import build_parser, main

from conftest import css_splits, numpy_without, qudit_bacon_shor


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


@pytest.mark.parametrize("argv", [
    ("gen", "random", "--n", "0", "--dim", "0"),
    ("double", "builtin:random", "--n", "0", "--dim", "0"),
])
def test_empty_register_files_read_back(tmp_path, capsys, argv):
    # The n = 0 file a command writes reads back as the n = 0 builtin.
    path = tmp_path / "empty.code"
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    assert path.read_text() == "p=2 n=0 format=symplectic\n"
    expected = run(capsys, "info", "builtin:random", "--n", "0", "--dim", "0")
    assert expected[0] == 0
    assert run(capsys, "info", str(path)) == expected


def test_negative_qudit_count_is_rejected_input(tmp_path, capsys):
    path = tmp_path / "negative.code"
    path.write_text("p=2 n=-1 format=symplectic\n")
    code, out, err = run(capsys, "info", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 1: qudit count must be >= 0, got -1\n"


@pytest.mark.parametrize("argv", [
    ("double", "builtin:five_qubit"),
    ("gen", "five_qubit"),
])
def test_unwritable_out_is_rejected_input(tmp_path, capsys, argv):
    path = tmp_path / "missing_dir" / "x.code"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


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


@pytest.mark.parametrize("dense", [[], ["--dense"]])
def test_codewords_on_the_empty_register(capsys, dense):
    code, out, err = run(capsys, "codewords", "builtin:random", "--p", "3", "--n", "0",
                         "--dim", "0", *dense)
    word = "l = () g = () fixed = True" + (" dense_agrees = True" if dense else "")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["codewords = 1 (exact)", "support_size = 1 (exact)", word,
                                "all_fixed = True (exact)"]


def test_codewords_dense_bacon_shor4(capsys):
    # 1024 labels, each cross-checked on 2^16 exact amplitudes.
    code, out, _ = run(capsys, "codewords", "builtin:bacon_shor", "--l", "4", "--dense")
    lines = out.splitlines()
    words = [line for line in lines if line.startswith("l = ")]
    assert code == 0 and lines[0] == "codewords = 1024 (exact)"
    assert len(words) == 1024
    assert all(line.endswith(" fixed = True dense_agrees = True") for line in words)
    assert lines[-1] == "all_fixed = True (exact)"


@pytest.mark.parametrize("dense", [[], ["--dense"]])
def test_codewords_builds_no_coset_state(tmp_path, capsys, monkeypatch, dense):
    # The CLI reads the label grid as arrays: a CosetState would raise here.
    path = tmp_path / "bs3_p3.code"
    path.write_text(emit_code_file(qudit_bacon_shor(3, 3)))

    def refuse(self):
        raise AssertionError("codewords built a CosetState")

    monkeypatch.setattr(states.CosetState, "__post_init__", refuse)
    code, out, err = run(capsys, "codewords", str(path), *dense)
    assert (code, err) == (0, "")
    assert out.startswith("codewords = 243 (exact)") and out.endswith("all_fixed = True (exact)\n")


def _random_split(p, n, seed):
    rng = np.random.default_rng(seed)
    h_x, h_z = (Subspace.span(rng.integers(0, p, (n // 2, n)), p, n) for _ in range(2))
    return CssSplit(h_x, h_z)


@pytest.mark.parametrize("split", [
    bacon_shor(3).css_split(),
    qudit_bacon_shor(3, 2).css_split(),
    CssSplit(Subspace.span([[1, 0, 0, 0]], 2, 4), Subspace.span([[0, 1, 1, 0], [0, 0, 1, 1]], 2, 4)),
    _random_split(3, 4, 1),
    _random_split(5, 4, 2),
    _random_split(2, 6, 3),
])
def test_codewords_fixed_column_is_is_fixed_by(tmp_path, capsys, split):
    # Each CLI row: the labels of all_codewords, and fixed = every stabilizer
    # X^a and Z^b fixes the codeword, by the per-state reference.
    path = tmp_path / "split.code"
    path.write_text(emit_code_file(SubsystemCode.from_css_split(split)))
    code, out, _ = run(capsys, "codewords", str(path))
    zeros = np.zeros(split.n, dtype=np.int64)
    stabilizers = [PauliVector(split.p, a, zeros) for a in split.stab_x.basis]
    stabilizers += [PauliVector(split.p, zeros, b) for b in split.stab_z.basis]
    expected = [
        f"l = ({' '.join(map(str, l))}) g = ({' '.join(map(str, g))}) "
        f"fixed = {all(is_fixed_by(state, op) for op in stabilizers)}"
        for l, g, state in all_codewords(split)
    ]
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("l = ")] == expected


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


@pytest.mark.parametrize("argv, priced", [
    (["builtin:bacon_shor", "--l", "5"], "2^25 (33,554,432)"),
    # 2^21 labels and 2^21 amplitudes: over both limits, the amplitudes are named.
    (["builtin:trivial", "--n", "21"], "2^21 (2,097,152)"),
])
def test_codewords_dense_is_refused_before_anything_is_built(capsys, monkeypatch, argv, priced):
    def unreachable(*args):
        raise AssertionError("built before the dense table was priced")

    monkeypatch.setattr(states, "_label_grid", unreachable)
    monkeypatch.setattr(states, "_fixing_table", unreachable)
    code, out, err = run(capsys, "codewords", *argv, "--dense")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: infeasible: dense amplitudes of dimension {priced} exceed")


def test_searches_and_samples_past_the_stream_limit_are_refused(capsys):
    # Bacon-Shor 21 lists its 14.3 million vectors of weight 1 to 3 on one
    # side with no hit (d = 21); weight 4 would take the total past 2^30.
    code, out, err = run(capsys, "info", "builtin:bacon_shor", "--l", "21")
    assert (code, out) == (3, "")
    assert err == ("error: infeasible: vectors of weight 1 to 4 on 441 sites (1,568,894,691) "
                   "exceed the limit of 1,073,741,824; budget 3 fits\n")
    code, out, _ = run(capsys, "info", "builtin:bacon_shor", "--l", "21", "--budget", "2")
    assert code == 0 and "d = >=3 (search-bounded)\n" in out
    code, out, err = run(capsys, "decode", "builtin:bacon_shor", "--l", "3", "--trials", str(10**12))
    assert (code, out, err.count("\n")) == (3, "", 1)
    assert err.startswith("error: infeasible: site draws of 1,000,000,000,000 trials on 9 sites")


def test_a_search_lists_every_layer_that_fits(capsys):
    # The 1,113,840 vectors of weight 1 on 17 sites at p = 65521 fit the
    # stream limit and hold the distance; the listing to weight 17 would not.
    code, out, err = run(capsys, "info", "builtin:trivial", "--n", "17", "--p", "65521")
    assert (code, err) == (0, "")
    assert "d = 1 (exact)\n" in out and "d_X = 1 (exact)\n" in out


def test_a_distance_never_lists_weight_m(tmp_path, capsys):
    # Each side of this split at p = 65521 has m = 2 check rows; d_X = m is
    # known once weight 1 has no hit, so the listing stops before weight 2's
    # 1.3e10 vectors, which would exceed the stream limit.
    p = 65521
    split = CssSplit(Subspace.span([[1, p - 1, 0]], p, 3), Subspace.span([[1, 1, 1]], p, 3))
    path = tmp_path / "split.code"
    path.write_text(emit_code_file(SubsystemCode.from_css_split(split)))
    code, out, err = run(capsys, "info", str(path))
    assert (code, err) == (0, "")
    assert "d = 1 (exact)\n" in out
    assert "d_X = 2 (exact)\n" in out and "d_Z = 1 (exact)\n" in out


def test_out_of_memory_is_infeasible(tmp_path, capsys):
    # The 2n x 2n matrices of n = 3,000,000 qubits need 262 TiB: the first
    # allocation fails at once.
    huge = tmp_path / "huge.code"
    huge.write_text("p=2 n=3000000 format=symplectic\n")
    code, out, err = run(capsys, "info", str(huge))
    assert code == 3
    assert out == ""
    assert err.startswith("error: out of memory") and err.count("\n") == 1


@pytest.mark.parametrize("options", [
    ["--p", "2", "--n", "2", "--dim", "3", "--code-seed", "1", "--trials", "5"],
    ["--p", "2", "--n", "2", "--dim", "3", "--code-seed", "1", "--exhaustive-weight", "1"],
    ["--n", "0", "--dim", "0", "--trials", "5"],
    # n = 0: no weight to sweep, so no sweep reads a distance.
    ["--n", "0", "--dim", "0", "--exhaustive-weight", "1"],
])
def test_decode_without_logical_operators_is_infeasible(capsys, options):
    # k = 0 CSS codes: nothing to decode, as `info` reports d = undefined.
    code, out, err = run(capsys, "decode", "builtin:random", *options)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "no logical operators" in err


@pytest.mark.parametrize("module, name, argv", [
    (cli, "_format_rows", ["goursat", "builtin:five_qubit"]),
    (states, "_fixing_table", ["codewords", "builtin:bacon_shor", "--l", "3"]),
    (states, "_dense_fixing_table", ["codewords", "builtin:bacon_shor", "--l", "3", "--dense"]),
    (codefile, "emit_code_file", ["double", "builtin:five_qubit"]),
    (decode, "exhaustive_sweep", ["decode", "builtin:bacon_shor", "--l", "3",
                                  "--exhaustive-weight", "1"]),
])
def test_a_request_that_fails_last_writes_no_report(capsys, monkeypatch, module, name, argv):
    # The command's last computation runs out of memory after the lines
    # before it are known: a report is written only once its request succeeds.
    def exhausted(*args):
        raise MemoryError("last step")

    monkeypatch.setattr(module, name, exhausted)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: out of memory: last step\n"


@pytest.mark.parametrize("module, argv, blocks", [
    (cli, ["goursat", "builtin:bacon_shor", "--l", "4"], 6),
    (cli, ["codewords", "builtin:bacon_shor", "--l", "3", "--dense"], 2),
    (codefile, ["double", "builtin:five_qubit"], 2),
])
def test_a_report_formats_its_matrices_in_one_call(capsys, monkeypatch, module, argv, blocks):
    # goursat's four bases and two phi halves, codewords' two label grids and
    # the two halves of a symplectic code file each become text in one call.
    calls = []

    def counted(*args, original=module._format_rows):
        calls.append(len(args))
        return original(*args)

    monkeypatch.setattr(module, "_format_rows", counted)
    code, out, err = run(capsys, *argv)
    assert (code, err, calls) == (0, "", [blocks])


def test_decode_without_a_code_is_rejected_input(capsys):
    code, out, err = run(capsys, "decode", "--trials", "5")
    assert (code, out) == (2, "")
    assert err == "error: no code given (positional or --code)\n"


def test_an_unreadable_code_file_is_rejected_input(tmp_path, capsys):
    # Like an unwritable --out path: the message names the path and the reason.
    missing = tmp_path / "missing.code"
    code, out, err = run(capsys, "info", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {missing}: No such file or directory\n"


def test_info_computes_before_it_prints(capsys, monkeypatch):
    # A request that fails while its distances are computed prints no n, k, r.
    def exhausted(*args):
        raise MemoryError("distance search")

    monkeypatch.setattr(cli, "_distances", exhausted)
    code, out, err = run(capsys, "info", "builtin:five_qubit")
    assert (code, out) == (3, "")
    assert err == "error: out of memory: distance search\n"


def test_large_prime_letters_are_sized_before_they_are_listed(capsys, monkeypatch):
    # The symplectic distance of a non-CSS code at p = 65521 would list its
    # p^2 - 1 single-site values from a 64 GiB grid: infeasible before the
    # code that lists letters allocates anything.
    monkeypatch.setattr(code_module, "np", numpy_without("indices", "zeros"))
    args = ["info", "builtin:random", "--p", "65521", "--n", "3", "--dim", "4", "--seed", "1"]
    code, out, err = run(capsys, *args)
    assert (code, out) == (3, "")
    assert err == ("error: infeasible: bytes of the single-site value grid of p = 65521 "
                   "(68,688,023,056) exceed the limit of 1,073,741,824\n")


def test_decode_samples_a_large_prime_without_listing_its_letters(capsys):
    # p = 65521 has p^2 - 1 (about 4.3e9) single-site values; each hit letter
    # is computed from its draw, so no list of them is allocated.
    args = ["decode", "builtin:trivial", "--n", "2", "--p", "65521", "--trials", "5"]
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header == "weight_or_q,trials,corrected,logical_failures,out_of_range"
    assert len(rows) == 1 and rows[0].startswith("0.01,5,")
    assert run(capsys, *args, "--q", "0.5")[:2] == (0, header + "\n0.5,5,3,2,0\n")


def test_decode_sweep_without_the_leader_table(capsys, monkeypatch):
    # The sweep guard does not depend on the leader table: with the table off,
    # every batch of errors fills its own leaders, as above gf.ROW_LIMIT syndromes.
    monkeypatch.setattr(decode.ClassicalCode, "_leader_table", None)
    code, out, err = run(capsys, "decode", "builtin:bacon_shor", "--l", "3",
                         "--exhaustive-weight", "2")
    golden = Path(__file__).parent / "golden" / "decode_exhaustive2_bacon_shor3.txt"
    assert (code, out, err) == (0, golden.read_text(), "")


@pytest.mark.parametrize(
    "bad",
    [
        ["--q", "1.5"],
        ["--trials", "0"],
        ["--exhaustive-weight", "0"],
        ["--exhaustive-weight", "-3"],
        # A sweep draws no samples, so the sampling options would do nothing.
        ["--exhaustive-weight", "2", "--q", "0.01"],
        ["--exhaustive-weight", "2", "--trials", "10"],
        ["--exhaustive-weight", "2", "--seed", "5"],
        # Rejected by monte_carlo, not by numpy, so that the message names the option.
        ["--seed", "-1"],
        ["--q", "nan"],
    ],
)
def test_decode_rejects_bad_sampling_options_before_output(capsys, bad):
    code, out, err = run(capsys, "decode", "builtin:bacon_shor", "--l", "3", *bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    if bad == ["--seed", "-1"]:
        assert "seed" in err
    if bad[0] == "--q":
        # The message names the option and the value it rejects.
        assert " q must be in [0, 1]" in err and err.rstrip().endswith(f"got {bad[1]}")


@pytest.mark.parametrize("trials", [str(2**63), "99999999999999999999999"])
def test_decode_rejects_trials_past_int64_before_sampling(capsys, monkeypatch, trials):
    # The counts are int64: past 2**63 - 1 trials the request is refused
    # before any draw, where it would otherwise sample until killed.
    def refuse(*args):
        raise AssertionError("a refused request sampled")

    monkeypatch.setattr(decode, "_sampled_errors", refuse)
    code, out, err = run(capsys, "decode", "builtin:bacon_shor", "--l", "3", "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: trials must be <= 2**63 - 1 (int64 counts), got {trials}\n"
    # 2**63 - 1 trials fit the counts, but not `gf.STREAM_LIMIT` site draws:
    # refused with exit 3 before any draw.
    code, out, err = run(capsys, "decode", "builtin:bacon_shor", "--l", "3", "--trials", str(2**63 - 1))
    assert (code, out) == (3, "")
    assert err.startswith("error: infeasible: site draws of 9,223,372,036,854,775,807 trials on 9 sites")


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "builtin:random", "--seed", "-1"],
        ["gen", "random", "--seed", "-1"],
        ["decode", "builtin:random", "--code-seed", "-1"],
    ],
)
def test_negative_random_code_seed_is_named(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: seed must be >= 0, got -1\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "builtin:five_qubit", "--budget", "-3"],
        ["distance", "builtin:bacon_shor", "--l", "3", "--budget", "-1"],
        ["double", "builtin:five_qubit", "--budget", "-1"],
        ["distance", "builtin:five_qubit", "--budget", "x"],
    ],
)
def test_negative_budget_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert f"--budget: expected an integer >= 0, got '{argv[-1]}'" in captured.err


def test_zero_budget_prints_the_bound_one(capsys):
    code, out, _ = run(capsys, "distance", "builtin:bacon_shor", "--l", "3", "--budget", "0")
    assert code == 0
    assert out == "d = >=1 (search-bounded)\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["info", "builtin:bacon_shor", "--l", "2", "--p", "4"], "p"),
        (["info", "builtin:five_qubit", "--n", "9"], "n"),
        (["gen", "bacon_shor", "--p", "3"], "p"),
        (["decode", "builtin:bacon_shor", "--l", "3", "--code-seed", "5", "--trials", "5"], "seed"),
    ],
)
def test_builtin_rejects_options_it_does_not_take(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"does not take {option} " in err


@pytest.mark.parametrize(
    "command, options, named",
    [
        ("info", ["--l", "5"], "l"),
        ("info", ["--seed", "9", "--dim", "2"], "dim, seed"),
        ("distance", ["--p", "3"], "p"),
        ("codewords", ["--n", "4"], "n"),
        ("decode", ["--code-seed", "5", "--trials", "5"], "seed"),
    ],
)
def test_code_file_rejects_builtin_options(tmp_path, capsys, command, options, named):
    path = tmp_path / "bs3.code"
    assert run(capsys, "gen", "bacon_shor", "--l", "3", "--out", str(path))[0] == 0
    code, out, err = run(capsys, command, str(path), *options)
    assert (code, out) == (2, "")
    assert err == f"error: code files take no builtin options (got {named})\n"


def test_decode_rejects_the_code_given_twice(tmp_path, capsys):
    path = tmp_path / "bs3.code"
    assert run(capsys, "gen", "bacon_shor", "--l", "3", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "decode", "builtin:bacon_shor", "--l", "3",
                         "--code", str(path), "--trials", "5")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "--code" in err


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
        # A fresh parser, and no parse held from the shared one.
        build_parser.cache_clear()
        cli._parse.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert shared[0][0] == 2 and "usage:" in shared[0][2]
    assert all(rc == 0 for rc, _, _ in shared[1:])


def _outcome(capsys, argv, out=None):
    """(rc, stdout, stderr, the `--out` file's text or None) of one request;
    the file is removed, so the next request writes it afresh."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    written = None
    if out is not None and out.exists():
        written = out.read_text()
        out.unlink()
    return rc, captured.out, captured.err, written


def _bacon_shor_key(l):
    return "bacon_shor", (("l", l),)


def test_held_codes_answer_as_fresh_ones(tmp_path, capsys):
    # The same mixed requests give the same rc, stdout, stderr and `--out`
    # file whether each loads its code afresh or the session holds it.
    path = tmp_path / "bs3_p3.code"
    path.write_text(emit_code_file(qudit_bacon_shor(3, 3)))
    out = tmp_path / "out.code"
    bs3, five, rnd = (["builtin:bacon_shor", "--l", "3"], ["builtin:five_qubit"],
                      ["builtin:random", "--p", "3", "--n", "6", "--dim", "5", "--seed", "2"])
    requests = [
        ["info", *bs3], ["distance", *bs3, "--budget", "1"],
        ["double", *bs3, "--out", str(out)], ["goursat", *bs3], ["classify", *bs3],
        ["decode", *bs3, "--q", "0.05", "--trials", "50"],
        ["decode", *bs3, "--exhaustive-weight", "2"], ["codewords", *bs3, "--dense"],
        ["gen", "bacon_shor", "--l", "3"], ["info", *five], ["distance", *five],
        ["double", *five, "--format", "pauli"], ["goursat", *five], ["classify", *five],
        ["decode", *five], ["codewords", *five],
        ["info", str(path)], ["distance", str(path), "--budget", "2"],
        ["double", str(path), "--budget", "1", "--out", str(out)], ["goursat", str(path)],
        ["classify", str(path)], ["codewords", str(path)],
        ["decode", str(path), "--trials", "20", "--seed", "3"],
        ["info", str(path), "--l", "3"], ["info", "builtin:bacon_shor", "--l", "1"],
        ["info", "--budget", "x", *bs3], ["codewords", "builtin:bacon_shor", "--l", "6"],
        ["decode", "builtin:random", "--p", "2", "--n", "2", "--dim", "3", "--code-seed", "1",
         "--trials", "5"],
        ["info", *rnd], ["double", *rnd, "--out", str(out)], ["goursat", *rnd],
        ["classify", *rnd], ["gen", "random", "--p", "3", "--n", "6", "--dim", "5", "--seed", "2"],
    ]
    requests += requests[::-1]
    shared = [_outcome(capsys, argv, out) for argv in requests]
    info = cli._session.cache_info()
    fresh = []
    for argv in requests:
        cli._session.cache_clear()
        fresh.append(_outcome(capsys, argv, out))
    assert shared == fresh
    assert {rc for rc, *_ in shared} == {0, 2, 3}
    assert info.hits > info.misses > 0
    assert all(written is not None for argv, (_, _, _, written) in zip(requests, shared)
               if "--out" in argv)


def _captured(argv):
    """(rc, stdout, stderr) of one request, captured without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _shared_and_fresh(requests):
    """The outcomes of the requests in one session, and each after emptying it."""
    cli._session.cache_clear()
    shared = [_captured(argv) for argv in requests]
    fresh = []
    for argv in requests:
        cli._session.cache_clear()
        fresh.append(_captured(argv))
    return shared, fresh


BS5_DISTANCE = ["distance", "builtin:bacon_shor", "--l", "5"]
BS5_INFO_BUDGET3 = ["info", "builtin:bacon_shor", "--l", "5", "--budget", "3"]


@pytest.mark.parametrize("requests", [[BS5_DISTANCE, BS5_INFO_BUDGET3],
                                      [BS5_INFO_BUDGET3, BS5_DISTANCE]],
                         ids=["distance_first", "budget_first"])
def test_recorded_distances_report_as_fresh_ones(requests):
    # The held code's split answers the second request from what the first
    # one found: the budget-3 bound after the exact d, or a search past it.
    shared, fresh = _shared_and_fresh(requests)
    assert shared == fresh
    assert "d = 5 (exact)\n" in shared[requests.index(BS5_DISTANCE)][1]
    assert "d_X = >=4 (search-bounded)\n" in shared[requests.index(BS5_INFO_BUDGET3)][1]


_RECORD_CODES = [["builtin:bacon_shor", "--l", "3"], ["builtin:bacon_shor", "--l", "4"],
                 ["builtin:five_qubit"],
                 ["builtin:random", "--p", "3", "--n", "4", "--dim", "3", "--seed", "1"]]


@st.composite
def _distance_requests(draw):
    """A request that reads a distance: `info` or `distance`, each with or
    without a budget, or `double` with one."""
    code = draw(st.sampled_from(_RECORD_CODES))
    command = draw(st.sampled_from(["info", "distance", "double"]))
    budget = draw(st.one_of(st.integers(0, 5), st.none()) if command != "double"
                  else st.integers(0, 5))
    return [command, *code, *([] if budget is None else ["--budget", str(budget)])]


@settings(max_examples=30, deadline=None)
@given(st.lists(_distance_requests(), min_size=2, max_size=8))
def test_any_order_of_distance_requests_reports_as_fresh(requests):
    shared, fresh = _shared_and_fresh(requests)
    assert shared == fresh


def _codewords_report(split, dense):
    """The `codewords` report of a split, built label by label: l-major, each
    side's coefficients in `itertools.product` order on its canonical quotient
    basis; every codeword is fixed by the stabilizer, so the dense table agrees."""
    p, zero = split.p, np.zeros(split.n, dtype=np.int64)

    def grid(reps):
        return [" ".join(map(str, sum((c * r for c, r in zip(cs, reps)), zero) % p))
                for cs in product(range(p), repeat=len(reps))]

    ls = grid(split.logical_x.quotient_reps(split.h_x))
    gs = grid(split.h_x.quotient_reps(split.stab_x))
    mark = " dense_agrees = True" if dense else ""
    lines = [f"codewords = {len(ls) * len(gs)} (exact)",
             f"support_size = {p**split.stab_x.dim} (exact)"]
    lines += [f"l = ({l}) g = ({g}) fixed = True{mark}" for l in ls for g in gs]
    return "\n".join([*lines, "all_fixed = True (exact)", ""])


@settings(max_examples=40, deadline=None)
@given(css_splits(primes=(2, 3, 5), max_n=5))
def test_codewords_with_and_without_dense_report_as_fresh(split):
    # Symbolic, then dense, then both again in the other order: in one session,
    # where the second request of the code reads its held label bases, and each
    # after emptying the session, every report is the reference's.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "split.code"
        path.write_text(emit_code_file(SubsystemCode.from_css_split(split)))
        requests = [["codewords", str(path)], ["codewords", str(path), "--dense"]]
        requests += requests[::-1]
        shared, fresh = _shared_and_fresh(requests)
    assert shared == fresh
    assert shared == [(0, _codewords_report(split, "--dense" in argv), "") for argv in requests]


def _counts():
    """The session's (hits, misses, codes held)."""
    info = cli._session.cache_info()
    return info.hits, info.misses, info.currsize


def test_builtins_are_held_by_their_resolved_options(capsys):
    reports = [_outcome(capsys, ["info", "builtin:bacon_shor", "--l", str(l)]) for l in (3, 4)]
    assert reports[0] != reports[1]
    assert _counts() == (0, 2, 2)
    # No --l is the default l = 3: the same code, held once.
    assert _outcome(capsys, ["info", "builtin:bacon_shor"]) == reports[0]
    assert _counts() == (1, 2, 2)
    for seed in (1, 2):
        _outcome(capsys, ["info", "builtin:random", "--p", "3", "--n", "4", "--seed", str(seed)])
    assert _counts() == (1, 4, 4)
    # Each is held under its name and every option, given or defaulted.
    first, second = (cli._session(("random", (("p", 3), ("n", 4), ("dim", 4), ("seed", seed))))
                     for seed in (1, 2))
    assert first != second
    no_l = cli._load_code("builtin:bacon_shor", cli._parse(("info", "builtin:bacon_shor")))
    assert no_l is cli._session(_bacon_shor_key(3))
    assert _counts() == (5, 4, 4)


def test_a_rewritten_file_is_loaded_again(tmp_path, capsys):
    path = tmp_path / "code.code"
    path.write_text(emit_code_file(bacon_shor(3)))
    assert "n = 9 (exact)" in _outcome(capsys, ["info", str(path)])[1]
    path.write_text(emit_code_file(bacon_shor(4)))
    rc, out, _, _ = _outcome(capsys, ["info", str(path)])
    assert rc == 0 and "n = 16 (exact)" in out
    assert _counts() == (0, 2, 2)


def test_failed_loads_are_not_held(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("p=2 n=2 format=pauli\nXQ\n")
    for argv in (["info", str(bad)], ["info", str(bad)], ["info", "builtin:bacon_shor", "--l", "1"],
                 ["info", "builtin:steane"], ["info", "builtin:five_qubit", "--l", "3"]):
        assert _outcome(capsys, argv)[0] == 2
    assert _counts() == (0, 3, 0)
    bad.write_text("p=2 n=2 format=pauli\nXX\n")
    assert _outcome(capsys, ["info", str(bad)])[0] == 0
    assert _counts() == (0, 4, 1)


def test_least_recently_used_codes_are_evicted_first(capsys):
    def request(n):
        before = cli._session.cache_info().misses
        assert _outcome(capsys, ["info", "builtin:trivial", "--n", str(n)]) == expected[n]
        return cli._session.cache_info().misses > before

    expected = {n: _outcome(capsys, ["info", "builtin:trivial", "--n", str(n)])
                for n in range(1, cli._SESSION_CODES + 2)}
    assert all(rc == 0 for rc, *_ in expected.values())
    cli._session.cache_clear()
    assert cli._SESSION_CODES == 32
    # Fill the session, then use code 1 again, so code 2 is the least recently used.
    assert all(request(n) for n in range(1, 33))
    assert not request(1)
    # The 33rd distinct code evicts exactly code 2.
    assert request(33)
    assert cli._session.cache_info().currsize == 32
    assert not request(1) and not request(3) and not request(33)
    assert request(2)
    assert cli._session.cache_info().currsize == 32


def test_held_codes_keep_what_their_requests_built(tmp_path, capsys):
    path = tmp_path / "five2.code"
    path.write_text(emit_code_file(cli.delta(cli.codefile.five_qubit()).result))
    out = tmp_path / "out.code"
    commands = [["info"], ["distance"], ["goursat"], ["classify"], ["double", "--out", str(out)],
                ["decode", "--trials", "20"], ["codewords"]]
    specs = [["builtin:bacon_shor", "--l", "3"], ["builtin:five_qubit"], [str(path)]]
    for command in commands:
        for spec in specs:
            _outcome(capsys, [command[0], *spec, *command[1:]], out)
    misses = cli._session.cache_info().misses
    held = [cli._session(key) for key in (_bacon_shor_key(3), ("five_qubit", ()), path.read_text())]
    assert cli._session.cache_info().misses == misses == 3
    # The CSS codes' splits hold their codeword label bases and decoders.
    splits = [code.css_split() for code in held if code.is_css()]
    assert len(splits) == 2
    assert all({"_label_bases", "_decoder_pair"} <= split.__dict__.keys() for split in splits)
    # `double` on a CSS code links its gauge and the gauge's complement.
    bs3 = held[0]
    assert bs3.gauge.__dict__["_complement"].__dict__["_complement"] is bs3.gauge


_LIBRARY_COMMANDS = [["info"], ["distance"], ["goursat"], ["classify"], ["double", "--out", "OUT"],
                     ["decode", "--trials", "20"], ["codewords"]]


def _library_requests(directory):
    """(argv of each command on each of three codes: a builtin, a code file and
    a non-CSS builtin; the `--out` path)."""
    path, out = Path(directory) / "bs3_p3.code", Path(directory) / "out.code"
    path.write_text(emit_code_file(qudit_bacon_shor(3, 3)))
    specs = [["builtin:bacon_shor", "--l", "3"], [str(path)], ["builtin:five_qubit"]]
    return [[[command[0], *spec, *(str(out) if arg == "OUT" else arg for arg in command[1:])]
              for spec in specs] for command in _LIBRARY_COMMANDS], out


def _library_write(kind, code):
    """A cache write on a held code, made by a library call outside `main`."""
    if kind == "delta":
        delta(code)
    elif kind == "complement":
        code.gauge.complement()
    elif code.is_css():
        decode._decoder_pair(code.css_split())


def _output(argv, out):
    """(rc, stdout, stderr, the `--out` file's text or None) of one request;
    the file is removed, so the next request writes it afresh."""
    outcome = _captured(argv)
    written = out.read_text() if out.exists() else None
    out.unlink(missing_ok=True)
    return *outcome, written


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_LIBRARY_COMMANDS) - 1), st.integers(0, 2),
                          st.sampled_from([None, "delta", "complement", "decoders"]),
                          st.integers(0, 5)),
                min_size=1, max_size=8))
def test_library_writes_between_requests_report_as_fresh(steps):
    # Requests of any command on any of the three codes, with library cache
    # writes on held codes between them: each request reports as it does
    # after emptying the session, whether the write was on its code or not.
    cli._session.cache_clear()
    with tempfile.TemporaryDirectory() as directory:
        requests, out = _library_requests(directory)
        argvs = [requests[command][spec] for command, spec, _, _ in steps]
        shared, loaded = [], []
        for argv, (_, _, write, pick) in zip(argvs, steps):
            if write is not None and loaded:
                held = loaded[pick % len(loaded)]
                _library_write(write, cli._load_code(held[1], cli._parse(tuple(held))))
            shared.append(_output(argv, out))
            loaded.append(argv)
        fresh = []
        for argv in argvs:
            cli._session.cache_clear()
            fresh.append(_output(argv, out))
    assert shared == fresh


def _exit(capsys, argv):
    """(SystemExit code, stdout, stderr) of an argv that the parser ends."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_a_rejected_argv_is_rejected_on_every_call(capsys):
    cli._parse.cache_clear()
    argv = ["info", "--budget", "x", "builtin:trivial"]
    outcomes = [_exit(capsys, argv) for _ in range(3)]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    rc, out, err = outcomes[0]
    assert rc == 2 and out == "" and "usage: subcss info" in err and "--budget" in err
    assert cli._parse.cache_info().currsize == 0


def test_help_prints_on_every_call(capsys):
    outcomes = [_exit(capsys, ["info", "-h"]) for _ in range(2)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and "usage: subcss info" in outcomes[0][1]


def test_each_call_gets_a_fresh_namespace(monkeypatch, capsys):
    # Every call's Namespace is its own, equal to a fresh parser's parse, and
    # a change made to one is not seen by the next call.
    seen, load = [], cli._load_code

    def recording(spec, args):
        seen.append(args)
        return load(spec, args)

    monkeypatch.setattr(cli, "_load_code", recording)
    argv = ["info", "builtin:bacon_shor", "--l", "3", "--budget", "1"]
    fresh = build_parser.__wrapped__().parse_args(argv)
    reports = []
    for _ in range(3):
        reports.append(run(capsys, *argv))
        assert seen[-1] == fresh
        seen[-1].budget, seen[-1].l = 0, 4
    assert len({id(args) for args in seen}) == 3
    assert reports[0] == reports[1] == reports[2]
    assert cli._parse.cache_info().hits >= 2


def test_the_parse_memo_is_bounded(capsys):
    cli._parse.cache_clear()
    for budget in range(300):
        assert run(capsys, "distance", "builtin:trivial", "--budget", str(budget))[0] == 0
    info = cli._parse.cache_info()
    assert info.maxsize == 256 and info.currsize == 256 and info.misses == 300
