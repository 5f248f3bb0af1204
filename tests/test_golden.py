"""Full CLI transcripts compared byte for byte against stored goldens.

The goldens pin what the line-level CLI tests leave open: the order of
the Goursat phi pairs, the order of codeword labels, the seeded
Monte-Carlo CSV, and the canonical generator rows that `double` and `gen`
write. Each file under tests/golden/ is the stdout of the
command listed for it here.
"""

from pathlib import Path

import pytest

from subcss.cli import main

GOLDEN = Path(__file__).parent / "golden"

CODES = {
    "five_qubit": ["builtin:five_qubit"],
    "bacon_shor3": ["builtin:bacon_shor", "--l", "3"],
    "bacon_shor4": ["builtin:bacon_shor", "--l", "4"],
    "random_p3": ["builtin:random", "--p", "3", "--n", "5", "--dim", "5", "--seed", "1"],
}

CASES = {f"{cmd}_{name}": [cmd, *spec] for cmd in ("info", "goursat", "classify")
         for name, spec in CODES.items()}
CASES["codewords_dense_bacon_shor3"] = ["codewords", *CODES["bacon_shor3"], "--dense"]
CASES["decode_exhaustive2_bacon_shor3"] = [
    "decode", *CODES["bacon_shor3"], "--exhaustive-weight", "2"
]
CASES["decode_mc_bacon_shor3"] = [
    "decode", *CODES["bacon_shor3"], "--q", "0.05", "--trials", "300", "--seed", "7"
]
CASES["double_five_qubit"] = ["double", *CODES["five_qubit"]]
CASES["double_pauli_bacon_shor3"] = ["double", *CODES["bacon_shor3"], "--format", "pauli"]
CASES["double_random_p3"] = ["double", *CODES["random_p3"]]
CASES["gen_random_p3"] = ["gen", "random", "--p", "3", "--n", "4", "--dim", "4", "--seed", "0"]
BACON_SHOR5 = ["builtin:bacon_shor", "--l", "5"]
CASES["info_bacon_shor5"] = ["info", *BACON_SHOR5]
CASES["distance_budget4_bacon_shor5"] = ["distance", *BACON_SHOR5, "--budget", "4"]
# A CSS code with no logical operators: every distance line reads "undefined".
CASES["info_random_p3_empty"] = [
    "info", "builtin:random", "--p", "3", "--n", "0", "--dim", "0", "--seed", "0"
]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_every_golden_has_a_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(CASES)
