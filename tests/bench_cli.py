"""End-to-end micro-benchmarks of whole CLI requests, cold and warm.

Times `classify`, `goursat` and `double --budget 1` on the 10x10 Bacon-Shor
code, `info --budget 1` on a random gauge code at p = 3, n = 40 with 40
generators, and `distance` on the qudit Bacon-Shor code at (p, l) = (3, 4),
read from a code file, each through `cli.main` with stdout captured. A cold
round first empties the session of loaded codes, so it builds the code and
every space the request reads, and searches its distances; a warm round finds
the code held from an earlier request, with those spaces cached and its
distances recorded. Two cases are timed warm only: `info --budget 1` of
Bacon-Shor 3, the cost of a request around its answer (parse, dispatch,
report, settle), and `double --budget 1 --out` of Bacon-Shor 10, which reads
the held double and writes its 200 rows. A last case times `info --budget 3`
of Bacon-Shor 5 on a code held after a full `distance`, which its split's
records answer. Below the CLI, `emit_code_file` of the double of Bacon-Shor 10
(360 generators on 200 qubits) is timed in both formats, the text that
`double --out` writes.

Not part of the test suite (the file name does not match `test_*.py`). Run:

    PYTHONPATH=src python -m pytest tests/bench_cli.py --benchmark-only
"""

import contextlib
import io

import pytest

from subcss import bacon_shor, cli, delta, emit_code_file

from conftest import qudit_bacon_shor

BACON_SHOR10 = ["builtin:bacon_shor", "--l", "10"]
# Stand for the path of the qudit Bacon-Shor (3, 4) code file and of an --out file.
QUDIT_BACON_SHOR34 = "<qudit_bacon_shor_3_4.code>"
OUT = "<out.code>"
REQUESTS = {
    "classify_bacon_shor10": ["classify", *BACON_SHOR10],
    "goursat_bacon_shor10": ["goursat", *BACON_SHOR10],
    "double_bacon_shor10": ["double", *BACON_SHOR10, "--budget", "1"],
    "info_random_p3_n40": ["info", "builtin:random", "--p", "3", "--n", "40", "--dim", "40",
                           "--seed", "1", "--budget", "1"],
    "distance_qudit_bacon_shor_p3_l4": ["distance", QUDIT_BACON_SHOR34],
}
WARM_ONLY = {
    "info_bacon_shor3": ["info", "builtin:bacon_shor", "--l", "3", "--budget", "1"],
    "double_out_bacon_shor10": ["double", *BACON_SHOR10, "--budget", "1", "--out", OUT],
}
BACON_SHOR5_DISTANCE = ["distance", "builtin:bacon_shor", "--l", "5"]
BACON_SHOR5_INFO_BUDGET3 = ["info", "builtin:bacon_shor", "--l", "5", "--budget", "3"]


@pytest.fixture(scope="module")
def argv_of(tmp_path_factory):
    """A request's argv, with the qudit Bacon-Shor (3, 4) file written once."""
    directory = tmp_path_factory.mktemp("codes")
    path = directory / "qudit_bacon_shor_3_4.code"
    path.write_text(emit_code_file(qudit_bacon_shor(3, 4)))
    paths = {QUDIT_BACON_SHOR34: str(path), OUT: str(directory / "out.code")}
    return lambda name: [paths.get(arg, arg) for arg in {**REQUESTS, **WARM_ONLY}[name]]


def _request(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0
    return out.getvalue()


@pytest.mark.parametrize("name", REQUESTS)
def test_cold(benchmark, argv_of, name):
    argv = argv_of(name)
    out = benchmark.pedantic(_request, args=(argv,), setup=cli._session.cache_clear, rounds=50)
    assert _request(argv) == out


@pytest.mark.parametrize("name", [*REQUESTS, *WARM_ONLY])
def test_warm(benchmark, argv_of, name):
    argv = argv_of(name)
    cold = _request(argv)
    assert benchmark(_request, argv) == cold
    info = cli._session.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_info_budget3_after_distance_bacon_shor5(benchmark):
    # Each round loads the code afresh and runs the full `distance`, untimed;
    # the timed `info --budget 3` then reads both sides off the split's records.
    def after_distance():
        cli._session.cache_clear()
        _request(BACON_SHOR5_DISTANCE)
        return (BACON_SHOR5_INFO_BUDGET3,), {}

    out = benchmark.pedantic(_request, setup=after_distance, rounds=50)
    assert "d_X = >=4 (search-bounded)\n" in out
    cli._session.cache_clear()
    assert _request(BACON_SHOR5_INFO_BUDGET3) == out


@pytest.mark.parametrize("fmt", ["symplectic", "pauli"])
def test_emit_code_file_double_bacon_shor10(benchmark, fmt):
    doubled = delta(bacon_shor(10)).result
    text = benchmark(emit_code_file, doubled, fmt)
    assert text.count("\n") == 361
