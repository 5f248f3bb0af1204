"""End-to-end micro-benchmarks of `subcss codewords` on fixed codes.

Times the whole CLI request (label grid, stabilizer fixing table, exact dense
cross-check with `--dense`, report) through `cli.main` with stdout captured:
`--dense` on the qudit Bacon-Shor code (p = 3, l = 3), the doubled
five-qudit code at p = 3 and the 4 x 4 Bacon-Shor code (1024 labels on 2^16
amplitudes), and the symbolic table alone on the qudit Bacon-Shor code. Each
round first empties the CLI's session of loaded codes, so each times a cold
request, with the code parsed or built and its split computed. Two warm cases
time `--dense` on the qudit Bacon-Shor and doubled five-qudit codes held from
an earlier request, with their label bases. Also
times two layers alone: `dense_vector` of a state on 2^12 support elements,
and the exact dense fixing table of two codewords and 15 stabilizer rows on
2^14 support elements, which runs in chunks of one codeword.

Not part of the test suite (the file name does not match `test_*.py`). Run:

    PYTHONPATH=src python -m pytest tests/bench_states.py --benchmark-only
"""

import contextlib
import io

import numpy as np
import pytest

from subcss import CosetState, Subspace, delta, dense_vector, emit_code_file
from subcss import cli
from subcss.states import _dense_fixing_table

from conftest import five_qudit, qudit_bacon_shor


@pytest.fixture(scope="module")
def code_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("codes")
    files = {}
    for name, code in (("bs3_p3", qudit_bacon_shor(3, 3)),
                       ("five2_p3", delta(five_qudit(3)).result)):
        files[name] = directory / f"{name}.code"
        files[name].write_text(emit_code_file(code))
    return files


def _codewords(benchmark, *argv, warm=False):
    """Time one request, cold (the session emptied before each round) or warm
    (the code held from an untimed first request, with its label bases)."""
    def request():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["codewords", *argv])
        return rc, out.getvalue()

    if warm:
        cold = request()
        assert benchmark(request) == cold
        info = cli._session.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        rc, out = cold
    else:
        rc, out = benchmark.pedantic(request, setup=cli._session.cache_clear, rounds=50)
    assert rc == 0 and out.endswith("all_fixed = True (exact)\n")
    return out


def test_codewords_dense_qudit_bacon_shor3_p3(benchmark, code_files):
    out = _codewords(benchmark, str(code_files["bs3_p3"]), "--dense")
    assert out.startswith("codewords = 243 (exact)")


def test_codewords_qudit_bacon_shor3_p3(benchmark, code_files):
    out = _codewords(benchmark, str(code_files["bs3_p3"]))
    assert out.startswith("codewords = 243 (exact)")


def test_codewords_dense_doubled_five_qudit_p3(benchmark, code_files):
    _codewords(benchmark, str(code_files["five2_p3"]), "--dense")


def test_codewords_dense_qudit_bacon_shor3_p3_warm(benchmark, code_files):
    out = _codewords(benchmark, str(code_files["bs3_p3"]), "--dense", warm=True)
    assert out.startswith("codewords = 243 (exact)")


def test_codewords_dense_doubled_five_qudit_p3_warm(benchmark, code_files):
    _codewords(benchmark, str(code_files["five2_p3"]), "--dense", warm=True)


def test_codewords_dense_bacon_shor4(benchmark):
    out = _codewords(benchmark, "builtin:bacon_shor", "--l", "4", "--dense")
    assert out.startswith("codewords = 1024 (exact)")


def test_dense_vector_support_2_12(benchmark):
    # p = 2, n = 14: S = <e_0..e_11>, a drawn offset, phase functional and global phase.
    rng = np.random.default_rng(5)
    support = Subspace.span(np.eye(14, dtype=np.int64)[:12], 2, 14)
    state = CosetState(rng.integers(0, 2, 14), support, rng.integers(0, 2, 14), 1)
    amps = benchmark(dense_vector, state)
    assert np.count_nonzero(amps) == 2**12


def test_dense_fixing_table_one_codeword_chunks(benchmark):
    # p = 2, n = 16: X rows e_0..e_13 and one Z row e_14 fix both codewords,
    # the offsets 0 and e_15, on S = <e_0..e_13> of 2^14 elements.
    eye = np.eye(16, dtype=np.int64)
    support = Subspace.span(eye[:14], 2, 16)
    offsets = np.vstack([np.zeros(16, dtype=np.int64), eye[15]])
    table = benchmark(_dense_fixing_table, support, offsets, eye[:14], eye[14:15])
    assert table.shape == (2, 15) and table.all()
