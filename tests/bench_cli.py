"""End-to-end micro-benchmarks of whole CLI requests, cold and warm.

Times `classify`, `goursat` and `double --budget 1` on the 10x10 Bacon-Shor
code, and `info --budget 1` on a random gauge code at p = 3, n = 40 with 40
generators, each through `cli.main` with stdout captured. A cold round first
empties the session of loaded codes, so it builds the code and every space
the request reads; a warm round finds the code held from an earlier request,
with those spaces cached.

Not part of the test suite (the file name does not match `test_*.py`). Run:

    PYTHONPATH=src python -m pytest tests/bench_cli.py --benchmark-only
"""

import contextlib
import io

import pytest

from subcss import cli

BACON_SHOR10 = ["builtin:bacon_shor", "--l", "10"]
REQUESTS = {
    "classify_bacon_shor10": ["classify", *BACON_SHOR10],
    "goursat_bacon_shor10": ["goursat", *BACON_SHOR10],
    "double_bacon_shor10": ["double", *BACON_SHOR10, "--budget", "1"],
    "info_random_p3_n40": ["info", "builtin:random", "--p", "3", "--n", "40", "--dim", "40",
                           "--seed", "1", "--budget", "1"],
}


def _request(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0
    return out.getvalue()


@pytest.mark.parametrize("name", REQUESTS)
def test_cold(benchmark, name):
    out = benchmark.pedantic(_request, args=(REQUESTS[name],), setup=cli._session.cache_clear,
                             rounds=50)
    assert _request(REQUESTS[name]) == out


@pytest.mark.parametrize("name", REQUESTS)
def test_warm(benchmark, name):
    cold = _request(REQUESTS[name])
    assert benchmark(_request, REQUESTS[name]) == cold
    assert cli._session.cache_info()[1:3] == (1, 1)
