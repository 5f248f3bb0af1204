"""Source hygiene: every module compiles without a warning, and every
micro-benchmark runs."""

import subprocess
import sys
import warnings
from pathlib import Path

import subcss


def test_sources_compile_without_warnings():
    # Invalid escape sequences and other syntax warnings fail here, not at import.
    sources = sorted(Path(subcss.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_micro_benchmarks_run_untimed():
    # Each benchmark runs once with timing off, so a bench that reads stats
    # that only a timed run has fails here rather than when someone times it.
    tests = Path(__file__).parent
    benches = sorted(str(path) for path in tests.glob("bench_*.py"))
    assert len(benches) == 4
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         *benches],
        cwd=tests.parent, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
