"""Source hygiene: every module compiles without a warning and reads every
name it imports, and every micro-benchmark runs."""

import ast
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


def test_every_imported_name_is_used():
    # A name bound by an import and never read is left over from code that
    # moved; `__init__.py` re-exports by importing, and `__future__` is a flag.
    sources = sorted(Path(subcss.__file__).parent.glob("*.py"))
    unused = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(bound - read)]
    assert len(sources) > 1
    assert not unused


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
