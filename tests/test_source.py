"""Source hygiene: every module compiles without a warning."""

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
