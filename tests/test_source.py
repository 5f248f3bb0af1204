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


def test_only_gf_builds_place_values():
    # `gf._grid_index` holds the one big-endian layout of the base-p grid; a
    # descending `np.arange(..., -1)` elsewhere builds place values of its own.
    def step_is_minus_one(node):
        return isinstance(node, ast.Constant) and node.value == -1 or (
            isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant) and node.operand.value == 1)

    sources = sorted(Path(subcss.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "arange"):
                steps = node.args[2:3] + [kw.value for kw in node.keywords if kw.arg == "step"]
                if any(map(step_is_minus_one, steps)):
                    found.append(f"{path.name}:{node.lineno}")
    assert [name for name in found if not name.startswith("gf.py:")] == []
    assert found, "gf.py's place values are no longer found by this check"


def test_cli_keeps_no_copy_of_a_bound():
    # Each size gate prices its request where it builds, through `gf._gate`,
    # and raises `gf.Infeasible`; cli.py maps that to exit 3 and reads no
    # limit, prices nothing and has no exception class of its own.
    tree = ast.parse((Path(subcss.__file__).parent / "cli.py").read_text())
    read = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert "Infeasible" in read
    assert read & {"ROW_LIMIT", "STREAM_LIMIT", "_TABLE_BYTES", "_CODEWORD_LIMIT", "comb"} == set()
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == []


def test_only_gf_raises_for_size():
    # A size gate raises through `gf._gate`: no other module builds an
    # Infeasible from a size, and none raises MemoryError itself. cli.py
    # refuses non-CSS and k = 0 requests, which price nothing, as Infeasible.
    raised = []
    for path in sorted(Path(subcss.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = getattr(node.exc.func, "id", getattr(node.exc.func, "attr", None))
                if name in ("Infeasible", "MemoryError"):
                    raised.append(f"{path.name}: {name}")
    assert sorted(set(raised)) == ["cli.py: Infeasible", "gf.py: Infeasible"]


def test_private_helpers_are_imported_from_their_home():
    # `from .mod import _name` names a def, class or assignment at the top of
    # mod, not a name that mod itself imported from elsewhere.
    sources = {path.stem: ast.parse(path.read_text())
               for path in sorted(Path(subcss.__file__).parent.glob("*.py"))}

    def defined(tree):
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        return names

    homes = {module: defined(tree) for module, tree in sources.items()}
    strays = [
        f"{module}.py: {alias.name} from .{node.module}"
        for module, tree in sources.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in homes
        for alias in node.names
        if alias.name.startswith("_") and alias.name not in homes[node.module]
    ]
    assert "_grid_index" in homes["gf"]
    assert strays == []


def test_private_helpers_are_used_by_the_package():
    # A `_`-prefixed top-level function that no package module reads outside
    # its own definition serves only the tests, so it belongs in conftest.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(subcss.__file__).parent.glob("*.py"))}

    def read_names(node):
        return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute))}

    tops = [(module, node) for module, tree in trees.items() for node in tree.body]
    helpers = [(module, node) for module, node in tops
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
    unused = [f"{module}: {node.name}" for module, node in helpers
              if not any(node.name in read_names(other) for _, other in tops if other is not node)]
    assert len(helpers) > 10
    assert unused == []


def test_micro_benchmarks_run_untimed():
    # Each benchmark runs once with timing off, so a bench that reads stats
    # that only a timed run has fails here rather than when someone times it.
    tests = Path(__file__).parent
    benches = sorted(str(path) for path in tests.glob("bench_*.py"))
    assert len(benches) == 5
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         *benches],
        cwd=tests.parent, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
