"""Command-line front end.

Reports are line-oriented ``key = value`` text; numeric results carry
their computation mode (exact, search-bounded, or sampled). Exit codes:
0 success, 2 rejected input (parse error or invalid value), 3 infeasible
request (`gf.Infeasible`, or out of memory). Each command returns its
report as a list of lines, and `main` writes it to stdout once the request
has succeeded, so a request that fails writes nothing there. Calls of
`main` in one process share their parses (`_parse`) and the
`_SESSION_CODES` codes they loaded last (`_load_code`).
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import product

import numpy as np

from . import codefile, decode, gf, goursat, states
from .code import (
    DistanceResult,
    NoLogicalOperators,
    SubsystemCode,
    _held,
    css_distances,
)
from .codefile import CodeFileError, _format_rows
from .double import delta

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3

# The most distinct codes that `main` keeps between calls (`_session`).
_SESSION_CODES = 32


@functools.lru_cache(maxsize=_SESSION_CODES)
def _session(key) -> SubsystemCode:
    """The code of a key: a code file's text, or a builtin's (name, options)."""
    if isinstance(key, str):
        return codefile.parse_code_file(key)[0]
    name, options = key
    return codefile.builtin_code(name, **dict(options))


def _load_code(spec: str, args) -> SubsystemCode:
    """A builtin with its options, or a code file, which takes none.

    Each is loaded once per process while it stays among the
    `_SESSION_CODES` most recently used (`_session`): a builtin is keyed by
    its name and all its options, given or defaulted, and a code file by its
    text, so a rewritten file is parsed again. Every answer is read off the
    gauge group alone, and a code caches its spaces as it computes them, so
    a held code gives the same reports as a fresh one, only sooner. It also
    keeps what its requests learnt: its distance records (`code._recorded`),
    which answer a later budget with no second search, its Goursat data, its
    stabilizer class, its double and its split's codeword label bases and
    decoders. Loads that fail are not held."""
    params = {key: getattr(args, key, None) for key in ("l", "n", "p", "dim", "seed")}
    params = {key: val for key, val in params.items() if val is not None}
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        options = codefile._builtin_options(name, params)
        return _session((name, tuple(options.items())))
    if params:
        raise ValueError(f"code files take no builtin options (got {', '.join(params)})")
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {spec}: {exc.strerror or exc}") from exc
    return _session(text)


def _write_out(path: str, text: str) -> None:
    """Write an `--out` file; a path that cannot be written is rejected input."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _add_code_arg(sub, positional=True, seed_flag="--seed"):
    if positional:
        sub.add_argument("code", help="code file path or builtin:<name>")
    sub.add_argument("--l", type=int, default=None, help="grid size for builtin:bacon_shor")
    sub.add_argument("--n", type=int, default=None, help="qudit count for builtin codes")
    sub.add_argument("--p", type=int, default=None, help="prime modulus for builtin codes")
    sub.add_argument("--dim", type=int, default=None, help="generator count for builtin:random")
    sub.add_argument(seed_flag, dest="seed", type=int, default=None, help="seed for builtin:random")


def _non_negative_int(text: str) -> int:
    """argparse type of a search budget: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _report(name: str, value) -> str:
    """One `name = value (mode)` line. A DistanceResult is exact or
    search-bounded, None is a distance with no logical operators to measure,
    and any other value is exact."""
    if value is None:
        return f"{name} = undefined (no logical operators)"
    exact = value.exact if isinstance(value, DistanceResult) else True
    return f"{name} = {value} ({'exact' if exact else 'search-bounded'})"


def _distances(code: SubsystemCode, budget: int | None) -> tuple:
    """(d_X, d_Z, d) under `budget`, each side None on a non-CSS code, and
    all three None when the code has no logical operators."""
    try:
        if code.is_css():
            return css_distances(code.css_split(), budget)
        return None, None, code.distance(budget)
    except NoLogicalOperators:
        return None, None, None


def cmd_info(args) -> list[str]:
    code = _load_code(args.code, args)
    lines = [_report(name, value) for name, value in zip("nkr", code.parameters())]
    css = code.is_css()
    d_x, d_z, d = _distances(code, args.budget)
    lines += [_report("d", d), _report("is_css", css)]
    if css:
        split = code.css_split()
        lines += [_report("dim_H_X", split.h_x.dim), _report("dim_H_Z", split.h_z.dim),
                  _report("d_X", d_x)]
        if d_x is not None:
            lines.append(_report("d_Z", d_z))
    return lines


def cmd_distance(args) -> list[str]:
    code = _load_code(args.code, args)
    return [_report("d", _distances(code, args.budget)[2])]


def cmd_double(args) -> list[str]:
    code = _load_code(args.code, args)
    # Δ(H) is built once per code, which holds it (`code._held`).
    doubled = _held(code, "_doubled", lambda source: delta(source).result)
    n, k, r = code.parameters()
    n2, k2, r2 = doubled.parameters()
    lines = [f"source = [[{n},{k},{r}]]", f"doubled = [[{n2},{k2},{r2}]]"]
    d = _distances(code, args.budget)[2]
    if d is not None and d.exact:
        lines.append(f"d_bracket = [{d.value}, {2 * d.value}] (exact source distance)")
    text = codefile.emit_code_file(doubled, args.format)
    if not args.out:
        return lines + text.splitlines()
    _write_out(args.out, text)
    return lines + [f"written = {args.out}"]


def cmd_goursat(args) -> list[str]:
    code = _load_code(args.code, args)
    data = goursat.goursat_of(code)
    spaces = (("E_X", data.e_x), ("E_Z", data.e_z), ("N_X", data.n_x), ("N_Z", data.n_z))
    lines = [_report(f"dim_{label}", space.dim) for label, space in spaces]
    lines.append(_report("phi_pairs", data.pair_count()))
    pairs = np.array(data.phi_pairs, dtype=np.int64).reshape(data.pair_count(), 2, code.n)
    *bases, sources, images = _format_rows(*(space.basis for _, space in spaces), *pairs.swapaxes(0, 1))
    lines += [f"{label} basis: {row}" for (label, _), rows in zip(spaces, bases) for row in rows]
    return lines + [f"phi: {a} -> {b}" for a, b in zip(sources, images)]


def cmd_classify(args) -> list[str]:
    code = _load_code(args.code, args)
    cls = goursat.classify_stabilizer(code)
    return [_report("maximal", cls.maximal), _report("minimal", cls.minimal),
            f"region = {cls.region()}"]


def cmd_decode(args) -> list[str]:
    sampling = {"--q": args.q, "--trials": args.trials, "--seed": args.mc_seed}
    given = [flag for flag, value in sampling.items() if value is not None]
    if args.exhaustive_weight is not None and given:
        raise ValueError(f"sampling options ({', '.join(given)}) do nothing with --exhaustive-weight")
    if args.code is not None and args.code_opt is not None:
        raise ValueError("give the code once: positional or --code, not both")
    spec = args.code if args.code is not None else args.code_opt
    if spec is None:
        raise ValueError("no code given (positional or --code)")
    code = _load_code(spec, args)
    if not code.is_css():
        raise gf.Infeasible("the recovery procedure is defined for CSS codes only")
    split = code.css_split()
    try:
        if args.exhaustive_weight is not None:
            if args.exhaustive_weight < 1:
                raise ValueError("exhaustive weight must be >= 1")
            if split.logical_x.dim == split.h_x.dim:
                # k = 0, as a sweep would find; at n = 0 no weight is swept.
                raise NoLogicalOperators("no logical operators: the coset space is empty")
            # One row per weight up to n; no error has weight above n.
            weights = range(1, min(args.exhaustive_weight, code.n) + 1)
            decode._sweep_errors(split, weights)
            rows = [(w, decode.exhaustive_sweep(split, w)) for w in weights]
        else:
            q = 0.01 if args.q is None else args.q
            trials = 1000 if args.trials is None else args.trials
            seed = 0 if args.mc_seed is None else args.mc_seed
            rows = [(q, decode.monte_carlo(split, q, trials, seed).counts)]
    except NoLogicalOperators as exc:
        # k = 0: neither classical code has a distance to decode up to.
        raise gf.Infeasible(f"nothing to decode: {exc}") from exc
    return ["weight_or_q,trials,corrected,logical_failures,out_of_range"] + [
        f"{label},{c.trials},{c.corrected},{c.logical_failures},{c.out_of_range}"
        for label, c in rows]


def cmd_codewords(args) -> list[str]:
    """One line per codeword label (l, g), l-major: whether every stabilizer row
    fixes it (`states._fixing_table`) and, with --dense, whether the table read
    off its basis states agrees (`states._dense_fixing_table`, priced first).
    The label bases are the split's, held from its first request; the grid,
    both tables and the report are computed on every request."""
    code = _load_code(args.code, args)
    if not code.is_css():
        raise gf.Infeasible("codewords are defined for CSS codes only")
    split = code.css_split()
    if args.dense:
        states._gate_dense(split.p, split.n)
    ls, gs, offsets = states._label_grid(split)
    # The stabilizer rows: X^a for a in S_X's basis, Z^b for b in S_Z's.
    rows = split.stab_x.basis, split.stab_z.basis
    fixes = states._fixing_table(split.stab_x, offsets, *rows)
    fixed = np.all(fixes, axis=1).tolist()
    # Each distinct label formatted once, paired l-major as the offsets are.
    pairs = product(*_format_rows(ls, gs))
    if args.dense:
        dense = states._dense_fixing_table(split.stab_x, offsets, *rows)
        agrees = np.all(dense == fixes, axis=1).tolist()
        lines = [f"l = ({l}) g = ({g}) fixed = {f} dense_agrees = {a}"
                 for (l, g), f, a in zip(pairs, fixed, agrees)]
    else:
        lines = [f"l = ({l}) g = ({g}) fixed = {f}" for (l, g), f in zip(pairs, fixed)]
    return [_report("codewords", len(offsets)), _report("support_size", code.p**split.stab_x.dim),
            *lines, _report("all_fixed", all(fixed))]


def cmd_gen(args) -> list[str]:
    code = _load_code(f"builtin:{args.name}", args)
    text = codefile.emit_code_file(code, args.format)
    if not args.out:
        return text.splitlines()
    _write_out(args.out, text)
    return []


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="subcss",
        description="Exact toolkit for subsystem stabilizer and subsystem CSS codes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("info", help="parameters, distance, CSS structure")
    _add_code_arg(s)
    s.add_argument("--budget", type=_non_negative_int, help="distance search cap (default n)")
    s.set_defaults(func=cmd_info)

    s = subs.add_parser("distance", help="distance only")
    _add_code_arg(s)
    s.add_argument("--budget", type=_non_negative_int)
    s.set_defaults(func=cmd_distance)

    s = subs.add_parser("double", help="apply the stabilizer-to-CSS doubling map")
    _add_code_arg(s)
    s.add_argument("--out", default=None, help="output code file (default stdout)")
    s.add_argument("--format", choices=codefile.FORMATS, default="symplectic")
    s.add_argument("--budget", type=_non_negative_int)
    s.set_defaults(func=cmd_double)

    s = subs.add_parser("goursat", help="external/internal CSS data and pairings")
    _add_code_arg(s)
    s.set_defaults(func=cmd_goursat)

    s = subs.add_parser("classify", help="maximal/minimal stabilizer taxonomy")
    _add_code_arg(s)
    s.set_defaults(func=cmd_classify)

    s = subs.add_parser("decode", help="recovery statistics as CSV")
    s.add_argument("code", nargs="?", default=None, help="code file path or builtin:<name>")
    s.add_argument("--code", dest="code_opt", default=None, help="alternative to the positional code")
    _add_code_arg(s, positional=False, seed_flag="--code-seed")
    s.add_argument("--q", type=float, default=None,
                   help="per-site error probability (sampling; default 0.01)")
    s.add_argument("--trials", type=int, default=None, help="sampled trials (default 1000)")
    s.add_argument("--seed", dest="mc_seed", type=int, default=None,
                   help="sampling seed (default 0)")
    s.add_argument(
        "--exhaustive-weight",
        type=int,
        default=None,
        help="sweep all errors of symplectic weight 1..W instead of sampling",
    )
    s.set_defaults(func=cmd_decode)

    s = subs.add_parser("codewords", help="list codeword labels and stabilizer checks")
    _add_code_arg(s)
    s.add_argument("--dense", action="store_true", help="cross-check with dense amplitudes")
    s.set_defaults(func=cmd_codewords)

    s = subs.add_parser("gen", help="emit a built-in example code file")
    s.add_argument("name", help="five_qubit | bacon_shor | trivial | random")
    _add_code_arg(s, positional=False)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=codefile.FORMATS, default="symplectic")
    s.set_defaults(func=cmd_gen)

    return parser


@functools.lru_cache(maxsize=256)
def _parse(argv: tuple) -> argparse.Namespace:
    """The parse of an argv, held for the 256 argv tuples parsed last. Parsing
    is a pure function of argv; a rejected argv (or -h) raises SystemExit,
    which is not held, so it prints its usage text (or help) on every call."""
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one request, argv (default `sys.argv[1:]`), and return its exit code.

    Its report is written to stdout in one write once it has succeeded; a
    failed request writes one `error:` line to stderr and nothing to stdout.
    Its parse is held (`_parse`); each call gets a fresh Namespace of it. The
    codes it loads are held for later calls (`_session`)."""
    parsed = _parse(tuple(sys.argv[1:] if argv is None else argv))
    args = argparse.Namespace(**vars(parsed))
    try:
        report = args.func(args)
    except (gf.Infeasible, MemoryError) as exc:  # ahead of ValueError, which Infeasible is
        cause = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {cause}{exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CodeFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # One write, each line ended by a newline; an empty report writes nothing.
    sys.stdout.write("\n".join([*report, ""]))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
