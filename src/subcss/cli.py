"""Command-line front end.

Reports are line-oriented ``key = value`` text; numeric results carry
their computation mode (exact, search-bounded, or sampled). Exit codes:
0 success, 2 rejected input (parse error or invalid value), 3 infeasible
request.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import codefile, decode, goursat, states
from .code import NoLogicalOperators, SubsystemCode, css_distances
from .codefile import CodeFileError, _format_row
from .double import delta
from .pauli import PauliVector

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3


class InfeasibleRequest(Exception):
    pass


def _load_code(spec: str, args) -> SubsystemCode:
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        params = {}
        for key in ("l", "n", "p", "dim", "seed"):
            val = getattr(args, key, None)
            if val is not None:
                params[key] = val
        return codefile.builtin_code(name, **params)
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise CodeFileError(0, f"cannot read {spec}: {exc}") from exc
    code, _ = codefile.parse_code_file(text)
    return code


def _add_code_arg(sub, positional=True):
    if positional:
        sub.add_argument("code", help="code file path or builtin:<name>")
    sub.add_argument("--l", type=int, default=None, help="grid size for builtin:bacon_shor")
    sub.add_argument("--n", type=int, default=None, help="qudit count for builtin codes")
    sub.add_argument("--p", type=int, default=None, help="prime modulus for builtin codes")
    sub.add_argument("--dim", type=int, default=None, help="generator count for builtin:random")
    sub.add_argument("--seed", type=int, default=None, help="seed for builtin:random")


def _distance_line(code: SubsystemCode, budget: int | None) -> str:
    try:
        d = code.distance(budget)
    except NoLogicalOperators:
        return "d = undefined (no logical operators)"
    mode = "exact" if d.exact else "search-bounded"
    return f"d = {d} ({mode})"


def cmd_info(args) -> int:
    code = _load_code(args.code, args)
    n, k, r = code.parameters()
    print(f"n = {n} (exact)")
    print(f"k = {k} (exact)")
    print(f"r = {r} (exact)")
    print(_distance_line(code, args.budget))
    css = code.is_css()
    print(f"is_css = {css} (exact)")
    if css:
        split = code.css_split()
        print(f"dim_H_X = {split.h_x.dim} (exact)")
        print(f"dim_H_Z = {split.h_z.dim} (exact)")
        try:
            d_x, d_z, _ = css_distances(split, args.budget)
            for name, d in (("d_X", d_x), ("d_Z", d_z)):
                mode = "exact" if d.exact else "search-bounded"
                print(f"{name} = {d} ({mode})")
        except NoLogicalOperators:
            print("d_X = undefined (no logical operators)")
    return EXIT_OK


def cmd_distance(args) -> int:
    code = _load_code(args.code, args)
    print(_distance_line(code, args.budget))
    return EXIT_OK


def cmd_double(args) -> int:
    code = _load_code(args.code, args)
    doubled = delta(code)
    n, k, r = code.parameters()
    n2, k2, r2 = doubled.result.parameters()
    print(f"source = [[{n},{k},{r}]]")
    print(f"doubled = [[{n2},{k2},{r2}]]")
    try:
        d = code.distance(args.budget)
        if d.exact:
            print(f"d_bracket = [{d.value}, {2 * d.value}] (exact source distance)")
    except NoLogicalOperators:
        pass
    text = codefile.emit_code_file(doubled.result, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"written = {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_goursat(args) -> int:
    code = _load_code(args.code, args)
    data = goursat.goursat_of(code)
    print(f"dim_E_X = {data.e_x.dim} (exact)")
    print(f"dim_E_Z = {data.e_z.dim} (exact)")
    print(f"dim_N_X = {data.n_x.dim} (exact)")
    print(f"dim_N_Z = {data.n_z.dim} (exact)")
    print(f"phi_pairs = {data.pair_count()} (exact)")
    for label, space in (
        ("E_X", data.e_x),
        ("E_Z", data.e_z),
        ("N_X", data.n_x),
        ("N_Z", data.n_z),
    ):
        for row in space.basis:
            print(f"{label} basis: {_format_row(row)}")
    for a, b in data.phi_pairs:
        print(f"phi: {_format_row(a)} -> {_format_row(b)}")
    return EXIT_OK


def cmd_classify(args) -> int:
    code = _load_code(args.code, args)
    cls = goursat.classify_stabilizer(code)
    print(f"maximal = {cls.maximal} (exact)")
    print(f"minimal = {cls.minimal} (exact)")
    print(f"region = {cls.region()}")
    return EXIT_OK


def cmd_decode(args) -> int:
    spec = args.code if args.code is not None else args.code_opt
    if spec is None:
        raise CodeFileError(0, "no code given (positional or --code)")
    code = _load_code(spec, args)
    if not code.is_css():
        raise InfeasibleRequest("the recovery procedure is defined for CSS codes only")
    split = code.css_split()
    if args.exhaustive_weight is not None:
        top = args.exhaustive_weight
        if top < 1:
            raise ValueError("exhaustive weight must be >= 1")
        # One row per weight up to n; no error has weight above n.
        weights = range(1, min(top, code.n) + 1)
        errors = sum(math.comb(code.n, w) * (code.p**2 - 1) ** w for w in weights)
        if errors > decode._TABLE_LIMIT:
            raise InfeasibleRequest(f"sweep of {errors} errors exceeds {decode._TABLE_LIMIT}")
        rows = [(w, decode.exhaustive_sweep(split, w)) for w in weights]
    else:
        rows = [(args.q, decode.monte_carlo(split, args.q, args.trials, args.mc_seed).counts)]
    print("weight_or_q,trials,corrected,logical_failures,out_of_range")
    for label, c in rows:
        print(f"{label},{c.trials},{c.corrected},{c.logical_failures},{c.out_of_range}")
    return EXIT_OK


def cmd_codewords(args) -> int:
    code = _load_code(args.code, args)
    if not code.is_css():
        raise InfeasibleRequest("codewords are defined for CSS codes only")
    split = code.css_split()
    if args.dense and code.p**code.n > states._DENSE_LIMIT:
        raise InfeasibleRequest("dense amplitudes infeasible at this size")
    labels = code.p ** (split.logical_x.dim - split.stab_x.dim)
    if labels > states._CODEWORD_LIMIT:
        raise InfeasibleRequest(f"{labels} codeword labels exceed {states._CODEWORD_LIMIT}")
    words = states.all_codewords(split)
    print(f"codewords = {len(words)} (exact)")
    print(f"support_size = {code.p**split.stab_x.dim} (exact)")
    zeros = np.zeros(code.n, dtype=np.int64)
    stabs = [PauliVector(code.p, row, zeros) for row in split.stab_x.basis]
    stabs += [PauliVector(code.p, zeros, row) for row in split.stab_z.basis]
    all_fixed = True
    for l, g, st in words:
        fixed = all(states.is_fixed_by(st, s) for s in stabs)
        all_fixed &= fixed
        line = f"l = ({_format_row(l)}) g = ({_format_row(g)}) fixed = {fixed}"
        if args.dense:
            dense_ok = all(
                np.allclose(
                    states.dense_vector(states.apply_pauli(st, s)),
                    states.dense_vector(st),
                )
                == states.is_fixed_by(st, s)
                for s in stabs
            )
            line += f" dense_agrees = {dense_ok}"
        print(line)
    print(f"all_fixed = {all_fixed} (exact)")
    return EXIT_OK


def cmd_gen(args) -> int:
    code = _load_code(f"builtin:{args.name}", args)
    text = codefile.emit_code_file(code, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


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
    s.add_argument("--budget", type=int, default=None, help="distance search cap (default n)")
    s.set_defaults(func=cmd_info)

    s = subs.add_parser("distance", help="distance only")
    _add_code_arg(s)
    s.add_argument("--budget", type=int, default=None)
    s.set_defaults(func=cmd_distance)

    s = subs.add_parser("double", help="apply the stabilizer-to-CSS doubling map")
    _add_code_arg(s)
    s.add_argument("--out", default=None, help="output code file (default stdout)")
    s.add_argument("--format", choices=codefile.FORMATS, default="symplectic")
    s.add_argument("--budget", type=int, default=None)
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
    s.add_argument("--l", type=int, default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--dim", type=int, default=None)
    s.add_argument("--code-seed", dest="seed", type=int, default=None,
                   help="seed for builtin:random")
    s.add_argument("--q", type=float, default=0.01, help="per-site error probability")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", dest="mc_seed", type=int, default=0, help="sampling seed")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CodeFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleRequest as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
