"""Command-line front door: matrix analysis, verification suites, and
symbolic determinant export.

Exit codes: 0 success, 1 suite failure (report still emitted), 2 malformed
input or config (including a dimension above the symbolic bound), 3
conjugation requested on a non-regular matrix, 141 (128 + SIGPIPE) stdout
closed by its reader before the output was written.

The environment variable AFFINV_NMAX overrides the symbolic feasibility
bound (default 4, at most 5).  All JSON output is emitted with sorted keys
and fixed indentation, and no output reads a clock, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .exactmat import (
    MatrixJSONError,
    format_rational,
    matrix_from_json,
    matrix_to_json,
)
from .krylov import analyze
from .report import SuiteConfigError, run_suite_from_config
from .sympoly import (
    DEFAULT_N_MAX,
    SympolyError,
    homogeneous_degree,
    symbolic_krylov_determinant,
    term_list_json,
)

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_REGULAR = 3
EXIT_CLOSED_STDOUT = 128 + 13  # as a shell reports a process ended by SIGPIPE


class _InputError(Exception):
    """Unreadable input, unwritable output or a malformed environment."""


def _n_max() -> int:
    raw = os.environ.get("AFFINV_NMAX")
    if raw is None:
        return DEFAULT_N_MAX
    try:
        return int(raw)
    except ValueError:
        raise _InputError("AFFINV_NMAX must be an integer") from None


def _unique_keys(pairs: list) -> dict:
    """The object of ``pairs``, or ValueError for a key given twice: the
    input would otherwise mean whichever value came last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _read_json(path: str | None):
    try:
        if path is None or path == "-":
            return json.load(sys.stdin, object_pairs_hook=_unique_keys)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # bad JSON, a repeated key, a huge number
        raise _InputError(f"cannot read JSON input: {exc}") from None


def _dump(obj: dict, stream) -> None:
    """The indent-2, sorted-key JSON of ``obj`` and a newline, written to
    ``stream`` piece by piece as the encoder yields them, so the whole text
    never exists at once."""
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _emit(payload: dict, args, render=None):
    """``_dump`` of ``payload`` to the file ``--out``, if given, before
    anything reaches stdout; then, with ``--markdown``, ``render(payload)``
    to stdout, or else the JSON to stdout if there is no ``--out``."""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                _dump(payload, fh)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise _InputError(f"cannot write output: {exc}") from None
    if render is not None and args.markdown:
        sys.stdout.write(render(payload))
    elif not args.out:
        _dump(payload, sys.stdout)


def cmd_analyze(args) -> int:
    """D, both polynomials and, with --conjugate, a conjugator, from
    ``krylov.analyze``; exit 3 if a conjugator is asked for but x is not
    regular."""
    x = matrix_from_json(_read_json(args.input))
    found = analyze(x, args.conjugate, args.seed)
    if args.conjugate and not found.regular:
        print(
            "error: matrix is not regular (minimal polynomial degree "
            f"{len(found.min_poly) - 1} < {x.n}); no conjugate has a nonzero "
            "Krylov determinant",
            file=sys.stderr,
        )
        return EXIT_NOT_REGULAR
    g = found.conjugator
    result = {  # MatrixJSONError for a value too long to write
        "D": format_rational(found.d),
        "in_omega": found.d != 0,
        "regular": found.regular,
        "min_poly": [format_rational(c) for c in found.min_poly],
        "char_poly": [format_rational(c) for c in found.char_poly],
        "conjugator": None if g is None else matrix_to_json(g),
        "sign_convention": "(-1)^(n(n-1)/2)",
    }
    _emit(result, args, _analyze_markdown)
    return EXIT_OK


def _analyze_markdown(result: dict) -> str:
    lines = [
        "| quantity | value |",
        "| --- | --- |",
        f"| D | {result['D']} |",
        f"| in Omega | {result['in_omega']} |",
        f"| regular | {result['regular']} |",
        f"| min poly (ascending) | {', '.join(result['min_poly'])} |",
        f"| char poly (ascending) | {', '.join(result['char_poly'])} |",
        f"| conjugator | {json.dumps(result['conjugator'])} |",
    ]
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    config = _read_json(args.config)
    if args.seed is not None and isinstance(config, dict):
        config = {**config, "seed": args.seed}
    report = run_suite_from_config(config)
    _emit(report, args, _report_markdown)
    return EXIT_OK if report["pass"] else EXIT_SUITE_FAILED


def _report_markdown(payload: dict) -> str:
    lines = [
        f"# suite `{payload['suite']}` (n={payload['n']}, samples={payload['samples']}, seed={payload['seed']})",
        "",
        f"**{'PASS' if payload['pass'] else 'FAIL'}** (tool {payload['version']})",
        "",
        "| property | checked | failures | worst residual |",
        "| --- | --- | --- | --- |",
    ]
    for rec in payload["properties"]:
        worst = rec["worst_residual"]
        shown = worst if isinstance(worst, str) else f"{worst:.3e}"
        lines.append(
            f"| {rec['name']} | {rec['checked']} | {rec['failures']} | {shown} |"
        )
    return "\n".join(lines) + "\n"


def cmd_sympoly(args) -> int:
    poly = symbolic_krylov_determinant(args.n, n_max=_n_max())
    degree = homogeneous_degree(poly)
    payload = {
        "n": args.n,
        "degree": degree,
        "homogeneous": degree is not None,
        "terms": len(poly.terms),
        "term_list": term_list_json(poly),
    }
    _emit(payload, args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but --help is one plain write to stdout: argparse
    drops an OSError from its own write and exits 0 as if it had been read."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


class _Version(argparse.Action):
    """--version, written as _Parser writes its help."""

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(f"{__version__}\n")
        parser.exit()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state in it."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=str, default=None, help="write JSON to file")

    # one --seed per command: analyze searches with 0 unless given one, and
    # verify keeps the config's seed
    def common(seed):
        parent = argparse.ArgumentParser(add_help=False, parents=[output])
        parent.add_argument("--seed", type=int, default=seed, help="seed override")
        parent.add_argument(
            "--markdown", action="store_true", help="render human-readable output"
        )
        return parent

    parser = _Parser(
        prog="affinv",
        description=(
            "Krylov-row determinant analysis, exact and finite-difference "
            "verification suites, and symbolic determinant export."
        ),
    )
    parser.add_argument(
        "--version", action=_Version, nargs=0, help="show program's version number and exit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser(
        "analyze", parents=[common(0)], help="analyze a matrix JSON file"
    )
    p_an.add_argument("input", nargs="?", default=None, help="path or - for stdin")
    p_an.add_argument(
        "--conjugate",
        action="store_true",
        help="also search for g with D(g x g^-1) != 0",
    )
    p_an.set_defaults(func=cmd_analyze)

    p_vf = sub.add_parser(
        "verify", parents=[common(None)], help="run a verification suite from config JSON"
    )
    p_vf.add_argument("config", nargs="?", default=None, help="path or - for stdin")
    p_vf.set_defaults(func=cmd_verify)

    p_sp = sub.add_parser(
        "sympoly", parents=[output], help="export the symbolic determinant"
    )
    p_sp.add_argument("--n", type=int, required=True, help="matrix dimension")
    p_sp.set_defaults(func=cmd_sympoly)
    return parser


def main(argv=None) -> int:
    try:
        try:  # --help and --version write to stdout and exit in parse_args
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except (MatrixJSONError, SuiteConfigError, SympolyError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BrokenPipeError:
        # the unwritten rest still sits in stdout's buffer; the interpreter's
        # exit flush sends it to devnull instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
