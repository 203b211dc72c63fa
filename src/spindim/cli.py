"""Command-line front end.

Subcommands:

  ed-table          essential dimension table rows (tsv or json)
  verify-lattice    recompute the character-lattice structure for a
                    rank range and check it against the expected shape
  verify-heisenberg orbit/divisibility report for one rank and parity
  qform             quadratic form operations over F_{2^k}
  symbol            normalize a mod-2 symbol expression
  invariant         torsor forms, expansion identity and symbol for
                    the small spin groups

Exit codes: 0 success, 1 a verification failed, 2 usage error, 141
stdout closed by its reader (128 + SIGPIPE).  All output is
deterministic: identical invocations print identical bytes.

Form expressions (qform): summands joined by '+', each '[a,b]' (the
block ax^2 + xy + by^2), '<c>' (cz^2), or 'pf(a1,...,am-1;b)' (the
Pfister form <<a1,...,b]]). Field elements are hex bit patterns.  The
normalize op instead takes 'mat(r11,r12,...;r21,...;...)', a square
coefficient matrix of at most 64 rows (entries below the diagonal are
folded up).

Symbol expressions: terms '{s1,...,sn-1,b]' joined by '+'; slots are
'*'-products of names or '1'; the final additive slot may itself be a
'+'-sum of such monomials.
"""

from __future__ import annotations

import gc
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache

# The layers are lazy modules (see `spindim/__init__`), so the table
# names each subcommand's function by layer and name, read in `run`.
from . import edcalc, invariants, qform2, spinlat

# subcommand -> ((layer, function), help, description, options); each
# option is its flag and the keywords of its `add_argument` call.
# `_table_args` reads well-formed argv from this table alone;
# `_build_parser` builds the argparse parser, which reads the rest and
# prints help and usage errors, from it.  The function takes the option
# values in table order and returns stdout, or (exit code, stdout).
_COMMANDS = {
    "ed-table": (
        (edcalc, "ed_table"), "essential dimension table",
        "Print essential dimension rows: n, value, upper, lower, case.",
        (("--min", {"type": int, "required": True}),
         ("--max", {"type": int, "required": True}),
         ("--format", {"choices": ("tsv", "json"), "default": "tsv"}))),
    "verify-lattice": (
        (spinlat, "verify_lattice"), "character lattice structure checks",
        "Recompute X(T), X(L), X(K), the faithful set and the sign-flip "
        "orbits for every rank up to --r-max, both parities, and compare "
        "with the expected shapes.",
        (("--r-max", {"type": int, "required": True}),)),
    "verify-heisenberg": (
        (spinlat, "verify_heisenberg"),
        "representation dimension divisibility report",
        "Orbit sizes, minimal center-faithful dimension and the gcd bound "
        "for one rank and parity (brute-force confirmed for small ranks).",
        (("--r", {"type": int, "required": True}),
         ("--parity", {"choices": ("odd", "even"), "required": True}))),
    "qform": (
        (qform2, "qform_request"), "quadratic form operations",
        "Evaluate classification, Arf, Witt decomposition, equivalence or "
        "matrix reduction over F_{2^K}.",
        (("--field", {"required": True, "metavar": "f2^K"}),
         ("--op", {"required": True, "choices": ("classify", "arf", "witt",
                                                 "normalize", "equiv")}),
         ("--form", {"required": True}),
         ("--form2", {}))),
    "symbol": (
        (invariants, "symbol_request"), "normalize a symbol expression",
        "Normalize a mod-2 symbol sum and print it in the same syntax.",
        (("--normalize", {"required": True, "metavar": "EXPR"}),)),
    "invariant": (
        (invariants, "invariant_request"), "torsor invariant of a spin group",
        "Build the generic torsor's quadratic forms, verify the Pfister "
        "expansion identity behind the invariant, and print the "
        "invariant's symbol.",
        # the values of invariants.SpinId, spelled out so that parsing
        # does not load the form layer
        (("--group", {"required": True,
                      "choices": ("spin7", "spin8", "spin9", "spin10")}),
         ("--labels", {"required": True,
                       "help": "comma-separated parameter names "
                               "('1' = trivial)"}))),
}


def _build_parser():
    """The argparse parser of `_COMMANDS`, built only for argv that
    `_table_args` does not read."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(
                f"{self.prog}: error: {message}\n{self.format_usage()}")

    p = _Parser(prog="spindim", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_, description, options) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_, description=description)
        for flag, kwargs in options:
            s.add_argument(flag, **kwargs)
    return p


@cache   # -> ({flag: (position, type, choices)}, required flags, defaults)
def _plan(name: str) -> tuple:
    options = _COMMANDS[name][3]
    return ({flag: (i, kw.get("type"), kw.get("choices"))
             for i, (flag, kw) in enumerate(options)},
            {flag for flag, kw in options if kw.get("required")},
            [kw.get("default") for _, kw in options])


def _table_args(argv):
    """The option values of a well-formed argv, in table order, read
    from `_COMMANDS` alone, or None.  Well formed: a subcommand, then
    distinct `flag value` pairs, each flag one of the subcommand's
    exactly, no value starting with '-', each value of its option's
    type and among its choices, and every required flag given."""
    name = argv[0] if argv else None
    given = dict(zip(argv[1::2], argv[2::2]))
    if name not in _COMMANDS or 2 * len(given) + 1 != len(argv):
        return None     # no subcommand, a flag with no value, or a repeat
    flags, required, values = _plan(name)
    if not required <= given.keys():
        return None
    values = values.copy()
    for flag, value in given.items():
        opt = flags.get(flag)
        if opt is None or value.startswith("-"):
            return None     # an unknown flag, or a value like a flag
        i, type_, choices = opt
        if type_ is not None:
            try:
                value = type_(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[i] = value
    return values


def run(argv):
    """Run one invocation; returns (exit_code, stdout, stderr).

    A well-formed argv is read from the option table; any other (help,
    errors, '--x=v', abbreviations, repeats, negative numbers, '--')
    goes to argparse, whose printed help is caught here.  ValueError is
    bad input, from a parser, a subcommand's own check, a layer's guard
    or argparse's error hook alike: exit 2 with its message on stderr."""
    values = _table_args(argv)
    try:
        if values is None:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    args = _build_parser().parse_args(argv)
            except SystemExit as exc:   # --help; errors raise ValueError
                return exc.code, out.getvalue(), err.getvalue()
            command = args.command
            values = [getattr(args, flag[2:].replace("-", "_"))
                      for flag, _ in _COMMANDS[command][3]]
        else:
            command = argv[0]
        layer, name = _COMMANDS[command][0]
        result = getattr(layer, name)(*values)
    except ValueError as exc:
        return 2, "", f"{exc}\n"
    return (0, result, "") if result.__class__ is str else (*result, "")


def _to_devnull(stream) -> None:
    """Point the fd of a stream whose reader has gone at os.devnull, so
    the flush at interpreter exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def main() -> None:
    """Process entry: write and flush what `run` returns, then exit.

    A reader that closed stdout early gets exit 141 (128 + SIGPIPE) and
    nothing on stderr.  A reader that closed stderr early changes
    nothing: the exit code stays the request's own.  Either stream then
    points at os.devnull.  The collector is frozen last, so the
    interpreter's final collections skip every live object, memory the
    OS reclaims anyway; `run` leaves the collector alone."""
    code, out, err = run(sys.argv[1:])
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        code = 141
    try:
        sys.stderr.write(err)
        sys.stderr.flush()
    except BrokenPipeError:
        _to_devnull(sys.stderr)
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
