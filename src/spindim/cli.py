# The text of `--help`: assigned, not a docstring, so that python -OO
# keeps it.
__doc__ = """Command-line front end.

Subcommands:

  ed-table          essential dimension table rows (tsv or json)
  verify-lattice    recompute the character-lattice structure for a
                    rank range and check it against the expected shape
  verify-heisenberg orbit/divisibility report for one rank and parity
  qform             quadratic form operations over F_{2^k}
  symbol            normalize a mod-2 symbol expression
  invariant         torsor forms, expansion identity and symbol for
                    the small spin groups

Arguments: the subcommand, then '--flag value' pairs in any order.  Each
flag is one of the subcommand's, spelled in full and given at most
once; its value is the next argument, taken as is.  -h or --help prints
this text when it comes first, and the subcommand's usage and
description in place of a flag.  Any other argv is a usage error.

Exit codes: 0 success, 1 a verification failed, 2 usage error (on
stderr: 'spindim SUBCOMMAND: error: FAULT' and the usage line, or the
message of the check that refused a value), 141 stdout closed by its
reader (128 + SIGPIPE).  All output is deterministic: identical
invocations print identical bytes, help and errors included, on every
Python version and terminal width.

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

import gc
import os
import sys

# The layers are lazy modules (see `spindim/__init__`), so the table
# names each subcommand's function by layer and name, read in `run`.
from . import edcalc, invariants, qform2, spinlat

_REQUIRED = object()    # the default of an option that must be given
_HELP = ("-h", "--help")

# subcommand -> ((layer, function), description, options); each option
# is (flag, value kind, default or _REQUIRED), where the value kind is
# int, a tuple of choices, or the name help shows for a string.  `_read`
# reads argv and `_usage` writes help from this table alone.  The
# function takes the option values in table order and returns stdout,
# or (exit code, stdout).
_COMMANDS = {
    "ed-table": (
        (edcalc, "ed_table"),
        "Print essential dimension rows: n, value, upper, lower, case\n"
        "(--format defaults to tsv).",
        (("--min", int, _REQUIRED), ("--max", int, _REQUIRED),
         ("--format", ("tsv", "json"), "tsv"))),
    "verify-lattice": (
        (spinlat, "verify_lattice"),
        "Recompute X(T), X(L), X(K), the faithful set and the sign-flip\n"
        "orbits for every rank up to --r-max, both parities, and compare\n"
        "with the expected shapes.",
        (("--r-max", int, _REQUIRED),)),
    "verify-heisenberg": (
        (spinlat, "verify_heisenberg"),
        "Orbit sizes, minimal center-faithful dimension and the gcd bound\n"
        "for one rank and parity (brute-force confirmed for small ranks).",
        (("--r", int, _REQUIRED), ("--parity", ("odd", "even"), _REQUIRED))),
    "qform": (
        (qform2, "qform_request"),
        "Evaluate classification, Arf, Witt decomposition, equivalence or\n"
        "matrix reduction over F_{2^K}.",
        (("--field", "f2^K", _REQUIRED),
         ("--op", ("classify", "arf", "witt", "normalize", "equiv"),
          _REQUIRED),
         ("--form", "FORM", _REQUIRED), ("--form2", "FORM", None))),
    "symbol": (
        (invariants, "symbol_request"),
        "Normalize a mod-2 symbol sum and print it in the same syntax.",
        (("--normalize", "EXPR", _REQUIRED),)),
    "invariant": (
        (invariants, "invariant_request"),
        "Build the generic torsor's quadratic forms, verify the Pfister\n"
        "expansion identity behind the invariant, and print the\n"
        "invariant's symbol.  LABELS: comma-separated parameter names\n"
        "('1' = trivial).",
        # the values of invariants.SpinId, spelled out so that reading
        # argv does not load the form layer
        (("--group", ("spin7", "spin8", "spin9", "spin10"), _REQUIRED),
         ("--labels", "LABELS", _REQUIRED))),
}


def _usage(name) -> str:
    """The usage line of subcommand `name`, or of the tool for any
    other name."""
    if name not in _COMMANDS:
        return "usage: spindim [-h] SUBCOMMAND [--flag value]..."
    words = ["usage: spindim", name, "[-h]"]
    for flag, kind, default in _COMMANDS[name][2]:
        shown = ("N" if kind is int else kind if kind.__class__ is str
                 else "{" + ",".join(kind) + "}")
        words.append(f"{flag} {shown}" if default is _REQUIRED
                     else f"[{flag} {shown}]")
    return " ".join(words)


def _read(argv):
    """The option values of `argv` in table order, or None for help.
    ValueError names the first fault, scanning left to right."""
    name = argv[0] if argv else None
    command = _COMMANDS.get(name)
    if command is None:
        if name in _HELP:
            return None
        raise ValueError("expected a subcommand (" + ", ".join(_COMMANDS)
                         + (f"), got {name!r}" if argv else ")"))
    flags, kinds, defaults = zip(*command[2])
    values, free = list(defaults), list(flags)    # free: flags not yet given
    # a flag with no value left pairs with None
    for flag, value in zip(argv[1::2], [*argv[2::2], None]):
        try:
            j = free.index(flag)
        except ValueError:
            if flag in _HELP:
                return None
            raise ValueError(f"argument {flag}: given twice" if flag in flags
                             else f"unrecognized argument {flag!r}")
        if value is None:
            raise ValueError(f"argument {flag}: expected a value")
        free[j], kind = None, kinds[j]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"argument {flag}: invalid int value: "
                                 f"{value!r}")
        elif kind.__class__ is tuple and value not in kind:
            raise ValueError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(kind)})")
        values[j] = value
    if _REQUIRED in values:
        raise ValueError("the following arguments are required: " + ", ".join(
            flag for flag, value in zip(flags, values) if value is _REQUIRED))
    return values


def run(argv):
    """Run one invocation; returns (exit_code, stdout, stderr).

    ValueError is bad input.  From `_read` it exits 2 with the fault,
    under the subcommand's name, and the usage line; from a
    subcommand's own check or a layer's guard it exits 2 with its
    message alone."""
    name = argv[0] if argv else None
    try:
        values = _read(argv)
    except ValueError as exc:
        prog = "spindim " + name if name in _COMMANDS else "spindim"
        return 2, "", f"{prog}: error: {exc}\n{_usage(name)}\n"
    if values is None:
        text = _COMMANDS[name][1] + "\n" if name in _COMMANDS else __doc__
        return 0, f"{_usage(name)}\n\n{text}", ""
    layer, function = _COMMANDS[name][0]
    try:
        result = getattr(layer, function)(*values)
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
