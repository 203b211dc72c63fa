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
import types
from contextlib import redirect_stderr, redirect_stdout
from functools import cache

# The layers are lazy modules (see `spindim/__init__`): each compiles
# on the first attribute a subcommand reads, so refer to them only
# through the module, inside the `_cmd_*` functions.
from . import _json, edcalc, invariants, qform2, repdim, spinlat


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ed_table(args) -> tuple[int, str]:
    return 0, edcalc.ed_table(args.min, args.max, args.format)


def _cmd_verify_lattice(args) -> tuple[int, str]:
    if not 1 <= args.r_max <= spinlat.MAX_R:
        raise ValueError(f"--r-max must be between 1 and {spinlat.MAX_R}")
    rows = []
    all_ok = True
    for r in range(1, args.r_max + 1):
        for parity in (spinlat.Parity.ODD, spinlat.Parity.EVEN):
            shape = spinlat.orbit_structure(r, parity)
            size = spinlat.expected_orbit_size(r, parity)
            want_sizes = (size,) * ((1 << r) // size)   # |S| = 2^r
            ok = (shape.xL.invariant_factors == (2,) * (r - 1) + (4,)
                  and shape.xT.free_rank == r
                  and shape.xT.invariant_factors == ()
                  and shape.xK_order == 1 << r
                  and shape.faithful_count == 1 << r
                  and shape.is_free
                  and shape.orbit_sizes == want_sizes)
            all_ok = all_ok and ok
            rows.append({
                "r": r, "parity": parity.value,
                "xL_invariant_factors": list(shape.xL.invariant_factors),
                "xT_free_rank": shape.xT.free_rank,
                "xK_order": shape.xK_order,
                "faithful_count": shape.faithful_count,
                "action_free": shape.is_free,
                "orbit_sizes": list(shape.orbit_sizes),
                "ok": ok,
            })
    payload = {"r_max": args.r_max, "ok": all_ok, "rows": rows}
    return 0 if all_ok else 1, _json.dumps(payload) + "\n"


def _cmd_verify_heisenberg(args) -> tuple[int, str]:
    if not 1 <= args.r <= spinlat.MAX_R:
        raise ValueError(f"--r must be between 1 and {spinlat.MAX_R}")
    parity = spinlat.Parity(args.parity)
    # The orbits all have one size, so it is both the least dimension
    # (one orbit with multiplicity one) and the gcd of the dimensions.
    shape = spinlat.orbit_structure(args.r, parity)
    size = shape.orbit_size
    expected = spinlat.expected_orbit_size(args.r, parity)
    ok = size == expected
    checked_to = exhaustive_ok = None
    if args.r <= 6:
        # the 2^r brute force, an oracle independent of the shape
        rep = repdim.divisibility_report(
            repdim.build_char_data(args.r, parity), exhaustive=True)
        checked_to, exhaustive_ok = rep.exhaustive_checked_to, rep.exhaustive_ok
        ok = (ok and exhaustive_ok is True
              and rep.orbit_sizes == shape.orbit_sizes
              and rep.min_dim == rep.gcd_dim == size
              and rep.min_achieving.total_dim == size)
    payload = {
        "r": args.r, "parity": parity.value,
        "orbit_sizes": list(shape.orbit_sizes),
        "min_faithful_dim": size,
        "gcd_dim": size,
        "expected": expected,
        "achieving_multiset_size": size,
        "exhaustive_checked_to": checked_to,
        "exhaustive_ok": exhaustive_ok,
        "ok": ok,
    }
    return 0 if ok else 1, _json.dumps(payload) + "\n"


def _cmd_qform(args) -> tuple[int, str]:
    if args.form2 is not None and args.op != "equiv":
        raise ValueError("--form2 is only valid with --op equiv")
    field = qform2.parse_field_name(args.field)
    out = {"op": args.op, "field": args.field}
    if args.op == "normalize":
        mat = qform2.parse_matrix(field, args.form)
        q = qform2.block_normalize(field, mat)
        out["form"] = qform2.format_qform(q)
    else:
        q = qform2.parse_form(field, args.form)
        out["form"] = qform2.format_qform(q)
        out["dim"] = q.dim
        if args.op == "arf":
            out["arf"] = qform2.arf(q)
        elif args.op == "witt":
            dec = qform2.witt_decompose(q)
            out["witt_index"] = dec.index
            out["kernel"] = qform2.format_qform(dec.kernel)
        elif args.op == "classify":
            cls = qform2.classify_form(q)
            out["class"] = cls.kind
            out["radical_dim"] = cls.radical_dim
            if cls.vanishing_radical_vector is not None:
                out["vanishing_radical_vector"] = [
                    format(x, "x") for x in cls.vanishing_radical_vector]
        else:   # equiv
            if args.form2 is None:
                raise ValueError("--op equiv needs --form2")
            q2 = qform2.parse_form(field, args.form2)
            out["form2"] = qform2.format_qform(q2)
            out["equivalent"] = qform2.equivalent_ff(q, q2)
    return 0, _json.dumps(out) + "\n"


def _cmd_symbol(args) -> tuple[int, str]:
    # beyond the docstring's syntax (the --help text): an additive
    # monomial names each factor at most once, as b*b is b there, not 1
    s = invariants.parse_symbol_expr(args.normalize)
    return 0, invariants.format_symbol(invariants.symbol_normalize(s)) + "\n"


def _cmd_invariant(args) -> tuple[int, str]:
    group = invariants.SpinId(args.group)
    labels = tuple(args.labels.split(","))
    torsor = invariants.TorsorData(group, labels)
    try:     # a failed self-check, not bad input
        rep = invariants.invariant_f(torsor)
    except AssertionError as exc:
        return 1, _json.dumps({"group": group.value, "labels": list(labels),
                               "ok": False, "error": str(exc)}) + "\n"
    nv = rep.nonvanishing
    payload = {
        "group": group.value,
        "labels": list(labels),
        "torsor_forms": [invariants.format_tagged(f) for f in rep.forms],
        # true: a failed identity makes `invariant_f` raise (exit 1 above)
        "expansion_identity_ok": True,
        "symbol": invariants.format_symbol(rep.symbol),
        "nonvanishing": nv.verdict.value,
        "ok": True,
    }
    if nv.note:
        payload["nonvanishing_note"] = nv.note
    return 0, _json.dumps(payload) + "\n"


# ---------------------------------------------------------------------------
# wiring


# subcommand -> (handler, help, description, options); each option is
# its flag and the keywords of its `add_argument` call.  `_table_args`
# reads well-formed argv from this table alone; `_build_parser` builds
# the argparse parser, which reads the rest and prints help and usage
# errors, from it.  A handler returns (exit code, stdout text).
_COMMANDS = {
    "ed-table": (
        _cmd_ed_table, "essential dimension table",
        "Print essential dimension rows: n, value, upper, lower, case.",
        (("--min", {"type": int, "required": True}),
         ("--max", {"type": int, "required": True}),
         ("--format", {"choices": ("tsv", "json"), "default": "tsv"}))),
    "verify-lattice": (
        _cmd_verify_lattice, "character lattice structure checks",
        "Recompute X(T), X(L), X(K), the faithful set and the sign-flip "
        "orbits for every rank up to --r-max, both parities, and compare "
        "with the expected shapes.",
        (("--r-max", {"type": int, "required": True}),)),
    "verify-heisenberg": (
        _cmd_verify_heisenberg,
        "representation dimension divisibility report",
        "Orbit sizes, minimal center-faithful dimension and the gcd bound "
        "for one rank and parity (brute-force confirmed for small ranks).",
        (("--r", {"type": int, "required": True}),
         ("--parity", {"choices": ("odd", "even"), "required": True}))),
    "qform": (
        _cmd_qform, "quadratic form operations",
        "Evaluate classification, Arf, Witt decomposition, equivalence or "
        "matrix reduction over F_{2^K}.",
        (("--field", {"required": True, "metavar": "f2^K"}),
         ("--op", {"required": True, "choices": ("classify", "arf", "witt",
                                                 "normalize", "equiv")}),
         ("--form", {"required": True}),
         ("--form2", {}))),
    "symbol": (
        _cmd_symbol, "normalize a symbol expression",
        "Normalize a mod-2 symbol sum and print it in the same syntax.",
        (("--normalize", {"required": True, "metavar": "EXPR"}),)),
    "invariant": (
        _cmd_invariant, "torsor invariant of a spin group",
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
    for name, (fn, help_, description, options) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_, description=description)
        for flag, kwargs in options:
            s.add_argument(flag, **kwargs)
        s.set_defaults(fn=fn)
    return p


@cache   # -> ({flag: (dest, type, choices)}, required flags, defaults)
def _plan(name: str) -> tuple:
    fn, _, _, options = _COMMANDS[name]
    flags = {flag: (flag[2:].replace("-", "_"), kw.get("type"),
                    kw.get("choices")) for flag, kw in options}
    return (flags, {flag for flag, kw in options if kw.get("required")},
            {"command": name, "fn": fn,
             **{flags[flag][0]: kw.get("default") for flag, kw in options}})


def _table_args(argv):
    """The parse of a well-formed argv, read from `_COMMANDS` alone, or
    None.  Well formed: a subcommand, then distinct `flag value` pairs,
    each flag one of the subcommand's exactly, no value starting with
    '-', each value of its option's type and among its choices, and
    every required flag given."""
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
        dest, type_, choices = opt
        if type_ is not None:
            try:
                value = type_(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return types.SimpleNamespace(**values)


def run(argv):
    """Run one invocation; returns (exit_code, stdout, stderr).

    A well-formed argv is read from the option table; any other (help,
    errors, '--x=v', abbreviations, repeats, negative numbers, '--')
    goes to argparse, whose printed help is caught here.  ValueError is
    bad input, from a parser, a handler, a layer's guard or argparse's
    error hook alike: exit 2 with its message on stderr."""
    args = _table_args(argv)
    try:
        if args is None:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    args = _build_parser().parse_args(argv)
            except SystemExit as exc:   # --help; errors raise ValueError
                return exc.code, out.getvalue(), err.getvalue()
        code, text = args.fn(args)
    except ValueError as exc:
        return 2, "", f"{exc}\n"
    return code, text, ""


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
