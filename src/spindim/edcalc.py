"""Essential dimension of Spin(n) in characteristic 2, with auditable
derivations.

Every bound is produced together with a trace of derivation steps.  A
step names a rule, carries the rule's one-sentence justification, its
integer inputs and its integer output; `verify_trace` re-runs every
step's arithmetic (including the live group-theoretic recomputations)
and accepts only exact matches.

The case analysis for n >= 15:

  odd n:        value = 2^((n-1)/2) - n(n-1)/2
  n = 2 mod 4:  value = 2^((n-2)/2) - n(n-1)/2
  n = 16:       value = 2^7 + 16 - 120 = 24
  n = 0 mod 4,  value = 2^((n-2)/2) + 2^v2(n) - n(n-1)/2
  n >= 20

where v2 is the 2-adic valuation.  Upper bounds come from generically
free representations (spin, half-spin, or half-spin plus vector) or
from the quotient by the center plus a gerbe-index term; lower bounds
come from the dimension gcd of center-faithful representations of a
finite Heisenberg-type 2-subgroup, which is recomputed live from the
character-lattice orbit structure at every rank rather than trusted as
a formula.

Below 15 the values are the known table: 0 through n = 6 (those spin
groups are special), 4, 5, 5, 4 for n = 7..10, and open for 11..14.
"""

from __future__ import annotations

from . import _json
from ._record import Record
from .spinlat import MAX_R, Parity, expected_orbit_size, orbit_structure

MIN_N = 3
MAX_N = 2 * MAX_R       # every n in the table has a gcd step of rank <= MAX_R

CHAR_NOTE = ("characteristic 2 agrees with characteristic != 2 "
             "for n <= 10 and for n >= 15")

LOW_TABLE = {7: 4, 8: 5, 9: 5, 10: 4}


class GroupNumerics(Record):
    _fields = ("n",
               "dim_so",          # n(n-1)/2 = dim Spin(n)
               "spin_dim",        # odd n only
               "half_spin_dim",   # even n only
               "pow2_part")       # 2-adic part of n


class DerivationStep(Record):
    _fields = ("rule", "statement",
               "inputs",          # ((name, value), ...)
               "out")


class Rule(Record):
    _fields = ("statement",
               "fn",              # dict -> int, exact
               "live")
    _defaults = {"live": False}


def _heisenberg_gcd(r: int, parity: Parity) -> int:
    """gcd of center-faithful representation dimensions of the rank-r
    Heisenberg subgroup, i.e. the gcd of the sign-flip orbit sizes on
    S, recomputed live: all orbits have the same size."""
    return orbit_structure(r, parity).orbit_size


RULES = {
    "spin-dim-odd": Rule(
        "for odd n the spin representation of Spin(n) has dimension 2^((n-1)/2)",
        lambda v: 1 << ((v["n"] - 1) // 2)),
    "half-spin-dim": Rule(
        "for even n each half-spin representation of Spin(n) has dimension 2^((n-2)/2)",
        lambda v: 1 << ((v["n"] - 2) // 2)),
    "dim-so": Rule(
        "dim Spin(n) = dim SO(n) = n(n-1)/2",
        lambda v: v["n"] * (v["n"] - 1) // 2),
    "pow2-part": Rule(
        "the 2-adic part of n bounds the index of the mu_2 gerbe of the "
        "central quotient, via the even Clifford/discriminant algebra",
        lambda v: v["n"] & -v["n"]),
    "generically-free-upper": Rule(
        "a generically free representation V of G gives ed(G) <= dim V - dim G",
        lambda v: v["dim_v"] - v["dim_g"]),
    "add-vector-rep": Rule(
        "for n = 16 the half-spin representation alone is not generically "
        "free; adding the n-dimensional vector representation makes it so",
        lambda v: v["dim_v"] + v["n"]),
    "central-quotient-upper": Rule(
        "ed(G) <= ed(G/mu_2) + (index of the associated mu_2 gerbe); the "
        "half-spin quotient of Spin(n), 4 | n >= 20, has a generically free "
        "half-spin representation",
        lambda v: (v["dim_v"] - v["dim_g"]) + v["gerbe_index"]),
    "heisenberg-gcd-odd": Rule(
        "every center-faithful representation of the Heisenberg subgroup of "
        "Spin(2r+1) has dimension a multiple of 2^r (gcd of the orbit sizes "
        "of the sign-flip action on the faithful characters)",
        lambda v: _heisenberg_gcd(v["r"], Parity.ODD), live=True),
    "heisenberg-gcd-even": Rule(
        "every center-faithful representation of the Heisenberg subgroup of "
        "Spin(2r) has dimension a multiple of 2^(r-1) (gcd of the orbit "
        "sizes of the even sign-flip action on the faithful characters)",
        lambda v: _heisenberg_gcd(v["r"], Parity.EVEN), live=True),
    "gerbe-index-lower": Rule(
        "a mu_2 gerbe whose associated representations have index divisible "
        "by d forces ed_2 >= d - dim G on the classifying stack",
        lambda v: v["index"] - v["dim_g"]),
    "index-sum-lower": Rule(
        "for 4 | n the generic Spin(n) torsor carries two independent "
        "algebras of index 2^v2(n) and 2^((n-2)/2), and ed_2 >= their index "
        "sum minus dim G",
        lambda v: v["index_a"] + v["index_c"] - v["dim_g"]),
    "low-range-value": Rule(
        "known exact value for 7 <= n <= 10: the degree-4/5 invariant of "
        "the generic torsor is nonzero, matching the stabilizer upper bound",
        lambda v: LOW_TABLE[v["n"]]),
    "trivial-low": Rule(
        "for n <= 6 the spin group is special (every torsor is Zariski-"
        "locally trivial), so its essential dimension is 0",
        lambda v: 0),
}


def group_numerics(n: int) -> GroupNumerics:
    if type(n) is not int or not MIN_N <= n <= MAX_N:
        raise ValueError(f"n must be between {MIN_N} and {MAX_N}")
    v = {"n": n}
    dim_so, pow2 = RULES["dim-so"].fn(v), RULES["pow2-part"].fn(v)
    if n % 2:
        return GroupNumerics(n, dim_so, RULES["spin-dim-odd"].fn(v), None, pow2)
    return GroupNumerics(n, dim_so, None, RULES["half-spin-dim"].fn(v), pow2)


def _step(rule_id: str, **inputs) -> DerivationStep:
    rule = RULES[rule_id]
    out = rule.fn(inputs)
    return DerivationStep(rule_id, rule.statement,
                          tuple(sorted(inputs.items())), out)


def _well_typed(inputs: dict, out) -> bool:
    """Every input and the output are exact ints (no float, no bool),
    and n and r, where given, lie in the range a real trace uses; they
    size the live Smith-form work and the 2-powers a step builds."""
    bounds = {"n": (MIN_N, MAX_N), "r": (1, MAX_R)}
    return (all(type(v) is int for v in (out, *inputs.values()))
            and all(lo <= inputs[k] <= hi
                    for k, (lo, hi) in bounds.items() if k in inputs))


def verify_trace(steps) -> bool:
    """Re-run every step's arithmetic, live rules included.  A step
    with an unknown rule, a statement other than its rule's, a missing
    or ill-typed input or output, an n or r outside the table's range,
    or an item that is no `DerivationStep` is rejected, never raised
    on."""
    for s in steps:
        if not isinstance(s, DerivationStep):
            return False
        try:
            rule = RULES[s.rule]
            inputs = dict(s.inputs)
            if (s.statement != rule.statement or not _well_typed(inputs, s.out)
                    or rule.fn(inputs) != s.out):
                return False
        except (KeyError, TypeError, ValueError):
            return False
    return True


def ed_upper_char2(n: int):
    """Upper bound for n >= 15 and its trace, read from `_ed_entry`."""
    if type(n) is not int or not 15 <= n <= MAX_N:
        raise ValueError("the case analysis starts at n = 15")
    entry = _ed_entry(n)
    return entry.upper, entry.upper_trace


def ed_lower_char2(n: int):
    """Lower bound for n >= 15 and its trace, read from `_ed_entry`; its
    gcd step recomputes from the character-lattice orbit structure."""
    if type(n) is not int or not 15 <= n <= MAX_N:
        raise ValueError("the case analysis starts at n = 15")
    entry = _ed_entry(n)
    return entry.lower, entry.lower_trace


class EdEntry(Record):
    _fields = ("n",
               "value",           # None = open
               "upper", "lower", "case", "upper_trace", "lower_trace")
    char_note = CHAR_NOTE


def ed_value(n: int) -> EdEntry:
    """Essential dimension entry for one n, traces included.  Raises
    AssertionError if the two bounds disagree."""
    entry = _ed_entry(n)
    if entry.upper != entry.lower:
        raise AssertionError(f"upper and lower bounds disagree at n={n}: "
                             f"{entry.upper} vs {entry.lower}")
    return entry


def _ed_entry(n: int) -> EdEntry:
    """`ed_value` without its check that the bounds agree, so that
    `consistency_check` can report a mismatch.  Walks the case analysis
    once; the two traces share their `dim-so` and `pow2-part` steps."""
    if type(n) is not int or not MIN_N <= n <= MAX_N:
        raise ValueError(f"n must be between {MIN_N} and {MAX_N}")
    if n <= 6:
        s = _step("trivial-low", n=n)
        return EdEntry(n, 0, 0, 0, "trivial", (s,), (s,))
    if n <= 14:
        if n in LOW_TABLE:
            s = _step("low-range-value", n=n)
            return EdEntry(n, s.out, s.out, s.out, "low", (s,), (s,))
        return EdEntry(n, None, None, None, "low", (), ())
    dim = _step("dim-so", n=n)
    if n % 2:
        dv = _step("spin-dim-odd", n=n)
        gcd = _step("heisenberg-gcd-odd", r=n // 2)
    else:
        dv = _step("half-spin-dim", n=n)
        gcd = _step("heisenberg-gcd-even", r=n // 2)
    if n % 4:
        case = "odd" if n % 2 else "2mod4"
        top = _step("generically-free-upper", dim_v=dv.out, dim_g=dim.out)
        low = _step("gerbe-index-lower", index=gcd.out, dim_g=dim.out)
        ut, lt = (dim, dv, top), (dim, gcd, low)
    else:
        pow2 = _step("pow2-part", n=n)
        low = _step("index-sum-lower",
                    index_a=pow2.out, index_c=gcd.out, dim_g=dim.out)
        lt = (dim, gcd, pow2, low)
        if n == 16:
            case = "16"
            plus = _step("add-vector-rep", dim_v=dv.out, n=n)
            top = _step("generically-free-upper",
                        dim_v=plus.out, dim_g=dim.out)
            ut = (dim, dv, plus, top)
        else:
            case = "0mod4"
            top = _step("central-quotient-upper",
                        dim_v=dv.out, dim_g=dim.out, gerbe_index=pow2.out)
            ut = (dim, dv, pow2, top)
    return EdEntry(n, top.out, top.out, low.out, case, ut, lt)


class LiveCheck(Record):
    _fields = ("description", "expected", "got")

    @property
    def ok(self) -> bool:
        return self.expected == self.got


class ConsistencyReport(Record):
    _fields = ("n", "ok", "entry", "live_checks", "problems")


def consistency_check(n: int) -> ConsistencyReport:
    """Recompute the entry for n, re-verify both traces step by step,
    and for n >= 15 compare the formula's 2-power against the gcd
    computed live from the orbit structure.  Never raises on a
    mismatch; the report carries the failure."""
    problems = []
    entry = _ed_entry(n)
    if not verify_trace(entry.upper_trace) or not verify_trace(entry.lower_trace):
        problems.append("trace arithmetic failed to re-verify")
    if entry.value is not None and not (entry.upper == entry.lower == entry.value):
        problems.append("value does not equal both bounds")
    live = []
    r, parity = n // 2, Parity.ODD if n % 2 else Parity.EVEN
    if n >= 15:
        power = "2^r" if parity is Parity.ODD else "2^(r-1)"
        live.append(LiveCheck(
            f"{parity.value}-rank Heisenberg gcd at r={r} equals {power}",
            expected_orbit_size(r, parity), _heisenberg_gcd(r, parity)))
    if any(not c.ok for c in live):
        problems.append("live orbit recomputation disagrees with the formula")
    return ConsistencyReport(n, not problems, entry, tuple(live),
                             tuple(problems))


# ---------------------------------------------------------------------------
# table rendering


def _trace_json(entry: EdEntry):
    return [{"rule": s.rule, "side": side, "live": RULES[s.rule].live,
             "quote": s.statement, "inputs": dict(s.inputs), "out": s.out}
            for side, trace in (("upper", entry.upper_trace),
                                ("lower", entry.lower_trace))
            for s in trace]


def ed_table(lo: int, hi: int, fmt: str = "tsv") -> str:
    """Rows n = lo..hi.  tsv columns: n, value, upper, lower, case
    (open entries render as '?' / "unknown").  json is a list of objects
    with the derivation traces attached."""
    if not (type(lo) is type(hi) is int and MIN_N <= lo <= hi <= MAX_N):
        raise ValueError(
            f"range must satisfy {MIN_N} <= min <= max <= {MAX_N}")
    if fmt not in ("tsv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    entries = [ed_value(n) for n in range(lo, hi + 1)]
    if fmt == "tsv":
        def cell(v):
            return "?" if v is None else str(v)
        return "\n".join("\t".join([str(e.n), cell(e.value), cell(e.upper),
                                    cell(e.lower), e.case])
                         for e in entries) + "\n"

    def cell(v):
        return "unknown" if v is None else v
    rows = [{"n": e.n, "value": cell(e.value), "upper": cell(e.upper),
             "lower": cell(e.lower), "case": e.case, "trace": _trace_json(e)}
            for e in entries]
    return _json.dumps(rows) + "\n"
