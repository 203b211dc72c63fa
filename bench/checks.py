"""Independent checks of `spindim` outputs.

`check(argv, code, out)` returns None when the output is right and a
one-line reason otherwise.  Nothing here imports `spindim`: table rows
are compared with the closed-form case formulas, lattice reports with
the group orders the theory predicts, quadratic forms over small fields
with zero counts found by brute force (over larger fields the Arf bit
is the absolute trace, computed with the field arithmetic below), and
symbols with a separate normalizer.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from functools import lru_cache

# Largest number of vectors a brute-force zero count may enumerate.
BRUTE_VECTORS = 4096
# Fields up to this degree get value distributions by enumeration.
SMALL_FIELD_BITS = 4


def check(argv, code, out):
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[argv[0]](argv, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _opt(argv, name):
    return argv[argv.index(name) + 1]


# ---------------------------------------------------------------------------
# ed-table


LOW_VALUES = {7: 4, 8: 5, 9: 5, 10: 4}


def expected_row(n: int):
    """(value, case) from the closed-form case analysis; value None = open."""
    dim = n * (n - 1) // 2
    if n <= 6:
        return 0, "trivial"
    if n <= 14:
        return LOW_VALUES.get(n), "low"
    if n % 2:
        return 2 ** ((n - 1) // 2) - dim, "odd"
    if n % 4 == 2:
        return 2 ** ((n - 2) // 2) - dim, "2mod4"
    if n == 16:
        return 24, "16"
    return 2 ** ((n - 2) // 2) + (n & -n) - dim, "0mod4"


def _check_ed_table(argv, out):
    lo, hi = int(_opt(argv, "--min")), int(_opt(argv, "--max"))
    fmt = _opt(argv, "--format") if "--format" in argv else "tsv"
    if fmt == "json":
        rows = [(r["n"], r["value"], r["upper"], r["lower"], r["case"])
                for r in json.loads(out)]
        unknown = "unknown"
    else:
        rows = []
        for line in out.splitlines():
            n, value, upper, lower, case = line.split("\t")
            rows.append((int(n), *(v if v == "?" else int(v)
                                   for v in (value, upper, lower)), case))
        unknown = "?"
    if [r[0] for r in rows] != list(range(lo, hi + 1)):
        return "ed-table rows do not cover the range"
    for n, value, upper, lower, case in rows:
        want, want_case = expected_row(n)
        want = unknown if want is None else want
        if (value, upper, lower, case) != (want, want, want, want_case):
            return f"ed-table row n={n} differs from the case formula"
    return None


# ---------------------------------------------------------------------------
# verify-lattice, verify-heisenberg


def _orbit_sizes(r: int, parity: str):
    return [2 ** r] if parity == "odd" else [2 ** (r - 1)] * 2


def _check_verify_lattice(argv, out):
    r_max = int(_opt(argv, "--r-max"))
    payload = json.loads(out)
    if payload["ok"] is not True or payload["r_max"] != r_max:
        return "verify-lattice did not report ok"
    want = [(r, p) for r in range(1, r_max + 1) for p in ("odd", "even")]
    if [(row["r"], row["parity"]) for row in payload["rows"]] != want:
        return "verify-lattice rows do not cover the ranks"
    for row in payload["rows"]:
        r = row["r"]
        if not (row["ok"] is True and row["action_free"] is True
                and row["xL_invariant_factors"] == [2] * (r - 1) + [4]
                and row["xT_free_rank"] == r
                and row["xK_order"] == row["faithful_count"] == 2 ** r
                and row["orbit_sizes"] == _orbit_sizes(r, row["parity"])):
            return f"verify-lattice row r={r} {row['parity']} is wrong"
    return None


def _check_verify_heisenberg(argv, out):
    r, parity = int(_opt(argv, "--r")), _opt(argv, "--parity")
    payload = json.loads(out)
    sizes = _orbit_sizes(r, parity)
    exhaustive = r <= 6
    if not (payload["ok"] is True and payload["r"] == r
            and payload["parity"] == parity
            and payload["orbit_sizes"] == sizes
            and payload["min_faithful_dim"] == payload["gcd_dim"]
            == payload["expected"] == sizes[0]
            and payload["exhaustive_ok"] is (True if exhaustive else None)):
        return f"verify-heisenberg r={r} {parity} is wrong"
    return None


# ---------------------------------------------------------------------------
# arithmetic in F_{2^k}, written apart from the package


def _poly_mod(x: int, mod: int) -> int:
    d = mod.bit_length()
    while x.bit_length() >= d:
        x ^= mod << (x.bit_length() - d)
    return x


@lru_cache(maxsize=None)
def smallest_irreducible(k: int) -> int:
    """Smallest degree-k polynomial over F_2 with no factor of degree
    1..k/2, found by trial division."""
    for cand in range((1 << k) + 1, 1 << (k + 1), 2):
        if all(_poly_mod(cand, d) for d in range(2, 1 << (k // 2 + 1))):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {k}")


class GF:
    def __init__(self, k: int):
        self.k, self.q, self.mod = k, 1 << k, smallest_irreducible(k)

    def mul(self, x: int, y: int) -> int:
        r = 0
        while y:
            if y & 1:
                r ^= x
            y >>= 1
            x <<= 1
            if x >> self.k:
                x ^= self.mod
        return r

    def inv(self, x: int) -> int:
        r, e = 1, self.q - 2
        while e:
            if e & 1:
                r = self.mul(r, x)
            x, e = self.mul(x, x), e >> 1
        return r

    def trace(self, x: int) -> int:
        acc = t = x
        for _ in range(self.k - 1):
            t = self.mul(t, t)
            acc ^= t
        return acc


# ---------------------------------------------------------------------------
# quadratic forms: expressions, matrices, zero counts


def _elem(f: GF, tok: str) -> int:
    x = int(tok, 16)
    if not 0 <= x < f.q:
        raise ValueError(f"element {tok!r} outside F_{f.q}")
    return x


def parse_form(f: GF, text: str):
    """(blocks, diag) of a form expression; pf(...) expanded into the
    blocks [c, b/c] for c running over the products of slot subsets."""
    blocks, diag = [], []
    if text == "0":
        return blocks, diag
    depth, cur, parts = 0, "", []
    for ch in text + "+":
        depth += ch in "[(<"
        depth -= ch in "])>"
        if ch == "+" and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    for part in parts:
        if part.startswith("["):
            a, b = part[1:-1].split(",")
            blocks.append((_elem(f, a), _elem(f, b)))
        elif part.startswith("<"):
            diag.append(_elem(f, part[1:-1]))
        elif part.startswith("pf("):
            slots_text, b_text = part[3:-1].split(";")
            slots = [_elem(f, t) for t in slots_text.split(",")]
            b = _elem(f, b_text)
            for pick in itertools.product((0, 1), repeat=len(slots)):
                c = 1
                for use, a in zip(pick, slots):
                    if use:
                        c = f.mul(c, a)
                blocks.append((c, f.mul(b, f.inv(c))))
        else:
            raise ValueError(f"cannot read form summand {part!r}")
    return blocks, diag


def form_matrix(blocks, diag):
    """Upper-triangular coefficient matrix of a block-shaped form."""
    n = 2 * len(blocks) + len(diag)
    m = [[0] * n for _ in range(n)]
    for i, (a, b) in enumerate(blocks):
        m[2 * i][2 * i], m[2 * i][2 * i + 1], m[2 * i + 1][2 * i + 1] = a, 1, b
    for j, c in enumerate(diag):
        m[2 * len(blocks) + j][2 * len(blocks) + j] = c
    return m


def parse_matrix(f: GF, text: str):
    rows = [[_elem(f, t) for t in row.split(",")]
            for row in text[len("mat("):-1].split(";")]
    n = len(rows)
    return [[rows[i][j] ^ rows[j][i] if j > i else rows[i][j] if j == i else 0
             for j in range(n)] for i in range(n)]


def evaluate(f: GF, m, vec) -> int:
    acc = 0
    for i, xi in enumerate(vec):
        if xi:
            for j in range(i, len(vec)):
                if m[i][j] and vec[j]:
                    acc ^= f.mul(m[i][j], f.mul(xi, vec[j]))
    return acc


def value_counts(f: GF, m) -> Counter:
    """How often the form takes each value, over every vector."""
    return Counter(evaluate(f, m, v)
                   for v in itertools.product(range(f.q), repeat=len(m)))


def form_zero_count(f: GF, blocks, diag) -> int:
    """Zeros of an orthogonal sum: enumerate each summand's values and
    combine, since in characteristic 2 q1(x) + q2(y) = 0 iff q1(x) = q2(y)."""
    total = Counter({0: 1})
    for summand in [form_matrix([bl], []) for bl in blocks] + \
                   [form_matrix([], [c]) for c in diag]:
        counts = value_counts(f, summand)
        nxt = Counter()
        for v, nv in total.items():
            for w, nw in counts.items():
                nxt[v ^ w] += nv * nw
        total = nxt
    return total[0]


def arf_from_zeros(f: GF, blocks) -> int:
    """Arf bit of a nonsingular 2m-dimensional form from its zero
    count q^(2m-1) + (-1)^arf (q^m - q^(m-1))."""
    q, m = f.q, len(blocks)
    zeros = form_zero_count(f, blocks, [])
    if zeros == q ** (2 * m - 1) + q ** m - q ** (m - 1):
        return 0
    if zeros == q ** (2 * m - 1) - q ** m + q ** (m - 1):
        return 1
    raise ValueError("zero count of an even nonsingular form is impossible")


def arf_bit(f: GF, blocks) -> int:
    if f.k <= SMALL_FIELD_BITS:
        return arf_from_zeros(f, blocks)
    acc = 0
    for a, b in blocks:
        acc ^= f.mul(a, b)
    return f.trace(acc)


def _rank(f: GF, rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = f.inv(rows[rank][col])
        rows[rank] = [f.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [x ^ f.mul(c, y) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def polar(m):
    n = len(m)
    return [[m[min(i, j)][max(i, j)] if i != j else 0 for j in range(n)]
            for i in range(n)]


def radical_dim(f: GF, m) -> int:
    return len(m) - _rank(f, polar(m))


def _is_singular(f: GF, diag) -> bool:
    """Whether q = sum c_j z_j^2 vanishes at a nonzero vector, by
    enumeration for small fields."""
    if f.q ** len(diag) <= BRUTE_VECTORS:
        m = form_matrix([], diag)
        return any(evaluate(f, m, v) == 0
                   for v in itertools.product(range(f.q), repeat=len(diag))
                   if any(v))
    # every element is a square, so two nonzero entries always cancel
    return len(diag) >= 2 or 0 in diag


def _check_qform(argv, out):
    f = GF(int(_opt(argv, "--field").split("^")[1]))
    op, text = _opt(argv, "--op"), _opt(argv, "--form")
    payload = json.loads(out)
    if payload["op"] != op:
        return "qform answered another op"
    if op == "normalize":
        m = parse_matrix(f, text)
        blocks, diag = parse_form(f, payload["form"])
        got = form_matrix(blocks, diag)
        if len(got) != len(m) or radical_dim(f, got) != radical_dim(f, m):
            return "normalize changed the dimension or the radical"
        if (f.q ** len(m) <= BRUTE_VECTORS
                and value_counts(f, m)[0] != form_zero_count(f, blocks, diag)):
            return "normalize changed the zero count"
        return None
    blocks, diag = parse_form(f, text)
    if payload["dim"] != 2 * len(blocks) + len(diag):
        return "qform reported the wrong dimension"
    if op == "arf":
        return None if payload["arf"] == arf_bit(f, blocks) else "wrong Arf bit"
    if op == "witt":
        if diag:
            want_index, want_kernel = len(blocks), "<1>"
            if (f.k <= SMALL_FIELD_BITS and form_zero_count(f, blocks, diag)
                    != f.q ** (2 * len(blocks))):
                return "odd nonsingular form has the wrong zero count"
        else:
            bit = arf_bit(f, blocks)
            want_index = len(blocks) - bit
            kb, kd = parse_form(f, payload["kernel"])
            if bit and not (len(kb) == 1 and not kd and kb[0][0] == 1
                            and arf_bit(f, kb) == 1):
                return "Witt kernel is not the anisotropic plane"
            want_kernel = payload["kernel"] if bit else "0"
        if (payload["witt_index"], payload["kernel"]) != (want_index, want_kernel):
            return "wrong Witt decomposition"
        return None
    if op == "classify":
        m = form_matrix(blocks, diag)
        rad = radical_dim(f, m)
        if rad == 0:
            kind = "nondegenerate"
        elif _is_singular(f, diag):
            kind = "singular"
        else:
            kind = "nonsingular_radical_dim_1"
        if (payload["class"], payload["radical_dim"]) != (kind, rad):
            return "wrong classification"
        vec = payload.get("vanishing_radical_vector")
        if (vec is None) != (kind != "singular"):
            return "vanishing radical vector missing or unexpected"
        if vec is not None:
            v = [_elem(f, t) for t in vec]
            in_radical = not any(v[:2 * len(blocks)])
            if not (any(v) and in_radical and evaluate(f, m, v) == 0):
                return "reported radical vector does not vanish"
        return None
    if op == "equiv":
        b2, d2 = parse_form(f, _opt(argv, "--form2"))
        same = (2 * len(blocks) + len(diag) == 2 * len(b2) + len(d2)
                and len(diag) == len(d2)
                and (bool(diag) or arf_bit(f, blocks) == arf_bit(f, b2)))
        return None if payload["equivalent"] is same else "wrong equivalence"
    return f"unknown qform op {op!r}"


# ---------------------------------------------------------------------------
# symbols and invariants


def _monomial(text: str) -> frozenset:
    out = frozenset()
    for name in text.split("*"):
        if name != "1":
            out ^= {name}
    return out


def normalize_symbol(terms) -> str:
    """Canonical rendering of a sum of symbols {a_1,...,a_n,b], each a
    slot a monomial and b a list of monomials: split b, expand every
    slot into its factors, drop terms with a repeated factor, sort the
    slots, cancel mod 2."""
    parity = Counter()
    for slots, b_parts in terms:
        for b in b_parts:
            for pick in itertools.product(*(sorted(s) for s in slots)):
                if len(set(pick)) == len(pick):
                    parity[(tuple(sorted(pick)), tuple(sorted(b)))] ^= 1
    kept = sorted(key for key, odd in parity.items() if odd)
    if not kept:
        return "0"
    return " + ".join("{" + ",".join(list(slots) + ["*".join(b) or "1"]) + "]"
                      for slots, b in kept)


def parse_symbol(text: str):
    terms = []
    for part in text.replace(" ", "").split("]"):
        part = part.lstrip("+")
        if not part or part == "0":
            continue
        slots = part[1:].split(",")
        terms.append(([_monomial(s) for s in slots[:-1]],
                      [_monomial(b) for b in slots[-1].split("+")]))
    return terms


def _check_symbol(argv, out):
    want = normalize_symbol(parse_symbol(_opt(argv, "--normalize")))
    return None if out.rstrip("\n") == want else "wrong normal form"


def _check_invariant(argv, out):
    labels = _opt(argv, "--labels").split(",")
    payload = json.loads(out)
    want = normalize_symbol([([_monomial(s) for s in labels[3:] + labels[:2]],
                              [_monomial(labels[2])])])
    if not (payload["ok"] is True and payload["expansion_identity_ok"] is True
            and payload["group"] == _opt(argv, "--group")
            and payload["labels"] == labels and payload["symbol"] == want):
        return "wrong invariant"
    return None


_CHECKS = {
    "ed-table": _check_ed_table,
    "verify-lattice": _check_verify_lattice,
    "verify-heisenberg": _check_verify_heisenberg,
    "qform": _check_qform,
    "symbol": _check_symbol,
    "invariant": _check_invariant,
}
