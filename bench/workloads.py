"""Seeded request lists for the three benchmark workloads.

Each generator returns a list of argv lists for the `spindim` command.
The same seed gives byte-identical lists.  The seed only picks values
and order; the number of requests of each kind and size is fixed, so
that the timing of a workload does not depend on which seed is used.
"""

from __future__ import annotations

import random

WORKLOADS = ("lattice-cold", "forms-warm", "oneshot-cold")

# (k, n) shapes of the normalize requests in one forms-warm pass.  Where
# 2^(k*n) <= 4096 the program re-evaluates every vector; above that it
# samples 1000 vectors.
NORMALIZE_SHAPES = ((1, 12), (2, 6), (3, 4), (4, 3), (1, 8), (2, 4),
                    (8, 4), (16, 4))
HEISENBERG_RANK = 10
HEISENBERG_REPEATS = 30
ONESHOT_ROUNDS = 3
NORMALIZE_EACH = 5
QFORM_OPS_EACH = 50          # witt, arf, classify, equiv
SYMBOL_COUNT = 100
INVARIANT_EACH = 15          # per spin group
FORM_FIELD_BITS = (1, 2, 3, 4, 8, 16)
GROUP_PARAMS = {"spin7": 4, "spin8": 5, "spin9": 5, "spin10": 4}
NAMES = "abcdefgh"


def generate(workload: str, seed: int) -> list[list[str]]:
    rng = random.Random(f"{workload}:{seed}")
    return {"lattice-cold": _lattice_cold, "forms-warm": _forms_warm,
            "oneshot-cold": _oneshot_cold}[workload](rng)


def _lattice_cold(rng) -> list[list[str]]:
    # The two heavy lattice runs, plus verify-heisenberg calls, which
    # exercise divisibility_report and give enough cold invocations for
    # a latency tail: every rank and parity where the report also runs
    # the exhaustive search (r <= 6), and HEISENBERG_REPEATS calls at
    # one mid rank.  Those repeats make up the middle of the latency
    # distribution, so p50 and the tail fall among requests of one cost
    # rather than on the edge between two.  The seed only shuffles.
    reqs = [["verify-lattice", "--r-max", "14"],
            ["ed-table", "--min", "3", "--max", "64", "--format", "json"]]
    reqs += [["verify-heisenberg", "--r", str(r), "--parity", p]
             for r in range(1, 7) for p in ("odd", "even")]
    reqs += [["verify-heisenberg", "--r", str(HEISENBERG_RANK), "--parity", "odd"]
             for _ in range(HEISENBERG_REPEATS)]
    rng.shuffle(reqs)
    return reqs


def _elem(rng, k: int, nonzero: bool = False) -> str:
    return format(rng.randrange(1 if nonzero else 0, 1 << k), "x")


def _blocks(rng, k: int, count: int) -> list[str]:
    return [f"[{_elem(rng, k)},{_elem(rng, k)}]" for _ in range(count)]


def _pfister(rng, k: int, slots: int) -> str:
    a = ",".join(_elem(rng, k, nonzero=True) for _ in range(slots))
    return f"pf({a};{_elem(rng, k)})"


def _even_form(rng, k: int) -> str:
    """A nonsingular even form: random blocks, or a Pfister form."""
    if rng.random() < 0.3:
        return _pfister(rng, k, rng.randint(1, 2))
    return "+".join(_blocks(rng, k, rng.randint(1, 4)))


def _nonsingular_form(rng, k: int) -> str:
    form = _even_form(rng, k)
    if rng.random() < 0.4:
        form += f"+<{_elem(rng, k, nonzero=True)}>"
    return form


def _any_form(rng, k: int) -> str:
    parts = _blocks(rng, k, rng.randint(0, 3))
    parts += [f"<{_elem(rng, k)}>" for _ in range(rng.randint(0 if parts else 1, 2))]
    return "+".join(parts)


def _matrix(rng, k: int, n: int) -> str:
    # Upper triangular with every entry on and above the diagonal nonzero:
    # how long the reduction and its self-check take depends on how many
    # entries are zero, so a fixed pattern keeps the cost the same for
    # every seed (over F_2 this is the all-ones matrix).
    rows = [",".join(_elem(rng, k, nonzero=True) if j >= i else "0"
                     for j in range(n)) for i in range(n)]
    return "mat(" + ";".join(rows) + ")"


def _monomial(rng, size: int) -> str:
    return "*".join(rng.sample(NAMES, size)) if size else "1"


def _symbol_expr(rng) -> str:
    terms = []
    for _ in range(rng.randint(1, 4)):
        slots = [_monomial(rng, rng.choice((1, 1, 1, 2, 2, 3)))
                 for _ in range(rng.randint(1, 3))]
        b = "+".join(_monomial(rng, rng.choice((0, 1, 1, 2)))
                     for _ in range(rng.randint(1, 2)))
        terms.append("{" + ",".join(slots + [b]) + "]")
    return "+".join(terms)


def _labels(rng, count: int) -> str:
    pool = NAMES + "1"
    return ",".join(rng.choice(pool) if rng.random() < 0.2 else name
                    for name in rng.sample(NAMES, count))


def _qform(field_bits: int, op: str, form: str, form2: str | None = None):
    argv = ["qform", "--field", f"f2^{field_bits}", "--op", op, "--form", form]
    return argv + (["--form2", form2] if form2 is not None else [])


def _forms_warm(rng) -> list[list[str]]:
    reqs = []
    for k, n in NORMALIZE_SHAPES:
        reqs += [_qform(k, "normalize", _matrix(rng, k, n))
                 for _ in range(NORMALIZE_EACH)]
    # every op visits the fields in turn: the cost of an op depends on k
    for i in range(QFORM_OPS_EACH):
        k = FORM_FIELD_BITS[i % len(FORM_FIELD_BITS)]
        reqs += [_qform(k, "arf", _even_form(rng, k)),
                 _qform(k, "witt", _nonsingular_form(rng, k)),
                 _qform(k, "classify", _any_form(rng, k)),
                 _qform(k, "equiv", _nonsingular_form(rng, k),
                        _nonsingular_form(rng, k))]
    reqs += [["symbol", "--normalize", _symbol_expr(rng)]
             for _ in range(SYMBOL_COUNT)]
    for group, count in GROUP_PARAMS.items():
        reqs += [["invariant", "--group", group, "--labels", _labels(rng, count)]
                 for _ in range(INVARIANT_EACH)]
    rng.shuffle(reqs)
    return reqs


def _oneshot_cold(rng) -> list[list[str]]:
    # ONESHOT_ROUNDS copies of one call per subcommand and qform op, each
    # with fresh values, so that the list is long enough for a tail
    reqs = []
    for i in range(ONESHOT_ROUNDS):
        reqs += [["ed-table", "--min", "15", "--max", "20"],
                 ["verify-lattice", "--r-max", "6"],
                 ["verify-heisenberg", "--r", "4", "--parity", ("odd", "even")[i % 2]],
                 ["symbol", "--normalize", _symbol_expr(rng)]]
        for k in (2, 16):
            reqs += [_qform(k, "arf", _even_form(rng, k)),
                     _qform(k, "witt", _nonsingular_form(rng, k)),
                     _qform(k, "classify", _any_form(rng, k)),
                     _qform(k, "equiv", _nonsingular_form(rng, k),
                            _nonsingular_form(rng, k)),
                     _qform(k, "normalize", _matrix(rng, k, 3))]
        reqs += [["invariant", "--group", g, "--labels", _labels(rng, c)]
                 for g, c in GROUP_PARAMS.items()]
    rng.shuffle(reqs)
    return reqs
