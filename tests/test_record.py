"""The frozen-record contract every value class in spindim relies on,
and the import cost it exists to avoid: one `__new__` that takes the
fields by position, by name or from `_defaults`, equality and hashing
by field tuple within one class, frozen fields, the field repr,
`_replace` re-running the checks in `__new__`, the tuple operators
fenced off, and no `dataclasses` on the cold import path."""

import ast
import copy
import inspect
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import spindim
from spindim._record import Record
from spindim.edcalc import DerivationStep, LiveCheck, Rule
from spindim.abelian import FgAbGroup, Presentation
from spindim.invariants import (Nonvanishing, NonvanishingReport,
                                PfisterBase, ScaledPfister, SymbolSum,
                                SymbolTerm)
from spindim.qform2 import (BinaryBlock, ConcreteField2, FormClass, QForm,
                            WittDecomposition)
from spindim.repdim import (CharMultiset, DivisibilityReport, WeylElt,
                            build_char_data, free_transitive_check)
from spindim.spinlat import Parity

F4 = ConcreteField2(2)


RECORDS = sorted(Record.__subclasses__(), key=lambda c: c.__name__)


CHECKED = {"Presentation", "QForm", "TorsorData", "WeylElt"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_match_the_init_parameters(cls):
    # _replace, __eq__, __hash__ and __repr__ all read _fields; a record
    # either takes them through Record.__new__ or names them all itself
    if cls.__name__ not in CHECKED:
        assert cls.__new__ is Record.__new__
        return
    params = list(inspect.signature(cls.__new__).parameters)
    assert params == ["cls", *cls._fields]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_defaults_are_trailing_fields(cls):
    tail = cls._fields[len(cls._fields) - len(cls._defaults):]
    assert list(cls._defaults) == list(tail)


def test_the_defaults_fill_missing_trailing_fields():
    assert Rule("statement", len).live is False
    report = NonvanishingReport(Nonvanishing.ZERO)
    assert (report.witness, report.note) == (None, "")
    assert FormClass("singular", 1).vanishing_radical_vector is None
    div = DivisibilityReport(1, Parity.ODD, (2,), 2, 2, CharMultiset(()))
    assert (div.exhaustive_checked_to, div.exhaustive_ok) == (None, None)
    assert NonvanishingReport(Nonvanishing.ZERO, note="x") == \
        NonvanishingReport(Nonvanishing.ZERO, None, "x")


@pytest.mark.parametrize("cls", [c for c in RECORDS
                                 if c.__name__ not in CHECKED],
                         ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    values = [object() for _ in cls._fields]
    by_position = cls(*values)
    by_name = cls(**dict(zip(cls._fields, values)))
    for name, value in zip(cls._fields, values):
        assert getattr(by_position, name) is value
        assert getattr(by_name, name) is value
    assert by_position == by_name == by_position._replace()
    assert hash(by_position) == hash(by_name)


def test_bad_construction_raises_type_error():
    with pytest.raises(TypeError, match="missing field"):
        BinaryBlock(1)
    with pytest.raises(TypeError, match="missing field"):
        Rule(fn=len)
    with pytest.raises(TypeError, match="unexpected field 'c'"):
        BinaryBlock(1, 2, c=3)
    with pytest.raises(TypeError, match="takes 2 values, got 3"):
        BinaryBlock(1, 2, 3)
    with pytest.raises(TypeError, match="two values for field 'a'"):
        BinaryBlock(1, a=2)
    with pytest.raises(TypeError, match="unexpected field"):
        BinaryBlock(1, 2)._replace(c=3)


@pytest.mark.parametrize("make", [
    lambda: SymbolTerm((frozenset("a"),), (frozenset("b"),)),
    lambda: BinaryBlock(1, 2),
    lambda: PfisterBase((frozenset("a"),), frozenset("b")),
    lambda: QForm(F4, (BinaryBlock(1, 2),), (3,)),
    lambda: DerivationStep("rule", "statement", (("n", 3),), 4),
    lambda: LiveCheck("gcd", 8, 8),
    lambda: SymbolSum((SymbolTerm((frozenset("a"),), (frozenset("b"),)),)),
    lambda: CharMultiset(((3, 1), (5, 2))),
    lambda: ScaledPfister(frozenset("d"),
                          PfisterBase((frozenset("a"),), frozenset("b"))),
    # a copy of the cached data, sharing every field object
    lambda: build_char_data(2, Parity.EVEN)._replace(),
], ids=["SymbolTerm", "BinaryBlock", "PfisterBase", "QForm",
        "DerivationStep", "LiveCheck", "SymbolSum", "CharMultiset",
        "ScaledPfister", "SpinCharData"])
def test_equal_fields_give_equal_objects_and_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    # what a frozen dataclass hashes, so set orders stay as they were
    key = tuple(getattr(a, name) for name in a._fields)
    assert hash(a) == hash(b) == hash(key)
    assert len({a, b}) == 1
    assert a._replace() == a


def test_equality_and_hash_have_one_implementation():
    # GroupElement too compares as its field tuple: its group, an
    # FgAbGroup, compares and hashes by identity
    own = {cls for cls in RECORDS
           if {"__eq__", "__hash__"} & cls.__dict__.keys()}
    assert own == set()


def test_a_changed_field_breaks_equality():
    assert BinaryBlock(1, 2) != BinaryBlock(1, 3)
    assert LiveCheck("gcd", 8, 8) != LiveCheck("gcd", 8, 4)
    assert QForm(F4, diag=(1,)) != QForm(F4, diag=(2,))


def test_different_classes_with_equal_fields_are_unequal():
    assert BinaryBlock(1, 2) != PfisterBase(1, 2)
    assert PfisterBase(1, 2) != BinaryBlock(1, 2)
    assert BinaryBlock(1, 2) != (1, 2)
    # a record is a tuple, and Record.__eq__ runs first from either side
    assert (1, 2) != BinaryBlock(1, 2)
    assert not (1, 2) == BinaryBlock(1, 2)
    assert len({(1, 2), BinaryBlock(1, 2)}) == 2
    assert LiveCheck("x", 1, 1) != Rule("x", 1, 1)
    assert Rule("x", 1, 1) != LiveCheck("x", 1, 1)


def test_tuple_concatenation_and_repetition_are_fenced():
    bl = BinaryBlock(1, 2)
    for op in (lambda: bl + bl, lambda: bl * 2, lambda: 2 * bl,
               lambda: (0,) + bl):
        with pytest.raises(TypeError):
            op()
    # the records that define their own operators keep them
    group = FgAbGroup(Presentation(1, ((4,),)))
    g = group.element([1])
    assert g + g == 2 * g == group.element([2])
    with pytest.raises(TypeError):
        g * 2
    w = WeylElt((1, 0), 0b01)
    assert w * w == WeylElt((0, 1), 0b11)
    one = SymbolSum((SymbolTerm((frozenset("a"),), (frozenset("b"),)),))
    assert (one + one).terms == one.terms * 2


def test_a_record_reads_as_the_tuple_of_its_fields():
    bl = BinaryBlock(1, 2)
    assert tuple(bl) == (1, 2) and len(bl) == 2 and bl[1] == 2
    assert BinaryBlock(1, 2) < BinaryBlock(1, 3)
    # a field wins over the tuple method of the same name
    assert WittDecomposition(1, QForm(F4)).index == 1


def test_copy_and_pickle_rebuild_the_record():
    w = WeylElt((1, 0, 2), 0b101)
    for twin in (copy.copy(w), copy.deepcopy(w),
                 pickle.loads(pickle.dumps(w))):
        assert twin == w and type(twin) is WeylElt


def test_fields_are_frozen():
    bl = BinaryBlock(1, 2)
    with pytest.raises(AttributeError):
        bl.a = 3
    with pytest.raises(AttributeError):
        bl.extra = 3
    with pytest.raises(AttributeError):
        del bl.b
    step = DerivationStep("rule", "statement", (), 4)
    with pytest.raises(AttributeError):
        step.out = 5
    assert (bl.a, bl.b, step.out) == (1, 2, 4)


def test_repr_lists_the_fields():
    assert repr(BinaryBlock(1, 2)) == "BinaryBlock(a=1, b=2)"
    assert repr(WeylElt((1, 0), 1)) == "WeylElt(perm=(1, 0), signs=1)"
    report = free_transitive_check(build_char_data(2, Parity.ODD))
    assert repr(report) == ("FreeTransitiveReport(r=2, parity=<Parity.ODD: "
                            "'odd'>, is_free=True, orbit_sizes=(4,))")


def test_replace_runs_the_init_checks():
    w = WeylElt((1, 0, 2), 0b101)
    assert w._replace(signs=0) == WeylElt((1, 0, 2), 0)
    with pytest.raises(ValueError, match="not a permutation"):
        w._replace(perm=(0, 0, 2))
    q = QForm(F4, (BinaryBlock(1, 2),), (3,))
    assert q._replace(diag=()) == QForm(F4, (BinaryBlock(1, 2),))
    with pytest.raises(ValueError, match="not an element"):
        q._replace(diag=(4,))
    with pytest.raises(ValueError, match="BinaryBlock"):
        q._replace(blocks=((1, 2),))
    with pytest.raises(TypeError):
        q._replace(rank=2)


def _is_tuple_new(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "tuple")


def bare_constructions(path):
    """(line, first argument, enclosing function) of each call in a
    source file that builds a record without `Record.__new__`:
    `tuple.__new__`, called directly or through a name bound to it, or a
    `_make`.  The first argument is the class's name, or None when it is
    not a plain name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {}      # node -> innermost enclosing function (walk is BFS)
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            owner.update(dict.fromkeys(ast.walk(fn), fn.name))
    aliases, seen = set(), 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple)
                         and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                for name, value in pairs:
                    if _is_tuple_new(value) and isinstance(name, ast.Name):
                        aliases.add(name.id)
                        seen += 1
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (_is_tuple_new(func)
                or isinstance(func, ast.Name) and func.id in aliases
                or isinstance(func, ast.Attribute) and func.attr == "_make"):
            seen += _is_tuple_new(func)
            first = node.args[0] if node.args else None
            found.append((node.lineno, first.id if isinstance(
                first, ast.Name) else None, owner.get(node)))
    # every mention of tuple.__new__ is one of the calls or bindings above
    assert seen == sum(map(_is_tuple_new, ast.walk(tree))), path.name
    return found


def test_bare_tuple_construction_skips_no_checked_new():
    # a record built as a bare tuple skips `Record.__new__`; that is only
    # sound for a class whose `__new__` is Record's, which checks nothing
    # but the field count, so a field gate (QForm, TorsorData,
    # Presentation, WeylElt) is never built around its checks.  Its own
    # `__new__` may end in `tuple.__new__(cls, ...)`, once it has checked.
    unchecked = {c.__name__ for c in RECORDS if c.__new__ is Record.__new__}
    assert not CHECKED & unchecked
    src = os.path.dirname(spindim.__file__)
    seen = []
    for name in sorted(os.listdir(src)):
        path = pathlib.Path(src, name)
        if name.endswith(".py") and name != "_record.py":  # Record itself
            for line, cls, owner in bare_constructions(path):
                assert cls in unchecked or (cls, owner) == ("cls", "__new__"), \
                    f"{name}:{line} builds {cls} bare"
                seen.append(cls)
    assert {"BinaryBlock", "SymbolTerm", "WittDecomposition",
            "FormClass", "cls"} <= set(seen)


def test_cached_properties_still_cache():
    report = free_transitive_check(build_char_data(3, Parity.EVEN))
    assert report.witness is report.witness


def test_cold_import_skips_dataclasses_and_inspect():
    # counts modules, times nothing: `import spindim.cli` must not pull
    # in what a bare interpreter has not already loaded
    src = os.path.dirname(os.path.dirname(spindim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys{}; print(' '.join(sorted(sys.modules)))"

    def loaded(extra):
        proc = subprocess.run([sys.executable, "-c", probe.format(extra)],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        return set(proc.stdout.split())

    bare, cli = loaded(""), loaded(", spindim.cli")
    assert "spindim.cli" in cli
    assert not {"dataclasses", "inspect"} & (cli - bare)
