"""The package's public names and its lazy layers.

`import spindim` registers the six layer modules in `sys.modules`
without running them; each runs on the first read of one of its
attributes.  `qform2` and `invariants` also read the expression
syntax they print, so no other module is registered.  A module that
has run is a plain `types.ModuleType`, a registered one that has not
is a subclass, so the probes below test `type(m) is types.ModuleType`
and never `hasattr` or `__file__`, which would load the module they
look at.
"""

import os
import subprocess
import sys

import pytest

import spindim
from spindim import cli
from spindim.invariants import SpinId

LAYERS = ("abelian", "spinlat", "repdim", "qform2", "invariants", "edcalc")

# spindim.__all__ before the layers became lazy: the 57 names the
# package re-exports and the six layer modules
API = [
    "BinaryBlock", "CharMultiset", "ConcreteField2", "ConsistencyReport",
    "EdEntry", "FgAbGroup", "FormalField2", "GroupElement", "OrbitStructure",
    "Parity", "Presentation", "QForm", "SpinCharData", "SpinId", "Subgroup",
    "SymbolSum", "SymbolTerm", "TorsorData", "WeylElt", "abelian", "arf",
    "block_normalize", "build_char_data", "center_restriction",
    "classify_form", "consistency_check", "divisibility_report",
    "ed_lower_char2", "ed_table", "ed_upper_char2", "ed_value", "edcalc",
    "enumerate_invariant_multisets", "equivalent_ff", "evaluate",
    "free_transitive_check", "group_numerics", "invariant_f", "invariants",
    "is_invariant", "is_isotropic", "merkurjev_index_bound",
    "min_faithful_dim", "orbit_structure", "orbits_on_faithful", "orth_sum",
    "pfister_build", "pfister_expand", "pfister_recover", "qform2", "repdim",
    "scale", "smith_normal_form", "spinlat", "subgroup_span", "symbol",
    "symbol_generic_nonzero", "symbol_normalize", "tensor_bilinear",
    "torsor_forms", "verify_trace", "weyl_act", "witt_decompose",
]

# prints the exit code, whether argparse and json were imported, then
# the modules that have run and those that are only registered
PROBE = """
import sys, types
import spindim.cli
code = spindim.cli.run(sys.argv[1:])[0]
mods = {n[8:]: m for n, m in sys.modules.items() if n.startswith("spindim.")}
print(code)
print("argparse" in sys.modules)
print("json" in sys.modules)
print(*sorted(n for n, m in mods.items() if type(m) is types.ModuleType))
print(*sorted(n for n, m in mods.items() if type(m) is not types.ModuleType))
"""


def cold(code, *argv):
    src = os.path.dirname(os.path.dirname(spindim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return proc.stdout.splitlines()


def layers_run(*argv):
    """(exit code, the layers that ran, whether argparse was imported,
    whether json was) for one cold `cli.run(argv)`; the other layers
    must still be registered."""
    code, argparse_loaded, json_loaded, ran, lazy = cold(PROBE, *argv)
    ran, lazy = set(ran.split()), set(lazy.split())
    assert ran | lazy >= set(LAYERS)
    return (int(code), ran & set(LAYERS), argparse_loaded == "True",
            json_loaded == "True")


@pytest.mark.parametrize("argv, want", [
    (["symbol", "--normalize", "{a*b,c]+{b,c]"], {"invariants"}),
    (["qform", "--field", "f2^4", "--op", "classify", "--form", "[1,2]+<3>"],
     {"qform2"}),
    (["qform", "--field", "f2^2", "--op", "normalize",
      "--form", "mat(1,1;0,1)"], {"qform2"}),
    (["qform", "--field", "f2^1", "--op", "equiv", "--form", "[1,1]",
      "--form2", "[0,0]"], {"qform2"}),
    # the only form request that parses no expression
    (["invariant", "--group", "spin9", "--labels", "a,b,c,d,e"],
     {"invariants"}),
])
def test_form_requests_never_run_the_lattice_layer(argv, want):
    # a well-formed request is parsed from the option table alone, and
    # its JSON written without the json module
    assert layers_run(*argv) == (0, want, False, False)


@pytest.mark.parametrize("argv, want", [
    (["verify-heisenberg", "--r", "10", "--parity", "odd"],
     {"abelian", "spinlat"}),
    (["verify-heisenberg", "--r", "4", "--parity", "even"],
     {"abelian", "spinlat", "repdim"}),
    (["ed-table", "--min", "3", "--max", "64", "--format", "json"],
     {"abelian", "spinlat", "edcalc"}),
    (["verify-lattice", "--r-max", "6"], {"abelian", "spinlat"}),
])
def test_lattice_requests_never_run_the_form_layer(argv, want):
    # nor the expression parsers: the 2^r enumeration (`repdim`) runs
    # only for the brute force at r <= 6
    assert layers_run(*argv) == (0, want, False, False)


@pytest.mark.parametrize("argv", [["--help"], ["symbol", "--help"], [],
                                  ["invariant", "--group", "spin6",
                                   "--labels", "a"]])
def test_help_and_parse_errors_run_no_layer(argv):
    # the option table writes help and parse errors, so no lazy module
    # runs and argparse is never imported
    assert layers_run(*argv) == (0 if "--help" in argv else 2, set(), False,
                                 False)


def test_importing_the_cli_registers_every_layer_and_runs_none():
    # a tool that looks the layers up in sys.modules right after this
    # import (bench/tracer.py does) must find all six; no other lazy
    # module is registered, and `_json` waits for the layer that writes
    probe = ("import sys, types, spindim.cli\n"
             "for name, m in sorted(sys.modules.items()):\n"
             "    if name.split('.')[0] == 'spindim':\n"
             "        print(name, type(m) is types.ModuleType)")
    want = {f"spindim.{name} False" for name in LAYERS}
    want |= {"spindim True", "spindim.cli True"}
    assert set(cold(probe)) == want


def test_all_is_unchanged():
    assert spindim.__all__ == API


def test_each_public_name_is_its_home_modules_object():
    for name in API:
        obj = getattr(spindim, name)
        if name in LAYERS:
            assert obj is sys.modules[f"spindim.{name}"]
        else:
            home = sys.modules[obj.__module__]
            assert obj is getattr(home, name), name
            assert home.__name__.split(".")[1] in LAYERS


def test_star_import_binds_every_public_name():
    probe = ("from spindim import *\n"
             "print(*sorted(n for n in globals() if not n.startswith('_')))")
    assert cold(probe) == [" ".join(API)]


def test_unknown_and_unexported_names_raise_attribute_error():
    for name in ("no_such_name", "format_qform", "MAX_R", "_HOME_"):
        with pytest.raises(AttributeError, match=name):
            getattr(spindim, name)
    with pytest.raises(ImportError):
        from spindim import no_such_name  # noqa: F401


def test_dir_lists_every_public_name():
    assert set(API) <= set(dir(spindim))


def test_cli_group_choices_are_the_spin_ids():
    kinds = {flag: kind for flag, kind, _ in cli._COMMANDS["invariant"][2]}
    assert kinds["--group"] == tuple(g.value for g in SpinId)
