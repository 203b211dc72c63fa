"""Exact calculators for the essential dimension of spin groups in
characteristic 2: character lattices, orbit data, quadratic form
classification, symbol invariants and the resulting bound tables.

Each layer module runs on first use.  Importing the package registers
all six in `sys.modules` as `importlib.util.LazyLoader` modules.  A
layer compiles and runs when one of its attributes is first read, so
a form request never compiles the lattice layer and a lattice request
never compiles the form layer.
Because they are registered, `sys.modules["spindim.<layer>"]` is there
right after the import, for tools that look the layers up by name.
The public names below are served from their layers by `__getattr__`:
`spindim.X is spindim.<layer>.X`.
"""

import importlib.util
import sys

# layer -> the public names the package re-exports from it
_EXPORTS = {
    "abelian": ("FgAbGroup", "GroupElement", "Presentation", "Subgroup",
                "smith_normal_form", "subgroup_span"),
    "spinlat": ("OrbitStructure", "Parity", "orbit_structure"),
    "repdim": ("CharMultiset", "SpinCharData", "WeylElt", "build_char_data",
               "center_restriction", "divisibility_report",
               "enumerate_invariant_multisets", "free_transitive_check",
               "is_invariant", "merkurjev_index_bound", "min_faithful_dim",
               "orbits_on_faithful", "weyl_act"),
    "qform2": ("BinaryBlock", "ConcreteField2", "QForm", "arf",
               "block_normalize", "classify_form", "equivalent_ff",
               "evaluate", "is_isotropic", "orth_sum", "pfister_build",
               "scale", "tensor_bilinear", "witt_decompose"),
    "invariants": ("FormalField2", "SpinId", "SymbolSum", "SymbolTerm",
                   "TorsorData", "invariant_f", "pfister_expand",
                   "pfister_recover", "symbol", "symbol_generic_nonzero",
                   "symbol_normalize", "torsor_forms"),
    "edcalc": ("ConsistencyReport", "EdEntry", "consistency_check",
               "ed_lower_char2", "ed_table", "ed_upper_char2", "ed_value",
               "group_numerics", "verify_trace"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}


def _lazy(layer):
    """Register `spindim.<layer>` in sys.modules without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((name, _lazy(name)) for name in _EXPORTS)

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *_HOME})
