"""Exact calculators for the essential dimension of spin groups in
characteristic 2: character lattices, orbit data, quadratic form
classification, symbol invariants and the resulting bound tables."""

from .abelian import (FgAbGroup, GroupElement, Presentation, Subgroup,
                      smith_normal_form, subgroup_span)
from .spinlat import (OrbitStructure, Parity, SpinCharData, WeylElt,
                      build_char_data, center_restriction,
                      free_transitive_check, orbit_structure,
                      orbits_on_faithful, weyl_act)
from .repdim import (CharMultiset, divisibility_report,
                     enumerate_invariant_multisets, is_invariant,
                     merkurjev_index_bound, min_faithful_dim)
from .qform2 import (BinaryBlock, ConcreteField2, FormalField2, QForm,
                     arf, block_normalize, classify_form, equivalent_ff,
                     evaluate, is_isotropic, orth_sum, pfister_build,
                     pfister_expand, scale, tensor_bilinear, witt_decompose)
from .invariants import (SpinId, SymbolSum, SymbolTerm, TorsorData,
                         invariant_f, pfister_recover, symbol,
                         symbol_generic_nonzero, symbol_normalize,
                         torsor_forms)
from .edcalc import (ConsistencyReport, EdEntry, consistency_check,
                     ed_lower_char2, ed_table, ed_upper_char2, ed_value,
                     group_numerics, verify_trace)

__all__ = [name for name in dir() if not name.startswith("_")]
