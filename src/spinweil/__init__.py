"""Exact-arithmetic spinor map, Clifford/spin machinery, Cayley classes,
and abelian fourfolds of Weil type with trivial discriminant.

The weil and kuga names load on first access (PEP 562 __getattr__ over
_LAZY), as cli loads verify, weil and kuga only in the verbs that use
them: a process that does not write bytecode compiles every module it
imports, and a cold cayley, spinor or invariants process needs none of
the three.
"""

from .lattices import (BilinearLattice, MukaiVector, make_V, make_Splus,
                       mukai_pairing, orthogonal_complement, signature)
from .multivector import Multivector, contract, pfaffian, pluecker, wedge
from .clifford import (CV, CliffordAlgebra, CliffordElement, exp_nilpotent,
                       sigma_action, spin_so_iso, so_to_spin,
                       twisted_conjugation)
from .scalars import QuadExt, Rational, TowerScalar, hilbert_symbol, is_norm
from .spingeo import (Spinor, move_to_cell, spinor_inverse, spinor_map,
                      subspace_of_spinor, transversality)
from .reps import (RepSpace, branching_dims, cayley_class, derived_action,
                   invariant_subspace, stabilizer_algebra,
                   veronese_pluecker_check, weight_decomposition)

#: public name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("Period", "WeilDatum", "cayley_hodge_test",
                     "complex_structure", "h2_split",
                     "hermitian_and_discriminant", "k_action",
                     "make_weil_datum", "polarization", "sample_period",
                     "weil_class_space", "weil_condition"), "weil"),
    **dict.fromkeys(("KSDatum", "ks_center", "ks_complex_structure",
                     "ks_hom"), "kuga"),
}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
