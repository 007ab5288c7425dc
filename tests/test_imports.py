"""What a cold process imports, and the public names of the package."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import spinweil

#: every name the package exports, by the submodule that defines it
PUBLIC = {
    "lattices": ("BilinearLattice", "LatticeVector", "MukaiVector", "make_V",
                 "make_Splus", "mukai_pairing", "orthogonal_complement",
                 "signature"),
    "multivector": ("Multivector", "contract", "hodge_star", "pfaffian",
                    "pluecker", "wedge"),
    "clifford": ("CV", "CliffordAlgebra", "CliffordElement", "conjugation",
                 "exp_nilpotent", "sigma_action", "spin_so_iso", "so_to_spin",
                 "twisted_conjugation"),
    "scalars": ("QuadExt", "Rational", "TowerScalar", "hilbert_symbol",
                "is_norm"),
    "spingeo": ("IsotropicSubspace", "Spinor", "move_to_cell",
                "spinor_inverse", "spinor_map", "subspace_of_spinor",
                "transversality"),
    "reps": ("RepSpace", "branching_dims", "cayley_class", "derived_action",
             "invariant_subspace", "stabilizer_algebra",
             "veronese_pluecker_check", "weight_decomposition"),
    "weil": ("Period", "WeilDatum", "cayley_hodge_test", "complex_structure",
             "h2_split", "hermitian_and_discriminant", "k_action",
             "make_weil_datum", "polarization", "sample_period",
             "weil_class_space", "weil_condition"),
    "kuga": ("KSDatum", "ks_center", "ks_complex_structure",
             "ks_spin_rep_check"),
}


def test_a_cold_cli_import_leaves_the_verb_modules_out():
    # the benchmark worker reads its set-up tables off reps, multivector
    # and clifford after these two imports; verify, weil and kuga load in
    # the verbs that use them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = ("import sys, spinweil\n"
            "from spinweil import cli\n"
            "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    for name in ("reps", "multivector", "clifford"):
        assert f"spinweil.{name}" in loaded
    for name in ("weil", "kuga", "verify"):
        assert f"spinweil.{name}" not in loaded


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_the_submodule_objects(module):
    mod = import_module(f"spinweil.{module}")
    for name in PUBLIC[module]:
        assert getattr(spinweil, name) is getattr(mod, name), name
        assert name in dir(spinweil)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spinweil.no_such_name
    with pytest.raises(ImportError):
        from spinweil import no_such_name  # noqa: F401
