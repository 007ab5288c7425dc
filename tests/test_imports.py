"""What a cold process imports, the public names of the package, and the
records that stand in for dataclasses on the verb path."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import spinweil
from spinweil.clifford import spin_v_xyz_table
from spinweil.lattices import MukaiVector, make_Splus
from spinweil.reps import RepSpace, derived_action
from spinweil.weil import STANDARD_PERIOD, Period

#: every name the package exports, by the submodule that defines it
PUBLIC = {
    "lattices": ("BilinearLattice", "MukaiVector", "make_V", "make_Splus",
                 "mukai_pairing", "orthogonal_complement", "signature"),
    "multivector": ("Multivector", "contract", "pfaffian", "pluecker",
                    "wedge"),
    "clifford": ("CV", "CliffordAlgebra", "CliffordElement", "exp_nilpotent",
                 "sigma_action", "spin_so_iso", "so_to_spin",
                 "twisted_conjugation"),
    "scalars": ("QuadExt", "Rational", "TowerScalar", "hilbert_symbol",
                "is_norm"),
    "spingeo": ("Spinor", "move_to_cell", "spinor_inverse", "spinor_map",
                "subspace_of_spinor", "transversality"),
    "reps": ("RepSpace", "branching_dims", "cayley_class", "derived_action",
             "invariant_subspace", "stabilizer_algebra",
             "veronese_pluecker_check", "weight_decomposition"),
    "weil": ("Period", "WeilDatum", "cayley_hodge_test", "complex_structure",
             "h2_split", "hermitian_and_discriminant", "k_action",
             "make_weil_datum", "polarization", "sample_period",
             "weil_class_space", "weil_condition"),
    "kuga": ("KSDatum", "ks_center", "ks_complex_structure",
             "ks_hom"),
}


def _loaded_after(imports):
    """The module names a fresh interpreter holds after the given import
    lines."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = "import sys\n" + imports + "\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_a_cold_cli_import_leaves_the_verb_modules_out():
    # the benchmark worker reads its set-up tables off reps, multivector
    # and clifford after these two imports; verify, weil and kuga load in
    # the verbs that use them, and no verb-path module imports dataclasses
    loaded = _loaded_after("import spinweil\nfrom spinweil import cli")
    for name in ("reps", "multivector", "clifford"):
        assert f"spinweil.{name}" in loaded
    for name in ("weil", "kuga", "verify"):
        assert f"spinweil.{name}" not in loaded
    assert "dataclasses" not in loaded


def test_the_weil_and_kuga_verbs_load_no_dataclasses():
    # their records are namedtuples too; only verify's Check is a dataclass
    loaded = _loaded_after("import spinweil.weil, spinweil.kuga")
    assert {"spinweil.weil", "spinweil.kuga"} <= loaded
    assert "dataclasses" not in loaded


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


#: each record with its fields, a value to change the last field to, and
#: its repr as the dataclass it replaced printed it
RECORDS = {
    "MukaiVector": (
        MukaiVector, {"r": 1, "c": (0, 1, 0, 0, 0, 0), "s": -3}, 2,
        "MukaiVector(r=1, c=(0, 1, 0, 0, 0, 0), s=-3)"),
    "RepSpace": (
        RepSpace, {"name": "V", "dim": 8, "basis": ("e1", "e2")}, ("e1",),
        "RepSpace(name='V', dim=8, basis=('e1', 'e2'))"),
    "Period": (
        Period, dict(zip("pq", STANDARD_PERIOD)),
        tuple(-x for x in STANDARD_PERIOD[1]),
        "Period(p=(0, 0, 1, 0, 0, 0, 1, 0), q=(0, 0, 0, 1, 0, 0, 0, 1))"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_construct_compare_print_and_stay_frozen(name):
    cls, fields, other, text = RECORDS[name]
    record = cls(**fields)
    assert record == cls(*fields.values())
    for field, value in fields.items():
        assert getattr(record, field) is value
    last = list(fields)[-1]
    assert record != cls(**dict(fields, **{last: other}))
    assert repr(record) == text
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


P, Q = STANDARD_PERIOD


@pytest.mark.parametrize("p, q, text", [
    (P, P, "(p, q) = 0"),
    (P, tuple(2 * x for x in Q), "(p, p) = (q, q)"),
    ((0,) * 8, (0,) * 8, "(p, p) > 0")])
def test_a_period_off_the_period_domain_is_a_value_error(p, q, text):
    with pytest.raises(ValueError) as err:
        Period(p, q)
    assert str(err.value) == f"period needs {text}"


def test_a_lattice_vector_of_the_wrong_length_is_a_value_error():
    with pytest.raises(ValueError, match="^coordinate length does not match "
                                         "lattice rank$"):
        make_Splus().pair([1, 2, 3], [0] * 8)
    with pytest.raises(ValueError, match="lattice rank"):
        make_Splus().pair([0] * 8, [0] * 9)


def test_derived_action_takes_a_space_name():
    for label, x, matrix in spin_v_xyz_table()[::9]:
        assert derived_action(x, "V") == matrix, label
