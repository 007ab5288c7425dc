"""Command-line surface: computation verbs and the verification runner.

Verbs: spinor, cayley, weil-family, ks, invariants, verify.  All
randomized work takes an explicit seed (fixed default) so runs are
reproducible; `--json` switches to one machine-readable document per
invocation.

Exit codes (this is the one place they are listed):
  0  success
  1  verification failure: a check failed, or the input decodes but is
     mathematically invalid (say, a non-isotropic spinor for --invert)
  2  usage error: bad or missing arguments, unreadable or malformed JSON,
     JSON values that do not decode to scalars, vectors or matrices, a
     spinor, h or s without exactly eight coordinates, a spinor B that is
     not a 4x4 matrix, or an --input document (or its inputs) that is not
     a JSON object or carries a non-integer n or seed or a non-boolean
     field_scan

verify, weil and kuga are imported inside run_verify, run_weil and run_ks,
the only verbs that use them.  A process that does not write bytecode
compiles every module it imports, and the three are about a third of the
package's source: a cold cayley, spinor or invariants call would compile
them for code it never runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .jsonio import (decode_matrix, decode_vector, encode_matrix,
                     encode_multivector, encode_scalar, encode_vector)
from .lattices import moduli_dimension
from .reps import (branching_dims, cayley_class, cayley_constant,
                   explicit_cayley_formula, gamma2alpha_star_sign,
                   invariant_subspace, stabilizer_algebra, standard_spinor)
from .spingeo import (STANDARD_H, STANDARD_S, Spinor, spinor_inverse,
                      spinor_map)

DEFAULT_SEED = 20240


def _load_json(text_or_path, inline=True):
    try:
        if inline:
            return json.loads(text_or_path)
        with open(text_or_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, OSError) as exc:
        raise UsageError(f"malformed JSON input: {exc}")


class UsageError(Exception):
    pass


def _decode(decoder, obj):
    """Apply a jsonio decoder; a value it cannot decode is a usage error."""
    try:
        return decoder(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed JSON input: {type(exc).__name__}: "
                         f"{exc}")


def _decode_8(obj, name):
    """A vector of eight coordinates (a spinor, h or s) from JSON."""
    v = _decode(decode_vector, obj)
    if len(v) != 8:
        raise UsageError(f"{name} needs eight coordinates, got {len(v)}")
    return v


def _decode_4x4(obj):
    """The matrix B of the spinor verb from JSON: four rows of four."""
    b = _decode(decode_matrix, obj)
    if len(b) != 4 or any(len(row) != 4 for row in b):
        raise UsageError(f"B needs four rows of four entries, got rows of "
                         f"lengths {[len(row) for row in b]}")
    return b


def _input_doc(path):
    """The inputs object of an --input document (or the document itself)."""
    doc = _load_json(path, inline=False)
    inputs = doc.get("inputs", doc) if isinstance(doc, dict) else doc
    if not isinstance(inputs, dict):
        raise UsageError("an --input document and its inputs must be JSON "
                         "objects")
    return inputs


def _int_input(inputs, key, default=None):
    """An integer field of an --input document."""
    value = inputs.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"input {key!r} must be an integer, got "
                         f"{json.dumps(value)}")
    return value


def _emit(doc, args):
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _pretty(doc)


def _pretty(doc, indent=0):
    pad = "  " * indent
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _pretty(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                print(f"{pad}  - {json.dumps(item)}")
        else:
            print(f"{pad}{key}: {json.dumps(value)}")


# -- verb: spinor ------------------------------------------------------------

def run_spinor(args):
    if args.input:
        inputs = _input_doc(args.input)
        if "B" in inputs and inputs["B"] is not None:
            return _spinor_forward(_decode_4x4(inputs["B"]), args)
        if "z" in inputs and inputs["z"] is not None:
            return _spinor_invert(_decode_8(inputs["z"], "z"), args)
        raise UsageError("input document carries neither a matrix nor "
                         "spinor coordinates")
    if args.B:
        return _spinor_forward(_decode_4x4(_load_json(args.B)), args)
    if args.invert:
        return _spinor_invert(_decode_8(_load_json(args.invert), "--invert"),
                              args)
    raise UsageError("spinor needs --B, --invert or --input")


def _spinor_forward(b, args):
    z = spinor_map(b)
    doc = {
        "verb": "spinor",
        "inputs": {"B": encode_matrix(b)},
        "z": [encode_scalar(c) for c in z.z],
        "e_coefficients": encode_multivector(z.multivector()),
        "isotropic": z.is_isotropic(),
    }
    _emit(doc, args)
    return 0


def _spinor_invert(zc, args):
    z = Spinor(zc)
    b = spinor_inverse(z)
    doc = {
        "verb": "spinor",
        "inputs": {"z": [encode_scalar(c) for c in z.z]},
        "B": encode_matrix(b),
        "roundtrip_z": [encode_scalar(c) for c in spinor_map(b).z],
    }
    _emit(doc, args)
    return 0


# -- verb: cayley ------------------------------------------------------------

def run_cayley(args):
    if args.input:
        inputs = _input_doc(args.input)
        if inputs.get("n") is not None:
            args.n = _int_input(inputs, "n")
            args.s = None
        elif inputs.get("s") is not None:
            args.s = json.dumps(inputs["s"])
            args.n = None
    if args.n is not None:
        s = standard_spinor(args.n)
        c = cayley_class(s)
        constant = cayley_constant(args.n)
        doc = {
            "verb": "cayley",
            "inputs": {"n": args.n},
            "s": [encode_scalar(x) for x in s.z],
            "cayley_class": encode_multivector(c),
            "closed_form": encode_multivector(explicit_cayley_formula(args.n)),
            "closed_form_constant": encode_scalar(constant),
        }
    elif args.s:
        s = Spinor(_decode_8(_load_json(args.s), "s"))
        c = cayley_class(s)
        doc = {
            "verb": "cayley",
            "inputs": {"s": [encode_scalar(x) for x in s.z]},
            "cayley_class": encode_multivector(c),
        }
    else:
        raise UsageError("cayley needs --n, --s or --input")
    _emit(doc, args)
    return 0


# -- verb: weil-family -------------------------------------------------------

def _h_s_seed(args):
    """The h and s vectors, the seed and the --input document's inputs
    (empty without --input) of weil-family and ks."""
    if args.input:
        inputs = _input_doc(args.input)
        return (_decode_8(inputs.get("h"), "h"),
                _decode_8(inputs.get("s"), "s"),
                _int_input(inputs, "seed", args.seed), inputs)
    h = _decode_8(_load_json(args.h), "--h") if args.h else STANDARD_H
    s = _decode_8(_load_json(args.s), "--s") if args.s else STANDARD_S
    return list(h), list(s), args.seed, {}


def run_weil(args):
    from .weil import (FIELD_SCAN_H, datum_report, field_parameters,
                       h2_split, make_weil_datum, weil_class_space)
    h, s, seed, inputs = _h_s_seed(args)
    scan = inputs.get("field_scan", False)
    if not isinstance(scan, bool):
        raise UsageError(f"input 'field_scan' must be a boolean, got "
                         f"{json.dumps(scan)}")
    if args.field_scan or scan:
        rows = []
        for hk in map(list, FIELD_SCAN_H):
            d, m, f = field_parameters(hk, s)
            datum = make_weil_datum(hk, s, seed=seed)
            rows.append({
                "h": encode_vector(hk)["coords"],
                "d": encode_scalar(d),
                "squarefree_part": -m,
                "discriminant_trivial": datum.disc_trivial,
            })
        doc = {"verb": "weil-family",
               "inputs": {"h": encode_vector(h)["coords"],
                          "s": encode_vector(s)["coords"],
                          "seed": seed, "field_scan": True},
               "fields": rows}
        _emit(doc, args)
        return 0
    datum = make_weil_datum(h, s, seed=seed)
    report = datum_report(datum)
    wcs = weil_class_space(datum)
    split = h2_split(h, s)
    doc = {
        "verb": "weil-family",
        "inputs": {"h": encode_vector(h)["coords"],
                   "s": encode_vector(s)["coords"], "seed": seed},
        "d": encode_scalar(datum.d),
        "field_squarefree_part": -datum.m,
        "period": {"p": encode_vector(list(datum.period.p))["coords"],
                   "q": encode_vector(list(datum.period.q))["coords"]},
        "J": encode_matrix(datum.j),
        "mu": encode_matrix(datum.mu),
        "E": encode_matrix(datum.e),
        "omega": encode_multivector(datum.omega),
        "Psi": encode_matrix(datum.psi),
        "discriminant": encode_scalar(datum.disc),
        "report": report,
        "weil_classes": {k: (encode_scalar(v) if isinstance(v, Fraction)
                             else v) for k, v in wcs.items()},
        "h2_split": {"profile": list(split["profile"]),
                     "weights_match": split["weights_match"]},
    }
    _emit(doc, args)
    failures = [k for k, v in report.items() if isinstance(v, bool) and not v]
    failures += [k for k, v in wcs.items() if isinstance(v, bool) and not v]
    return 1 if failures else 0


# -- verb: ks ----------------------------------------------------------------

def run_ks(args):
    from .kuga import ks_report
    from .weil import sample_period
    h, s, seed, _ = _h_s_seed(args)
    period = sample_period(h, s, seed=seed)
    report = ks_report(h, s, period)
    doc = {
        "verb": "ks",
        "inputs": {"h": encode_vector(h)["coords"],
                   "s": encode_vector(s)["coords"], "seed": seed},
        "report": {k: (encode_scalar(v) if isinstance(v, Fraction) else v)
                   for k, v in report.items()},
    }
    _emit(doc, args)
    failures = [k for k, v in report.items() if isinstance(v, bool) and not v]
    return 1 if failures else 0


# -- verb: invariants --------------------------------------------------------

def run_invariants(args):
    s1 = standard_spinor(2)
    stab_s, _ = stabilizer_algebra([s1])
    stab_hs, _ = stabilizer_algebra([STANDARD_H, STANDARD_S])
    profile = branching_dims(s1)
    sq, dim = moduli_dimension(3)
    doc = {
        "verb": "invariants",
        "inputs": {},
        "stabilizer_of_spinor_dim": len(stab_s),
        "stabilizer_of_pair_dim": len(stab_hs),
        "invariants_in_degree4": len(invariant_subspace(stab_s, "Wedge4V")),
        "invariants_in_degree2_of_pair": len(
            invariant_subspace(stab_hs, "Wedge2V")),
        "branching_profile": profile,
        "star_eigenvalue_of_veronese_image": gamma2alpha_star_sign(),
        "mukai_example": {"n": 3, "square": encode_scalar(sq),
                          "moduli_dim": encode_scalar(dim)},
    }
    _emit(doc, args)
    return 0


# -- verb: verify ------------------------------------------------------------

def run_verify(args):
    from . import verify as verify_mod
    if args.suite and args.suite not in verify_mod.suites():
        raise UsageError(f"unknown suite {args.suite!r}; available: "
                         f"{', '.join(verify_mod.suites())}")
    results = verify_mod.run_checks(suite=args.suite, seed=args.seed)
    if args.json:
        print(json.dumps({"verb": "verify", "seed": args.seed,
                          "results": results}, indent=2, sort_keys=True))
    else:
        width = max(len(r["name"]) for r in results)
        for r in results:
            flag = "PASS" if r["passed"] else "FAIL"
            print(f"[{flag}] {r['name']:<{width}}  ({r['suite']})  "
                  f"{r['identity']}")
            if not r["passed"]:
                print(f"       -> {r['detail']}")
        passed = sum(r["passed"] for r in results)
        print(f"{passed}/{len(results)} checks passed")
    return 0 if all(r["passed"] for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinweil",
        description="Exact spinor-map and Weil-fourfold computations")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized work (default fixed)")
    common.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON document")
    common.add_argument("--input", metavar="PATH",
                        help="read inputs from a previously emitted document")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("spinor", parents=[common],
                       help="spinor coordinates of an alternating matrix")
    p.add_argument("--B", help="alternating 4x4 matrix as JSON")
    p.add_argument("--invert", help="isotropic z-coordinates as JSON")
    p.set_defaults(fn=run_spinor)

    p = sub.add_parser("cayley", parents=[common],
                       help="the degree-4 class of a spinor")
    p.add_argument("--n", type=int, help="use the spinor 1 - n e_*")
    p.add_argument("--s", help="spinor z-coordinates as JSON")
    p.set_defaults(fn=run_cayley)

    p = sub.add_parser("weil-family", parents=[common],
                       help="assemble and verify one Weil-type fourfold")
    p.add_argument("--h", help="h vector as JSON (default standard)")
    p.add_argument("--s", help="s vector as JSON (default standard)")
    p.add_argument("--field-scan", action="store_true",
                   help="sweep h choices over the field list")
    p.set_defaults(fn=run_weil)

    p = sub.add_parser("ks", parents=[common],
                       help="Kuga-Satake summary for a choice of h, s")
    p.add_argument("--h", help="h vector as JSON (default standard)")
    p.add_argument("--s", help="s vector as JSON (default standard)")
    p.set_defaults(fn=run_ks)

    p = sub.add_parser("invariants", parents=[common],
                       help="representation-theoretic dimension bookkeeping")
    p.set_defaults(fn=run_invariants)

    p = sub.add_parser("verify", parents=[common],
                       help="run the named identity checks")
    p.add_argument("--suite", help="restrict to one suite")
    p.set_defaults(fn=run_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
