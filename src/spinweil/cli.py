"""Command-line surface: computation verbs and the verification runner.

Verbs: spinor, cayley, weil-family, ks, invariants, verify.  All
randomized work takes an explicit seed (fixed default) so runs are
reproducible; `--json` switches to one machine-readable document per
invocation.

Input rule of the five computation verbs (all but verify; _inputs): with
--input, the inputs are the document's "inputs" object (or the document
itself) and every flag but --json is ignored; without it, they are the
flags that are set, JSON text parsed.  The keys are B and z (--invert) of
spinor, n and s of cayley, and h, s, seed and field_scan of weil-family
and ks.  A missing h or s is the standard one, a missing seed 20240 and a
missing field_scan false; a present key, null included, must decode.

Exit codes (this is the one place they are listed):
  0  success
  1  verification failure: some boolean in a computation verb's document
     is false (the exit rule, _emit), a verify check failed, or the input
     decodes but is mathematically invalid (say, a non-isotropic z)
  2  usage error: bad or missing arguments, unreadable or malformed JSON,
     or an input, named by its key, that does not decode: values that are
     not scalars, vectors or matrices (a JSON boolean is no scalar, nor is
     "p/0"), a z, h or s without exactly eight coordinates, a B that is
     not a 4x4 matrix, a non-integer n or seed, a non-boolean field_scan,
     or an --input document (or its inputs) that is not a JSON object
A reader that closes early (`| head`) changes none of them: main writes
the verb's buffered output once and drops the rest, with no traceback.

verify, weil and kuga are imported inside run_verify, run_weil and run_ks,
the only verbs that use them.  A process that does not write bytecode
compiles every module it imports, and the three are about a third of the
package's source: a cold cayley, spinor or invariants call would compile
them for code it never runs.

The parser is built once per process, on the first main call (not at
import), and every later call parses with it: building the six verbs'
subparsers takes about 1.2 ms and parsing 0.04 ms, so a process that
runs many verbs pays for the build once.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from functools import lru_cache

from .jsonio import decode_matrix, decode_vector, to_json
from .lattices import moduli_dimension
from .reps import (_branching_profile, cayley_class, cayley_constant,
                   explicit_cayley_formula, gamma2alpha_star_sign,
                   invariant_subspace, stabilizer_algebra, standard_spinor)
from .spingeo import (STANDARD_H, STANDARD_S, Spinor, spinor_inverse,
                      spinor_map)

DEFAULT_SEED = 20240


class UsageError(Exception):
    pass


def _inputs(args, names):
    """The inputs among `names` as JSON values, by the input rule of the
    module docstring."""
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (ValueError, OSError) as exc:
            raise UsageError(f"malformed JSON input: {exc}")
        inputs = doc.get("inputs", doc) if isinstance(doc, dict) else doc
        if not isinstance(inputs, dict):
            raise UsageError("an --input document and its inputs must be "
                             "JSON objects")
        return {key: inputs[key] for key in names if key in inputs}
    inputs = {}
    for key in names:
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except ValueError as exc:
                raise UsageError(f"malformed JSON input {key!r}: {exc}")
        inputs[key] = value
    return inputs


def _eight(obj, key):
    """A vector of eight coordinates (a spinor z, h or s)."""
    v = decode_vector(obj)
    if len(v) != 8:
        raise UsageError(f"{key} needs eight coordinates, got {len(v)}")
    return v


def _four_by_four(obj, key):
    """The matrix B of the spinor verb: four rows of four."""
    b = decode_matrix(obj)
    if len(b) != 4 or any(len(row) != 4 for row in b):
        raise UsageError(f"{key} needs four rows of four entries, got rows "
                         f"of lengths {[len(row) for row in b]}")
    return b


def _of_type(kind, noun):
    def check(obj, key):
        if type(obj) is not kind:
            raise UsageError(f"input {key!r} must be {noun}, got "
                             f"{json.dumps(obj)}")
        return obj
    return check


_DECODERS = {"B": _four_by_four, "z": _eight, "h": _eight, "s": _eight,
             "n": _of_type(int, "an integer"),
             "seed": _of_type(int, "an integer"),
             "field_scan": _of_type(bool, "a boolean")}
_DEFAULTS = {"h": STANDARD_H, "s": STANDARD_S, "seed": DEFAULT_SEED,
             "field_scan": False}


def _value(inputs, key):
    """Input `key` decoded, or its default when it is absent."""
    if key not in inputs:
        return _DEFAULTS[key]
    try:
        return _DECODERS[key](inputs[key], key)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed JSON input {key!r}: "
                         f"{type(exc).__name__}: {exc}")


def _emit(doc, args):
    """Print the document, encoded once by to_json; the exit code is 1
    exactly when some boolean in it is false."""
    doc = to_json(doc)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _pretty(doc)
    return 1 if _holds_false(doc) else 0


def _holds_false(x):
    if isinstance(x, dict):
        x = list(x.values())
    return any(map(_holds_false, x)) if isinstance(x, list) else x is False


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
    inputs = _inputs(args, ("B", "z"))
    if "B" in inputs:
        b = _value(inputs, "B")
        z = spinor_map(b)
        doc = {"verb": "spinor", "inputs": {"B": b}, "z": z.z,
               "e_coefficients": z.multivector(),
               "isotropic": z.is_isotropic()}
    elif "z" in inputs:
        z = Spinor(_value(inputs, "z"))
        b = spinor_inverse(z)
        doc = {"verb": "spinor", "inputs": {"z": z.z}, "B": b,
               "roundtrip_z": spinor_map(b).z}
    else:
        raise UsageError("spinor needs B (--B) or z (--invert)")
    return _emit(doc, args)


# -- verb: cayley ------------------------------------------------------------

def run_cayley(args):
    inputs = _inputs(args, ("n", "s"))
    if "n" in inputs:
        n = _value(inputs, "n")
        s = standard_spinor(n)
        doc = {"verb": "cayley", "inputs": {"n": n}, "s": s.z,
               "cayley_class": cayley_class(s),
               "closed_form": explicit_cayley_formula(n),
               "closed_form_constant": cayley_constant(n)}
    elif "s" in inputs:
        s = Spinor(_value(inputs, "s"))
        doc = {"verb": "cayley", "inputs": {"s": s.z},
               "cayley_class": cayley_class(s)}
    else:
        raise UsageError("cayley needs n (--n) or s (--s)")
    return _emit(doc, args)


# -- verbs: weil-family and ks -----------------------------------------------

def _plane(inputs):
    """h and s as Spinors, and the seed, of weil-family and ks."""
    return (Spinor(_value(inputs, "h")), Spinor(_value(inputs, "s")),
            _value(inputs, "seed"))


def run_weil(args):
    from .weil import (FIELD_SCAN_H, datum_report, h2_split, make_weil_datum,
                       weil_class_space)
    inputs = _inputs(args, ("h", "s", "seed", "field_scan"))
    h, s, seed = _plane(inputs)
    echo = {"h": h.z, "s": s.z, "seed": seed}
    if _value(inputs, "field_scan"):
        rows = []
        for hk in FIELD_SCAN_H:
            datum = make_weil_datum(hk, s, seed=seed)
            rows.append({"h": datum.h.z, "d": datum.d,
                         "squarefree_part": -datum.m,
                         "discriminant_trivial": datum.disc_trivial})
        doc = {"verb": "weil-family", "inputs": dict(echo, field_scan=True),
               "fields": rows}
    else:
        datum = make_weil_datum(h, s, seed=seed)
        doc = {"verb": "weil-family", "inputs": echo, "d": datum.d,
               "field_squarefree_part": -datum.m,
               "period": {"p": datum.period.p, "q": datum.period.q},
               "J": datum.j, "mu": datum.mu, "E": datum.e,
               "omega": datum.omega, "Psi": datum.psi,
               "discriminant": datum.disc, "report": datum_report(datum),
               "weil_classes": weil_class_space(datum),
               "h2_split": h2_split(datum)}
    return _emit(doc, args)


def run_ks(args):
    from .kuga import ks_report
    from .weil import make_weil_datum
    h, s, seed = _plane(_inputs(args, ("h", "s", "seed")))
    doc = {"verb": "ks", "inputs": {"h": h.z, "s": s.z, "seed": seed},
           "report": ks_report(make_weil_datum(h, s, seed=seed))}
    return _emit(doc, args)


# -- verb: invariants --------------------------------------------------------

def run_invariants(args):
    _inputs(args, ())
    s1 = standard_spinor(2)
    stab_s = stabilizer_algebra([s1])
    stab_hs = stabilizer_algebra([STANDARD_H, STANDARD_S])
    sq, dim = moduli_dimension(3)
    profile = _branching_profile(s1, stab_s)
    doc = {
        "verb": "invariants",
        "inputs": {},
        "stabilizer_of_spinor_dim": len(stab_s),
        "stabilizer_of_pair_dim": len(stab_hs),
        "invariants_in_degree4": profile["invariants"],
        "invariants_in_degree2_of_pair": len(
            invariant_subspace(stab_hs, "Wedge2V")),
        "branching_profile": profile,
        "star_eigenvalue_of_veronese_image": gamma2alpha_star_sign(),
        "mukai_example": {"n": 3, "square": sq, "moduli_dim": dim},
    }
    return _emit(doc, args)


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


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser of every verb, built on the first call and
    shared by every later one (see the module docstring)."""
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
    p.add_argument("--invert", dest="z",
                   help="isotropic z-coordinates as JSON")
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
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    try:
        print(out.getvalue(), end="", flush=True)
    except BrokenPipeError:  # the signal module docs' recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
