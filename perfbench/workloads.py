"""Inputs and output checks of the two benchmark workloads.

Every input is made from the workload seed alone, so a seed names its
inputs.  A workload is a stream of units; a unit is a list of CLI calls that
the run finishes once started (the time limit is checked between units).

cayley   one non-isotropic spinor, then ISO_PER_NONISO isotropic ones.
         Non-isotropic ("noniso") spinors have NONISO_NONZERO nonzero
         integer coordinates of absolute value at most NONISO_HEIGHT; the
         verb runs route A and the route-B stabilizer cross-check (a
         1470 x 70 rational nullspace).  Isotropic ("iso") spinors are
         spinor_map(B) for B alternating with entries in [-3, 3]; they take
         route A only.  All spinors of a stream are distinct, so the
         route-B cache of the verb never hits.
verify   the whole registry once, as one ``verify --suite <suite> --seed
         <seed> --json`` call per suite in registry order.  The calls run
         the checks of one full pass in the same order, and the machine's
         speed can be gauged between them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from spinweil import jsonio, verify
from spinweil.multivector import (DEGREE4_MASKS, coords_degree, pluecker,
                                  star_matrix)
from spinweil.linalg import mat_vec
from spinweil.reps import gamma2alpha_star_sign
from spinweil.spingeo import Spinor, graph_basis, random_alternating, spinor_map

WORKLOADS = ("cayley", "verify")

NONISO_HEIGHT = 3
NONISO_NONZERO = 3
ISO_PER_NONISO = 10
SMOKE_SUITE = "lattices"


@dataclass
class Item:
    kind: str
    argv: list
    z: list = None        # spinor coordinates (cayley)
    b: list = None        # alternating matrix behind an iso spinor
    check_count: int = 0  # registry checks a verify call runs


def _spinor_argv(z):
    return ["cayley", "--s", json.dumps([str(c) for c in z]), "--json"]


def noniso_spinor(rng):
    """Integer coordinates, NONISO_NONZERO of them nonzero, (z, z) != 0."""
    values = [v for v in range(-NONISO_HEIGHT, NONISO_HEIGHT + 1) if v]
    while True:
        z = [0] * 8
        for i in rng.sample(range(8), NONISO_NONZERO):
            z[i] = rng.choice(values)
        if not Spinor(z).is_isotropic():
            return [Fraction(c) for c in z]


def iso_spinor(rng):
    """spinor_map(B) and B, for B alternating with entries in [-3, 3]."""
    b = random_alternating(rng)
    return spinor_map(b).z, b


def cayley_units(seed):
    rng = random.Random(seed)
    seen = set()

    def fresh(make):
        while True:
            z, b = make()
            if tuple(z) not in seen:
                seen.add(tuple(z))
                return z, b

    while True:
        z, _ = fresh(lambda: (noniso_spinor(rng), None))
        unit = [Item("noniso", _spinor_argv(z), z=z)]
        for _ in range(ISO_PER_NONISO):
            z, b = fresh(lambda: iso_spinor(rng))
            unit.append(Item("iso", _spinor_argv(z), z=z, b=b))
        yield unit


def verify_units(seed, smoke=False):
    suites = list(dict.fromkeys(c.suite for c in verify.CHECKS))
    if smoke:
        suites = [SMOKE_SUITE]
    yield [Item("verify", ["verify", "--seed", str(seed), "--suite", suite,
                           "--json"],
                check_count=sum(c.suite == suite for c in verify.CHECKS))
           for suite in suites]


def units(workload, seed, smoke=False):
    if workload == "cayley":
        return cayley_units(seed)
    if workload == "verify":
        return verify_units(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks -----------------------------------------------------------

class Outcome(NamedTuple):
    attempted: int
    failed: int
    reason: str = None
    consistent: bool = True   # the output was well formed


def check(item, rc, out):
    """The Outcome of one finished CLI call.

    rc is the exit code, or the traceback text when the call raised.
    """
    if isinstance(rc, str):
        n = item.check_count or 1
        return Outcome(n, n, f"{item.kind} {item.argv[2]}: raised {rc}")
    if item.kind == "verify":
        return _check_verify(item, rc, out)
    if rc != 0:
        return Outcome(1, 1, f"{item.kind} {item.argv[2]}: exit code {rc}")
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return Outcome(1, 1, f"{item.kind}: output is not JSON ({exc})",
                       False)
    reason = {"noniso": _check_noniso, "iso": _check_iso}[item.kind](item, doc)
    return Outcome(1, int(reason is not None), reason)


def _class_coords(doc):
    return coords_degree(jsonio.decode_multivector(doc["cayley_class"], 8),
                         DEGREE4_MASKS)


def _check_iso(item, doc):
    expect = coords_degree(pluecker(graph_basis(item.b)), DEGREE4_MASKS)
    if _class_coords(doc) != expect:
        return f"iso: class of {item.argv[2]} differs from the Pluecker image"
    return None


def _check_noniso(item, doc):
    coords = _class_coords(doc)
    sign = gamma2alpha_star_sign()
    if not any(coords) or mat_vec(star_matrix(), coords) != [
            sign * c for c in coords]:
        return (f"noniso: class of {item.argv[2]} is not in the star "
                f"eigenspace {sign}")
    return None


def _check_verify(item, rc, out):
    """Each registry check is one operation; a failing check is a failure.

    The report itself must be complete and consistent: every check of the
    suite in registry order, and exit code 1 exactly when one failed.
    """
    try:
        results = json.loads(out)["results"]
    except (json.JSONDecodeError, KeyError) as exc:
        return Outcome(item.check_count, item.check_count,
                       f"verify: malformed report ({exc})", False)
    suite = item.argv[item.argv.index("--suite") + 1]
    expected = [c.name for c in verify.CHECKS if c.suite == suite]
    failing = [r["name"] for r in results if not r["passed"]]
    consistent = ([r["name"] for r in results] == expected
                  and rc == (1 if failing else 0))
    reason = None
    if failing:
        reason = f"verify --seed {item.argv[2]} failing: {', '.join(failing)}"
    if not consistent:
        reason = f"verify: inconsistent report (exit code {rc})"
    return Outcome(item.check_count, len(failing), reason, consistent)
