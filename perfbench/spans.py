"""Span tracer for the per-layer split of the benchmark.

The tracer wraps public spinweil functions from outside the package: each
name is replaced in every spinweil module namespace that holds it, and each
method on its class (aliases such as ``__rmul__ = __mul__`` included).  A
span records one call; per traced name the tracer keeps the call count and
the inclusive time of the outermost calls, and per module the self time,
which is span time minus the time covered by child spans.

Nothing here is imported by spinweil itself, so the package stays unchanged
and an untraced run pays nothing.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict

#: traced functions per spinweil module; ``Cls.meth`` names a method.
#: Functions that neither workload calls (det_int, solve_matrix,
#: so_to_spin, hodge_star, weil_class_space, h2_split, encode_matrix and
#: the other ks_* checks) are left out: their metrics would always be 0.
LAYERS = {
    "linalg": ("mat_mul", "mat_vec", "rref", "rank", "nullspace", "solve",
               "inverse", "det"),
    "scalars": ("QuadExt.__mul__", "QuadExt.inverse", "TowerScalar.__mul__",
                "TowerScalar.inverse"),
    "clifford": ("CliffordElement.__mul__", "sigma_action",
                 "twisted_conjugation", "spin_so_iso"),
    "multivector": ("wedge", "pluecker", "derive_multivector", "star_matrix"),
    "spingeo": ("spinor_map", "spinor_inverse", "subspace_of_spinor",
                "graph_basis"),
    "reps": ("cayley_class", "derived_action", "stabilizer_algebra",
             "invariant_subspace", "phi_matrix", "quadric_square_span"),
    "weil": ("sample_period", "make_weil_datum", "datum_report"),
    "kuga": ("ks_complex_structure", "ks_right_commutation"),
    "jsonio": ("encode_scalar", "encode_multivector"),
    "cli": ("main",),
}

#: linalg calls split out by the shape of their first matrix argument
SHAPE_SPLITS = {("mat_mul", (32, 32)), ("mat_mul", (70, 70)),
                ("nullspace", (1470, 70))}

#: suites of the verify registry, in registry order
VERIFY_SUITES = ("scalars", "lattices", "exterior", "clifford", "spinor",
                 "reps", "weil", "kuga", "mukai")

MODULES = tuple(LAYERS) + ("verify",)

#: traced-run summary metrics: (name, unit, better)
SUMMARY = (("trace.items_per_s", "1/s", "higher"),
           ("trace.heavy_mean_s", "s", "lower"),
           ("trace.self_coverage", "ratio", "higher"))


def metric_specs():
    """Every per-layer metric as (name, unit, better), in a fixed order."""
    specs = []
    for module, names in LAYERS.items():
        for name in names:
            specs.append((f"{module}.{name}.s", "s", "lower"))
            specs.append((f"{module}.{name}.calls", "count", "lower"))
    for fn, (rows, cols) in sorted(SHAPE_SPLITS):
        specs.append((f"linalg.{fn}.{rows}x{cols}.s", "s", "lower"))
        specs.append((f"linalg.{fn}.{rows}x{cols}.calls", "count", "lower"))
    specs.append(("linalg.q.s", "s", "lower"))
    specs.append(("linalg.ext.s", "s", "lower"))
    for module in MODULES:
        specs.append((f"{module}.self_s", "s", "lower"))
    for suite in VERIFY_SUITES:
        specs.append((f"verify.{suite}.s", "s", "lower"))
    specs.extend(SUMMARY)
    return specs


class Tracer:
    """In-memory spans: call counts, inclusive and self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.inclusive = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._stack = []       # open spans as [module, child seconds]
        self._depth = defaultdict(int)

    def wrap(self, module, key, fn, classify=None):
        """A traced stand-in for fn, recorded under key and module.

        classify(args, outermost) may name extra keys that the call is
        also counted under; outermost tells whether no other span of the
        same module is open.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, depth = tracer._stack, tracer._depth
            extra = (classify(args, depth[module] == 0) if classify else ())
            frame = [module, 0.0]
            stack.append(frame)
            depth[key] += 1
            depth[module] += 1
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - start
                stack.pop()
                depth[key] -= 1
                depth[module] -= 1
                tracer.calls[key] += 1
                if depth[key] == 0:
                    tracer.inclusive[key] += elapsed
                for k in extra:
                    tracer.calls[k] += 1
                    tracer.inclusive[k] += elapsed
                tracer.self_s[module] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced


def _linalg_classifier(fn_name):
    from spinweil.scalars import QuadExt, TowerScalar
    ext_types = (QuadExt, TowerScalar)

    def has_ext(arg):
        for row in arg:
            if isinstance(row, list):
                if any(isinstance(x, ext_types) for x in row):
                    return True
            elif isinstance(row, ext_types):
                return True
        return False

    def classify(args, outermost):
        keys = []
        a = args[0] if args else None
        if isinstance(a, list) and a and isinstance(a[0], list):
            split = (fn_name, (len(a), len(a[0])))
            if split in SHAPE_SPLITS:
                keys.append(f"linalg.{fn_name}.{len(a)}x{len(a[0])}")
        if outermost:
            ext = any(isinstance(x, list) and has_ext(x) for x in args)
            keys.append("linalg.ext" if ext else "linalg.q")
        return keys

    return classify


def _replace_everywhere(original, replacement):
    """Point every spinweil module attribute bound to original at the
    replacement."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "spinweil"
                               or mod_name.startswith("spinweil.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap every traced spinweil name and the verify suite checks."""
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"spinweil.{module}")
        for name in names:
            key = f"{module}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                traced = tracer.wrap(module, key, original)
                for attr, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, attr, traced)
                continue
            original = getattr(mod, name)
            classify = _linalg_classifier(name) if module == "linalg" else None
            _replace_everywhere(original,
                                tracer.wrap(module, key, original, classify))
    verify = importlib.import_module("spinweil.verify")
    for i, check in enumerate(verify.CHECKS):
        verify.CHECKS[i] = dataclasses.replace(
            check, fn=tracer.wrap("verify", f"verify.{check.suite}", check.fn))


def layer_metrics(tracer):
    """Per-layer values for every metric_specs() name except the summary."""
    out = {}
    summary = {name for name, _, _ in SUMMARY}
    for name, _, _ in metric_specs():
        if name in summary:
            continue
        if name.endswith(".self_s"):
            out[name] = tracer.self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = tracer.calls.get(name[:-len(".calls")], 0)
        else:
            out[name] = tracer.inclusive.get(name[:-len(".s")], 0.0)
    return out
