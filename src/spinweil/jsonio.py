"""JSON encoding of the scalar tower, vectors, matrices and exterior forms.

to_json is the one encoder of a whole document: the CLI builds its
documents from raw values and encodes each once through it, and to_text
is its JSON text, which failure messages use to name their inputs.

Wire formats:
  rational      "p/q" (or "p")
  quadratic     {"a": "p/q", "b": "p/q", "m": int}
  tower         {"c": ["p/q", "p/q", "p/q", "p/q"], "m": int}
  vector        [scalar]
  matrix        [[scalar]]
  multivector   [{"indices": [int, 1-based], "coeff": scalar}]
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import MappingProxyType

from .multivector import Multivector, indices_of, mask_of
from .scalars import QuadExt, TowerScalar, rat


def encode_scalar(x):
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else str(x)
    if isinstance(x, QuadExt):
        return {"a": encode_scalar(x.a), "b": encode_scalar(x.b), "m": x.m}
    if isinstance(x, TowerScalar):
        return {"c": [encode_scalar(c) for c in x.c], "m": x.m}
    raise TypeError(f"cannot encode scalar {x!r}")


def decode_scalar(obj):
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return rat(obj if isinstance(obj, str) else int(obj))
    if isinstance(obj, dict) and "c" in obj:
        return TowerScalar(*(decode_scalar(c) for c in obj["c"]),
                           m=int(obj["m"]))
    if isinstance(obj, dict) and "a" in obj:
        return QuadExt(decode_scalar(obj["a"]), decode_scalar(obj["b"]),
                       int(obj["m"]))
    raise ValueError(f"cannot decode scalar from {obj!r}")


def decode_vector(obj):
    if not isinstance(obj, list):
        raise ValueError(f"a vector is a list of scalars, got {obj!r}")
    return [decode_scalar(c) for c in obj]


def decode_matrix(obj):
    return [[decode_scalar(x) for x in row] for row in obj]


def encode_multivector(x: Multivector):
    out = []
    for mask in sorted(x.terms):
        out.append({"indices": [i + 1 for i in indices_of(mask)],
                    "coeff": encode_scalar(x.terms[mask])})
    return out


def decode_multivector(obj, n):
    """The multivector of the items, each a blade whose indices increase
    strictly within 1..n, once, as encode_multivector writes them."""
    terms = {}
    for item in obj:
        idx = item["indices"]
        if not all(a < b for a, b in zip([0, *idx], [*idx, n + 1])):
            raise ValueError(f"blade indices must increase strictly within "
                             f"1..{n}: {item!r}")
        mask = mask_of(i - 1 for i in idx)
        if mask in terms:
            raise ValueError(f"blade given twice: {item!r}")
        terms[mask] = decode_scalar(item["coeff"])
    return Multivector(n, terms)


def to_json(x):
    """x as a JSON value: dicts (the terms of an element among them),
    lists and tuples entry by entry, bool, int and str unchanged (an int
    stays a number), a Multivector through encode_multivector and any
    other scalar through encode_scalar."""
    if isinstance(x, (dict, MappingProxyType)):
        return {k: to_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_json(v) for v in x]
    if isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Multivector):
        return encode_multivector(x)
    return encode_scalar(x)


def to_text(x):
    """x as JSON text through to_json: spinor coordinates as the list that
    cayley --s reads."""
    return json.dumps(to_json(x))
