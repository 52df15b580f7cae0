"""Field files: an exact rational field as JSON, read against a strict schema.

A field file names its flow's wavenumbers `m`, `n`, a free-text
`description` and a `modes` list; `read_field_file` rejects any departure
from the schema with a ValueError.  The module imports no numpy.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Tuple

from .trigpoly import COS, SIN, KolmogorovFlow, TrigPoly, canonicalize


def write_field_file(path: str, flow: KolmogorovFlow, field: TrigPoly,
                     description: str) -> None:
    """The bytes of `json.dump(..., indent=2)` and a newline, formatted directly:
    the description goes through `json.dumps`, and the rest is integers,
    parities and rationals "p/q", none of which JSON escapes."""
    modes = ",\n".join(f'    {{\n      "parity": "{mode.parity}",\n      "j": {mode.j},\n'
                       f'      "k": {mode.k},\n      "value": "{value}"\n    }}'
                       for mode, value in sorted(field.terms.items()))
    modes = f"[\n{modes}\n  ]" if modes else "[]"
    with open(path, "w") as fh:
        fh.write(f'{{\n  "m": {flow.m},\n  "n": {flow.n},\n  "description": '
                 f'{json.dumps(description)},\n  "modes": {modes}\n}}\n')


def _member(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValueError(f"field file: {where} has no {key!r}")
    return obj[key]


def _integer(obj: dict, key: str, where: str) -> int:
    value = _member(obj, key, where)
    if type(value) is not int:  # JSON true/false load as bool, an int subclass
        raise ValueError(f"field file: {where} {key!r} must be an integer, got {value!r}")
    return value


_MAX_EXPONENT = 4300  # CPython's default digit limit for int strings


def _rational(value) -> Fraction:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        # Fraction("1e1000000") would build 10**1000000: bound the exponent
        exponent = re.search(r"[eE][-+]?([\d_]+)\s*$", str(value))
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"field file: value {value!r} has a decimal exponent "
                             f"beyond {_MAX_EXPONENT} in magnitude")
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"field file: value {value!r} is not a finite rational")


def read_field_file(path: str) -> Tuple[KolmogorovFlow, TrigPoly, str]:
    """Read a field file; any departure from the schema raises ValueError.

    The top level is an object with integers `m`, `n` and a `modes` list;
    each mode is an object with `parity` "cos" or "sin", integers `j`, `k`
    and a `value` that is a finite rational ("p/q" string, int or float).
    Entries fold (j, k) and (-j, -k) onto one mode; a mode twice, or sin(0,0), is rejected,
    and so is a field whose values' common denominator exceeds 10**_MAX_EXPONENT.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("field file: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("field file: top level must be a JSON object")
    flow = KolmogorovFlow(_integer(doc, "m", "top level"), _integer(doc, "n", "top level"))
    entries = _member(doc, "modes", "top level")
    if not isinstance(entries, list):
        raise ValueError("field file: 'modes' must be a list")
    terms = {}
    for i, entry in enumerate(entries):
        where = f"mode {i}"
        if not isinstance(entry, dict):
            raise ValueError(f"field file: {where} must be a JSON object")
        parity = _member(entry, "parity", where)
        if parity not in (COS, SIN):
            raise ValueError(f"field file: {where} parity must be 'cos' or 'sin', "
                             f"got {parity!r}")
        mode, sign = canonicalize(parity, _integer(entry, "j", where), _integer(entry, "k", where))
        if mode is None:
            raise ValueError(f"field file: {where} is sin(0x+0y), the zero function")
        if mode in terms:
            raise ValueError(f"field file: {where} repeats the mode of an earlier entry")
        terms[mode] = sign * _rational(_member(entry, "value", where))
    common, bound = 1, 10 ** _MAX_EXPONENT  # the denominator every operation carries
    for value in terms.values():  # a running lcm, refused as soon as it passes the bound
        common = math.lcm(common, value.denominator)
        if common > bound:
            raise ValueError(f"field file: values' common denominator exceeds 10**{_MAX_EXPONENT}")
    return flow, TrigPoly(terms), doc.get("description", "")
