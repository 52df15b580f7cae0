"""The numerical route end to end, and the field files around it.

`run_minimize` proposes a minimizer on a Fourier window and certifies it
exactly, into one `MinimizeResult`; `run_sweep` runs it over wavenumber
pairs, one record or error per run.  Field files carry an exact
rational field as JSON and are read against a strict schema.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .eigensolve import ConvergenceError, EigenPair
from .spectral import CertificationError, SpectralWindow, certify_candidate, window_minimum
from .trigpoly import COS, SIN, KolmogorovFlow, Mode, TrigPoly, canonicalize

# ------------------------------------------------------------ minimize

@dataclass
class MinimizeResult:
    """One certified minimization: the lowest eigenpair over a window's
    bracket chains, its minimizer, and the exact index q = MI/pi^2 of the
    rationalized minimizer `field`.  q < 0 certifies a conjugate point."""

    flow: KolmogorovFlow
    subspace: str
    p: int
    N: int
    eigen: EigenPair
    coeffs: np.ndarray    # the minimizer over the window's modes, largest magnitude 1
    dominant_mode: Mode   # the mode of the largest coefficient
    field: TrigPoly       # `coeffs` rationalized
    q: Fraction
    blocks: int           # bracket chains the window splits into
    block_dim_max: int    # modes in the largest chain
    block_mode: Mode      # first mode of the chain that holds the minimum


def _check_options(p: int, N: int) -> None:
    """Reject options that no window can use, before any window is built:
    a p that passes leaves every weight D^{-p/2} a normal double.  The
    common denominator is the constant `spectral.MAX_DENOMINATOR`."""
    if p < 0:
        raise ValueError("Sobolev order must be >= 0")
    if N < 1:
        raise ValueError("window order must be >= 1")
    # the window's smallest weight D^{-p/2} = (2N^2)^(-p/2), at j = k = N,
    # must not underflow; compared in logarithms, which take any int
    if p > -2 * math.log(sys.float_info.min) / math.log(2 * N * N):
        raise ValueError(f"Sobolev order {p} underflows the window's smallest weight "
                         f"(2N^2)^(-p/2) at N={N}")


def _result(flow: KolmogorovFlow, window: SpectralWindow, p: int, found) -> MinimizeResult:
    """The certified result of one flow's `window_minimum` entry; raises the entry's error."""
    if isinstance(found, Exception):
        raise found
    pair, coeffs, blocks, largest, first = found
    field, q = certify_candidate(window, coeffs, flow)
    dominant, block_mode = window.modes_at([int(np.argmax(np.abs(coeffs))), first])
    return MinimizeResult(flow, window.subspace, p, window.N, pair, coeffs, dominant, field, q,
                          blocks, largest, block_mode)


def run_minimize(flow: KolmogorovFlow, p: int = 3, N: Optional[int] = None,
                 subspace: str = COS, constraints: Sequence[Mode] = ()) -> MinimizeResult:
    """Lowest eigenpair over the window's bracket chains, certified exactly."""
    if N is None:
        N = 2 * max(flow.m, flow.n) + 4
    _check_options(p, N)
    window = SpectralWindow(N, subspace)
    [found] = window_minimum([flow], window, p, constraints)
    return _result(flow, window, p, found)


def run_sweep(mmax: int, p: int = 3, N: int = 12
              ) -> List[Tuple[KolmogorovFlow, str, Union[MinimizeResult, Exception]]]:
    """One (flow, subspace, outcome) per minimization run over the pairs
    1 <= n <= m <= mmax: cosine subspace first, sine as fallback.

    The outcome is the run's `MinimizeResult`, or the certification,
    convergence or value error that ended it.  One scan of the cosine
    window minimizes every pair, and one scan of the sine window the pairs
    it leaves without a certified q < 0.  Runs come by pair, the cosine
    run first.
    """
    # bad options fail every run alike: reject them before the first
    _check_options(p, N)
    if mmax < 1:
        raise ValueError("sweep bound mmax must be >= 1")
    runs = []
    flows = [KolmogorovFlow(m, n) for m in range(1, mmax + 1)
             for n in range(1, m + 1)]
    for subspace in (COS, SIN):
        window = SpectralWindow(N, subspace)
        undetected = []
        for flow, found in zip(flows, window_minimum(flows, window, p)):
            try:
                outcome = _result(flow, window, p, found)
            except (CertificationError, ConvergenceError, ValueError) as exc:
                # without its traceback, a kept error holds none of the scan's frames
                outcome = exc.with_traceback(None)
            runs.append((flow, subspace, outcome))
            if isinstance(outcome, Exception) or outcome.q >= 0:
                undetected.append(flow)
        flows = undetected
    # stable: each pair's cosine run stays before its sine run
    return sorted(runs, key=lambda run: (run[0].m, run[0].n))


# ------------------------------------------------------------ field files

def write_field_file(path: str, flow: KolmogorovFlow, field: TrigPoly,
                     description: str) -> None:
    modes = [{"parity": mode.parity, "j": mode.j, "k": mode.k, "value": str(field.terms[mode])}
             for mode in sorted(field.terms)]
    with open(path, "w") as fh:
        json.dump({"m": flow.m, "n": flow.n, "description": description, "modes": modes},
                  fh, indent=2)
        fh.write("\n")


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
    Entries fold (j, k) and (-j, -k) onto one mode; a mode twice, or sin(0,0), is rejected.
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
    return flow, TrigPoly(terms), doc.get("description", "")

