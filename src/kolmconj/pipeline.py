"""The numerical route end to end, and the field and grid files around it.

`run_minimize` proposes a minimizer on a Fourier window and certifies it
exactly; `run_sweep` runs it over wavenumber pairs.  Field files carry an
exact rational field as JSON and are read against a strict schema; grid
files sample a field on the uniform grid of the torus as CSV.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .eigensolve import ConvergenceError, EigenPair, check_tol
from .spectral import (CertificationError, CertifiedResult, CoeffVector,
                       SpectralWindow, certify_candidate, minimizer_coefficients,
                       window_minimum)
from .trigpoly import COS, SIN, KolmogorovFlow, Mode, TrigPoly

# ------------------------------------------------------------ minimize

@dataclass
class MinimizeResult:
    flow: KolmogorovFlow
    subspace: str
    p: int
    N: int
    eigen: EigenPair
    coeffs: CoeffVector
    certified: CertifiedResult
    blocks: int           # bracket chains the window splits into
    block_dim_max: int    # modes in the largest chain
    block_mode: Mode      # first mode of the chain that holds the minimum


def _check_options(p: int, N: int, tol: float, max_denominator: int) -> None:
    """Reject options that no window can use, before any window is built."""
    check_tol(tol)
    if p < 0:
        raise ValueError("Sobolev order must be >= 0")
    if N < 1:
        raise ValueError("window order must be >= 1")
    if max_denominator < 1:
        raise ValueError("denominator cap must be >= 1")


def run_minimize(flow: KolmogorovFlow, p: int = 3, N: Optional[int] = None,
                 subspace: str = COS, constraints: Sequence[Mode] = (),
                 tol: float = 1e-10, max_denominator: int = 10 ** 6) -> MinimizeResult:
    """Lowest eigenpair over the window's bracket chains, certified exactly."""
    if N is None:
        N = 2 * max(flow.m, flow.n) + 4
    _check_options(p, N, tol, max_denominator)
    window = SpectralWindow(N, subspace)
    pair, reduced, blocks, largest = window_minimum(flow, window, p, constraints, tol)
    coeffs = minimizer_coefficients(reduced, pair.vector)
    certified = certify_candidate(coeffs, flow, max_denominator)
    return MinimizeResult(flow, subspace, p, N, pair, coeffs, certified, blocks, largest,
                          reduced.quadform.modes[0])


def run_sweep(mmax: int, nmax: Optional[int] = None, p: int = 3, N: int = 12,
              tol: float = 1e-10, max_denominator: int = 10 ** 6) -> List[dict]:
    """One row per minimization run: cosine subspace first, sine as fallback."""
    if nmax is None:
        nmax = mmax
    # bad options fail every row alike: reject them before the first
    _check_options(p, N, tol, max_denominator)
    if min(mmax, nmax) < 1:
        raise ValueError("sweep bounds mmax and nmax must be >= 1")
    rows = []
    for m in range(1, mmax + 1):
        for n in range(1, min(m, nmax) + 1):
            flow = KolmogorovFlow(m, n)
            detected = False
            for subspace in (COS, SIN):
                row = {"m": m, "n": n, "subspace": subspace,
                       "eigenvalue": None, "certified_q": None, "verdict": None}
                try:
                    res = run_minimize(flow, p=p, N=N, subspace=subspace, tol=tol,
                                       max_denominator=max_denominator)
                    row["eigenvalue"] = res.eigen.value
                    row["certified_q"] = res.certified.mi_over_pi2
                    detected = res.certified.detected
                    row["verdict"] = ("conjugate point detected" if detected
                                      else "not detected")
                except (CertificationError, ConvergenceError, ValueError) as exc:
                    row["verdict"] = f"error: {exc}"
                rows.append(row)
                if detected:
                    break
    return rows


# ------------------------------------------------------------ field files

def field_to_document(flow: KolmogorovFlow, field: TrigPoly, description: str) -> dict:
    modes = []
    for mode in sorted(field.terms):
        modes.append({"parity": mode.parity, "j": mode.j, "k": mode.k,
                      "value": str(field.terms[mode])})
    return {"m": flow.m, "n": flow.n, "description": description, "modes": modes}


def write_field_file(path: str, flow: KolmogorovFlow, field: TrigPoly,
                     description: str) -> None:
    with open(path, "w") as fh:
        json.dump(field_to_document(flow, field, description), fh, indent=2)
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
    terms = []
    for i, entry in enumerate(entries):
        where = f"mode {i}"
        if not isinstance(entry, dict):
            raise ValueError(f"field file: {where} must be a JSON object")
        parity = _member(entry, "parity", where)
        if parity not in (COS, SIN):
            raise ValueError(f"field file: {where} parity must be 'cos' or 'sin', "
                             f"got {parity!r}")
        terms.append((parity, _integer(entry, "j", where), _integer(entry, "k", where),
                      _rational(_member(entry, "value", where))))
    return flow, TrigPoly.from_terms(terms), doc.get("description", "")


# ------------------------------------------------------------ grid files

def deformed_stream(flow: KolmogorovFlow, field: TrigPoly,
                    epsilon: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """psi at each point moved by epsilon times the skew gradient (-f_y, f_x)."""
    psi, fx, fy = flow.stream(), field.dx(), field.dy()
    return lambda X, Y: psi.eval(X - epsilon * fy.eval(X, Y), Y + epsilon * fx.eval(X, Y))


def write_grid_file(path: str, grid: int,
                    values_at: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
    """CSV of values_at(x, y) on the grid x grid points of [0, 2pi)^2, x-major."""
    xs = np.arange(grid) * (2.0 * np.pi / grid)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V = np.broadcast_to(values_at(X, Y), X.shape)  # a zero field evaluates to 0.0
    np.savetxt(path, np.column_stack([X.ravel(), Y.ravel(), V.ravel()]),
               fmt="%.17g", delimiter=",", header="x,y,value", comments="")
