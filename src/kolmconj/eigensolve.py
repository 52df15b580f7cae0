"""Minimal eigenpair of a dense symmetric matrix with a residual guarantee."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """Eigensolver failed to meet the requested residual bound."""


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray  # unit Euclidean norm, first nonzero entry positive
    residual: float     # ||S v - value * v||_2


def check_tol(tol: float) -> None:
    """Reject a residual tolerance that would disable the residual guard."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")


def sym_eig_min(S: np.ndarray, tol: float = 1e-10) -> EigenPair:
    """Algebraically smallest eigenpair of a symmetric matrix.

    Deterministic for fixed input (LAPACK dsyevd via numpy, fixed sign
    convention).  Raises ValueError on non-symmetric input or a tol that is
    not finite and positive, and ConvergenceError if the residual exceeds
    tol * max|S| * dim.
    """
    check_tol(tol)
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] < 1:
        raise ValueError("expected a square matrix of dimension >= 1")
    scale = float(np.max(np.abs(S)))
    if np.max(np.abs(S - S.T)) > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(S)
    value = float(values[0])
    v = vectors[:, 0].copy()
    nz = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
    if v[nz[0]] < 0:
        v = -v
    v /= np.linalg.norm(v)
    residual = float(np.linalg.norm(S @ v - value * v))
    bound = tol * max(scale, 1e-300) * S.shape[0]
    if residual > bound:
        raise ConvergenceError(
            f"residual {residual:.3e} exceeds bound {bound:.3e} "
            f"(dim={S.shape[0]}, tol={tol:.1e})")
    return EigenPair(value, v, residual)
