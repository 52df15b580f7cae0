"""Minimal eigenpair of a dense symmetric matrix with a residual guarantee."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

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


def _positive_first(v: np.ndarray) -> np.ndarray:
    """v (or each row of v) negated where its first significant entry is negative."""
    significant = np.abs(v) > 1e-12 * np.max(np.abs(v), axis=-1, keepdims=True)
    first = np.take_along_axis(v, np.argmax(significant, axis=-1)[..., None], axis=-1)
    return np.where(first < 0, -v, v)


def eigen_pair(S: np.ndarray, value: float, vector: np.ndarray, tol: float) -> EigenPair:
    """The EigenPair of S's lowest eigenvalue, from its sign-fixed eigenvector.

    Normalizes the vector and raises ConvergenceError if the residual
    exceeds tol * max|S| * dim.
    """
    v = vector / np.linalg.norm(vector)
    residual = float(np.linalg.norm(S @ v - value * v))
    bound = tol * max(float(np.max(np.abs(S))), 1e-300) * S.shape[0]
    if residual > bound:
        raise ConvergenceError(
            f"residual {residual:.3e} exceeds bound {bound:.3e} "
            f"(dim={S.shape[0]}, tol={tol:.1e})")
    return EigenPair(value, v, residual)


def lowest_eigenpairs(stack: np.ndarray, tol: float = 1e-10
                      ) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[int, Exception]]]:
    """Lowest eigenpair of each matrix of a stack (count, dim, dim), in one LAPACK call.

    Deterministic for fixed input (LAPACK dsyevd via numpy, fixed sign
    convention).  Raises ValueError if `stack` is not a stack of square
    matrices or tol is not finite and positive.  Each matrix is checked:
    it must be symmetric, and its residual at most tol * max|S| * dim.
    Returns the lowest eigenvalues, row by row their eigenvectors with the
    first significant entry positive, and (i, error) for the first matrix
    i that fails a check, or None; `eigen_pair(stack[i], values[i],
    vectors[i], tol)` is the EigenPair of matrix i.
    """
    check_tol(tol)
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or 0 in stack.shape:
        raise ValueError("expected a square matrix or a stack of square matrices "
                         "of dimension >= 1")
    scale = np.max(np.abs(stack), axis=(1, 2))
    asymmetric = (np.max(np.abs(stack - stack.transpose(0, 2, 1)), axis=(1, 2))
                  > 1e-12 * np.maximum(scale, 1.0))
    values, vectors = np.linalg.eigh(stack)
    values, vectors = values[:, 0], _positive_first(vectors[:, :, 0])
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    residual = np.linalg.norm((stack @ unit[:, :, None])[:, :, 0] - values[:, None] * unit,
                              axis=1)
    bound = tol * np.maximum(scale, 1e-300) * stack.shape[1]
    # a flagged matrix fails if asymmetric, or if its own EigenPair does
    for i in np.flatnonzero(asymmetric | (residual > bound)).tolist():
        if asymmetric[i]:
            return values, vectors, (i, ValueError("matrix is not symmetric"))
        try:
            eigen_pair(stack[i], values[i], vectors[i], tol)
        except ConvergenceError as error:
            return values, vectors, (i, error)
    return values, vectors, None


def sym_eig_min(S: np.ndarray, tol: float = 1e-10) -> EigenPair:
    """Algebraically smallest eigenpair of a symmetric matrix.

    The one-matrix case of `lowest_eigenpairs`: raises ValueError on a
    non-square or non-symmetric matrix or a tol that is not finite and
    positive, and ConvergenceError if the residual exceeds
    tol * max|S| * dim.
    """
    S = np.asarray(S, dtype=float)
    values, vectors, failure = lowest_eigenpairs(S[None], tol)
    if failure is not None:
        raise failure[1]
    return eigen_pair(S, float(values[0]), vectors[0], tol)

