"""Lowest eigenvalue of each symmetric matrix of a stack, alone or with its
eigenvector and residual, computed and checked once for the whole stack,
and a Cholesky test that a shifted matrix is positive definite.

Every matrix passed to either solver meets the symmetry check; the
residual check needs an eigenvector, so only `lowest_eigenpairs` makes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


# an eigenpair of S passes if its residual is at most RESIDUAL_TOL * max|S| * dim
RESIDUAL_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Eigensolver failed to meet the residual bound."""


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray  # unit Euclidean norm, first significant entry positive
    residual: float     # ||S v - value * v||_2


def _positive_first(v: np.ndarray) -> np.ndarray:
    """Each row of v, negated where its first significant entry is negative."""
    significant = np.abs(v) > 1e-12 * np.max(np.abs(v), axis=-1, keepdims=True)
    first = np.take_along_axis(v, np.argmax(significant, axis=-1)[..., None], axis=-1)
    return np.where(first < 0, -v, v)


def _asymmetric(stack: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Which matrices of a stack (count, dim, dim), of largest magnitudes
    `scale`, differ from their transposes by more than 1e-12 max(scale, 1)."""
    return (np.max(np.abs(stack - stack.transpose(0, 2, 1)), axis=(1, 2))
            > 1e-12 * np.maximum(scale, 1.0))


def spectrum_above(S: np.ndarray, tau: float) -> bool:
    """True if one Cholesky factorization of S - tau I succeeds: S - tau I
    is then positive definite up to the factorization's backward error.
    False if it fails, if tau is not finite, or if S fails the symmetry
    check of `lowest_eigenpairs`: the factorization reads one triangle only.
    """
    if not np.isfinite(tau) or _asymmetric(S[None], np.max(np.abs(S)))[0]:
        return False
    shifted = S.copy()
    shifted[np.diag_indices_from(shifted)] -= tau
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _checked(stack) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stack as floats, each matrix's largest magnitude, and which
    matrices fail the symmetry check; ValueError if `stack` is not a stack of
    square matrices."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or 0 in stack.shape:
        raise ValueError("expected a stack of square matrices (count, dim, dim) with "
                         f"count, dim >= 1, got shape {stack.shape}")
    scale = np.max(np.abs(stack), axis=(1, 2))
    return stack, scale, _asymmetric(stack, scale)


def lowest_eigenvalues(stack: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, Exception]]]:
    """Lowest eigenvalue of each matrix of a stack (count, dim, dim), in one
    values-only LAPACK call (dsyevd via numpy's eigvalsh).

    Its values need not be `lowest_eigenpairs`' bits, but both solvers are
    backward stable, so each lies within a small multiple of dim eps max|S|
    of the other.  Each matrix's value is the same in any stack.  Raises
    ValueError as `lowest_eigenpairs` does, and returns the values and
    (i, error) for every matrix i that fails the symmetry check.
    """
    stack, _, asymmetric = _checked(stack)
    return np.linalg.eigvalsh(stack)[:, 0], [(i, ValueError("matrix is not symmetric"))
                                             for i in np.flatnonzero(asymmetric).tolist()]


def lowest_eigenpairs(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                                List[Tuple[int, Exception]]]:
    """Lowest eigenpair of each matrix of a stack (count, dim, dim), in one LAPACK call.

    Deterministic for fixed input (LAPACK dsyevd via numpy, fixed sign
    convention), and each matrix's row is the same in any stack.  Raises
    ValueError if `stack` is not a stack of square matrices.  Returns the
    lowest eigenvalues; row by row their unit eigenvectors, first
    significant entry positive; the residuals ||S v - value * v||_2; and
    (i, error) for every matrix i that fails a check, by ascending i.  A
    matrix fails if it is not symmetric, or if its residual exceeds
    RESIDUAL_TOL * max|S| * dim.
    """
    stack, scale, asymmetric = _checked(stack)
    dim = stack.shape[1]
    values, vectors = np.linalg.eigh(stack)
    values, vectors = values[:, 0], _positive_first(vectors[:, :, 0])
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    residuals = np.linalg.norm((stack @ vectors[:, :, None])[:, :, 0] - values[:, None] * vectors,
                               axis=1)
    bound = RESIDUAL_TOL * np.maximum(scale, 1e-300) * dim
    failures = [(i, ValueError("matrix is not symmetric") if asymmetric[i] else
                 ConvergenceError(f"residual {residuals[i]:.3e} exceeds bound {bound[i]:.3e} "
                                  f"(dim={dim}, tol={RESIDUAL_TOL:.1e})"))
                for i in np.flatnonzero(asymmetric | (residuals > bound)).tolist()]
    return values, vectors, residuals, failures
