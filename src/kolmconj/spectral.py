"""Galerkin machinery on truncated Fourier windows.

The bracket operator f -> {psi, f} is assembled on a canonical mode window
one block per mode chain of its stencil (the bracket sends (j, k) only to
(j +- m, k +- n)), the Misiolek quadratic form is built from each block on
an enlarged window (so the form is exact on the span and negative
eigenvalues are rigorous witnesses rather than truncation artifacts), and
numerical minimizers are certified by rationalizing their coefficients and
re-evaluating the index with exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .eigensolve import EigenPair, sym_eig_min
from .trigpoly import (COS, SIN, KolmogorovFlow, Mode, TrigPoly, bracket,
                       misiolek_index)

FULL = "full"
SUBSPACES = (COS, SIN, FULL)
# two block minima this close, relative to the larger, are a tie
TIE_RTOL = 1e-12


class CertificationError(RuntimeError):
    """Raised when a numerical candidate cannot be certified exactly."""


class SpectralWindow:
    """Canonical mode window: 0 < j^2+k^2, |j| <= N, |k| <= N, constant excluded.

    Each parity subspace holds exactly 2N^2 + 2N modes, ordered
    lexicographically by (j, k, parity) -- deterministic across runs.
    """

    __slots__ = ("N", "subspace", "modes", "_index")

    def __init__(self, N: int, subspace: str = COS):
        if N < 1:
            raise ValueError("window order must be >= 1")
        if subspace not in SUBSPACES:
            raise ValueError(f"unknown subspace {subspace!r}")
        parities = (COS, SIN) if subspace == FULL else (subspace,)
        modes = []
        for parity in parities:
            for j in range(0, N + 1):
                ks = range(1, N + 1) if j == 0 else range(-N, N + 1)
                for k in ks:
                    modes.append(Mode(j, k, parity))
        modes.sort()
        self.N = N
        self.subspace = subspace
        self.modes = tuple(modes)
        self._index = {m: i for i, m in enumerate(self.modes)}

    def __len__(self) -> int:
        return len(self.modes)

    def index_of(self, mode: Mode) -> Optional[int]:
        return self._index.get(mode)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpectralWindow(N={self.N}, subspace={self.subspace!r}, dim={len(self)})"


@dataclass
class CoeffVector:
    """Real coefficients aligned with a window's mode list."""

    window: SpectralWindow
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.window),):
            raise ValueError("coefficient length does not match window")

    def dominant_mode(self) -> Mode:
        return self.window.modes[int(np.argmax(np.abs(self.values)))]


def coefficient_vector(f: TrigPoly, window: SpectralWindow) -> CoeffVector:
    """Exact coefficients of f laid out on the window; f must fit inside it."""
    values = np.zeros(len(window))
    for mode, c in f.terms.items():
        idx = window.index_of(mode)
        if idx is None:
            raise ValueError(f"mode {mode!r} not contained in {window!r}")
        values[idx] = float(c)
    return CoeffVector(window, values)


def _stencil(flow: KolmogorovFlow, window: SpectralWindow,
             out_modes: Sequence[Mode]) -> Tuple[np.ndarray, np.ndarray]:
    """The bracket's input terms for each output mode, folded into the window.

    Output coefficient at canonical mode (j, k):

        (1/4) [ (mk-nj)(A[j-m,k-n] - A[j+m,k+n])
              + (mk+nj)(A[j-m,k+n] - A[j+m,k-n]) ]

    where A is the even (cosine) or odd (sine) extension of the input
    coefficients to the full integer lattice.  Returns (cols, coeffs), both
    of shape (len(out_modes), 4): the window index each term folds to and
    its coefficient.  A coefficient is 0 where the weight vanishes, the
    term folds outside the window, or an earlier term of the row folds to
    the same mode (that term then holds the sum).
    """
    m, n, N = flow.m, flow.n, window.N
    lookup = np.full((2, N + 1, 2 * N + 1), -1)
    for i, mode in enumerate(window.modes):
        lookup[int(mode.parity == SIN), mode.j, mode.k + N] = i
    j = np.array([mode.j for mode in out_modes])[:, None]
    k = np.array([mode.k for mode in out_modes])[:, None]
    sin = np.array([mode.parity == SIN for mode in out_modes])[:, None]
    weight = np.hstack([m * k - n * j, n * j - m * k, m * k + n * j, -(m * k + n * j)])
    jj = j + np.array([-m, m, -m, m])
    kk = k + np.array([-n, n, n, -n])
    # fold onto canonical modes: cos(-t) = cos(t), sin(-t) = -sin(t)
    flip = (jj < 0) | ((jj == 0) & (kk < 0))
    jj, kk = np.where(flip, -jj, jj), np.where(flip, -kk, kk)
    inside = (jj <= N) & (np.abs(kk) <= N)
    cols = np.where(inside, lookup[sin.astype(int), np.minimum(jj, N),
                                   np.clip(kk, -N, N) + N], -1)
    coeffs = np.where(cols >= 0, 0.25 * weight * np.where(flip & sin, -1, 1), 0.0)
    for t in range(1, 4):
        for s in range(t):
            same = (cols[:, s] == cols[:, t]) & (cols[:, t] >= 0)
            coeffs[same, s] += coeffs[same, t]
            coeffs[same, t] = 0.0
    return cols, coeffs


def _chain_labels(cols: np.ndarray, linked: np.ndarray, size: int) -> np.ndarray:
    """Smallest window index of each mode's chain (modes a bracket row links)."""
    labels = np.arange(size)
    # lower each mode's label to the smallest label on its bracket rows,
    # jump labels to their labels' labels, and repeat until nothing moves
    while True:
        row_min = np.where(linked, labels[cols], size).min(axis=1)
        new = labels.copy()
        np.minimum.at(new, cols[linked], np.broadcast_to(row_min[:, None], cols.shape)[linked])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


@dataclass
class BracketBlock:
    """The bracket f -> {psi, f} on one connected component of its stencil.

    The bracket sends mode (j, k) only to (j +- m, k +- n), folded, so the
    window splits into mode chains that no bracket row couples: `modes`
    (window order) are one chain's inputs and `out_modes` the outputs they
    reach, in the extended window of order N + max(m, n).
    """

    modes: Tuple[Mode, ...]
    out_modes: Tuple[Mode, ...]
    matrix: np.ndarray


def bracket_blocks(flow: KolmogorovFlow, window: SpectralWindow) -> List[BracketBlock]:
    """The bracket on `window`, one block per chain, ordered by first mode.

    The output window is large enough that no bracket mode is lost, which
    makes the quadratic forms built from the blocks exact on the span.
    """
    ext = SpectralWindow(window.N + max(flow.m, flow.n), window.subspace)
    cols, coeffs = _stencil(flow, window, ext.modes)
    linked = coeffs != 0
    labels = _chain_labels(cols, linked, len(window))
    rows = np.flatnonzero(linked.any(axis=1))
    row_labels = labels[cols[rows, np.argmax(linked[rows], axis=1)]]
    blocks = []
    for label in np.flatnonzero(labels == np.arange(len(window))):
        chain = np.flatnonzero(labels == label)
        chain_rows = rows[row_labels == label]
        local = np.zeros(len(window), dtype=int)
        local[chain] = np.arange(len(chain))
        r, t = np.nonzero(linked[chain_rows])
        mat = np.zeros((len(chain_rows), len(chain)))
        mat[r, local[cols[chain_rows[r], t]]] = coeffs[chain_rows[r], t]
        blocks.append(BracketBlock(tuple(window.modes[i] for i in chain),
                                   tuple(ext.modes[i] for i in chain_rows), mat))
    return blocks


def assemble_bracket_matrix(flow: KolmogorovFlow, win_in: SpectralWindow,
                            win_out: SpectralWindow) -> np.ndarray:
    """Dense matrix of f -> {psi, f} from win_in into win_out.

    The blocks of `bracket_blocks` scattered into one matrix.  The output
    window must be large enough that no bracket mode is lost.
    """
    if win_in.subspace != win_out.subspace:
        raise ValueError("input and output windows must share a subspace")
    m, n = flow.m, flow.n
    if win_out.N < win_in.N + max(m, n):
        raise ValueError(
            f"output window order {win_out.N} too small: need >= {win_in.N + max(m, n)}")
    mat = np.zeros((len(win_out), len(win_in)))
    for block in bracket_blocks(flow, win_in):
        rows = [win_out.index_of(mode) for mode in block.out_modes]
        cols = [win_in.index_of(mode) for mode in block.modes]
        mat[np.ix_(rows, cols)] = block.matrix
    return mat


@dataclass
class QuadForm:
    """Symmetric matrix B with v^T B v = MI({psi, f_v}) / (2 pi^2).

    v holds the coefficients of f_v on `modes`: the whole window for the
    dense form, one bracket chain for a block of it.
    """

    window: SpectralWindow
    matrix: np.ndarray
    modes: Tuple[Mode, ...] = ()

    def __post_init__(self):
        if not self.modes:
            self.modes = self.window.modes


def quadform_blocks(flow: KolmogorovFlow, window: SpectralWindow) -> List[QuadForm]:
    """B = L^T W L per bracket chain, W = diag(j^2+k^2 - lambda^2) on outputs.

    B couples two modes only through a shared bracket output, so the form
    is block-diagonal over the chains of `bracket_blocks`.
    """
    forms = []
    for block in bracket_blocks(flow, window):
        weights = np.array([md.laplace_weight for md in block.out_modes],
                           dtype=float) - flow.lambda2
        B = block.matrix.T @ (weights[:, None] * block.matrix)
        forms.append(QuadForm(window, 0.5 * (B + B.T), block.modes))
    return forms


def assemble_quadform(flow: KolmogorovFlow, window: SpectralWindow) -> QuadForm:
    """Dense view: the blocks of `quadform_blocks` scattered into one matrix."""
    B = np.zeros((len(window), len(window)))
    for q in quadform_blocks(flow, window):
        idx = [window.index_of(mode) for mode in q.modes]
        B[np.ix_(idx, idx)] = q.matrix
    return QuadForm(window, B)


@dataclass
class ReducedForm:
    """Sobolev-weighted reduction S = D^{-p/2} B D^{-p/2}, D = diag(j^2+k^2).

    The minimal eigenvalue of S has the same sign as the infimum of the
    Misiolek index over the (possibly constrained) window span; `modes`
    tracks which window modes remain after constraints.
    """

    quadform: QuadForm
    p: int
    modes: Tuple[Mode, ...]
    matrix: np.ndarray


def reduce_symmetric(q: QuadForm, p: int) -> ReducedForm:
    if p < 0:
        raise ValueError("Sobolev order must be >= 0")
    d = np.array([m.laplace_weight for m in q.modes], dtype=float)
    scale = d ** (-p / 2)
    S = q.matrix * np.outer(scale, scale)
    return ReducedForm(q, p, q.modes, 0.5 * (S + S.T))


def constrain(r: ReducedForm, zeroed: Iterable[Mode]) -> ReducedForm:
    """Force the listed Fourier coefficients to zero (drop rows/columns).

    Listed window modes outside r.modes (another block's) are left alone.
    """
    zero_set = set(zeroed)
    unknown = {mode for mode in zero_set if r.quadform.window.index_of(mode) is None}
    if unknown:
        raise ValueError(f"cannot constrain modes outside the window: {sorted(unknown)}")
    keep = [i for i, m in enumerate(r.modes) if m not in zero_set]
    if not keep:
        raise ValueError("constraining away every mode leaves nothing to minimize")
    sub = r.matrix[np.ix_(keep, keep)]
    return ReducedForm(r.quadform, r.p, tuple(r.modes[i] for i in keep), sub)


def block_minimum(blocks: Sequence[ReducedForm], zeroed: Iterable[Mode] = (),
                  tol: float = 1e-10) -> Tuple[EigenPair, ReducedForm]:
    """Lowest eigenpair over a window's blocks, with the zeroed modes constrained.

    Returns the pair and the (constrained) block it belongs to.  Blocks the
    constraints zero out entirely are skipped.  Two minima within TIE_RTOL
    of each other (relative) are a tie, won by the block listed first.
    """
    zero_set = set(zeroed)
    if zero_set:
        # when every block is zeroed out, constrain the first anyway: it raises
        kept = [r for r in blocks if not zero_set.issuperset(r.modes)] or blocks[:1]
        blocks = [constrain(r, zero_set) for r in kept]
    best = None
    for reduced in blocks:
        pair = sym_eig_min(reduced.matrix, tol)
        if best is None or pair.value < best[0].value - TIE_RTOL * max(
                abs(pair.value), abs(best[0].value)):
            best = pair, reduced
    return best


def minimizer_coefficients(r: ReducedForm, vector: np.ndarray) -> CoeffVector:
    """Map an eigenvector of the reduced form back to f-coefficients.

    Undoes the D^{-p/2} change of variables, reinstates constrained modes
    as zeros, and normalizes so the largest-magnitude coefficient is 1
    (for reproducible output).
    """
    window = r.quadform.window
    values = np.zeros(len(window))
    for u, mode in zip(np.asarray(vector, dtype=float), r.modes):
        values[window.index_of(mode)] = u * mode.laplace_weight ** (-r.p / 2)
    peak = np.max(np.abs(values))
    if peak == 0:
        raise ValueError("zero eigenvector")
    return CoeffVector(window, values / peak)


@dataclass
class CertifiedResult:
    """Exact Misiolek value of a rationalized candidate field."""

    mi_over_pi2: Fraction
    detected: bool
    field: TrigPoly
    max_denominator: int


def certify_candidate(v: CoeffVector, flow: KolmogorovFlow,
                      max_denominator: int = 10 ** 6) -> CertifiedResult:
    """Rationalize a float coefficient vector and evaluate the index exactly.

    Coefficients are scaled so the largest magnitude is 1, rounded to
    nearby rationals (continued fractions, denominator capped), and the
    Misiolek index of the bracket of the rebuilt field is computed with
    exact arithmetic.  mi_over_pi2 < 0 is a rigorous conjugate-point
    certificate; the scaling does not affect the sign (the index is
    homogeneous of degree 2).
    """
    peak = np.max(np.abs(v.values))
    if peak == 0:
        raise ValueError("cannot certify the zero vector")
    terms = {}
    for mode, val in zip(v.window.modes, v.values):
        if val == 0:  # modes outside the winning block; a zero is dropped anyway
            continue
        c = Fraction(float(val / peak)).limit_denominator(max_denominator)
        if c:
            terms[mode] = c
    f = TrigPoly(terms)
    phi = bracket(flow.stream(), f)
    if phi.is_zero():
        raise CertificationError("rationalized candidate lies in the kernel of the "
                                 "bracket operator")
    q = misiolek_index(phi, flow)
    return CertifiedResult(q, q < 0, f, max_denominator)
