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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .eigensolve import (ConvergenceError, EigenPair, eigen_pair, sym_eig_min,
                         sym_eig_min_stack)
from .trigpoly import (COS, SIN, KolmogorovFlow, Mode, TrigPoly, bracket,
                       misiolek_index)

FULL = "full"
SUBSPACES = (COS, SIN, FULL)
# two block minima this close, relative to the larger, are a tie
TIE_RTOL = 1e-12
# one stacked LAPACK call holds at most this many matrix entries, so blocks
# of more than 45 modes are solved one at a time
STACK_ENTRIES = 4096


class CertificationError(RuntimeError):
    """Raised when a numerical candidate cannot be certified exactly."""


class SpectralWindow:
    """Canonical mode window: 0 < j^2+k^2, |j| <= N, |k| <= N, constant excluded.

    Each parity subspace holds exactly 2N^2 + 2N modes, ordered
    lexicographically by (j, k, parity) -- deterministic across runs.  The
    window is held as integer arrays `j`, `k`, a boolean `sin` and the
    float `laplace` = j^2 + k^2; its `Mode` objects and their index are
    built on first use.
    """

    __slots__ = ("N", "subspace", "j", "k", "sin", "laplace", "_modes", "_index")

    def __init__(self, N: int, subspace: str = COS):
        if N < 1:
            raise ValueError("window order must be >= 1")
        if subspace not in SUBSPACES:
            raise ValueError(f"unknown subspace {subspace!r}")
        parities = (False, True) if subspace == FULL else (subspace == SIN,)
        # C order of an ij-indexed grid is already (j, k, parity) order
        j, k, sin = np.meshgrid(np.arange(N + 1), np.arange(-N, N + 1),
                                np.array(parities), indexing="ij")
        canonical = (j > 0) | (k > 0)
        self.N = N
        self.subspace = subspace
        self.j, self.k, self.sin = j[canonical], k[canonical], sin[canonical]
        self.laplace = (self.j * self.j + self.k * self.k).astype(float)
        self._modes = None
        self._index = None

    @property
    def modes(self) -> Tuple[Mode, ...]:
        if self._modes is None:
            parities = [SIN if s else COS for s in self.sin.tolist()]
            self._modes = tuple(map(Mode, self.j.tolist(), self.k.tolist(), parities))
        return self._modes

    def __len__(self) -> int:
        return len(self.j)

    def index_of(self, mode: Mode) -> Optional[int]:
        if self._index is None:
            self._index = {m: i for i, m in enumerate(self.modes)}
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
             out: SpectralWindow) -> Tuple[np.ndarray, np.ndarray]:
    """The bracket's input terms for each mode of `out`, folded into the window.

    Output coefficient at canonical mode (j, k):

        (1/4) [ (mk-nj)(A[j-m,k-n] - A[j+m,k+n])
              + (mk+nj)(A[j-m,k+n] - A[j+m,k-n]) ]

    where A is the even (cosine) or odd (sine) extension of the input
    coefficients to the full integer lattice.  Returns (cols, coeffs), both
    of shape (len(out), 4): the window index each term folds to and its
    coefficient.  A coefficient is 0 where the weight vanishes, the term
    folds outside the window, or an earlier term of the row folds to the
    same mode (that term then holds the sum).
    """
    m, n, N = flow.m, flow.n, window.N
    lookup = np.full((2, N + 1, 2 * N + 1), -1)
    lookup[window.sin.astype(int), window.j, window.k + N] = np.arange(len(window))
    j, k, sin = out.j[:, None], out.k[:, None], out.sin[:, None]
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


def _extended(flow: KolmogorovFlow, window: SpectralWindow) -> SpectralWindow:
    """The output window, large enough that the bracket loses no mode."""
    return SpectralWindow(window.N + max(flow.m, flow.n), window.subspace)


def _chains(flow: KolmogorovFlow, window: SpectralWindow,
            ext: SpectralWindow) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The bracket per chain, ordered by first mode: (index, rows, L).

    `index` holds the window positions of the chain's modes, `rows` the
    positions in `ext` of the outputs they reach (both ascending), and L
    the bracket from the one to the other.
    """
    size = len(window)
    cols, coeffs = _stencil(flow, window, ext)
    linked = coeffs != 0
    labels = _chain_labels(cols, linked, size)
    rows = np.flatnonzero(linked.any(axis=1))
    row_labels = labels[cols[rows, np.argmax(linked[rows], axis=1)]]
    # one stable sort each lays every chain's modes and rows out together,
    # in window order
    order = np.argsort(labels, kind="stable")
    by_chain = np.argsort(row_labels, kind="stable")
    rows, row_labels = rows[by_chain], row_labels[by_chain]
    firsts = np.flatnonzero(labels == np.arange(size))
    mode_ends = np.searchsorted(labels[order], firsts, side="right")
    row_ends = np.searchsorted(row_labels, firsts, side="right")
    sizes = np.diff(mode_ends, prepend=0)
    local = np.empty(size, dtype=int)  # each mode's position within its chain
    local[order] = np.arange(size) - np.repeat(mode_ends - sizes, sizes)
    r, t = np.nonzero(linked[rows])
    entry_cols = local[cols[rows[r], t]]
    entry_values = coeffs[rows[r], t]
    entry_ends = np.searchsorted(r, row_ends)
    mode_start = row_start = entry_start = 0
    for mode_end, row_end, entry_end in zip(mode_ends.tolist(), row_ends.tolist(),
                                            entry_ends.tolist()):
        entries = slice(entry_start, entry_end)
        L = np.zeros((row_end - row_start, mode_end - mode_start))
        L[r[entries] - row_start, entry_cols[entries]] = entry_values[entries]
        yield order[mode_start:mode_end], rows[row_start:row_end], L
        mode_start, row_start, entry_start = mode_end, row_end, entry_end


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
    ext = _extended(flow, window)
    return [BracketBlock(tuple(window.modes[i] for i in index.tolist()),
                         tuple(ext.modes[i] for i in rows.tolist()), L)
            for index, rows, L in _chains(flow, window, ext)]


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

    v holds the coefficients of f_v on `modes`, the window modes at
    positions `index`: the whole window for the dense form, one bracket
    chain for a block of it.
    """

    window: SpectralWindow
    matrix: np.ndarray
    index: Optional[np.ndarray] = None
    modes: Tuple[Mode, ...] = field(init=False)

    def __post_init__(self):
        if self.index is None:
            self.index = np.arange(len(self.window))
        modes = self.window.modes
        self.modes = tuple([modes[i] for i in self.index.tolist()])


def iter_quadform_blocks(flow: KolmogorovFlow, window: SpectralWindow) -> Iterator[QuadForm]:
    """B = L^T W L per bracket chain, W = diag(j^2+k^2 - lambda^2) on outputs.

    B couples two modes only through a shared bracket output, so the form
    is block-diagonal over the chains of `bracket_blocks`.  Each block is
    built when the iteration reaches it.
    """
    ext = _extended(flow, window)
    weights = ext.laplace - flow.lambda2
    for index, rows, L in _chains(flow, window, ext):
        B = L.T @ (weights[rows][:, None] * L)
        yield QuadForm(window, 0.5 * (B + B.T), index)


def quadform_blocks(flow: KolmogorovFlow, window: SpectralWindow) -> List[QuadForm]:
    """The blocks of `iter_quadform_blocks`, as a list."""
    return list(iter_quadform_blocks(flow, window))


def assemble_quadform(flow: KolmogorovFlow, window: SpectralWindow) -> QuadForm:
    """Dense view: the blocks of `quadform_blocks` scattered into one matrix."""
    B = np.zeros((len(window), len(window)))
    for q in iter_quadform_blocks(flow, window):
        B[np.ix_(q.index, q.index)] = q.matrix
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
    d = q.window.laplace[q.index]
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


class _ChainMinimum:
    """The scan of `block_minimum`, with blocks of equal size solved together.

    Blocks are numbered in listed order but solved in stacks of equal
    size, as the stacks fill, or alone when too large to share a stack.
    The tie rule runs over every block's minimum once all are solved; until
    then only blocks that can still win it are kept.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.values: List[float] = []  # lowest eigenvalue of each block
        self.low = math.inf            # the lowest of them so far
        self.contenders = {}           # position -> (block, EigenPair or eigenvector)
        self.stacks = {}               # dim -> [(position, block)] awaiting a solve
        self.failure = None            # (position, error) of the first failed block

    def add(self, block: ReducedForm) -> None:
        position = len(self.values)
        self.values.append(math.nan)
        S = block.matrix
        if S.ndim == 2 and S.shape[0] == S.shape[1] and 0 < 2 * S.size <= STACK_ENTRIES:
            stack = self.stacks.setdefault(S.shape[0], [])
            stack.append((position, block))
            if len(stack) == STACK_ENTRIES // S.size:
                self._solve_stack(self.stacks.pop(S.shape[0]))
        else:
            self._solve_alone(position, block)

    def _solve_alone(self, position: int, block: ReducedForm) -> None:
        try:
            pair = sym_eig_min(block.matrix, self.tol)
        except (ValueError, ConvergenceError) as exc:
            if self.failure is None or position < self.failure[0]:
                self.failure = position, exc
            return
        self._record([position], [block], np.array([pair.value]), [pair])

    def _solve_stack(self, stack: List[Tuple[int, ReducedForm]]) -> None:
        positions, blocks = zip(*stack)
        try:
            values, vectors = sym_eig_min_stack(np.stack([r.matrix for r in blocks]),
                                                self.tol)
        except (ValueError, ConvergenceError):
            # one by one, so that each failing block raises its own error
            for position, block in stack:
                self._solve_alone(position, block)
            return
        self._record(positions, blocks, values, vectors)

    def _record(self, positions, blocks, values: np.ndarray, found) -> None:
        for position, value in zip(positions, values.tolist()):
            self.values[position] = value
        low = float(np.fmin.reduce(values, initial=self.low))
        # a block whose minimum lies above another's by more than twice the
        # tie tolerance (relative) can no longer win the tie rule
        def beaten(value):
            return value > low + 2 * TIE_RTOL * np.maximum(np.abs(value), abs(low))
        if low < self.low:
            self.contenders = {position: kept for position, kept in self.contenders.items()
                               if not beaten(self.values[position])}
            self.low = low
        for i in np.flatnonzero(~beaten(values)).tolist():
            self.contenders[positions[i]] = blocks[i], found[i]

    def minimum(self) -> Tuple[EigenPair, ReducedForm]:
        for stack in list(self.stacks.values()):
            self._solve_stack(stack)
        if self.failure is not None:
            raise self.failure[1]
        best = 0
        for position, value in enumerate(self.values):
            if value < self.values[best] - TIE_RTOL * max(abs(value), abs(self.values[best])):
                best = position
        block, found = self.contenders[best]
        if not isinstance(found, EigenPair):
            found = eigen_pair(block.matrix, self.values[best], found, self.tol)
        return found, block


def block_minimum(blocks: Iterable[ReducedForm], zeroed: Iterable[Mode] = (),
                  tol: float = 1e-10) -> Tuple[EigenPair, ReducedForm]:
    """Lowest eigenpair over a window's blocks, with the zeroed modes constrained.

    Returns the pair and the (constrained) block it belongs to.  Blocks the
    constraints zero out entirely are skipped.  Two minima within TIE_RTOL
    of each other (relative) are a tie, won by the block listed first.
    Blocks may come from a generator: only those that can still win are
    kept.  Each block gets every check of `sym_eig_min`, and the first
    listed block that fails one raises its error.
    """
    zero_set = set(zeroed)
    chains = _ChainMinimum(tol)
    first = None
    for reduced in blocks:
        if first is None:
            first = reduced
        if zero_set:
            if zero_set.issuperset(reduced.modes):
                continue
            reduced = constrain(reduced, zero_set)
        chains.add(reduced)
    if not chains.values:
        constrain(first, zero_set)  # every block is zeroed out: this raises
    return chains.minimum()


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
