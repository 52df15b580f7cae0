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
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .eigensolve import EigenPair, eigen_pair, lowest_eigenpairs
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
    float `laplace` = j^2 + k^2; its `Mode` tuple is built on first use,
    and `modes_at` builds only the modes asked for.
    """

    __slots__ = ("N", "subspace", "j", "k", "sin", "laplace", "_modes")

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

    @property
    def modes(self) -> Tuple[Mode, ...]:
        if self._modes is None:
            self._modes = self.modes_at(np.arange(len(self)))
        return self._modes

    def modes_at(self, index: Sequence[int]) -> Tuple[Mode, ...]:
        """The modes at the given window positions."""
        parities = [SIN if s else COS for s in self.sin[index].tolist()]
        return tuple(map(Mode, self.j[index].tolist(), self.k[index].tolist(), parities))

    def __len__(self) -> int:
        return len(self.j)

    def index_of(self, mode: Mode) -> Optional[int]:
        """The window position of `mode`, or None if the window lacks it."""
        parities = (COS, SIN) if self.subspace == FULL else (self.subspace,)
        j, k, N = mode.j, mode.k, self.N
        if mode.parity not in parities or abs(k) > N or not (0 < j <= N or (j == 0 and k > 0)):
            return None
        # (j, k, parity) order over the grid 0 <= j <= N, |k| <= N, less the
        # N + 1 points j = 0, k <= 0 that precede every canonical mode
        return (j * (2 * N + 1) + k - 1) * len(parities) + parities.index(mode.parity)

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
        return self.window.modes_at([int(np.argmax(np.abs(self.values)))])[0]


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


def _chains(flow: KolmogorovFlow, window: SpectralWindow, ext: SpectralWindow
            ) -> Iterator[Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]]:
    """The bracket per chain, in groups of one shape: (positions, index, rows, L).

    Chains are numbered by first mode.  A group holds chains of d modes
    whose bracket reaches r outputs, in numbered order, at most
    STACK_ENTRIES // d^2 of them and never fewer than one: `positions`
    are their numbers, `index` (count, d) the window positions of their
    modes, `rows` (count, r) the positions in `ext` of the outputs they
    reach (both ascending per chain), and L (count, r, d) the bracket from
    the one to the other.
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
    sizes, outs = np.diff(mode_ends, prepend=0), np.diff(row_ends, prepend=0)
    mode_starts, row_starts = mode_ends - sizes, row_ends - outs
    local = np.empty(size, dtype=int)  # each mode's position within its chain
    local[order] = np.arange(size) - np.repeat(mode_starts, sizes)
    # chains by shape, each shape in numbered order and cut into stacks
    count = len(firsts)
    shaped = np.lexsort((outs, sizes))
    d, r = sizes[shaped], outs[shaped]
    new_shape = np.r_[True, (d[1:] != d[:-1]) | (r[1:] != r[:-1])]
    run = np.arange(count) - np.maximum.accumulate(np.where(new_shape, np.arange(count), 0))
    slots = run % np.maximum(1, STACK_ENTRIES // (d * d))
    group_ends = np.flatnonzero(np.r_[slots[1:] == 0, True]) + 1
    group, slot = np.empty(count, dtype=int), np.empty(count, dtype=int)
    group[shaped], slot[shaped] = np.cumsum(slots == 0) - 1, slots
    # every nonzero of the bracket, ordered by group
    entry_rows, t = np.nonzero(linked[rows])
    chain = np.repeat(np.arange(count), outs)[entry_rows]
    by_group = np.argsort(group[chain], kind="stable")
    entry_rows, t, chain = entry_rows[by_group], t[by_group], chain[by_group]
    entry_ends = np.searchsorted(group[chain], np.arange(len(group_ends)), side="right")
    at = (slot[chain], entry_rows - row_starts[chain], local[cols[rows[entry_rows], t]])
    values = coeffs[rows[entry_rows], t]
    start = entry_start = 0
    for end, entry_end in zip(group_ends.tolist(), entry_ends.tolist()):
        members = shaped[start:end]
        modes, outputs = sizes[members[0]], outs[members[0]]
        entries = slice(entry_start, entry_end)
        L = np.zeros((end - start, outputs, modes))
        L[at[0][entries], at[1][entries], at[2][entries]] = values[entries]
        yield (members.tolist(), order[mode_starts[members][:, None] + np.arange(modes)],
               rows[row_starts[members][:, None] + np.arange(outputs)], L)
        start, entry_start = end, entry_end


def assemble_bracket_matrix(flow: KolmogorovFlow, win_in: SpectralWindow,
                            win_out: SpectralWindow) -> np.ndarray:
    """Dense matrix of f -> {psi, f} from win_in into win_out.

    The chains of `_chains` scattered into one matrix.  The output window
    must be large enough that no bracket mode is lost.
    """
    if win_in.subspace != win_out.subspace:
        raise ValueError("input and output windows must share a subspace")
    m, n = flow.m, flow.n
    if win_out.N < win_in.N + max(m, n):
        raise ValueError(
            f"output window order {win_out.N} too small: need >= {win_in.N + max(m, n)}")
    mat = np.zeros((len(win_out), len(win_in)))
    for _, index, rows, L in _chains(flow, win_in, win_out):
        mat[rows[:, :, None], index[:, None, :]] = L
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

    def __post_init__(self):
        if self.index is None:
            self.index = np.arange(len(self.window))

    @cached_property
    def modes(self) -> Tuple[Mode, ...]:
        return self.window.modes_at(self.index)


def _gram_groups(flow: KolmogorovFlow, window: SpectralWindow
                 ) -> Iterator[Tuple[List[int], np.ndarray, np.ndarray]]:
    """B = L^T W L per bracket chain, W = diag(j^2+k^2 - lambda^2) on outputs.

    B couples two modes only through a shared bracket output, so the form
    is block-diagonal over the chains of `_chains`.  Yields
    (positions, index, B) per group of `_chains`, B stacked like its L.
    """
    ext = _extended(flow, window)
    weights = ext.laplace - flow.lambda2
    for positions, index, rows, L in _chains(flow, window, ext):
        B = L.transpose(0, 2, 1) @ (weights[rows][:, :, None] * L)
        yield positions, index, 0.5 * (B + B.transpose(0, 2, 1))


def assemble_quadform(flow: KolmogorovFlow, window: SpectralWindow) -> QuadForm:
    """Dense view: the chains of `_gram_groups` scattered into one matrix."""
    B = np.zeros((len(window), len(window)))
    for _, index, blocks in _gram_groups(flow, window):
        B[index[:, :, None], index[:, None, :]] = blocks
    return QuadForm(window, B)


@dataclass
class ReducedForm:
    """Sobolev-weighted reduction S = D^{-p/2} B D^{-p/2}, D = diag(j^2+k^2).

    The minimal eigenvalue of S has the same sign as the infimum of the
    Misiolek index over the (possibly constrained) window span; `index`
    holds the window positions of the modes that remain after
    constraints, `modes` the modes themselves.
    """

    quadform: QuadForm
    p: int
    matrix: np.ndarray
    index: np.ndarray = field(kw_only=True)

    @cached_property
    def modes(self) -> Tuple[Mode, ...]:
        return self.quadform.window.modes_at(self.index)


def _sobolev_scale(laplace: np.ndarray, p: int) -> np.ndarray:
    """D^{-p/2} on the diagonal, D = j^2+k^2."""
    if p < 0:
        raise ValueError("Sobolev order must be >= 0")
    return laplace ** (-p / 2)


def _reduce(B: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """S = D^{-p/2} B D^{-p/2}, symmetrized, for B (..., d, d) and its scale (..., d)."""
    S = B * (scale[..., :, None] * scale[..., None, :])
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def reduce_symmetric(q: QuadForm, p: int) -> ReducedForm:
    scale = _sobolev_scale(q.window.laplace[q.index], p)
    return ReducedForm(q, p, _reduce(q.matrix, scale), index=q.index)


def _positions(window: SpectralWindow, modes: Iterable[Mode]) -> np.ndarray:
    """Window positions of `modes`; ValueError if the window lacks any."""
    at = {mode: window.index_of(mode) for mode in modes}
    unknown = {mode for mode, i in at.items() if i is None}
    if unknown:
        raise ValueError(f"cannot constrain modes outside the window: {sorted(unknown)}")
    return np.array(list(at.values()), dtype=int)


def constrain(r: ReducedForm, zeroed: Iterable[Mode]) -> ReducedForm:
    """Force the listed Fourier coefficients to zero (drop rows/columns).

    Listed window modes outside r.modes (another block's) are left alone.
    """
    keep = np.flatnonzero(~np.isin(r.index, _positions(r.quadform.window, set(zeroed))))
    if not keep.size:
        raise ValueError("constraining away every mode leaves nothing to minimize")
    return ReducedForm(r.quadform, r.p, r.matrix[np.ix_(keep, keep)], index=r.index[keep])


class _ChainMinimum:
    """The scan of `window_minimum`, a group of chains at a time.

    Chains come numbered in listed order, in stacks of one shape, each
    solved by one LAPACK call.  The tie rule runs over every chain's
    minimum once all are solved; until then only chains that can still
    win it are kept.  The first listed chain that fails a check of
    `lowest_eigenpairs` raises its error.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.values = {}      # number -> lowest eigenvalue of the chain
        self.low = math.inf   # the lowest of them so far
        self.contenders = {}  # number -> (block, i, matrix, eigenvector)
        self.failure = None   # (number, error) of the first failed chain

    def add(self, positions: List[int], stack: np.ndarray,
            block: Callable[[int], ReducedForm]) -> None:
        """Solve the chains numbered `positions` (ascending), whose matrices `stack` holds.

        `block(i)` builds the ReducedForm of the i-th, should it win.
        """
        values, vectors, failure = lowest_eigenpairs(stack, self.tol)
        if failure is not None:
            # positions ascend, so the stack's first failure is its lowest
            failure = positions[failure[0]], failure[1]
            if self.failure is None or failure[0] < self.failure[0]:
                self.failure = failure
        self.values.update(zip(positions, values.tolist()))
        low = float(values.min(initial=self.low))
        # a chain whose minimum lies above another's by more than twice the
        # tie tolerance (relative) can no longer win the tie rule
        def beaten(value):
            return value > low + 2 * TIE_RTOL * np.maximum(np.abs(value), abs(low))
        if low < self.low:
            self.contenders = {position: kept for position, kept in self.contenders.items()
                               if not beaten(self.values[position])}
            self.low = low
        for i in np.flatnonzero(~beaten(values)).tolist():
            self.contenders[positions[i]] = block, i, stack[i], vectors[i]

    def minimum(self) -> Tuple[EigenPair, ReducedForm]:
        if self.failure is not None:
            raise self.failure[1]
        best = min(self.values)
        for position in sorted(self.values):
            value = self.values[position]
            if value < self.values[best] - TIE_RTOL * max(abs(value), abs(self.values[best])):
                best = position
        block, i, S, vector = self.contenders[best]
        return eigen_pair(S, self.values[best], vector, self.tol), block(i)


def _chain_form(window: SpectralWindow, p: int, index: np.ndarray, B: np.ndarray,
                S: np.ndarray, i: int) -> ReducedForm:
    """The i-th chain of a group of `window_minimum`, as a ReducedForm."""
    return ReducedForm(QuadForm(window, B[i], index[i]), p, S[i], index=index[i])


def window_minimum(flow: KolmogorovFlow, window: SpectralWindow, p: int,
                   zeroed: Iterable[Mode] = (), tol: float = 1e-10
                   ) -> Tuple[EigenPair, ReducedForm, int, int]:
    """Lowest eigenpair over the reduced bracket chains of `window`.

    Each group of `_chains` goes through the Gram product, the Sobolev
    reduction and the eigensolve as one stack; the chains that hold a
    zeroed mode leave their group to be constrained, and chains zeroed
    out entirely are skipped.  A chain's QuadForm and ReducedForm are
    built only if it is constrained or wins.  Two minima within TIE_RTOL
    of each other (relative) are a tie, won by the chain with the lowest
    first mode; the first listed chain that fails an eigensolve check
    raises its error.  Returns the pair, the ReducedForm of its chain, the
    number of chains and the modes in the largest.
    """
    scale = _sobolev_scale(window.laplace, p)
    zero_set = set(zeroed)
    zero_at = _positions(window, zero_set)
    scan = _ChainMinimum(tol)
    chains = largest = 0
    skipped = None
    for positions, index, B in _gram_groups(flow, window):
        chains += len(positions)
        largest = max(largest, index.shape[1])
        S = _reduce(B, scale[index])
        if zero_at.size:
            held = np.isin(index, zero_at)
            for i in np.flatnonzero(held.any(axis=1)).tolist():
                reduced = _chain_form(window, p, index, B, S, i)
                if held[i].all():
                    skipped = reduced
                else:
                    reduced = constrain(reduced, zero_set)
                    scan.add([positions[i]], reduced.matrix[None], [reduced].__getitem__)
            free = ~held.any(axis=1)
            if not free.any():
                continue
            positions = [positions[i] for i in np.flatnonzero(free).tolist()]
            index, B, S = index[free], B[free], S[free]
        scan.add(positions, S, partial(_chain_form, window, p, index, B, S))
    if not scan.values:
        constrain(skipped, zero_set)  # every chain is zeroed out: this raises
    pair, reduced = scan.minimum()
    return pair, reduced, chains, largest


def minimizer_coefficients(r: ReducedForm, vector: np.ndarray) -> CoeffVector:
    """Map an eigenvector of the reduced form back to f-coefficients.

    Undoes the D^{-p/2} change of variables, reinstates constrained modes
    as zeros, and normalizes so the largest-magnitude coefficient is 1
    (for reproducible output).
    """
    window = r.quadform.window
    values = np.zeros(len(window))
    # Python's pow: numpy's SIMD power can differ from it in the last bit
    scale = [d ** (-r.p / 2) for d in window.laplace[r.index].tolist()]
    values[r.index] = np.asarray(vector, dtype=float) * scale
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
    # modes outside the winning block are 0, and a zero is dropped anyway
    nonzero = np.flatnonzero(v.values)
    for mode, val in zip(v.window.modes_at(nonzero), v.values[nonzero]):
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
