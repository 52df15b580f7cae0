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
        return int(self.locate(j, k, mode.parity == SIN))

    def locate(self, j, k, sin):
        """The window positions of canonical modes (j, k), sine where `sin`, each in the window."""
        full = self.subspace == FULL
        # (j, k, parity) order over the grid 0 <= j <= N, |k| <= N, less the
        # N + 1 points j = 0, k <= 0 that precede every canonical mode
        return (j * (2 * self.N + 1) + k - 1) * (1 + full) + (sin & full)

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


def _fold(j: np.ndarray, k: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wavevectors (j, k) negated onto canonical ones, and where they were."""
    flip = (j < 0) | ((j == 0) & (k < 0))
    return np.where(flip, -j, j), np.where(flip, -k, k), flip


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
    jj, kk, flip = _fold(jj, kk)
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


class _Chains:
    """The bracket's mode chains on `window`, numbered by first mode.

    A chain is a set of modes that bracket rows link: no bracket row and
    no entry of the index form couples two chains.  `chain` holds each
    window mode's chain number and `sizes` each chain's mode count.  The
    bracket's rows come from `_stencil` into the output window `ext`.
    """

    def __init__(self, flow: KolmogorovFlow, window: SpectralWindow, ext: SpectralWindow):
        size = len(window)
        self.flow, self.window = flow, window
        self.cols, self.coeffs = _stencil(flow, window, ext)
        linked = self.coeffs != 0
        labels = _chain_labels(self.cols, linked, size)
        self.firsts = np.flatnonzero(labels == np.arange(size))
        self.chain = np.searchsorted(self.firsts, labels)
        self.sizes = np.bincount(self.chain)
        # the output rows the bracket reaches, and the chain of each
        self.rows = np.flatnonzero(linked.any(axis=1))
        self.row_chain = self.chain[self.cols[self.rows, np.argmax(linked[self.rows], axis=1)]]

    def twins(self, held: np.ndarray) -> np.ndarray:
        """The chains whose form an earlier chain repeats, as a mask.

        psi = -cos mx cos ny is invariant under x -> -x and y -> -y, and
        when m = n also under x <-> y.  Each map sends mode (j, k) to the
        canonical (j, -k), (k, j) or (k, -j) and one chain onto another
        (or itself) whose form B is the same up to a signed permutation.
        A chain is a twin if one image of its first mode lies in an earlier
        chain; neither may be `held` (hold a zeroed mode).
        """
        window, first, flow = self.window, self.firsts, self.flow
        j, k = window.j[first], window.k[first]
        images = [(j, -k)] + ([(k, j), (k, -j)] if flow.m == flow.n else [])
        twin = np.zeros(len(first), dtype=bool)
        for a, b in images:
            a, b, _ = _fold(a, b)
            image = self.chain[window.locate(a, b, window.sin[first])]
            twin |= (image < np.arange(len(first))) & ~held[image]
        return twin & ~held

    def groups(self, solve: Optional[np.ndarray] = None
               ) -> Iterator[Tuple[List[int], np.ndarray, Tuple[np.ndarray, ...]]]:
        """The chains that `solve` marks (all if None), as (positions, index, bracket) per group.

        A group holds chains of d modes, in numbered order, at most
        STACK_ENTRIES // d^2 of them and never fewer than one: `positions`
        are their numbers and `index` (count, d) the window positions of
        their modes, ascending per chain.  `bracket` is (slot, rows, local,
        coeffs) over the output rows the group reaches, ascending per
        chain: the group member each row belongs to, its position in
        `ext`, and its four stencil terms as coefficients and positions
        within that chain (a term is absent where its coefficient is 0,
        and its position then means nothing).
        """
        count = len(self.sizes)
        # each chain's modes together, in window order, by one stable sort
        order = np.argsort(self.chain, kind="stable")
        mode_starts = np.cumsum(self.sizes) - self.sizes
        local = np.empty(len(order), dtype=int)  # each mode's position within its chain
        local[order] = np.arange(len(order)) - np.repeat(mode_starts, self.sizes)
        # the chains by size, each size in numbered order and cut into stacks
        shaped = np.arange(count) if solve is None else np.flatnonzero(solve)
        shaped = shaped[np.argsort(self.sizes[shaped], kind="stable")]
        d = self.sizes[shaped]
        new_size = np.r_[True, d[1:] != d[:-1]]
        run = np.arange(len(d)) - np.maximum.accumulate(np.where(new_size, np.arange(len(d)), 0))
        slots = run % np.maximum(1, STACK_ENTRIES // (d * d))
        group_ends = np.flatnonzero(np.r_[slots[1:] == 0, True]) + 1
        # group and slot per chain; chains not solved sort after every group
        group, slot = np.full(count, count), np.zeros(count, dtype=int)
        group[shaped], slot[shaped] = np.cumsum(slots == 0) - 1, slots
        by_group = np.argsort(group[self.row_chain], kind="stable")
        row_ends = np.searchsorted(group[self.row_chain][by_group],
                                   np.arange(len(group_ends)), side="right")
        start = row_start = 0
        for end, row_end in zip(group_ends.tolist(), row_ends.tolist()):
            members = shaped[start:end]
            index = order[mode_starts[members][:, None] + np.arange(self.sizes[members[0]])]
            at = by_group[row_start:row_end]
            rows = self.rows[at]
            yield members.tolist(), index, (slot[self.row_chain[at]], rows,
                                            local[self.cols[rows]], self.coeffs[rows])
            start, row_start = end, row_end


def _gram(shape: Tuple[int, int], bracket: Tuple[np.ndarray, ...],
          weights: np.ndarray) -> np.ndarray:
    """B = L^T W L of each chain of a group (count, d), from its bracket's nonzeros.

    W = diag(j^2+k^2 - lambda^2) on the outputs.  Each pair of nonzeros
    on one output row adds one product, summed by one bincount.  L's
    entries are integers / 4 and W's integers, so every product and
    partial sum is exact and B is the same in any summation order.
    """
    count, d = shape
    slot, rows, local, coeffs = bracket
    linked = coeffs != 0
    r, s, t = np.nonzero(linked[:, :, None] & linked[:, None, :])
    at = (slot[r] * d + local[r, s]) * d + local[r, t]
    products = coeffs[r, s] * weights[rows[r]] * coeffs[r, t]
    return np.bincount(at, products, count * d * d).reshape(count, d, d)


def assemble_bracket_matrix(flow: KolmogorovFlow, win_in: SpectralWindow,
                            win_out: SpectralWindow) -> np.ndarray:
    """Dense matrix of f -> {psi, f} from win_in into win_out.

    The chains of `_Chains` scattered into one matrix.  The output window
    must be large enough that no bracket mode is lost.
    """
    if win_in.subspace != win_out.subspace:
        raise ValueError("input and output windows must share a subspace")
    m, n = flow.m, flow.n
    if win_out.N < win_in.N + max(m, n):
        raise ValueError(
            f"output window order {win_out.N} too small: need >= {win_in.N + max(m, n)}")
    mat = np.zeros((len(win_out), len(win_in)))
    for _, index, (slot, rows, local, coeffs) in _Chains(flow, win_in, win_out).groups():
        r, t = np.nonzero(coeffs)
        mat[rows[r], index[slot[r], local[r, t]]] = coeffs[r, t]
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


def assemble_quadform(flow: KolmogorovFlow, window: SpectralWindow) -> QuadForm:
    """Dense view: the `_gram` of every chain scattered into one matrix.

    B couples two modes only through a shared bracket output, so the form
    is block-diagonal over the chains.
    """
    ext = _extended(flow, window)
    weights = ext.laplace - flow.lambda2
    B = np.zeros((len(window), len(window)))
    for _, index, bracket in _Chains(flow, window, ext).groups():
        B[index[:, :, None], index[:, None, :]] = _gram(index.shape, bracket, weights)
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

    Each group of `_Chains` goes through the Gram product, the Sobolev
    reduction and the eigensolve as one stack; the chains that hold a
    zeroed mode leave their group to be constrained, chains zeroed out
    entirely are skipped, and so are the twins of earlier chains, whose
    spectra those chains share.  A chain's QuadForm and ReducedForm are
    built only if it is constrained or wins.  Two minima within TIE_RTOL
    of each other (relative) are a tie, won by the chain with the lowest
    first mode; the first listed chain that fails an eigensolve check
    raises its error.  Returns the pair, the ReducedForm of its chain, the
    number of chains and the modes in the largest, twins included.
    """
    scale = _sobolev_scale(window.laplace, p)
    zero_set = set(zeroed)
    zero_at = _positions(window, zero_set)
    ext = _extended(flow, window)
    weights = ext.laplace - flow.lambda2
    chains = _Chains(flow, window, ext)
    held = np.zeros(len(chains.sizes), dtype=bool)
    held[chains.chain[zero_at]] = True
    scan = _ChainMinimum(tol)
    skipped = None
    for positions, index, bracket in chains.groups(~chains.twins(held)):
        B = _gram(index.shape, bracket, weights)
        S = _reduce(B, scale[index])
        free = ~held[positions]
        for i in np.flatnonzero(~free).tolist():
            reduced = _chain_form(window, p, index, B, S, i)
            if np.isin(index[i], zero_at).all():
                skipped = reduced
            else:
                reduced = constrain(reduced, zero_set)
                scan.add([positions[i]], reduced.matrix[None], [reduced].__getitem__)
        if not free.all():
            positions = [positions[i] for i in np.flatnonzero(free).tolist()]
            index, B, S = index[free], B[free], S[free]
        if positions:
            scan.add(positions, S, partial(_chain_form, window, p, index, B, S))
    if not scan.values:
        constrain(skipped, zero_set)  # every chain is zeroed out: this raises
    pair, reduced = scan.minimum()
    return pair, reduced, len(chains.sizes), int(chains.sizes.max())


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
