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

from fractions import Fraction
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .eigensolve import EigenPair, lowest_eigenpairs, lowest_eigenvalues, spectrum_above
from .trigpoly import COS, SIN, KolmogorovFlow, Mode, TrigPoly, bracket, misiolek_index

FULL = "full"
SUBSPACES = (COS, SIN, FULL)
# two block minima this close, relative to the larger, are a tie
TIE_RTOL = 1e-12
# a chain of at most this many kept modes is pooled and screened by its
# lowest eigenvalue; a larger one is decided alone against its flow's
# pooled minimum, where the weight bounds and one Cholesky factorization
# cost less than its eigensolve
POOLED_MODES = 45
# certification rounds each scaled coefficient to an integer over this
MAX_DENOMINATOR = 10 ** 6


class CertificationError(RuntimeError):
    """Raised when a numerical candidate cannot be certified exactly."""


class ScanRecord(NamedTuple):
    """What `window_minimum` decided for each chain of one flow, by chain number.

    `codes` holds one decision per chain; `values` each solved chain's
    lowest eigenvalue, NaN elsewhere; `firsts` the window position of each
    chain's first mode and `sizes` its modes, zeroed ones included; and
    `winner` the number of the chain whose row is the flow's pair, -1 if
    the flow ends in an error.  The codes, in the order the scan meets them:

    - TWIN: a twin of an earlier chain, whose spectrum that chain shares;
    - ZEROED: every mode zeroed;
    - SETTLED, BOUNDED: skipped by its floor, with no Gram product: 0 for a
      chain that reaches no disc row, else its weight bound;
    - DROPPED: pooled, and ruled out by its lowest eigenvalue alone (the
      value screen); each pooled chain holds this code until it is solved;
    - BEATEN: ruled out by one Cholesky factorization;
    - SOLVED: solved for its lowest eigenpair;
    - FAILED: failed the symmetry or the residual check.
    """

    codes: np.ndarray
    values: np.ndarray
    firsts: np.ndarray
    sizes: np.ndarray
    winner: int

    TWIN, ZEROED, SETTLED, BOUNDED, DROPPED, BEATEN, SOLVED, FAILED = range(1, 9)


class SpectralWindow:
    """Canonical mode window: 0 < j^2+k^2, |j| <= N, |k| <= N, constant excluded.

    Each parity subspace holds exactly 2N^2 + 2N modes, ordered
    lexicographically by (j, k, parity) -- deterministic across runs.  The
    window is held as integer arrays `j`, `k`, a boolean `sin` and the
    float `laplace` = j^2 + k^2; `modes_at` builds `Mode`s only for the
    positions asked for.
    """

    __slots__ = ("N", "subspace", "j", "k", "sin", "laplace")

    def __init__(self, N: int, subspace: str = COS):
        if N < 1:
            raise ValueError("window order must be >= 1")
        if subspace not in SUBSPACES:
            raise ValueError(f"unknown subspace {subspace!r}")
        if (N + 1) * (2 * N + 1) > np.iinfo(np.intp).max:
            raise MemoryError(f"window order {N} is too large to index")
        parities = (False, True) if subspace == FULL else (subspace == SIN,)
        # C order of an ij-indexed grid is already (j, k, parity) order
        j, k, sin = np.meshgrid(np.arange(N + 1), np.arange(-N, N + 1),
                                np.array(parities), indexing="ij")
        canonical = (j > 0) | (k > 0)
        self.N = N
        self.subspace = subspace
        self.j, self.k, self.sin = j[canonical], k[canonical], sin[canonical]
        self.laplace = (self.j * self.j + self.k * self.k).astype(float)

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


def _fold(j: np.ndarray, k: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wavevectors (j, k) negated onto canonical ones, and where they were."""
    flip = (j < 0) | ((j == 0) & (k < 0))
    return np.abs(j), np.where(flip, -k, k), flip


def _stencil(m, n, window: SpectralWindow, j, k, sin) -> Tuple[np.ndarray, np.ndarray]:
    """The bracket's input terms for outputs at canonical modes (j, k), sine
    where `sin`, of the flows (m, n), folded into the window: m, n, j, k and
    `sin` hold one entry per output.

    Output coefficient at canonical mode (j, k):

        (1/4) [ (mk-nj)(A[j-m,k-n] - A[j+m,k+n])
              + (mk+nj)(A[j-m,k+n] - A[j+m,k-n]) ]

    where A is the even (cosine) or odd (sine) extension of the input
    coefficients to the full integer lattice.  Returns (cols, terms), both
    integer arrays of shape (4, outputs) in the dtype of j and k: the window
    index each term folds to and 4 times its coefficient, so that the
    bracket's rows are the integers `terms` over 4.  A term is 0 where the
    weight vanishes or the term folds outside the window, and its column
    is then 0.  Two terms of a row can fold to one mode; both are kept, and
    a consumer adds them.
    """
    N = window.N
    odd, cross = m * k - n * j, m * k + n * j
    terms = np.stack([odd, -odd, cross, -cross])
    jj = j + m * np.array([[-1], [1], [-1], [1]], dtype=j.dtype)
    kk = k + n * np.array([[-1], [1], [1], [-1]], dtype=k.dtype)
    # fold onto canonical modes: cos(-t) = cos(t), sin(-t) = -sin(t)
    jj, kk, flip = _fold(jj, kk)
    np.negative(terms, out=terms, where=flip & sin)
    inside = (jj <= N) & (np.abs(kk) <= N) & ((jj > 0) | (kk > 0))
    cols = window.locate(jj, kk, sin)
    cols *= inside
    terms *= inside
    return cols, terms


def _reach_boxes(m: np.ndarray, n: np.ndarray, window: SpectralWindow) -> Tuple[np.ndarray, ...]:
    """The reach box of each flow (m, n) on `window`: the canonical outputs
    (J, K), max(0, m-N) <= J <= m+N and |K| <= N+n, in the window's
    parities, the only ones whose bracket row can hold an input.  Returns
    (flow g, J, K, sin) per box row, flow by flow in (J, K, parity) order."""
    N, parities = window.N, 1 + (window.subspace == FULL)
    low = np.maximum(m - N, 0)
    runs = m + N - low + 1
    owner = np.repeat(np.arange(len(m)), runs)
    J = np.arange(len(owner)) - np.repeat(np.cumsum(runs) - runs - low, runs)
    top = (N + n)[owner]
    bottom = np.where(J > 0, -top, 1)
    lengths = (top - bottom + 1) * parities
    place = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    K = np.repeat(bottom, lengths) + place // parities
    sin = (place % parities == 1) | (window.subspace == SIN)
    return (np.repeat(owner, lengths), np.repeat(J.astype(np.int32), lengths),
            K.astype(np.int32), sin)


class _Chains:
    """The bracket's mode chains of `flows` on `window`, each numbered by first mode.

    A chain is a set of modes that bracket rows link: no bracket row and
    no entry of the index form couples two chains.  The inputs on one row
    differ by (2m, 0), (0, 2n) or (2m, +-2n), up to negation, so a chain
    lies in one class of (j mod 2m, k mod 2n) merged with its negation's,
    per parity.  Each class meets the window in a single chain: of two
    class neighbours P and P + (2m, 0), the outputs P + (m, +-n) both
    link them unless one is the origin, and likewise for (0, 2n).  So a
    window with N > 2 max(m, n) holds 2mn + 2 chains per parity.

    Flow g owns the chains `base[g]` to `base[g+1]`, and `owner` holds each
    chain's g.  A column is a flat (flow, window position) index
    g len(window) + position, and `chain` holds each column's chain number,
    found by one stable sort of the columns' class keys (no array is sized
    by m n).  `sizes` holds each chain's mode count and `firsts` the window
    position of its first mode.  The modes at the window positions `zeroed`
    stay in their chains, but `kept` counts each chain's other modes, `held`
    marks the chains that lose one, and the bracket's terms on them are 0.

    One integer table holds the rows that the bracket (`_stencil`) reaches,
    flow by flow, each flow's found in its reach box (`_reach_boxes`): `rows`
    their output modes (J, K), `row_chain` the chain of each, whose parity
    the row shares, `cols` and `terms` its four folded columns and stencil
    terms 4L (a 0 term's column is its flow's first), and `weight` its
    w = J^2+K^2 - lambda^2, with its own flow's lambda.  All but `weight`
    are int32: every term and J^2+K^2 lies below 2 R^2, R = N + max(m, n),
    and a table where that or its column count reaches 2^31 raises
    MemoryError before any array is built.  `settled` marks the chains with
    no row of w < 0, inside the disc j^2+k^2 < lambda^2: their form
    B = L^T W L has no negative eigenvalue.
    """

    def __init__(self, flows: Sequence[KolmogorovFlow], window: SpectralWindow,
                 zeroed: Sequence[int] = ()):
        size, count = len(window), len(flows)
        R = window.N + max(max(flow.m, flow.n) for flow in flows)
        if max(2 * R * R, count * size) >= 2 ** 31:
            raise MemoryError(f"window order {R} is too large to index")
        self.flows, self.window = flows, window
        m, n, lambda2 = (np.array([getattr(flow, a) for flow in flows])
                         for a in ("m", "n", "lambda2"))
        owner, J, K, sin = _reach_boxes(m, n, window)
        cols, terms = _stencil(m.astype(np.int32)[owner], n.astype(np.int32)[owner], window,
                               J, K, sin)
        terms *= np.isin(cols, zeroed, invert=True)
        live = np.flatnonzero(terms.any(axis=0))
        owner, J, K = owner[live], J[live], K[live]
        cols, terms = cols.take(live, axis=1), terms.take(live, axis=1)
        cols += owner * size
        self.cols, self.terms = np.ascontiguousarray(cols.T), np.ascontiguousarray(terms.T)
        self.rows = np.stack([J, K], axis=1)
        self.weight = J ** 2 + K ** 2 - lambda2[owner]
        # each column's class, offset past the classes of the flows before it
        m2, n2, classes = 2 * m[:, None], 2 * n[:, None], 8 * m * n
        j, k = window.j, window.k
        key = (2 * np.minimum(j % m2 * n2 + k % n2, -j % m2 * n2 + -k % n2) + window.sin
               + (np.cumsum(classes) - classes)[:, None]).ravel()
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        firsts = first[by_first]
        self.chain = np.argsort(by_first)[inverse]
        self.owner, self.firsts = np.divmod(firsts, size)
        self.base = np.searchsorted(firsts, np.arange(count + 1) * size)
        self.sizes = np.bincount(self.chain)
        flat_keep = np.tile(~np.isin(np.arange(size), zeroed), count)
        self.kept = np.bincount(self.chain[flat_keep], minlength=len(self.sizes))
        self.held = self.kept < self.sizes
        # the kept modes chain by chain from `starts`, in window order within each
        order = np.flatnonzero(flat_keep)[np.argsort(self.chain[flat_keep], kind="stable")]
        self.order = order % size
        self.starts = np.cumsum(self.kept) - self.kept
        self.local = np.zeros(count * size, dtype=int)  # each kept mode's position in its chain
        self.local[order] = np.arange(len(order)) - np.repeat(self.starts, self.kept)
        # a row's inputs lie in one class, so any column in the window names its chain
        self.row_chain = self.chain[cols.max(axis=0)]
        self.settled = np.bincount(self.row_chain[self.weight < 0], minlength=len(self.sizes)) == 0

    def twins(self) -> np.ndarray:
        """The chains whose form an earlier chain of their flow repeats, as a mask.

        psi = -cos mx cos ny is invariant under x -> -x and y -> -y, and
        when m = n also under x <-> y.  Each map sends mode (j, k) to the
        canonical (j, -k), (k, j) or (k, -j) and one chain onto another
        (or itself) whose form B is the same up to a signed permutation.
        A chain is a twin if one image of its first mode lies in an earlier
        chain; neither may be `held` (hold a zeroed mode).
        """
        window, first, held = self.window, self.firsts, self.held
        square = np.array([flow.m == flow.n for flow in self.flows])[self.owner]
        j, k, sin = window.j[first], window.k[first], window.sin[first]
        offset = self.owner * len(window)
        numbers = np.arange(len(first))
        twin = np.zeros(len(first), dtype=bool)
        for a, b, applies in ((j, -k, True), (k, j, square), (k, -j, square)):
            a, b, _ = _fold(a, b)
            image = self.chain[offset + window.locate(a, b, sin)]
            twin |= applies & (image < numbers) & ~held[image]
        return twin & ~held

    def slabs(self, pooled: np.ndarray) -> Iterator[Tuple[List[int], np.ndarray, np.ndarray]]:
        """The Gram products of the chains that `pooled` marks, from one `_gram`
        call, as (numbers, index, B) per kept-mode count d, ascending.  Ordered
        by (d, number), each chain's d^2 entries follow those of the chains
        before it in one flat buffer, so the chains of one d are one slab B
        (count, d, d); `index` holds their kept modes' window positions, of
        whichever flow owns each chain.  A chain marked alone is a slab of
        one, built from its own rows only."""
        numbers = np.flatnonzero(pooled)
        if not len(numbers):
            return
        numbers = numbers[np.argsort(self.kept[numbers], kind="stable")]
        kept = self.kept[numbers]
        squares = kept ** 2
        offsets = np.zeros(len(self.kept), dtype=int)
        offsets[numbers] = np.cumsum(squares) - squares
        flat = _gram(self, np.flatnonzero(pooled[self.row_chain]), offsets, int(squares.sum()))
        ends = [*(np.flatnonzero(np.diff(kept)) + 1).tolist(), len(numbers)]
        for first, end in zip([0] + ends, ends):
            members, d, start = numbers[first:end], int(kept[first]), offsets[numbers[first]]
            yield (members.tolist(), self.order[self.starts[members][:, None] + np.arange(d)],
                   flat[start:start + (end - first) * d * d].reshape(end - first, d, d))


def _gram(chains: _Chains, rows: np.ndarray, offsets: np.ndarray, size: int) -> np.ndarray:
    """B = L^T W L of the chains that own the table `rows`, flat over `size`
    entries: chain c's d x d, d its kept modes, row-major from offsets[c].
    Each pair of nonzeros on one row adds one product (c c') w of 16 B (the
    table holds 4L and W = diag(w)), summed by one bincount; two terms c,
    c' of a row on one column add (c + c')^2 w.  Formed in float64, no
    product wraps (in int64 one passes 2^63 at large m), and (c, c') and
    (c', c) add the same floats in the same order, so B is exactly
    symmetric.  The sums are exact while every product and partial sum
    stays below 2^53, and B is 16 B divided by 16 once, also exactly."""
    chain, terms = chains.row_chain[rows], chains.terms[rows].astype(float)
    local = chains.local[chains.cols[rows]]
    linked = terms != 0
    pairs = linked[:, :, None] & linked[:, None, :]
    starts = offsets[chain][:, None] + local * chains.kept[chain][:, None]
    at = (starts[:, :, None] + local[:, None, :])[pairs]
    products = terms[:, :, None] * terms[:, None, :]
    products *= chains.weight[rows][:, None, None]
    return np.bincount(at, products[pairs], size) / 16


def _weight_bounds(chains: _Chains, scale: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(N, A) per chain, from `_Chains`' table alone: lambda_min(S) >= -N and ||S||_2 <= A.

    On a chain, S = sum_r w_r u_r u_r^T over its rows, u_r = D^{-p/2} L_r^T
    with `scale` = D^{-p/2} on the table's flat columns (one copy of the
    window's per flow), so with q_r = |u_r|^2 (the terms of a row on one
    column summed before squaring), N = sum_{w_r < 0} |w_r| q_r and
    A = sum_r |w_r| q_r.  No Gram product is built.
    """
    x = chains.terms * scale[chains.cols]
    same = chains.cols[:, :, None] == chains.cols[:, None, :]
    q = np.einsum("rs,rt,rst->r", x, x, same) / 16
    weighted, count = np.abs(chains.weight) * q, len(chains.sizes)
    return (np.bincount(chains.row_chain, np.where(chains.weight < 0, weighted, 0), count),
            np.bincount(chains.row_chain, weighted, count))


def _reduce(B: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """S = D^{-p/2} B D^{-p/2} for B (..., d, d) and its scale (..., d).

    S is exactly symmetric where B is, as `_gram`'s B always is: the
    outer product of the scale is, and S's entries are single products.
    """
    return B * (scale[..., :, None] * scale[..., None, :])


def _positions(window: SpectralWindow, modes: Iterable[Mode]) -> np.ndarray:
    """Window positions of `modes`; ValueError if the window lacks any."""
    at = {mode: window.index_of(mode) for mode in modes}
    unknown = {mode for mode, i in at.items() if i is None}
    if unknown:
        raise ValueError(f"cannot constrain modes outside the window: {sorted(unknown)}")
    return np.array(list(at.values()), dtype=int)


def _ceiling(low):
    """low + 2 TIE_RTOL |low|, the largest minimum that can still win or tie
    against a minimum `low`, elementwise; infinite while `low` is."""
    return low + 2 * TIE_RTOL * abs(low)


class _FlowScan:
    """One flow's chains as the screen and the eigensolves return them,
    numbered within the flow: flow g's slice of its group's `_Chains` and of
    the group's `codes`, which it writes through.

    `codes` and `values` are the flow's `ScanRecord` as far as the scan has
    decided, 0 for a chain not yet decided.  `solved` maps each solved
    chain's number to its row of the stacked eigensolve, (value, index,
    vector, residual), `failures` each failing chain's number to its error,
    and `low` is the lowest solved value so far: once `_screen` returns,
    the lowest of the flow's contenders, against which its chains of more
    than POOLED_MODES modes are decided.  No reduced matrix is kept once
    solved.
    """

    def __init__(self, chains: _Chains, g: int, codes: np.ndarray):
        chosen = slice(chains.base[g], chains.base[g + 1])
        self.codes = codes[chosen]
        self.values = np.full(len(self.codes), np.nan)
        self.layout = chains.firsts[chosen], chains.sizes[chosen]
        self.solved, self.failures, self.low = {}, {}, float("inf")

    def entry(self, window: SpectralWindow, p: int
              ) -> Union[Tuple[EigenPair, np.ndarray, ScanRecord], Exception]:
        """The flow's entry of `window_minimum`: its error, which carries the
        flow's record as `record`, or its pair, coefficients and record."""
        self.codes[list(self.failures)] = ScanRecord.FAILED
        record = ScanRecord(self.codes, self.values, *self.layout, -1)
        if self.failures or not self.solved:
            error = (self.failures[min(self.failures)] if self.failures else
                     ValueError("constraining away every mode leaves nothing to minimize"))
            error.record = record
            return error
        numbers = sorted(self.solved)
        best = numbers[0]
        for number in numbers:
            value, lead = self.solved[number][0], self.solved[best][0]
            if value < lead - TIE_RTOL * max(abs(value), abs(lead)):
                best = number
        value, index, vector, residual = self.solved[best]
        # Python's pow: numpy's SIMD power in `scale` can differ from it in the last bit
        coeffs = np.zeros(len(window))
        coeffs[index] = vector * [d ** (-p / 2) for d in window.laplace[index].tolist()]
        # the peak is positive: the vector has unit norm, and no weight underflows
        return (EigenPair(value, vector, residual), coeffs / np.max(np.abs(coeffs)),
                record._replace(winner=best))


def _solve(owners: Sequence[_FlowScan], numbers: List[int], index: np.ndarray,
           stack: np.ndarray) -> None:
    """Solve the chains `numbers` of one size, each with its window positions
    `index` and reduced matrix in `stack`, in one stacked eigensolve, and
    hand each chain's row, and its failure if it fails a check, to its
    flow's scan in `owners`.  A row is the same in any stack, so where a
    chain is solved does not change its flow's result."""
    values, vectors, residuals, failures = lowest_eigenpairs(stack)
    for slot, error in failures:
        owners[slot].failures[numbers[slot]] = error
    for scan, number, at, value, vector, residual in zip(
            owners, numbers, index, values.tolist(), vectors, residuals.tolist()):
        scan.solved[number] = value, at, vector, residual
        scan.codes[number], scan.values[number] = ScanRecord.SOLVED, value
        scan.low = min(scan.low, value)


def _screen(scans: Sequence[_FlowScan], pools: dict) -> None:
    """Screen the pooled chains of `scans` and solve those that can still
    win or tie, from `pools`, which maps each size d to its slabs as arrays
    (flow ids, numbers, index, S) and is emptied.  Per size, one values-only
    eigensolve of the whole pool gives each chain a value, its symmetry
    failure goes to its flow's scan, and its margin is TIE_RTOL d max|S|,
    as in `spectrum_above`.  Both eigensolvers are backward stable, so
    either one's value lies far inside that margin of S's minimum.  Each
    flow's bound is its lowest value plus margin over every size, and a
    chain whose value less its margin lies above the ceiling of that bound
    can neither win nor tie, and stays DROPPED.  A NaN value bounds nothing
    and drops nothing.  The rest, the flow's contenders, are solved in one
    eigensolve per size, ascending."""
    bound, screened = np.full(len(scans), np.inf), []
    for d in sorted(pools):
        flow, numbers, index, S = map(np.concatenate, zip(*pools.pop(d)))
        values, failures = lowest_eigenvalues(S)
        for slot, error in failures:
            scans[flow[slot]].failures[int(numbers[slot])] = error
        margins = TIE_RTOL * d * np.max(np.abs(S), axis=(1, 2))
        np.fmin.at(bound, flow, values + margins)
        screened.append((flow, numbers, index, S, values - margins))
    for flow, numbers, index, S, lows in screened:
        keep = ~(lows > _ceiling(bound[flow]))
        if keep.any():
            _solve([scans[f] for f in flow[keep].tolist()], numbers[keep].tolist(), index[keep],
                   S[keep])


def window_minimum(flows: Sequence[KolmogorovFlow], window: SpectralWindow, p: int,
                   zeroed: Iterable[Mode] = ()
                   ) -> List[Union[Tuple[EigenPair, np.ndarray, ScanRecord], Exception]]:
    """Lowest eigenpair over the reduced bracket chains of `window`, for each flow.

    The flows of one max(m, n), a reach group, share one `_Chains` table, built
    in one pass over each flow's reach box; each flow's scan reads its own
    slice of it.  Grouping only bounds the rows of one table: one table of
    every flow would hold more at once and save no time.  Each chain is decided
    once, and its decision goes into its flow's `ScanRecord` under the code
    named here, in three phases.  First, per reach group, chains ZEROED out and
    the TWINs of earlier chains of their flow drop out, and the other chains of
    at most POOLED_MODES kept modes go through one Gram product
    (`_Chains.slabs`) and the Sobolev reduction, and are pooled by size across
    flows, coded DROPPED until they are solved; larger chains wait.  Second,
    once every flow is pooled, `_screen` makes one values-only eigensolve per
    size: a chain whose value less its margin TIE_RTOL d max|S| lies above the
    ceiling of its flow's lowest value plus margin stays DROPPED, and every
    flow's other pooled chains are SOLVED for eigenpairs in one eigensolve per
    size, so that each flow's `low` is an eigensolved value.  Third, each
    flow's waiting chains are decided one at a time, flow by flow in the order
    given, those that reach a disc row first, then the `_Chains.settled` ones,
    each in ascending number.  One whose floor lies above `_ceiling(low)` is
    skipped before its Gram product: SETTLED at floor 0, its form being PSD, or
    BOUNDED at -N - TIE_RTOL d A from `_weight_bounds` (`spectrum_above`'s
    margin, A in place of max|S|).  Any other is BEATEN if one Cholesky
    factorization shows that it can neither win nor tie (`spectrum_above`),
    else SOLVED alone.  Every reduced chain meets the symmetry check, and every
    solved one the residual check; a chain that fails either is FAILED.  Per
    flow, two solved minima within TIE_RTOL of each other (relative) are a tie,
    won by the chain with the lowest first mode, and the lowest-numbered FAILED
    chain gives the flow's error.

    Returns one entry per flow: its error, which carries the flow's record
    as `record`, or (pair, coeffs, record): the winning chain's row of its
    eigensolve, and the minimizer's coefficients, a float array over the
    window's modes, with S = D^{-p/2} B D^{-p/2} undone on the winning
    chain, 0 off it, and largest magnitude 1 while no weight underflows.
    The callers check p >= 0; a zeroed mode outside the window raises.
    """
    scale = window.laplace ** (-p / 2)
    at = _positions(window, set(zeroed))
    groups = {}
    for f, flow in enumerate(flows):
        groups.setdefault(max(flow.m, flow.n), []).append(f)
    scans, deferred, pools = [None] * len(flows), {}, {}
    for members in groups.values():
        chains = _Chains([flows[f] for f in members], window, at)
        codes = np.where(chains.kept > 0, 0, ScanRecord.ZEROED)
        codes[chains.twins()] = ScanRecord.TWIN
        wanted = codes == 0
        pooled = wanted & (chains.kept <= POOLED_MODES)
        codes[pooled] = ScanRecord.DROPPED
        ids = np.array(members)
        for g, f in enumerate(members):
            scans[f] = _FlowScan(chains, g, codes)
        for numbers, index, B in chains.slabs(pooled):
            owner = chains.owner[numbers]
            pools.setdefault(index.shape[1], []).append(
                (ids[owner], numbers - chains.base[owner], index, _reduce(B, scale[index])))
        if (wanted & ~pooled).any():
            negative, total = _weight_bounds(chains, np.tile(scale, len(members)))
            floors = np.where(chains.settled, 0, -negative - TIE_RTOL * chains.kept * total)
            deferred.update((f, (chains, floors, chains.base[g])) for g, f in enumerate(members))
    _screen(scans, pools)
    for f in sorted(deferred):
        (chains, floors, base), scan = deferred[f], scans[f]
        # the flow's chains that still wait, by number in the group's table
        waiting = (np.flatnonzero(scan.codes == 0) + base).tolist()
        for number in sorted(waiting, key=lambda c: (chains.settled[c], c)):
            top = _ceiling(scan.low)
            if floors[number] > top:  # cannot win or tie
                scan.codes[number - base] = (ScanRecord.SETTLED if chains.settled[number]
                                             else ScanRecord.BOUNDED)
                continue
            [(_, index, B)] = chains.slabs(np.arange(len(chains.sizes)) == number)
            S = _reduce(B, scale[index])
            if spectrum_above(S[0], top, TIE_RTOL):
                scan.codes[number - base] = ScanRecord.BEATEN
            else:
                _solve([scan], [number - base], index, S)
    return [scan.entry(window, p) for scan in scans]


class Certificate(NamedTuple):
    """A rationalized field and its exact index; unpacks as (field, q).
    Named, since perfbench's `spectral.max_denominator` counter reads `.field`."""

    field: TrigPoly
    q: Fraction


def _numerators(scaled: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """round(Fraction(x) * D) for D = MAX_DENOMINATOR at the positions of
    `scaled` where it may be nonzero, and those positions.

    An x with |x| <= 0.4 / D rounds to 0, and is dropped first.  The rest
    round in integers: with x = a / b, q, r = divmod(a D, b), the integer
    is q, plus 1 where 2r > b, or 2r = b and q is odd (ties to even).
    """
    D = MAX_DENOMINATOR
    at = np.flatnonzero(np.abs(scaled) > 0.4 / D)
    numerators = []
    for x in scaled[at].tolist():
        a, b = x.as_integer_ratio()
        q, r = divmod(a * D, b)
        numerators.append(q + (2 * r > b or (2 * r == b and q & 1)))
    return at, numerators


def certify_candidate(window: SpectralWindow, values: np.ndarray,
                      flow: KolmogorovFlow) -> Certificate:
    """Rationalize a float coefficient vector on `window` and evaluate the index exactly.

    Coefficients are scaled so the largest magnitude is 1, and each scaled
    float x is rounded onto the one common denominator D = MAX_DENOMINATOR:
    `Fraction(round(Fraction(x) * D), D)`, ties to even, computed in
    integers by `_numerators`, which drops every |x| <= 0.4 / D (it rounds
    to 0) before any `Mode` is built; the field is those integers over D,
    with no per-coefficient `Fraction`.  The Misiolek index
    q = MI/pi^2 of the bracket of the rebuilt field is computed with exact
    arithmetic; the bracket's coefficients are integers over 4D, so
    q * 8 * D**2 is an integer.  Returns (field, q); q < 0 is a rigorous
    conjugate-point certificate, and the scaling does not affect its sign
    (the index is homogeneous of degree 2).  A vector whose length is not
    the window's, or that is 0, raises ValueError.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(window),):
        raise ValueError("coefficient length does not match window")
    peak = np.max(np.abs(values))
    if peak == 0:
        raise ValueError("cannot certify the zero vector")
    # no Mode is built for a coefficient that rounds to 0
    at, numerators = _numerators(values / peak)
    f = TrigPoly.over(dict(zip(window.modes_at(at), numerators)), MAX_DENOMINATOR)
    phi = bracket(flow.stream(), f)
    if phi.is_zero():
        raise CertificationError("rationalized candidate lies in the kernel of the "
                                 "bracket operator")
    return Certificate(f, misiolek_index(phi, flow))
