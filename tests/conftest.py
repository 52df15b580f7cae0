import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kolmconj import spectral
from kolmconj.eigensolve import EigenPair, lowest_eigenpairs, lowest_eigenvalues
from kolmconj.exactalg import solve_linear
from kolmconj.spectral import ScanRecord, SpectralWindow
from kolmconj.trigpoly import COS, SIN, KolmogorovFlow, Mode, TrigPoly


def random_trigpoly(rng: random.Random, bandwidth: int = 8, max_coeff: int = 10,
                    n_terms: int = 5, parities=(COS, SIN)) -> TrigPoly:
    items = []
    for _ in range(n_terms):
        parity = rng.choice(parities)
        j = rng.randint(-bandwidth, bandwidth)
        k = rng.randint(-bandwidth, bandwidth)
        coeff = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 4))
        items.append((parity, j, k, coeff))
    return TrigPoly.from_terms(items)


@pytest.fixture
def rng():
    return random.Random(20240817)


# ------------------------------------------------------------ exact kernel oracles
#
# The exact kernel sums integers and builds one Fraction per result.  The
# references below are the kernel as it was before: one Fraction per
# operation, and a fold of their own, so they share no code with it.  Each
# `*_sums` keeps the raw per-mode sums, zeros included, so that tests can
# see which cancellations their inputs reach.

def _reference_fold(parity, j, k):
    """(mode, sign) of `canonicalize`: cos(-t) = cos(t), sin(-t) = -sin(t)."""
    sign = 1
    if j < 0 or (j == 0 and k < 0):
        j, k = -j, -k
        if parity == SIN:
            sign = -1
    if parity == SIN and j == 0 and k == 0:
        return None, 0
    return Mode(j, k, parity), sign


def _reference_accumulate(acc, parity, j, k, coeff):
    mode, sign = _reference_fold(parity, j, k)
    if mode is None:
        return
    old = acc.get(mode)
    if old is None:
        acc[mode] = coeff if sign > 0 else -coeff
    else:
        acc[mode] = old + coeff if sign > 0 else old - coeff


def _reference_accumulate_product(acc, p1, j1, k1, p2, j2, k2, c):
    """Add 2c * T1(j1 x + k1 y) * T2(j2 x + k2 y) by product-to-sum."""
    js, ks, jd, kd = j1 + j2, k1 + k2, j1 - j2, k1 - k2
    if p1 == COS and p2 == COS:
        _reference_accumulate(acc, COS, jd, kd, c)
        _reference_accumulate(acc, COS, js, ks, c)
    elif p1 == SIN and p2 == SIN:
        _reference_accumulate(acc, COS, jd, kd, c)
        _reference_accumulate(acc, COS, js, ks, -c)
    elif p1 == SIN:
        _reference_accumulate(acc, SIN, js, ks, c)
        _reference_accumulate(acc, SIN, jd, kd, c)
    else:
        _reference_accumulate(acc, SIN, js, ks, c)
        _reference_accumulate(acc, SIN, jd, kd, -c)


_REFERENCE_DERIVATIVE = {COS: (SIN, -1), SIN: (COS, 1)}


def reference_bracket_sums(p: TrigPoly, q: TrigPoly) -> dict:
    """{p, q}'s per-mode Fraction sums, one Fraction per term pair and per addition."""
    acc = {}
    for m1, c1 in p.terms.items():
        d1, s1 = _REFERENCE_DERIVATIVE[m1.parity]
        for m2, c2 in q.terms.items():
            cross = m1.j * m2.k - m1.k * m2.j
            if cross:
                d2, s2 = _REFERENCE_DERIVATIVE[m2.parity]
                half = Fraction(c1.numerator * c2.numerator * s1 * s2 * cross,
                                2 * c1.denominator * c2.denominator)
                _reference_accumulate_product(acc, d1, m1.j, m1.k, d2, m2.j, m2.k, half)
    return acc


def reference_product_sums(p: TrigPoly, q: TrigPoly) -> dict:
    """p * q's per-mode Fraction sums, one Fraction per term pair and per addition."""
    acc = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            _reference_accumulate_product(acc, m1.parity, m1.j, m1.k, m2.parity, m2.j, m2.k,
                                          c1 * c2 / 2)
    return acc


def reference_poly(sums: dict) -> TrigPoly:
    """The TrigPoly of per-mode sums, in their insertion order, zeros dropped."""
    return TrigPoly({mode: c for mode, c in sums.items() if c})


def evaluate(p: TrigPoly, x: float, y: float) -> float:
    """Float value of `p` at the point (x, y)."""
    total = 0.0
    for m, c in p.terms.items():
        fn = math.cos if m.parity == COS else math.sin
        total = total + float(c) * fn(m.j * x + m.k * y)
    return total


def reference_pairing(p: TrigPoly, q: TrigPoly, flow) -> Fraction:
    """sum of 2 c_p c_q (w - lambda^2) over shared modes, one Fraction at a time."""
    q_terms = q.terms
    return sum((2 * cp * q_terms[m] * (m.laplace_weight - flow.lambda2)
                for m, cp in p.terms.items() if m in q_terms), Fraction(0))


def reference_evaluate(form, point) -> Fraction:
    """y^T G y with y = (1, point), one Fraction at a time."""
    y = (Fraction(1), *point)
    return sum((ya * sum((g * yb for g, yb in zip(row, y)), Fraction(0))
                for ya, row in zip(y, form.gram)), Fraction(0))


# ------------------------------------------------------------ family forms

def monomials(form) -> dict:
    """The form's nonzero `coefficient`s, by exponent tuple, over every monomial of degree <= 2."""
    n = len(form.variables)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    monos = [(0,) * n, *units, *(tuple(map(sum, zip(u, v)))
                                 for i, u in enumerate(units) for v in units[i:])]
    return {mono: c for mono in monos if (c := form.coefficient(mono))}


def hessian_minors_positive(form) -> bool:
    """Leading principal minors of the form's Hessian H = 2 G[1:, 1:], all strictly positive.

    Minor k+1 is minor k times the Schur pivot h[k][k] - b^T H_k^-1 b,
    b = h[:k, k], so the minors are all positive iff the pivots are.
    Stopping at the first pivot <= 0 keeps every H_k solved nonsingular.
    """
    h = [[2 * g for g in row[1:]] for row in form.gram[1:]]
    for k in range(len(h)):
        b = [row[k] for row in h[:k]]
        x = solve_linear([row[:k] for row in h[:k]], b)
        if h[k][k] - sum((bi * xi for bi, xi in zip(b, x)), Fraction(0)) <= 0:
            return False
    return True


# ------------------------------------------------------------ test-side oracles
#
# The numerical route never builds a whole-window matrix: `_Chains` keeps
# each chain's bracket nonzeros in one integer table per group of flows of
# one max(m, n), and `_gram` sums the chains' forms from it, the group's
# pooled chains into one slab per kept-mode count (`_Chains.slabs`) and
# each larger chain as a slab of one.  The
# helpers below lay the table out densely, or rebuild the forms by dense
# products that share no code with `_gram`, for the tests to check against
# the exact bracket and index, and against what the scan records.

def extended(flow, window):
    """The window of order N + max(m, n), which holds every output of the
    bracket on `window`: the dense oracles lay their rows out on it."""
    return SpectralWindow(window.N + max(flow.m, flow.n), window.subspace)


def window_modes(window):
    """Every mode of the window, in window order."""
    return window.modes_at(np.arange(len(window)))


def window_values(f: TrigPoly, window) -> np.ndarray:
    """f's coefficients laid out on the window, as floats; f must fit inside it."""
    values = np.zeros(len(window))
    for mode, c in f.terms.items():
        at = window.index_of(mode)
        if at is None:
            raise ValueError(f"mode {mode!r} not contained in {window!r}")
        values[at] = float(c)
    return values


def chain_brackets(flow, window):
    """(index, rows, L) of each chain of `_Chains`, by chain number.

    `index` holds the window positions of the chain's modes, `rows` the
    output modes (J, K) its bracket reaches, in the chain's parity (the
    chain's rows of the `_Chains` table, in order), and L the dense
    bracket block between them, summed from the table's integer terms 4L,
    each divided by 4, at their columns' positions in the chain.
    """
    chains = scan_chains(flow, window)
    blocks = []
    for number in range(len(chains.sizes)):
        at = np.flatnonzero(chains.row_chain == number)
        terms, local = chains.terms[at], chains.local[chains.cols[at]]
        index = np.flatnonzero(chains.chain == number)
        L = np.zeros((len(at), len(index)))
        r, t = np.nonzero(terms)
        np.add.at(L, (r, local[r, t]), terms[r, t] / 4)
        blocks.append((index, chains.rows[at], L))
    return blocks


def output_positions(ext, window, index, rows):
    """The positions in `ext` of a chain's output modes `rows` (J, K), in
    the parity of its modes, the window positions `index`."""
    return ext.locate(rows[:, 0], rows[:, 1], window.sin[index[0]])


def bracket_matrix(flow, window) -> np.ndarray:
    """The chains' bracket blocks scattered into one matrix, window to extended window."""
    ext = extended(flow, window)
    M = np.zeros((len(ext), len(window)))
    for index, rows, L in chain_brackets(flow, window):
        M[np.ix_(output_positions(ext, window, index, rows), index)] = L
    return M


def dense_grams(flow, window):
    """Window positions and B of each chain, by chain number: the dense Gram
    product L^T W L of each chain's bracket block (checked against the exact
    bracket by `test_scattered_brackets_match_exact_bracket`), symmetrized."""
    grams = []
    for index, rows, L in chain_brackets(flow, window):
        weights = np.sum(rows.astype(float) ** 2, axis=1) - flow.lambda2
        B = L.T @ (weights[:, None] * L)
        grams.append((index.tolist(), 0.5 * (B + B.T)))
    return grams


def dense_reduced(window, index, B, p):
    """S, the Sobolev reduction of one chain's B from `dense_grams`, symmetrized."""
    scale = window.laplace[index] ** (-p / 2)
    S = B * np.outer(scale, scale)
    return 0.5 * (S + S.T)


def dense_kept(grams, window, p, c, zero_at):
    """(index, S) of chain c less the modes at the window positions `zero_at`:
    the window positions of its kept modes and its dense reduced form on
    them, from the window's `dense_grams`."""
    full, B = grams[c]
    keep = [i for i, at in enumerate(full) if at not in zero_at]
    return [full[i] for i in keep], dense_reduced(window, full, B, p)[np.ix_(keep, keep)]


def per_chain_products(flow, window, p):
    """Window positions, B and S of each chain, one chain at a time."""
    for index, B in dense_grams(flow, window):
        yield index, B, dense_reduced(window, index, B, p)


def gram_blocks(flow, window):
    """(index, B) of each chain, by chain number, B as the numerical route builds
    it with `_gram`: one slab of every chain of the window."""
    layout, chains = scan_chains(flow, window), {}
    for numbers, index, B in layout.slabs(layout.kept > 0):
        chains.update(zip(numbers, zip(index, B)))
    return [chains[number] for number in range(len(chains))]


def form_value(flow, window, v: np.ndarray) -> float:
    """sum over chains of 2 v_c^T B_c v_c, B_c from `_gram`: MI({psi, f_v}) / pi^2."""
    return sum(2 * float(v[index] @ B @ v[index]) for index, B in gram_blocks(flow, window))


def lowest_pair(S: np.ndarray) -> EigenPair:
    """The row of one matrix, solved as a stack of one, as an EigenPair;
    raises its failure."""
    values, vectors, residuals, failures = lowest_eigenpairs(S[None])
    if failures:
        raise failures[0][1]
    return EigenPair(values[0], vectors[0], residuals[0])


def scan_one(flow, window, p, zeroed=()):
    """`window_minimum` of one flow: its entry (pair, coeffs, record), or its
    error raised."""
    [found] = spectral.window_minimum([flow], window, p, zeroed)
    if isinstance(found, Exception):
        raise found
    return found


def assert_winner_solved(flow, window, p, pair, coeffs, record, zeroed=(), grams=None):
    """The winning chain is coded SOLVED with the pair's value, and the pair
    is, bit for bit, the row of the chain's dense reduced form (less the
    zeroed modes) solved alone, so that the residual is the one the scan
    checked; the coefficients are 0 off that chain's kept modes.  `grams`
    are the window's `dense_grams`, built if not given.  Returns the form."""
    zero_at = {window.index_of(mode) for mode in zeroed}
    grams = grams if grams is not None else dense_grams(flow, window)
    index, S = dense_kept(grams, window, p, record.winner, zero_at)
    row = lowest_pair(S)
    assert record.codes[record.winner] == ScanRecord.SOLVED
    assert (pair.value.hex(), pair.residual.hex(), record.values[record.winner].hex()) == (
        row.value.hex(), row.residual.hex(), row.value.hex())
    assert pair.vector.tobytes() == row.vector.tobytes()
    assert not np.delete(coeffs, index).any()
    return S


# ------------------------------------------------------------ the scan's own parts
#
# This is the one test module that reads or patches `spectral`'s and
# `eigensolve`'s private names (`test_cli.py::test_tests_read_no_private_scan_name`
# holds every other test module to that).  The tests read what the scan
# decided from the public `ScanRecord`; they reach the names below only to
# check one part of the scan on its own, to turn its screens off for a
# reference, or to inject a fault into it.

# parts checked on their own: the bracket's stencil, the reach box, the
# Sobolev reduction, the weight bounds and the certificate's rounding
reduce_form = spectral._reduce
weight_bounds = spectral._weight_bounds
numerators = spectral._numerators


def stencil(flow, window, ext):
    """`_stencil` of `flow` on every mode of `ext`, not only its reach box:
    (cols, terms), each of shape (len(ext), 4)."""
    m, n = (np.full(len(ext), value) for value in (flow.m, flow.n))
    cols, terms = spectral._stencil(m, n, window, ext.j, ext.k, ext.sin)
    return cols.T, terms.T


def reach_box(flow, window):
    """The rows of `flow`'s reach box on `window` (`_reach_boxes`), as
    (J, K, sin) tuples in their order."""
    _, J, K, sin = spectral._reach_boxes(np.array([flow.m]), np.array([flow.n]), window)
    return list(zip(J.tolist(), K.tolist(), sin.tolist()))


def scan_chains(flow, window, zeroed=()):
    """The scan's chain layout (`_Chains`) of `window` for `flow` alone, a
    group of one, less the modes at the window positions `zeroed`."""
    return group_chains([flow], window, zeroed)


def group_chains(flows, window, zeroed=()):
    """The scan's chain table (`_Chains`) of `window` for `flows`, which
    share one max(m, n), less the modes at the window positions `zeroed`."""
    return spectral._Chains(flows, window, zeroed)


def chain_alone(chains, number):
    """(index, B) of one chain of a `scan_chains` layout as the scan builds a
    chain of more than 45 kept modes: a slab of one, from its own rows only."""
    [(_, index, B)] = chains.slabs(np.arange(len(chains.sizes)) == number)
    return index, B


def _no_values(stack):
    """`lowest_eigenvalues` that reads every value as NaN and keeps the
    symmetry failures: the value screen then drops no chain, and every
    pooled chain is solved."""
    values, failures = lowest_eigenvalues(stack)
    return np.full_like(values, np.nan), failures


def _no_cholesky(*args):
    raise np.linalg.LinAlgError("screen off")


def _no_bounds(chains, scale):
    """`_weight_bounds` that bounds nothing: N infinite, so no chain is skipped by it."""
    return np.full(len(chains.sizes), np.inf), np.zeros(len(chains.sizes))


@pytest.fixture(scope="session")
def unscreened():
    """`window_minimum` with the value screen, the Cholesky screen and the
    weight bounds off, so that it eigensolves every chain that weight signs
    do not settle: the reference that the screens must not change.  Each
    (flows, window, p, zeroed) is scanned once per session, and the tests
    that compare a screen against it share that scan.  A chain solved
    alone is solved once per distinct matrix: its row is LAPACK's for those
    bytes, whichever scan asks, and the scans of one window and p share
    every such chain that no zeroed mode touches."""
    scans, rows, solve = {}, {}, spectral.lowest_eigenpairs

    def solve_once(stack):
        if len(stack) > 1:
            return solve(stack)
        key = hashlib.sha256(stack.tobytes()).digest(), stack.shape
        if key not in rows:
            rows[key] = solve(stack)
        return rows[key]

    def scan(flows, window, p, zeroed):
        key = tuple(flows), window.N, window.subspace, p, tuple(zeroed)
        if key not in scans:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spectral, "lowest_eigenvalues", _no_values)
                patch.setattr(np.linalg, "cholesky", _no_cholesky)
                patch.setattr(spectral, "_weight_bounds", _no_bounds)
                patch.setattr(spectral, "lowest_eigenpairs", solve_once)
                scans[key] = spectral.window_minimum(flows, window, p, zeroed)
        return scans[key]

    return scan


def unsettle(monkeypatch):
    """Make `_Chains` mark no chain settled until the patch is undone: the
    scan without its weight-sign screen."""
    init = spectral._Chains.__init__

    def init_spy(self, *args):
        init(self, *args)
        self.settled = np.zeros_like(self.settled)

    monkeypatch.setattr(spectral._Chains, "__init__", init_spy)


def hand_built_scan(monkeypatch, slabs):
    """`window_minimum` on (3,2) cos at N=6 over hand-built slabs.

    `slabs` stands in for `_Chains.slabs`, as (numbers, index, stack) per
    slab, and each stack for its slab's Gram products; at p = 0 the
    Sobolev reduction multiplies by 1, so the scan solves the stacks as
    given.  Returns the window and the flow's entry, or raises the entry's
    error.  Every patch, the caller's too, is undone on return.
    """
    window = SpectralWindow(6, COS)
    monkeypatch.setattr(spectral._Chains, "slabs", lambda self, pooled: iter(slabs))
    try:
        return window, scan_one(KolmogorovFlow(3, 2), window, 0)
    finally:
        monkeypatch.undo()


def break_chains(monkeypatch, targets):
    """Make each chain (flow, subspace, number) in `targets`, numbered within
    its flow, asymmetric above its diagonal as its Gram product is built, by
    max|B| in its top right entry, and record the stacks the value screen
    gets and those the eigensolve gets, as two lists, until the patches are
    undone."""
    slabs, screen, solve = spectral._Chains.slabs, spectral.lowest_eigenvalues, \
        spectral.lowest_eigenpairs
    screens, stacks = [], []

    def broken_slabs(self, pooled):
        for numbers, index, B in slabs(self, pooled):
            for slot, number in enumerate(numbers):
                g = self.owner[number]
                if (self.flows[g], self.window.subspace, number - self.base[g]) in targets:
                    B[slot, 0, -1] += np.max(np.abs(B[slot]))
            yield numbers, index, B

    monkeypatch.setattr(spectral._Chains, "slabs", broken_slabs)
    monkeypatch.setattr(spectral, "lowest_eigenvalues",
                        lambda stack: screens.append(stack) or screen(stack))
    monkeypatch.setattr(spectral, "lowest_eigenpairs",
                        lambda stack: stacks.append(stack) or solve(stack))
    return screens, stacks


def tilted(eigh, target):
    """`np.linalg.eigh` that reports the lowest eigenvalue of the matrix
    `target` 1e-6 max|S| too high, so that its residual fails the check."""
    def tilted_eigh(stack):
        values, vectors = eigh(stack)
        for i, S in enumerate(stack):
            if S.tobytes() == target.tobytes():
                values[i, 0] += 1e-6 * np.max(np.abs(S))
        return values, vectors
    return tilted_eigh
