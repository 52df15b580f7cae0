import hashlib
import math
import random
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from kolmconj import spectral
from kolmconj.eigensolve import EigenPair, lowest_eigenpairs
from kolmconj.exactalg import solve_linear
from kolmconj.spectral import SpectralWindow
from kolmconj.trigpoly import COS, SIN, Mode, TrigPoly


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
# each chain's bracket nonzeros in one integer table, and `_gram` sums the
# chains' forms from it, a flow's pooled chains into one slab per kept-mode
# count (`_Chains.slabs`) and each larger chain alone (`_Chains.alone`).
# The helpers below lay the table out densely, or rebuild the forms by
# dense products that share no code with `_gram`, for the tests to check
# against the exact bracket and index.

def extended(flow, window):
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
    positions in the extended window of the outputs its bracket reaches
    (the chain's rows of the `_Chains` table, in order), and L the dense
    bracket block between them, summed from the table's integer terms 4L,
    each divided by 4, at their columns' positions in the chain.
    """
    chains = spectral._Chains(flow, window, extended(flow, window))
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


def bracket_matrix(flow, window) -> np.ndarray:
    """The chains' bracket blocks scattered into one matrix, window to extended window."""
    M = np.zeros((len(extended(flow, window)), len(window)))
    for index, rows, L in chain_brackets(flow, window):
        M[np.ix_(rows, index)] = L
    return M


def dense_grams(flow, window):
    """Window positions and B of each chain, by chain number: the dense Gram
    product L^T W L of each chain's bracket block (checked against the exact
    bracket by `test_scattered_brackets_match_exact_bracket`), symmetrized."""
    weights = extended(flow, window).laplace - flow.lambda2
    grams = []
    for index, rows, L in chain_brackets(flow, window):
        B = L.T @ (weights[rows][:, None] * L)
        grams.append((index.tolist(), 0.5 * (B + B.T)))
    return grams


def dense_reduced(window, index, B, p):
    """S, the Sobolev reduction of one chain's B from `dense_grams`, symmetrized."""
    scale = window.laplace[index] ** (-p / 2)
    S = B * np.outer(scale, scale)
    return 0.5 * (S + S.T)


def per_chain_products(flow, window, p):
    """Window positions, B and S of each chain, one chain at a time."""
    for index, B in dense_grams(flow, window):
        yield index, B, dense_reduced(window, index, B, p)


def gram_blocks(flow, window):
    """(index, B) of each chain, by chain number, B as the numerical route builds
    it with `_gram`: one slab of every chain of the window."""
    layout, chains = spectral._Chains(flow, window, extended(flow, window)), {}
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
    """`window_minimum` of one flow: its result, or its error raised."""
    [found] = spectral.window_minimum([flow], window, p, zeroed)
    if isinstance(found, Exception):
        raise found
    return found


def follow_grams(monkeypatch):
    """Patch `_Chains.slabs` and `_Chains.alone` until the patches are undone,
    and return a list that holds, after each slab or lone chain is built,
    its (chains, numbers, index, B): `window_minimum` reduces each one
    before it builds the next."""
    slabs, alone = spectral._Chains.slabs, spectral._Chains.alone
    current = []

    def slabs_spy(self, pooled):
        for numbers, index, B in slabs(self, pooled):
            current[:] = self, numbers, index, B
            yield numbers, index, B

    def alone_spy(self, number):
        index, B = alone(self, number)
        current[:] = self, [number], index, B
        return index, B

    monkeypatch.setattr(spectral._Chains, "slabs", slabs_spy)
    monkeypatch.setattr(spectral._Chains, "alone", alone_spy)
    return current


def spy_scan(monkeypatch):
    """Record what `window_minimum` screens by value, solves and screens out
    by Cholesky, per flow, until the patches are undone.

    Returns (solved, screened, rows, valued), each keyed by flow and then by
    chain number, and each a defaultdict: a flow's dict, taken before the
    scan, is the one the scan fills.  `solved` maps each chain solved to its
    reduced matrix as the eigensolve gets it, its window positions and its
    Gram product; `screened` does the same for each chain that
    `_FlowScan.beaten` screens out, and `valued` for each pooled chain that
    meets the value screen, solved later or not; `rows` maps each chain
    solved to its row of the eigensolve's result, (value, vector,
    residual).  A matrix screened or solved that is not its chain's
    reduction, bit for bit, fails.
    """
    solved, screened, rows, valued = (defaultdict(dict) for _ in range(4))
    reduced, flows, current = {}, {}, follow_grams(monkeypatch)
    reduce, solve, screen = spectral._reduce, spectral._solve, spectral._screen
    init, beaten = spectral._FlowScan.__init__, spectral._FlowScan.beaten

    def reduce_spy(*args):
        stack = reduce(*args)
        chains, numbers, index, grams = current
        for i, number in enumerate(numbers):
            reduced[chains.flow, number] = stack[i], index[i], grams[i]
        return stack

    def init_spy(self, chains):
        init(self, chains)
        flows[self] = chains.flow

    def record(records, scan, number, S):
        flow = flows[scan]
        assert reduced[flow, number][0].tobytes() == S.tobytes()
        records[flow][number] = reduced[flow, number]
        return flow

    def screen_spy(batch):
        for scan, number, _, S in batch:
            record(valued, scan, number, S)
        screen(batch)

    def solve_spy(batch):
        solve(batch)
        for scan, number, _, S in batch:
            value, _, vector, residual = scan.solved[number]
            rows[record(solved, scan, number, S)][number] = value, vector, residual

    def beaten_spy(self, S):
        if not beaten(self, S):
            return False
        record(screened, self, current[1][0], S)
        return True

    monkeypatch.setattr(spectral, "_reduce", reduce_spy)
    monkeypatch.setattr(spectral, "_screen", screen_spy)
    monkeypatch.setattr(spectral, "_solve", solve_spy)
    monkeypatch.setattr(spectral._FlowScan, "__init__", init_spy)
    monkeypatch.setattr(spectral._FlowScan, "beaten", beaten_spy)
    return solved, screened, rows, valued


def _keep_every_chain(self, number, index, S, value, margin):
    """`_FlowScan.contend` that drops no chain: every pooled chain is solved."""
    self.contenders[number] = value - margin, index, S


def _no_cholesky(*args):
    raise np.linalg.LinAlgError("screen off")


def _no_bounds(chains, scale):
    """`_weight_bounds` that bounds nothing: N infinite, so no chain is skipped by it."""
    return np.full(len(chains.sizes), np.inf), np.zeros(len(chains.sizes))


@pytest.fixture(scope="session")
def unscreened():
    """`window_minimum` with the value screen, the Cholesky screen and the
    weight bounds off, so that it eigensolves every chain that weight signs
    do not settle.  Each (flows, window, p, zeroed) is scanned once per
    session, and the tests that compare a screen against it share that
    scan.  A chain solved alone is solved once per distinct matrix: its row
    is LAPACK's for those bytes, whichever scan asks, and the scans of one
    window and p share every such chain that no zeroed mode touches."""
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
                patch.setattr(spectral._FlowScan, "contend", _keep_every_chain)
                patch.setattr(np.linalg, "cholesky", _no_cholesky)
                patch.setattr(spectral, "_weight_bounds", _no_bounds)
                patch.setattr(spectral, "lowest_eigenpairs", solve_once)
                scans[key] = spectral.window_minimum(flows, window, p, zeroed)
        return scans[key]

    return scan


def assert_winner_solved(solved, rows, pair, coeffs, number):
    """The winner's pair is chain `number`'s row of the eigensolve that
    solved it, bit for bit, and its coefficients are 0 off that chain's
    kept modes."""
    _, index, _ = solved[number]
    value, vector, residual = rows[number]
    assert (pair.value.hex(), pair.residual.hex()) == (value.hex(), residual.hex())
    assert pair.vector.tobytes() == vector.tobytes()
    assert not np.delete(coeffs, index).any()
