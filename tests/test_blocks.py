"""Block structure of the Galerkin form over the bracket's mode chains.

The bracket with psi = -cos mx cos ny sends mode (j, k) only to
(j +- m, k +- n), so the window splits into chains that no bracket row and
no entry of the index form couples.  The numerical route has one scan over
them: `_Chains` lays the chains of the flows of one max(m, n) out, less
their zeroed modes, with their bracket's nonzeros in one integer table,
`_gram` sums the forms of their chains of at most 45 kept modes from that
table into one slab per kept-mode count, and of each larger chain alone,
and `window_minimum`
screens the slabs in stacked values-only eigensolves and solves only the
chains that can still win or tie for eigenpairs, leaving out the chains
that a flow symmetry maps onto an earlier chain, then picks the winner
among the solved chains' minima.  These tests check that scan against the
oracles of `conftest`: the chains' bracket blocks against the exact
bracket, each chain's form against its dense product L^T W L (restricted
to the kept modes), each minimum against the whole window's form
scattered from those products, and each decision of the scan's
`ScanRecord` against the dense form of its chain.  They also check the
skipped twins against the chains they repeat, drive `window_minimum` with
hand-built stacks and injected faults for its tie and failure rules, and
pin the certified values that the dense minimization gave before the
split.
"""

import itertools
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction as F

import numpy as np
import pytest

from kolmconj import eigensolve, pipeline, spectral
from kolmconj.eigensolve import (ConvergenceError, lowest_eigenpairs, lowest_eigenvalues,
                                 spectrum_above)
from kolmconj.pipeline import run_minimize
from kolmconj.spectral import (FULL, POOLED_MODES, TIE_RTOL, CertificationError, ScanRecord,
                               SpectralWindow)
from kolmconj.trigpoly import COS, SIN, KolmogorovFlow, Mode, TrigPoly, bracket

from conftest import (assert_winner_solved, bracket_matrix, break_chains, chain_alone,
                      chain_brackets, dense_grams, dense_kept, dense_reduced, extended,
                      gram_blocks, group_chains, hand_built_scan, lowest_pair,
                      per_chain_products, reduce_form, scan_chains, scan_one, shift_chain,
                      stencil, tilted, unsettle, weight_bounds, window_modes, window_values)

TWIN, ZEROED, SETTLED, BOUNDED, DROPPED, BEATEN, SOLVED, FAILED = (
    ScanRecord.TWIN, ScanRecord.ZEROED, ScanRecord.SETTLED, ScanRecord.BOUNDED,
    ScanRecord.DROPPED, ScanRecord.BEATEN, ScanRecord.SOLVED, ScanRecord.FAILED)


def chain_layout(flow, window):
    """(index, rows) of each chain of `_Chains`, by chain number."""
    return [(index, rows) for index, rows, _ in chain_brackets(flow, window)]


def chain_modes(flow, window):
    """The modes of each chain, by chain number."""
    return [window.modes_at(index) for index, _ in chain_layout(flow, window)]


@pytest.mark.parametrize("m,n,N,subspace", [
    (1, 1, 4, COS), (2, 1, 6, SIN), (3, 2, 5, FULL), (4, 4, 3, COS),
    (3, 1, 1, SIN), (2, 2, 8, FULL)])
def test_blocks_partition_the_window(m, n, N, subspace):
    flow = KolmogorovFlow(m, n)
    window = SpectralWindow(N, subspace)
    layout = chain_layout(flow, window)
    chains = chain_modes(flow, window)
    assert sorted(mode for modes in chains for mode in modes) == list(window_modes(window))
    outputs = [(*row, window.sin[index[0]]) for index, rows in layout for row in rows.tolist()]
    assert len(outputs) == len(set(outputs))
    for modes, (_, rows) in zip(chains, layout):
        assert list(modes) == sorted(modes)
        assert rows.tolist() == sorted(rows.tolist())
    assert [modes[0] for modes in chains] == sorted(modes[0] for modes in chains)


@pytest.mark.parametrize("m,n,blocks,largest", [(1, 1, 4, 220), (3, 2, 14, 77),
                                                 (4, 4, 34, 30)])
def test_block_counts_at_N20(m, n, blocks, largest):
    found = chain_layout(KolmogorovFlow(m, n), SpectralWindow(20, COS))
    assert (len(found), max(len(index) for index, _ in found)) == (blocks, largest)


def propagated_chains(cols, linked, size):
    """Smallest window index of each mode's chain, by label propagation.

    The reference for `_Chains`' closed-form labels: lower each mode's
    label to the smallest label on its bracket rows (`cols` where
    `linked`), jump labels to their labels' labels, and repeat until
    nothing moves.
    """
    labels = np.arange(size)
    while True:
        row_min = np.where(linked, labels[cols], size).min(axis=1)
        new = labels.copy()
        np.minimum.at(new, cols[linked], np.broadcast_to(row_min[:, None], cols.shape)[linked])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


@pytest.mark.parametrize("m", range(1, 9))
def test_chains_are_the_connected_classes(m):
    # every chain is connected through bracket rows, and no row links two
    # chains, so the form L^T W L couples no two chains
    for n in range(1, 9):
        flow = KolmogorovFlow(m, n)
        for N, subspace in itertools.product((1, 2, 3, 5, 2 * max(m, n) + 4), (COS, SIN, FULL)):
            window = SpectralWindow(N, subspace)
            ext = extended(flow, window)
            chains = scan_chains(flow, window)
            cols, terms = stencil(flow, window, ext)
            linked = terms != 0
            row_chains = np.where(linked, chains.chain[cols], -1)
            assert np.all((row_chains == row_chains.max(axis=1)[:, None]) | ~linked)
            assert np.array_equal(chains.firsts[chains.chain],
                                  propagated_chains(cols, linked, len(window)))


@pytest.mark.parametrize("m", range(1, 7))
def test_window_past_twice_the_wavenumbers_holds_every_class(m):
    # each of the 2mn + 2 classes of (j mod 2m, k mod 2n) under negation
    # meets the window once N > 2 max(m, n): 4, 14 and 34 for the pairs
    # that test_block_counts_at_N20 pins
    for n in range(1, 7):
        flow, N = KolmogorovFlow(m, n), 2 * max(m, n) + 1
        for subspace, parities in ((COS, 1), (SIN, 1), (FULL, 2)):
            window = SpectralWindow(N, subspace)
            chains = scan_chains(flow, window)
            assert len(chains.sizes) == parities * (2 * m * n + 2)


def test_scattered_brackets_match_exact_bracket():
    rng = random.Random(55)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        flow = KolmogorovFlow(m, n)
        window = SpectralWindow(rng.randint(1, 6), rng.choice((COS, SIN, FULL)))
        M = bracket_matrix(flow, window)
        terms, v = {}, np.zeros(len(window))
        for i, mode in enumerate(window_modes(window)):
            c = F(rng.randint(-6, 6), 4)
            if c:
                terms[mode] = c
                v[i] = float(c)
        want = window_values(bracket(flow.stream(), TrigPoly(terms)), extended(flow, window))
        assert np.max(np.abs(M @ v - want)) <= 1e-12


def _rows_with_one_column_twice(flow, window):
    """How many bracket rows that `_gram` reads hold two nonzero terms on one column."""
    chains = scan_chains(flow, window)
    local, linked = chains.local[chains.cols], chains.terms != 0
    twice = (local[:, :, None] == local[:, None, :]) & linked[:, :, None] & linked[:, None, :]
    return np.count_nonzero(np.triu(twice, 1).any(axis=(1, 2)))


def test_block_gram_equals_dense_gram():
    # B's entries are sums of a few products of quarter-integers, so every
    # summation order gives them exactly.  Each window has rows whose two
    # terms fold onto one column (in cos they cancel, in sin they add), so
    # `_gram` must add their cross products as the dense product does
    for m, n, N, subspace in [(3, 2, 6, COS), (1, 1, 5, FULL), (4, 3, 4, SIN)]:
        flow = KolmogorovFlow(m, n)
        window = SpectralWindow(N, subspace)
        assert _rows_with_one_column_twice(flow, window) >= 2
        grams, blocks = gram_blocks(flow, window), chain_brackets(flow, window)
        assert len(grams) == len(blocks)
        for (index, B), (want, rows, L) in zip(grams, blocks):
            weights = np.array([Mode(j, k, COS).laplace_weight for j, k in rows.tolist()],
                               dtype=float) - flow.lambda2
            assert np.array_equal(index, want)
            assert np.array_equal(B, L.T @ (weights[:, None] * L))


def _gram_pairs(chains):
    """Every pair of nonzero terms on one table row, in `_gram`'s order, as
    (width, at, inverse, products): the distinct entries of the pairs, each
    keyed chain * width + its row-major position in the chain's B, each
    pair's entry in `at`, and its product c c' w of 16 B as a Python int."""
    local, linked = chains.local[chains.cols], chains.terms != 0
    r, s, t = np.nonzero(linked[:, :, None] & linked[:, None, :])
    number, width = chains.row_chain[r], int(chains.kept.max()) ** 2
    at, inverse = np.unique(number * width + local[r, s] * chains.kept[number] + local[r, t],
                            return_inverse=True)
    products = chains.terms[r, s].astype(object) * chains.weight[r] * chains.terms[r, t]
    return width, at, inverse, products


def _scan_grams(chains):
    """(c, B) of every chain as the scan builds it: in a slab of the chains
    of at most 45 kept modes, or alone."""
    pooled = chains.kept <= POOLED_MODES
    built = itertools.chain(((numbers, B) for numbers, _, B in chains.slabs(pooled)),
                            (([c], chain_alone(chains, c)[1]) for c in np.flatnonzero(~pooled)))
    for numbers, slab in built:
        yield from zip(numbers, slab)


@pytest.mark.parametrize("m,n,N,subspace", [(1, 1, 80, COS), (30, 29, 61, COS),
                                             (30, 30, 61, COS), (4, 1, 40, FULL),
                                             (2000, 1, 60, COS), (30000, 1, 4, COS)])
def test_gram_sums_integers_exactly(m, n, N, subspace):
    # `_gram` sums the integer products c c' w of 16 B as floats and divides
    # by 16 once, exact while every product and every partial sum, in the
    # order its bincount adds them, stays below 2^53.  At (2000,1) N=60 and
    # (30000,1) N=4 the partial sums reach about 6.7e15 and 6.9e15, though
    # the magnitudes summed into one entry pass 2^53.  Each chain is
    # checked as the scan builds it, in a slab of the chains of at most 45
    # kept modes or alone
    flow, window = KolmogorovFlow(m, n), SpectralWindow(N, subspace)
    chains = scan_chains(flow, window)
    assert all(np.issubdtype(a.dtype, np.integer) for a in (chains.terms, chains.weight))
    width, at, inverse, products = _gram_pairs(chains)
    # each entry's partial sums in the pairs' order, which is `_gram`'s
    order = np.argsort(inverse, kind="stable")
    running = np.cumsum(products[order])
    counts = np.bincount(inverse)
    partial = running - np.repeat(np.concatenate([[0], running])[np.cumsum(counts) - counts],
                                  counts)
    assert max(abs(x) for x in partial) < 2 ** 53
    gram = np.zeros(len(at), dtype=object)
    np.add.at(gram, inverse, products)
    checked = []
    for c, B in _scan_grams(chains):
        lo, hi = np.searchsorted(at, [c * width, (c + 1) * width])
        B = B.ravel()
        assert (16 * B[at[lo:hi] - c * width]).astype(object).tolist() == gram[lo:hi].tolist()
        assert np.count_nonzero(B) == np.count_nonzero(gram[lo:hi])
        checked.append(c)
    assert sorted(checked) == list(range(len(chains.sizes)))


def test_gram_products_do_not_wrap():
    # at (32000,1) N=60 a product c c' w of 16 B reaches 1.42e19 > 2^63, so
    # in int64 it would wrap.  `_gram`'s B is exactly symmetric, and each
    # entry of 16 B lies within 2k ulps of its summed magnitudes from the
    # exact sum of its k products in Python ints: two roundings per product
    # and one per addition, each of at most half an ulp
    flow, window = KolmogorovFlow(32000, 1), SpectralWindow(60, COS)
    chains = scan_chains(flow, window)
    assert len(chains.rows) == 14883
    width, at, inverse, products = _gram_pairs(chains)
    assert max(abs(x) for x in products) > 2 ** 63
    exact, magnitude = np.zeros(len(at), dtype=object), np.zeros(len(at), dtype=object)
    np.add.at(exact, inverse, products)
    np.add.at(magnitude, inverse, np.abs(products))
    counts = np.bincount(inverse)
    checked = []
    for c, B in _scan_grams(chains):
        assert np.array_equal(B, B.T)
        lo, hi = np.searchsorted(at, [c * width, (c + 1) * width])
        B = B.ravel()
        got = 16 * B[at[lo:hi] - c * width]
        for x, want, total, k in zip(got.tolist(), exact[lo:hi], magnitude[lo:hi],
                                     counts[lo:hi].tolist()):
            assert abs(int(x) - want) <= 2 * k * math.ulp(total)
        assert not np.delete(B, at[lo:hi] - c * width).any()
        checked.append(c)
    assert sorted(checked) == list(range(len(chains.sizes)))


def test_slab_is_the_dense_form():
    # on seeded windows, with zeroed modes, twins and chains of more than 45
    # modes: each chain's B from a slab, of every chain with a kept mode or
    # of the chains that `window_minimum` pools, has the bytes of the same
    # chain built alone, and is its dense L^T W L on the kept modes
    rng = random.Random(39)
    windows = [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 14),
                rng.choice((COS, SIN, FULL))) for _ in range(16)]
    windows += [(2, 2, 14, FULL), (1, 1, 12, FULL), (3, 3, 10, SIN), (3, 2, 20, COS)]
    large = held = twins = 0
    parities = set()
    for m, n, N, subspace in windows:
        flow, window = KolmogorovFlow(m, n), SpectralWindow(N, subspace)
        zeroed = rng.sample(range(len(window)), min(rng.randint(0, 4), len(window) - 1))
        chains = scan_chains(flow, window, zeroed)
        dense = dense_grams(flow, window)
        twin = chains.twins()
        some = chains.kept > 0
        pooled = ~twin & some & (chains.kept <= POOLED_MODES)
        for wanted in (some, pooled):
            seen = []
            for numbers, index, slab in chains.slabs(wanted):
                for c, positions, B in zip(numbers, index, slab):
                    alone_index, [alone] = chain_alone(chains, c)
                    assert np.array_equal(alone_index[0], positions)
                    assert B.tobytes() == alone.tobytes(), (flow, window, c)
                    full, want = dense[c]
                    keep = [i for i, at in enumerate(full) if at not in zeroed]
                    assert positions.tolist() == [full[i] for i in keep]
                    assert np.array_equal(B, want[np.ix_(keep, keep)]), (flow, window, c)
                    large += len(keep) > 45
                    held += len(keep) < len(full)
                    twins += bool(twin[c])
                seen += numbers
            assert seen == sorted(np.flatnonzero(wanted).tolist(),
                                  key=lambda c: (chains.kept[c], c))
        parities |= set(window.sin.tolist())
    assert large and held and twins and parities == {False, True}


def _table_slice(chains, g):
    """Flow g's part of a `_Chains` table, renumbered as its own table would
    number it: per column its chain, per chain its layout and twin mark,
    per row its output mode, columns, terms, chain and weight, and per
    chain its B, kept window positions and the bytes of both."""
    size, base = len(chains.window), chains.base[g]
    chosen = slice(base, chains.base[g + 1])
    rows = np.flatnonzero(chains.owner[chains.row_chain] == g)
    slabs = {}
    for numbers, index, slab in chains.slabs(chains.owner == g):
        slabs.update((c - base, (at.tobytes(), B.tobytes()))
                     for c, at, B in zip(numbers, index, slab))
    return dict(
        chain=chains.chain[g * size:(g + 1) * size] - base, firsts=chains.firsts[chosen],
        sizes=chains.sizes[chosen], kept=chains.kept[chosen], held=chains.held[chosen],
        settled=chains.settled[chosen], twins=chains.twins()[chosen], rows=chains.rows[rows],
        cols=np.where(chains.terms[rows] != 0, chains.cols[rows] - g * size, -1),
        terms=chains.terms[rows], row_chain=chains.row_chain[rows] - base,
        weight=chains.weight[rows], slabs=slabs)


def test_group_table_slices_are_one_flow_tables():
    # one `_Chains` table of a reach group, flows of one max(m, n) mixing
    # m = n and m != n in the given order, holds each flow's own table:
    # its slice equals the flow's table alone in every array, twin and slab
    # byte.  The table alone holds exactly the rows of the stencil on the
    # whole output window that keep a nonzero term, so the reach box loses
    # none
    rng = random.Random(44)
    groups = [([(2, 2), (2, 1), (1, 2)], 4, COS, 0), ([(3, 1), (3, 3), (2, 3)], 6, SIN, 2),
              ([(1, 1)], 3, FULL, 0)]
    for _ in range(12):
        r = rng.randint(2, 7)
        pairs = rng.sample([(r, n) for n in range(1, r + 1)] + [(n, r) for n in range(1, r)],
                           rng.randint(2, min(5, 2 * r - 1)))
        pairs.insert(rng.randint(0, len(pairs)), (r, r))
        groups.append((pairs, rng.randint(1, 12), rng.choice((COS, SIN, FULL)),
                       rng.choice((0, 0, 3))))
    seen = Counter()
    for pairs, N, subspace, zero_count in groups:
        flows, window = [KolmogorovFlow(m, n) for m, n in pairs], SpectralWindow(N, subspace)
        zeroed = sorted(rng.sample(range(len(window)), min(zero_count, len(window) - 1)))
        table = group_chains(flows, window, zeroed)
        assert table.base[-1] == len(table.sizes)
        for g, flow in enumerate(flows):
            got, one = _table_slice(table, g), scan_chains(flow, window, zeroed)
            want = _table_slice(one, 0)
            for name, value in want.items():
                if name == "slabs":
                    assert got[name] == value, (flow, window, name)
                else:
                    assert value.dtype == got[name].dtype, (flow, window, name)
                    assert np.array_equal(got[name], value), (flow, window, name)
            ext = extended(flow, window)
            cols, terms = stencil(flow, window, ext)
            terms = np.where(np.isin(cols, zeroed), 0, terms)
            live = np.flatnonzero(terms.any(axis=1))
            assert np.array_equal(want["rows"], np.stack([ext.j[live], ext.k[live]], axis=1))
            assert np.array_equal(window.sin[one.firsts[one.row_chain]], ext.sin[live])
            assert np.array_equal(want["terms"], terms[live]), (flow, window)
            assert np.array_equal(want["cols"], np.where(terms[live] != 0, cols[live], -1))
            seen.update(square=flow.m == flow.n, twins=int(want["twins"].sum()),
                        held=int(want["held"].sum()),
                        top=int((ext.j[live] == flow.m + N).any()))
        seen[subspace] += 1
    assert all(seen[key] for key in ("square", "twins", "held", "top", COS, SIN, FULL))


def _dense_minimum(flow, window, p, zeroed):
    """Lowest eigenvalue and largest entry of the whole window's reduced form,
    scattered from the per-chain products, less the zeroed modes."""
    S = np.zeros((len(window), len(window)))
    for index, _, block in per_chain_products(flow, window, p):
        S[np.ix_(index, index)] = block
    keep = np.setdiff1d(np.arange(len(window)), [window.index_of(mode) for mode in zeroed])
    S = S[np.ix_(keep, keep)]
    return np.linalg.eigh(S)[0][0], np.max(np.abs(S))


def test_block_minimum_equals_dense_eigh():
    # 1e-12 relative to the larger of the eigenvalue and the matrix scale,
    # which covers minima that sit on the bracket kernel (about 1e-17)
    rng = random.Random(2024)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        flow = KolmogorovFlow(m, n)
        window = SpectralWindow(rng.randint(1, 10), rng.choice((COS, SIN, FULL)))
        zeroed = rng.sample(window_modes(window), rng.choice((0, 1, 3)))
        p = rng.randint(0, 3)
        pair = scan_one(flow, window, p, zeroed)[0]
        want, scale = _dense_minimum(flow, window, p, zeroed)
        assert abs(pair.value - want) <= 1e-12 * max(abs(want), scale)


def test_zeroed_block_is_skipped():
    flow = KolmogorovFlow(3, 2)
    window = SpectralWindow(8, COS)
    chains = chain_modes(flow, window)
    for number, modes in enumerate(chains[:3]):
        zeroed = list(modes)
        pair, coeffs, record = scan_one(flow, window, 3, zeroed)
        assert record.codes[number] == ZEROED
        assert window.modes_at([record.firsts[record.winner]])[0] != modes[0]
        assert not any(coeffs[window.index_of(mode)] for mode in modes)
        want, scale = _dense_minimum(flow, window, 3, zeroed)
        assert abs(pair.value - want) <= 1e-12 * max(abs(want), scale)
    res = run_minimize(flow, N=8, constraints=list(chains[0]))
    assert res.block_mode != chains[0][0]


def test_zeroed_first_mode_still_names_the_winning_chain():
    # zeroing the unconstrained winner's first mode leaves its chain the
    # winner, and that mode, though zeroed, still names the chain
    flow = KolmogorovFlow(3, 2)
    assert run_minimize(flow, N=8).block_mode == Mode(1, -8, COS)
    res = run_minimize(flow, N=8, constraints=[Mode(1, -8, COS)])
    assert res.block_mode == Mode(1, -8, COS)
    assert res.coeffs[SpectralWindow(8, COS).index_of(Mode(1, -8, COS))] == 0.0
    assert res.q == F(-838056731571, 10 ** 12)


def test_constraint_errors_unchanged():
    flow = KolmogorovFlow(2, 1)
    window = SpectralWindow(3, COS)
    with pytest.raises(ValueError, match="constraining away every mode"):
        run_minimize(flow, N=3, constraints=list(window_modes(window)))
    with pytest.raises(ValueError, match="cannot constrain modes outside the window"):
        run_minimize(flow, N=3, constraints=[Mode(99, 0, COS)])
    with pytest.raises(ValueError, match="cannot constrain modes outside the window"):
        run_minimize(flow, N=3, constraints=[Mode(1, 0, SIN)])


def test_tie_goes_to_earlier_block(monkeypatch):
    # two chains of one shape, solved in one stack or the later one first:
    # the later one wins only if its minimum lies below the first's by
    # more than TIE_RTOL, the winner's pair and recorded value are, bit for
    # bit, the row of its stack solved alone, and at p = 0 its coefficients
    # are its eigenvector, 0 off its modes
    flow, window = KolmogorovFlow(3, 2), SpectralWindow(6, COS)
    firsts = [index[0] for index, _ in chain_layout(flow, window)]
    positions, _, S = next(per_chain_products(flow, window, 3))
    first = np.array(positions)
    value = lowest_pair(S).value
    index = np.stack([first, first + 1])
    for shift, winner in [(1e-14, 0), (1e-9, 1)]:
        lowered = S - shift * abs(value) * np.eye(len(first))
        stack = np.stack([S, lowered])
        for slabs in ([([0, 1], index, stack)],
                      [([1], index[1:], stack[1:]), ([0], index[:1], stack[:1])]):
            got_window, (pair, coeffs, record) = hand_built_scan(monkeypatch, slabs)
            assert record.winner == winner and record.firsts[winner] == firsts[winner]
            want = np.zeros(len(got_window))
            want[first + winner] = pair.vector
            assert np.array_equal(coeffs, want / np.max(np.abs(want)))
            row = lowest_pair(stack[winner])
            assert record.codes[winner] == SOLVED
            assert (pair.value.hex(), pair.residual.hex(), record.values[winner].hex()) == (
                row.value.hex(), row.residual.hex(), row.value.hex())
            assert pair.vector.tobytes() == row.vector.tobytes()
            assert pair.value == np.linalg.eigh(stack[winner])[0][0]


def test_tie_is_with_the_minimum_not_a_running_lead(monkeypatch):
    # three chains of one shape, numbered 0-2, at low + 1.2t, low + 0.6t and
    # low, t = TIE_RTOL |low|: chain 1 ties with the minimum and chain 0 does
    # not, so chain 1 wins, in one stack or solved last first.  Walking the
    # chains against a running lead gives chain 2 (chain 1 ties with chain 0,
    # which chain 2 beats), and so does a plain argmin
    flow, window = KolmogorovFlow(3, 2), SpectralWindow(6, COS)
    positions, _, S = next(per_chain_products(flow, window, 3))
    first = np.array(positions)
    t = TIE_RTOL * abs(lowest_pair(S).value)
    stack = np.stack([S + shift * t * np.eye(len(first)) for shift in (1.2, 0.6, 0)])
    values = [lowest_pair(form).value for form in stack]

    def ties(value, low):
        return value - TIE_RTOL * max(abs(value), abs(low)) <= low

    assert [ties(value, values[2]) for value in values] == [False, True, True]
    assert ties(values[0], values[1]) and not ties(values[0], values[2])
    index = np.tile(first, (3, 1))
    for slabs in ([([0, 1, 2], index, stack)],
                  [([c], index[c:c + 1], stack[c:c + 1]) for c in (2, 1, 0)]):
        _, (pair, _, record) = hand_built_scan(monkeypatch, slabs)
        assert (record.codes[:3] == SOLVED).all() and record.winner == 1
        assert pair.value.hex() == values[1].hex() == record.values[1].hex()


def test_tie_goes_to_block_with_lowest_first_mode():
    # the cosine and sine chains of a full window have the same spectra; at
    # N=6 the two lowest hold 21 modes each and share one stacked eigensolve
    for N in (20, 6):
        res = run_minimize(KolmogorovFlow(2, 1), N=N, subspace=FULL)
        assert res.block_mode.parity == COS
        assert res.dominant_mode == Mode(1, 0, COS)
        assert res.q < 0
    assert 21 <= POOLED_MODES
    assert res.block_mode == Mode(1, -6, COS)
    winner = [modes for modes in chain_modes(KolmogorovFlow(2, 1), SpectralWindow(6, FULL))
              if modes[0] in (Mode(1, -6, COS), Mode(1, -6, SIN))]
    assert [len(modes) for modes in winner] == [21, 21]


def _sweep_chains(mmax):
    """Every reduced chain that `sweep --mmax` minimizes, grouped by size."""
    chains = defaultdict(list)
    for m in range(1, mmax + 1):
        for n in range(1, m + 1):
            for subspace in (COS, SIN):
                for index, _, S in per_chain_products(KolmogorovFlow(m, n),
                                                      SpectralWindow(12, subspace), 3):
                    chains[len(index)].append(S)
    return chains


def test_stacked_eigensolve_matches_one_at_a_time_on_sweep_chains():
    for dim, mats in _sweep_chains(6).items():
        values, vectors, residuals, failures = lowest_eigenpairs(np.stack(mats))
        assert failures == []
        for S, value, vector, residual in zip(mats, values, vectors, residuals):
            want = lowest_pair(S)
            assert value == want.value
            assert np.array_equal(vector, want.vector)
            assert residual == want.residual


SWEEP_FLOWS = [KolmogorovFlow(m, n) for m in range(1, 11) for n in range(1, m + 1)]


def _record(entry):
    """The `ScanRecord` of a `window_minimum` entry, or of its error."""
    return entry.record if isinstance(entry, Exception) else entry[2]


def _entry_bits(entry, decisions=True):
    """A `window_minimum` entry as exactly comparable values: its error's
    type and text, or the eigenvalue, residual, eigenvector and
    coefficients, floats as their bits; then its record's chain layout and
    winner, and with `decisions` its codes and values."""
    record = _record(entry)
    if isinstance(entry, Exception):
        bits = type(entry), str(entry)
    else:
        pair, coeffs, _ = entry
        bits = pair.value.hex(), pair.residual.hex(), pair.vector.tobytes(), coeffs.tobytes()
    bits += record.firsts.tobytes(), record.sizes.tobytes(), record.winner
    return bits + ((record.codes.tobytes(), record.values.tobytes()) if decisions else ())


def _run_bits(run):
    """A `run_sweep` run as exactly comparable values: its flow, subspace and
    its error's type and text, or its eigenvalue's bits and q."""
    flow, subspace, outcome = run
    if isinstance(outcome, Exception):
        return flow, subspace, type(outcome), str(outcome)
    return flow, subspace, outcome.eigen.value.hex(), outcome.q


@pytest.mark.parametrize("N,deferred", [pytest.param(N, None, id=str(N)) for N in (1, 2, 5, 12)]
                         + [pytest.param(N, (mmax, p), id=f"{mmax}-{N}-{p}")
                            for mmax, N, p in ((4, 30, 0), (4, 30, 3), (6, 16, 0))])
def test_many_flow_scan_equals_one_flow_scans(N, deferred):
    # pooling the chains of every pair n <= m <= 10, and of three with
    # n > m after pairs of their m, by size changes no flow's result or
    # decision in any bit, with and without zeroed modes.  With `deferred`
    # = (mmax, p), one scan of every pair n <= m <= mmax on a cos window
    # decides per flow exactly what the flow's one-flow scan does with its
    # chains of more than 45 modes: every pooled chain of the flow is
    # solved before they are decided, whatever other flows' chains still
    # wait with them.  At N=30 every pair has such chains; at N=16, (6,1)'s
    # decisions rest on its pooled chains.  The pairs alone cannot show
    # this, since a screen or skip never changes a winner
    if deferred:
        mmax, p = deferred
        flows = [KolmogorovFlow(m, n) for m in range(1, mmax + 1) for n in range(1, m + 1)]
        cases = [(SpectralWindow(N, COS), p, [])]
    else:
        flows = SWEEP_FLOWS + [KolmogorovFlow(1, 2), KolmogorovFlow(3, 5), KolmogorovFlow(9, 10)]
        rng, cases = random.Random(N), []
        for subspace in (COS, SIN, FULL):
            window = SpectralWindow(N, subspace)
            cases += [(window, p, zeroed) for p, zeroed in itertools.product(
                (0, 3), ([], rng.sample(window_modes(window), 1 if N == 1 else 3)))]
    decided = Counter()
    for window, p, zeroed in cases:
        many = spectral.window_minimum(flows, window, p, zeroed)
        assert len(many) == len(flows)
        for flow, entry in zip(flows, many):
            [one] = spectral.window_minimum([flow], window, p, zeroed)
            assert _entry_bits(entry) == _entry_bits(one), (flow, window.subspace, p, zeroed)
            record = _record(one)
            decided.update(record.codes[record.sizes > 45].tolist())
    if deferred:
        assert decided[BEATEN] and decided[SETTLED] + decided[BOUNDED]


@pytest.mark.parametrize("N,subspace", [(4, COS), (12, COS), (7, SIN), (6, FULL)])
def test_row_does_not_depend_on_its_stack(monkeypatch, N, subspace):
    # each chain's screen value in a pooled stack of the sweep's pairs, and
    # its (value, vector, residual) in a stack of contenders pooled across
    # pairs or in a whole pooled stack solved for eigenpairs, is, bit for
    # bit, its value or row when solved alone; with one residual per chain,
    # this keeps `sweep` and `minimize` in agreement
    stacks, solve = [], spectral.lowest_eigenpairs
    screens, screen = [], spectral.lowest_eigenvalues
    monkeypatch.setattr(spectral, "lowest_eigenpairs",
                        lambda stack: stacks.append((stack, solve(stack))) or stacks[-1][1])
    monkeypatch.setattr(spectral, "lowest_eigenvalues",
                        lambda stack: screens.append((stack, screen(stack))) or screens[-1][1])
    spectral.window_minimum(SWEEP_FLOWS, SpectralWindow(N, subspace), 3)
    monkeypatch.undo()
    contenders = [stack for stack, _ in stacks if len(stack) > 1]
    assert contenders
    screened = [(S, value) for stack, (values, _) in screens if len(stack) > 1
                for S, value in zip(stack, values)]
    assert len(screened) > 900
    for S, value in screened:
        assert value.hex() == lowest_eigenvalues(S[None])[0][0].hex()
    stacks += [(stack, solve(stack)) for stack, _ in screens]
    shared = [(S, row) for stack, rows in stacks if len(stack) > 1
              for S, row in zip(stack, zip(*rows[:3]))]
    assert len(shared) > 900 + sum(map(len, contenders))
    for S, (value, vector, residual) in shared:
        alone = lowest_pair(S)
        assert (value.hex(), residual.hex()) == (alone.value.hex(), alone.residual.hex())
        assert vector.tobytes() == alone.vector.tobytes()


def _asymmetric_counts(stacks):
    """The number of matrices in each stack that differ from their transposes."""
    return [int(np.sum(np.any(stack != stack.swapaxes(1, 2), axis=(1, 2)))) for stack in stacks]


def _scanned_sizes(record):
    """The size of each chain that a scan with no zeroed mode screens or
    solves, by chain number: each chain not a twin."""
    return {c: int(record.sizes[c]) for c in np.flatnonzero(record.codes != TWIN).tolist()}


def test_failing_chain_errors_only_its_own_flow(monkeypatch):
    # the smallest pooled chain of 2 or more modes of (3,2) cos at N=12, and
    # a chain of the same size of another pair, fail the symmetry check in
    # one pooled stack of the value screen: each pair's entry and cosine row
    # carry its one-flow scan's error, whose record codes the chain FAILED,
    # its sine row is its own sine minimization, and every other entry and
    # row is unchanged
    window = SpectralWindow(12, COS)
    clean, clean_runs = spectral.window_minimum(SWEEP_FLOWS, window, 3), pipeline.run_sweep(10)
    sizes = {flow: _scanned_sizes(_record(entry)) for flow, entry in zip(SWEEP_FLOWS, clean)}
    first = KolmogorovFlow(3, 2)
    d, number = min((d, c) for c, d in sizes[first].items() if d >= 2)
    other, other_number = next((flow, c) for flow in SWEEP_FLOWS if flow != first
                               for c, size in sizes[flow].items() if size == d)
    targets = {(first, COS, number), (other, COS, other_number)}
    screens, stacks = break_chains(monkeypatch, targets)
    broken = spectral.window_minimum(SWEEP_FLOWS, window, 3)
    asymmetric = _asymmetric_counts(screens)
    assert 2 in asymmetric and asymmetric.count(0) == len(asymmetric) - 1
    assert len(screens[asymmetric.index(2)]) > 2
    # a broken chain that contends fails the eigensolve's check again
    assert sum(_asymmetric_counts(stacks)) <= 2
    failed = {first: number, other: other_number}
    for flow, got, want in zip(SWEEP_FLOWS, broken, clean):
        if flow in failed:
            [alone] = spectral.window_minimum([flow], window, 3)
            assert isinstance(got, ValueError) and str(got) == "matrix is not symmetric"
            assert got.record.codes[failed[flow]] == FAILED
            assert _entry_bits(got) == _entry_bits(alone)
        else:
            assert _entry_bits(got) == _entry_bits(want)
    runs = pipeline.run_sweep(10)
    monkeypatch.undo()
    assert ([_run_bits(run) for run in runs if run[0] not in failed]
            == [_run_bits(run) for run in clean_runs if run[0] not in failed])
    for flow in failed:
        cos_run, sin_run = [run for run in runs if run[0] == flow]
        assert cos_run[:2] == (flow, COS) and isinstance(cos_run[2], ValueError)
        assert str(cos_run[2]) == "matrix is not symmetric"
        res = run_minimize(flow, N=12, subspace=SIN)
        assert sin_run[:2] == (flow, SIN) and sin_run[2].eigen.value == res.eigen.value
        assert sin_run[2].q == res.q


def test_sweep_makes_34_screens_of_2941_matrices_and_28_solves_of_75(monkeypatch):
    # `sweep --mmax 10` screens its 2,941 chains of at most 45 modes in one
    # values-only LAPACK call per pooled size in each of its two windows,
    # 34 in all, and solves the 70 that can still win or tie in one
    # eigenpair call per size in each window, and its 5 chains of more than
    # 45 modes alone: 75 in 28 calls
    screens, solves, pooled, scan = [], [], [], pipeline.window_minimum
    screen, solve = spectral.lowest_eigenvalues, spectral.lowest_eigenpairs

    def scan_spy(*args):
        screens.append([])
        solves.append([])
        entries = scan(*args)
        records = [_record(entry) for entry in entries]
        pooled.append(sorted({d for record in records for d in record.sizes[
            np.isin(record.codes, (DROPPED, SOLVED)) & (record.sizes <= 45)].tolist()}))
        return entries

    monkeypatch.setattr(pipeline, "window_minimum", scan_spy)
    monkeypatch.setattr(spectral, "lowest_eigenvalues",
                        lambda stack: screens[-1].append(stack.shape) or screen(stack))
    monkeypatch.setattr(spectral, "lowest_eigenpairs",
                        lambda stack: solves[-1].append(stack.shape) or solve(stack))
    pipeline.run_sweep(10)
    every_screen, every_solve = sum(screens, []), sum(solves, [])
    assert (len(every_screen), sum(count for count, _, _ in every_screen)) == (34, 2941)
    assert (len(every_solve), sum(count for count, _, _ in every_solve)) == (28, 75)
    assert [count for count, d, _ in every_solve if d > 45] == [1] * 5
    assert all(width == d for _, d, width in every_screen + every_solve)
    assert len(pooled) == 2
    for window_screens, window_solves, sizes in zip(screens, solves, pooled):
        assert [d for _, d, _ in window_screens] == sizes
        small = [d for _, d, _ in window_solves if d <= 45]
        assert small == sorted(set(small))


def test_sweep_builds_each_window_once(monkeypatch):
    # `sweep --mmax 10` scans one cosine and one sine window and builds no
    # other: each reach group's table is laid out from its flows' reach
    # boxes, with no output window
    built, init = [], SpectralWindow.__init__

    def init_spy(self, N, subspace=COS):
        built.append((N, subspace))
        init(self, N, subspace)

    monkeypatch.setattr(SpectralWindow, "__init__", init_spy)
    pipeline.run_sweep(10)
    assert built == [(12, COS), (12, SIN)]


def test_every_sweep_run_carries_its_scan_record():
    # each run of `sweep --mmax 10`, an error too, carries its flow's record
    # of its window's scan, bit for bit; on the 12 kernel rows, whose
    # rationalized candidate lies in the bracket's kernel, that record's
    # winner is a SOLVED chain
    entries = {subspace: dict(zip(SWEEP_FLOWS, spectral.window_minimum(
        SWEEP_FLOWS, SpectralWindow(12, subspace), 3))) for subspace in (COS, SIN)}
    runs = pipeline.run_sweep(10)
    for flow, subspace, outcome in runs:
        got, want = outcome.record, _record(entries[subspace][flow])
        assert [field.tobytes() for field in got[:4]] == [field.tobytes() for field in want[:4]]
        assert got.winner == want.winner
    kernel = [outcome.record for _, _, outcome in runs
              if isinstance(outcome, CertificationError)]
    assert len(kernel) == 12
    assert all(record.codes[record.winner] == SOLVED for record in kernel)


@pytest.mark.parametrize("m,n,N,subspace", [(30, 22, 64, COS), (5, 4, 20, COS),
                                             (1, 1, 20, FULL), (3, 3, 30, SIN)])
def test_slabs_and_stacks_hold_one_shape_and_one_screen_per_pooled_size(monkeypatch, m, n, N, subspace):
    # the slabs come by ascending kept-mode count, one count each, and with
    # the chains built alone hold every chain once, with exactly symmetric
    # B and S; each stack the scan screens holds one shape, and every
    # pooled chain of its size, and each stack it solves holds one shape,
    # one per contender size
    flow = KolmogorovFlow(m, n)
    window = SpectralWindow(N, subspace)
    scales = [window.laplace ** (-p / 2) for p in (0, 1, 3)]
    chains = scan_chains(flow, window)
    pooled = chains.kept <= POOLED_MODES
    slabs = list(chains.slabs(pooled))
    sizes = [index.shape[1] for _, index, _ in slabs]
    assert sizes == sorted(set(sizes)) and all(d <= 45 for d in sizes)
    firsts, held = {}, []
    alone = [([c], *chain_alone(chains, c)) for c in np.flatnonzero(~pooled)]
    for numbers, index, B in slabs + alone:
        count, d = index.shape
        assert B.shape == (count, d, d) and numbers == sorted(numbers)
        assert not firsts.keys() & set(numbers)
        firsts.update(zip(numbers, index[:, 0].tolist()))
        held += index.ravel().tolist()
        # B and S are exactly symmetric: the eigensolve takes them as they are
        assert np.array_equal(B, B.swapaxes(-1, -2))
        for scale in scales:
            S = reduce_form(B, scale[index])
            assert np.array_equal(S, S.swapaxes(-1, -2))
    # the chains are numbered by first mode, and together hold the window
    assert sorted(firsts) == list(range(len(firsts)))
    assert [firsts[number] for number in range(len(firsts))] == sorted(firsts.values())
    assert sorted(held) == list(range(len(window)))
    screens, screen = [], spectral.lowest_eigenvalues
    shapes, solve = [], spectral.lowest_eigenpairs
    monkeypatch.setattr(spectral, "lowest_eigenvalues",
                        lambda stack: screens.append(stack.shape) or screen(stack))
    monkeypatch.setattr(spectral, "lowest_eigenpairs",
                        lambda stack: shapes.append(stack.shape) or solve(stack))
    spectral.window_minimum([flow], window, 3)
    monkeypatch.undo()
    stacks, solves = defaultdict(list), defaultdict(list)
    for count, d, width in screens:
        assert width == d and count >= 1
        stacks[d].append(count)
    for count, d, width in shapes:
        assert width == d and count >= 1
        solves[d].append(count)
    # each pooled mode count is screened in one stack, and its contenders
    # are solved in one stack
    pooled_counts = np.bincount(chains.kept[~chains.twins() & pooled])
    assert set(stacks) == set(np.flatnonzero(pooled_counts).tolist())
    for d, counts in stacks.items():
        assert counts == [pooled_counts[d]]
    for d, counts in solves.items():
        if d <= 45:
            assert sum(counts) <= pooled_counts[d]
            assert len(counts) == 1
    assert solves


def _symmetries(flow):
    """The maps (j, k) -> (j', k') of f -> f o g, for each g that fixes psi.

    y -> -y always; when m = n also x <-> y and (x, y) -> (-y, x).
    """
    maps = [lambda j, k: (j, -k)]
    if flow.m == flow.n:
        maps += [lambda j, k: (k, j), lambda j, k: (k, -j)]
    return maps


def _image(mode, symmetry):
    """The canonical image of `mode` under `symmetry`, and its sign."""
    j, k = symmetry(mode.j, mode.k)
    if j < 0 or (j == 0 and k < 0):
        return Mode(-j, -k, mode.parity), -1 if mode.parity == SIN else 1
    return Mode(j, k, mode.parity), 1


def _twins(flow, window, zeroed=()):
    """The chains that a symmetry maps onto an earlier chain, where neither
    chain holds a `zeroed` mode."""
    chains = chain_modes(flow, window)
    number = {mode: c for c, modes in enumerate(chains) for mode in modes}
    held = {number[mode] for mode in zeroed}
    return {c for c, modes in enumerate(chains) if c not in held
            and any(t < c and t not in held
                    for t in (number[_image(modes[0], g)[0]] for g in _symmetries(flow)))}


def _dense_forms(grams, window, p, zeroed=()):
    """(index, S) of each chain by chain number, less the zeroed modes:
    the window positions of its kept modes and its dense reduced form,
    from the window's `dense_grams`."""
    zero_at = {window.index_of(mode) for mode in zeroed}
    return [dense_kept(grams, window, p, c, zero_at) for c in range(len(grams))]


def _assert_minima_above(chains):
    """Each (label, S, floor) of `chains` has its lowest eigenvalue above
    floor, by one dense `eigvalsh` stack per size; the failing labels are
    reported."""
    sizes = defaultdict(list)
    for label, S, floor in chains:
        sizes[len(S)].append((label, S, floor))
    for group in sizes.values():
        lowest = np.linalg.eigvalsh(np.stack([S for _, S, _ in group]))[:, 0]
        assert not [label for (label, _, floor), low in zip(group, lowest) if not low > floor]


def _ceiling(value):
    """value + 2 TIE_RTOL |value|: the largest minimum that can still win or
    tie against `value`."""
    return value + 2 * TIE_RTOL * abs(value)


def _assert_record(flow, window, p, entry, zeroed=(), grams=None):
    """Check a one-flow scan's entry (pair, coeffs, record), decision by
    decision, against the dense oracles (`grams`, the window's
    `dense_grams`, are built if not given), and return its record.

    The record's chains are the oracle's, by first mode and size.  The
    chains zeroed out, and the twins of earlier chains where neither chain
    holds a zeroed mode, are coded so.  Only chains of at most 45 kept
    modes meet the value screen, and only larger ones are skipped by a
    floor or beaten by Cholesky.  Each solved chain's value is the lowest
    value of its own dense form solved alone, bit for bit, and the winner's
    pair is that form's row.  A chain skipped by floor 0 reaches no disc
    row, and one skipped by its weight bound does; either floor lies above
    the winner's tie window.  A chain of more than 45 modes is solved only
    if the lowest value of the flow's pooled chains leaves it a chance to
    win or tie, and is skipped by floor 0 once a negative winner that
    reaches a disc row is solved.  Every chain ruled out by a screen or a
    weight bound has its dense minimum above the winner's tie window.
    """
    pair, coeffs, record = entry
    grams = grams if grams is not None else dense_grams(flow, window)
    forms = _dense_forms(grams, window, p, zeroed)
    codes, values = record.codes, record.values
    assert record.firsts.tolist() == [full[0] for full, _ in grams]
    assert record.sizes.tolist() == [len(full) for full, _ in grams]
    kept = np.array([len(index) for index, _ in forms])
    assert np.array_equal(codes == ZEROED, kept == 0)
    assert set(np.flatnonzero(codes == TWIN).tolist()) == _twins(flow, window, zeroed)
    assert set(codes.tolist()) <= {TWIN, ZEROED, SETTLED, BOUNDED, DROPPED, BEATEN, SOLVED}
    assert (kept[codes == DROPPED] <= 45).all()
    assert (kept[np.isin(codes, (SETTLED, BOUNDED, BEATEN))] > 45).all()
    solved = np.flatnonzero(codes == SOLVED)
    assert np.isnan(np.delete(values, solved)).all()
    for c in solved:
        assert values[c].hex() == lowest_pair(forms[c][1]).value.hex(), (flow, c)
    assert_winner_solved(flow, window, p, pair, coeffs, record, zeroed, grams)
    chains = scan_chains(flow, window, [window.index_of(mode) for mode in zeroed])
    negative, total = weight_bounds(chains, window.laplace ** (-p / 2))
    floors = np.where(chains.settled, 0, -negative - TIE_RTOL * chains.kept * total)
    assert chains.settled[codes == SETTLED].all() and not chains.settled[codes == BOUNDED].any()
    assert (floors[np.isin(codes, (SETTLED, BOUNDED))] > _ceiling(pair.value)).all()
    pooled = values[(codes == SOLVED) & (kept <= 45)]
    top = _ceiling(pooled.min()) if len(pooled) else np.inf
    for c in solved[kept[solved] > 45]:
        S = forms[c][1]
        tau = top + TIE_RTOL * len(S) * np.max(np.abs(S))
        assert not floors[c] > top and not spectrum_above(S, tau), (flow, c)
    if pair.value < 0 and not chains.settled[record.winner]:
        deferred = (kept > 45) & ~np.isin(codes, (TWIN, ZEROED))
        assert (codes[deferred & chains.settled] == SETTLED).all()
    _assert_minima_above([((flow, c), forms[c][1], _ceiling(pair.value))
                          for c in np.flatnonzero(np.isin(codes, (BOUNDED, DROPPED, BEATEN)))])
    return record


GROUPED_WINDOWS = ([(m, n, 12, subspace) for m in range(1, 11) for n in range(1, m + 1)
                    for subspace in (COS, SIN)]
                   + [(1, 1, 20, FULL), (4, 1, 40, COS)])
# windows with twins, where constraints hold chains in each way the scan
# treats apart (see `_zeroings`)
CONSTRAINED_WINDOWS = [(3, 2, 20, COS), (4, 4, 20, COS), (2, 2, 14, FULL), (4, 2, 12, SIN)]


def _zeroings(flow, window):
    """Zeroed mode lists: the first mode of chain 0; all of chain 1 and
    the last mode of chain 0; a mode of the first twin; a mode of the
    chain that twin repeats."""
    chains = chain_modes(flow, window)
    number = {mode: c for c, modes in enumerate(chains) for mode in modes}
    twin = min(_twins(flow, window))
    repeated = min(number[_image(chains[twin][0], g)[0]] for g in _symmetries(flow))
    return [[chains[0][0]], list(chains[1]) + [chains[0][-1]], [chains[twin][-1]],
            [chains[repeated][0]]]


def test_grouped_products_equal_per_chain_products():
    # every decision of the scan on the sweep's windows, on two larger ones
    # and on windows with zeroed modes and twins, checked by `_assert_record`
    # against each chain's dense form, its reduced Gram product on the modes
    # left after constraints: each code but FAILED occurs.  (2,1) cos at
    # N=16 has no pooled chain, and its settled chain 1 of 76 modes is
    # skipped only because it is decided after the chains 0 and 2 that
    # reach a disc row
    cases = [(m, n, N, subspace, [])
             for m, n, N, subspace in GROUPED_WINDOWS + [(2, 1, 16, COS)]]
    for m, n, N, subspace in CONSTRAINED_WINDOWS:
        window = SpectralWindow(N, subspace)
        cases += [(m, n, N, subspace, zeroed)
                  for zeroed in _zeroings(KolmogorovFlow(m, n), window)]
    decided = Counter()
    for m, n, N, subspace, zeroed in cases:
        flow, window = KolmogorovFlow(m, n), SpectralWindow(N, subspace)
        record = _assert_record(flow, window, 3, scan_one(flow, window, 3, zeroed), zeroed)
        decided.update(record.codes.tolist())
    assert sorted(decided) == [TWIN, ZEROED, SETTLED, BOUNDED, DROPPED, BEATEN, SOLVED]
    flow, window = KolmogorovFlow(2, 1), SpectralWindow(16, COS)
    assert scan_one(flow, window, 3)[2].codes.tolist() == [SOLVED, SETTLED, SOLVED] + [BOUNDED] * 3


# (m, n, N, subspace) and the chain count and largest chain the window had
# before twins were skipped
TWIN_WINDOWS = [((3, 2, 20, COS), 14, 77), ((4, 4, 20, COS), 34, 30),
                ((2, 2, 14, FULL), 20, 56), ((1, 1, 40, FULL), 8, 840),
                ((4, 2, 12, SIN), 18, 24)]


@pytest.mark.parametrize("case,blocks,largest", TWIN_WINDOWS)
def test_skipped_twins_repeat_an_earlier_chain(case, blocks, largest):
    m, n, N, subspace = case
    flow, window = KolmogorovFlow(m, n), SpectralWindow(N, subspace)
    res = run_minimize(flow, N=N, subspace=subspace)
    chains = chain_modes(flow, window)
    products = list(per_chain_products(flow, window, 3))
    # every decision holds against the dense forms: the chains ruled out
    # by a screen or a floor are not skipped as twins
    record = _assert_record(flow, window, 3, (res.eigen, res.coeffs, res.record),
                            grams=[(index, B) for index, B, _ in products])
    skipped = set(np.flatnonzero(record.codes == TWIN).tolist())
    assert skipped and skipped == _twins(flow, window)
    for c in skipped:
        # some symmetry maps chain c onto an earlier chain t, and carries
        # c's form onto t's exactly, up to the signs of the images
        matches = 0
        for g in _symmetries(flow):
            images = [_image(mode, g) for mode in chains[c]]
            t = next(t for t, modes in enumerate(chains) if images[0][0] in modes)
            if t >= c:
                continue
            at = {mode: i for i, mode in enumerate(chains[t])}
            assert sorted(at) == sorted(image for image, _ in images)
            perm = [at[image] for image, _ in images]
            sign = np.array([s for _, s in images], dtype=float)
            B_c, B_t = products[c][1], products[t][1]
            assert np.array_equal(B_t[np.ix_(perm, perm)], np.outer(sign, sign) * B_c)
            matches += 1
        assert matches
    assert (res.blocks, res.block_dim_max) == (blocks, largest)


def _screen_cases(window):
    """(p, zeroed) of each scan that the screen tests compare against the
    unscreened scan: p = 0 and 3, with no zeroed mode and with 1-3 seeded
    ones."""
    rng = random.Random(window.N)
    return [(p, rng.sample(window_modes(window), count))
            for p, count in itertools.product((0, 3), (0, rng.randint(1, 3)))]


def _assert_screened_alike(entry, want):
    """A scan's entry is, bit for bit, the entry `want` of the scan with its
    screens off, and every chain it solves is solved there alike; that scan
    drops, beats and bounds no chain."""
    assert _entry_bits(entry, decisions=False) == _entry_bits(want, decisions=False)
    record, reference = _record(entry), _record(want)
    solved = record.codes == SOLVED
    assert (reference.codes[solved] == SOLVED).all()
    assert reference.values[solved].tobytes() == record.values[solved].tobytes()
    assert not np.isin(reference.codes, (DROPPED, BEATEN, BOUNDED)).any()


# the windows of GROUPED_WINDOWS, each scanned once over all its flows, and
# four large ones where most chains of more than 45 modes are screened out
SCREENED_WINDOWS = defaultdict(list)
for _m, _n, _N, _subspace in GROUPED_WINDOWS + [(1, 1, 40, FULL), (2, 1, 40, COS),
                                                (3, 2, 40, COS), (4, 3, 30, FULL)]:
    SCREENED_WINDOWS[_N, _subspace].append(KolmogorovFlow(_m, _n))


@pytest.mark.parametrize("N,subspace", list(SCREENED_WINDOWS))
def test_screen_changes_no_entry(unscreened, N, subspace):
    # with the Cholesky screen and the weight bounds on, every flow's entry
    # is bit for bit the entry of a scan with both off (and the value screen
    # too), which solves every chain that weight signs do not settle; and
    # each chain coded BEATEN has, by the dense oracle, its lowest
    # eigenvalue above the flow's winning value by more than the tie window
    flows, window = SCREENED_WINDOWS[N, subspace], SpectralWindow(N, subspace)
    beaten, grams = [], {}
    for p, zeroed in _screen_cases(window):
        entries = spectral.window_minimum(flows, window, p, zeroed)
        for flow, entry, want in zip(flows, entries, unscreened(flows, window, p, zeroed)):
            _assert_screened_alike(entry, want)
            numbers = np.flatnonzero(_record(entry).codes == BEATEN)
            if not len(numbers):
                continue
            if flow not in grams:  # B does not depend on p or the zeroed modes
                grams[flow] = dense_grams(flow, window)
            forms = _dense_forms(grams[flow], window, p, zeroed)
            beaten += [((flow, p, c), forms[c][1], _ceiling(entry[0].value)) for c in numbers]
    _assert_minima_above(beaten)
    if N >= 30:
        assert beaten


def _raised(stack):
    """`lowest_eigenvalues` with each value raised by half its margin
    TIE_RTOL dim max|S|: a values-only solve as far off as the screen may
    find one."""
    values, failures = lowest_eigenvalues(stack)
    margins = TIE_RTOL * stack.shape[1] * np.max(np.abs(stack), axis=(1, 2))
    return values + margins / 2, failures


@pytest.mark.parametrize("subspace", [COS, SIN])
def test_value_screen_changes_no_entry(monkeypatch, unscreened, subspace):
    # with the value screen on, every entry of a scan of the sweep's pairs
    # is bit for bit the entry of a scan that eigensolves every pooled chain
    # (with the Cholesky screen and the weight bounds off as well), and so
    # it is when each screen value lies half its margin above LAPACK's; a
    # flow's chains of more than 45 modes are decided against the
    # eigensolved values of its pooled chains (`_assert_record`), and (3,1)
    # beats some of its chains by Cholesky against them; and each pooled
    # chain coded DROPPED has, by the dense oracle, its lowest eigenvalue
    # above the flow's winning value by more than the tie window.  (6,6),
    # (7,6) and (7,7) have no negative minimum: in cos, (6,6) has two
    # chains with minima at rounding level, -1.4e-10 and 0 at p = 0, whose
    # raised screen values come in the opposite order
    window, grams, pooled, above = SpectralWindow(12, subspace), {}, 0, {}
    beaten = Counter()
    for (case, (p, zeroed)), raised in itertools.product(enumerate(_screen_cases(window)),
                                                         (False, True)):
        if raised:
            monkeypatch.setattr(spectral, "lowest_eigenvalues", _raised)
        entries = spectral.window_minimum(SWEEP_FLOWS, window, p, zeroed)
        monkeypatch.undo()
        zero_at = {window.index_of(mode) for mode in zeroed}
        for flow, entry, want in zip(SWEEP_FLOWS, entries,
                                     unscreened(SWEEP_FLOWS, window, p, zeroed)):
            _assert_screened_alike(entry, want)
            record = _record(entry)
            if not raised:
                if flow not in grams:  # B does not depend on p or the zeroed modes
                    grams[flow] = dense_grams(flow, window)
                if record.sizes.max() > 45:
                    _assert_record(flow, window, p, entry, zeroed, grams[flow])
                kept = np.array([len(set(full) - zero_at) for full, _ in grams[flow]])
                pooled += np.count_nonzero(np.isin(record.codes, (DROPPED, SOLVED)) & (kept <= 45))
            for number in np.flatnonzero(record.codes == DROPPED).tolist():
                if (case, flow, number) not in above:  # the dense form of each chain dropped
                    above[case, flow, number] = (
                        dense_kept(grams[flow], window, p, number, zero_at)[1],
                        _ceiling(entry[0].value))
            beaten[flow] += np.count_nonzero(record.codes == BEATEN)
    _assert_minima_above([(label, S, floor) for label, (S, floor) in above.items()])
    assert beaten[KolmogorovFlow(3, 1)] and len(above) > 0.95 * pooled


def test_screen_keeps_the_symmetry_check(monkeypatch):
    # a chain of more than 45 modes that the screen beats, made asymmetric
    # above its diagonal only, which Cholesky does not read, still ends its
    # flow with the eigensolve's symmetry error, and is coded FAILED
    flow, window = KolmogorovFlow(3, 2), SpectralWindow(40, COS)
    number = int(np.flatnonzero(scan_one(flow, window, 3)[2].codes == BEATEN).max())
    index, S = dense_kept(dense_grams(flow, window), window, 3, number, set())
    assert len(S) > 45
    _, stacks = break_chains(monkeypatch, {(flow, COS, number)})
    with pytest.raises(ValueError, match="^matrix is not symmetric$") as error:
        scan_one(flow, window, 3)
    monkeypatch.undo()
    assert error.value.record.codes[number] == FAILED
    [broken] = [stack[0] for stack in stacks if not np.array_equal(stack, stack.swapaxes(1, 2))]
    assert np.array_equal(np.tril(broken), np.tril(S)) and not np.array_equal(broken, S)


def test_value_screen_keeps_the_symmetry_check(monkeypatch):
    # the last pooled chain that the value screen drops, made asymmetric
    # above its diagonal only, which the values-only solve does not read,
    # still ends its flow with the symmetry error, and is coded FAILED,
    # though it is still dropped and never eigensolved
    flow, window = KolmogorovFlow(3, 2), SpectralWindow(12, COS)
    number = int(np.flatnonzero(scan_one(flow, window, 3)[2].codes == DROPPED).max())
    _, S = dense_kept(dense_grams(flow, window), window, 3, number, set())
    screens, stacks = break_chains(monkeypatch, {(flow, COS, number)})
    with pytest.raises(ValueError, match="^matrix is not symmetric$") as error:
        scan_one(flow, window, 3)
    monkeypatch.undo()
    assert error.value.record.codes[number] == FAILED
    [broken] = [T for stack in screens for T in stack if not np.array_equal(T, T.T)]
    assert np.array_equal(np.tril(broken), np.tril(S)) and not np.array_equal(broken, S)
    assert stacks and _asymmetric_counts(stacks) == [0] * len(stacks)


def test_nan_screen_value_drops_and_bounds_nothing(monkeypatch):
    # the last pooled chain of (3,2) that the value screen drops, read as
    # NaN in the sweep's N=12 cos scan, is neither dropped nor a bound on
    # its flow: it is SOLVED, the flow still drops other chains, and every
    # entry is, bit for bit, the clean scan's, the NaN chain's code and
    # value aside
    flow, window = KolmogorovFlow(3, 2), SpectralWindow(12, COS)
    clean = spectral.window_minimum(SWEEP_FLOWS, window, 3)
    record = _record(clean[SWEEP_FLOWS.index(flow)])
    number = int(np.flatnonzero(record.codes == DROPPED).max())
    _, S = dense_kept(dense_grams(flow, window), window, 3, number, set())
    screen, hits = spectral.lowest_eigenvalues, []

    def nan_screen(stack):
        values, failures = screen(stack)
        at = [i for i, T in enumerate(stack) if T.shape == S.shape and np.array_equal(T, S)]
        values[at] = np.nan
        hits.extend(at)
        return values, failures

    monkeypatch.setattr(spectral, "lowest_eigenvalues", nan_screen)
    entries = spectral.window_minimum(SWEEP_FLOWS, window, 3)
    monkeypatch.undo()
    assert len(hits) == 1
    for other, got, want in zip(SWEEP_FLOWS, entries, clean):
        if other != flow:
            assert _entry_bits(got) == _entry_bits(want)
            continue
        assert _entry_bits(got, decisions=False) == _entry_bits(want, decisions=False)
        codes, values = _record(got).codes, _record(got).values
        assert codes[number] == SOLVED and DROPPED in codes
        rest = np.arange(len(codes)) != number
        assert np.array_equal(codes[rest], record.codes[rest])
        assert values[rest].tobytes() == record.values[rest].tobytes()


def test_failing_contender_errors_only_its_own_flow(monkeypatch):
    # a contender that does not win its flow, solved in one stack with
    # other flows' contenders, fails the residual check: its flow's entry
    # is its one-flow scan's error, whose record codes the contender
    # FAILED, and every other entry is unchanged
    window = SpectralWindow(12, COS)
    stacks, solve = [], spectral.lowest_eigenpairs
    monkeypatch.setattr(spectral, "lowest_eigenpairs",
                        lambda stack: stacks.append(stack) or solve(stack))
    clean = spectral.window_minimum(SWEEP_FLOWS, window, 3)
    monkeypatch.undo()
    owner = {}
    for flow, (_, _, record) in zip(SWEEP_FLOWS, clean):
        forms = _dense_forms(dense_grams(flow, window), window, 3)
        for c in np.flatnonzero((record.codes == SOLVED) & (record.sizes <= 45)).tolist():
            owner[forms[c][1].tobytes()] = flow, c, record.winner
    shared = [[owner[S.tobytes()] + (S,) for S in stack] for stack in stacks
              if stack.shape[1] <= 45 and len({owner[S.tobytes()][0] for S in stack}) > 1]
    flow, number, _, target = next(row for stack in shared for row in stack if row[1] != row[2])
    monkeypatch.setattr(np.linalg, "eigh", tilted(np.linalg.eigh, target))
    broken = spectral.window_minimum(SWEEP_FLOWS, window, 3)
    [alone] = spectral.window_minimum([flow], window, 3)
    monkeypatch.undo()
    for other, got, want in zip(SWEEP_FLOWS, broken, clean):
        if other == flow:
            assert isinstance(got, ConvergenceError) and got.record.codes[number] == FAILED
            assert str(got).startswith("residual ") and _entry_bits(got) == _entry_bits(alone)
        else:
            assert _entry_bits(got) == _entry_bits(want)


def test_settled_chains_reach_no_disc_row():
    # the weight-sign screen's premise, against the exact bracket on seeded
    # windows: each kept mode of a chain that `_Chains.settled` marks has
    # a bracket with psi on or outside the disc j^2+k^2 < lambda^2 only,
    # and the chain's dense reduced form has no eigenvalue below rounding
    # at p = 0 or 3.  A chain that the exact brackets settle but the mask
    # does not holds cos(mx) or cos(ny): each sends two terms to the disc
    # row (0, n) or (m, 0), which cancel in the exact bracket
    rng = random.Random(30)
    marked, last_marked, zeroed_marked, parities = 0, 0, 0, set()
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        flow = KolmogorovFlow(m, n)
        psi = flow.stream()
        window = SpectralWindow(rng.randint(1, 14), rng.choice((COS, SIN, FULL)))
        zeroed = rng.sample(window_modes(window), min(rng.randint(0, 5), len(window) - 1))
        zero_at = [window.index_of(mode) for mode in zeroed]
        settled = scan_chains(flow, window, zero_at).settled
        grams = dense_grams(flow, window)
        assert settled.shape == (len(grams),)
        for c, (index, B) in enumerate(grams):
            keep = [i for i, at in enumerate(index) if at not in zero_at]
            modes = window.modes_at([index[i] for i in keep])
            reached = {out for mode in modes for out in bracket(psi, TrigPoly({mode: F(1)})).terms}
            inside = any(out.laplace_weight < flow.lambda2 for out in reached)
            if not settled[c]:
                assert inside or {Mode(m, 0, COS), Mode(0, n, COS)} & set(modes), (flow, c)
                continue
            assert not inside, (flow, window, c)
            for p in (0, 3):
                S = dense_reduced(window, index, B, p)[np.ix_(keep, keep)]
                if keep:
                    assert np.linalg.eigvalsh(S)[0] >= -1e-12 * np.max(np.abs(S)) * len(keep)
            marked += 1
            last_marked += c == len(grams) - 1
            zeroed_marked += len(keep) < len(index)
            parities |= {mode.parity for mode in modes}
    assert marked > 20 and last_marked and zeroed_marked and parities == {COS, SIN}


def test_weight_bounds_hold_on_every_chain():
    # `_weight_bounds` against each chain's dense reduced form S, pooled and
    # deferred chains alike, on seeded windows with zeroed modes, at p = 0
    # and 3: lambda_min(S) >= -N and ||S||_2 <= A, and trace(S) = A - 2N,
    # each up to 1e-12 A, so that q_r sums a row's terms on one column
    # before squaring, carries the Sobolev scale, and N takes only the rows
    # of w < 0; a settled chain has N = 0
    rng = random.Random(34)
    windows = [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 12),
                rng.choice((COS, SIN, FULL))) for _ in range(20)]
    windows += [(3, 2, 20, COS), (2, 2, 14, FULL), (1, 1, 5, FULL), (4, 3, 4, SIN)]
    deferred, parities = 0, set()
    for m, n, N, subspace in windows:
        flow, window = KolmogorovFlow(m, n), SpectralWindow(N, subspace)
        zeroed = rng.sample(window_modes(window), min(rng.randint(0, 4), len(window) - 1))
        zero_at = {window.index_of(mode) for mode in zeroed}
        chains = scan_chains(flow, window, sorted(zero_at))
        grams = dense_grams(flow, window)
        for p in (0, 3):
            negative, total = weight_bounds(chains, window.laplace ** (-p / 2))
            assert negative.shape == total.shape == (len(grams),)
            assert not negative[chains.settled].any()
            for c, (full, B) in enumerate(grams):
                keep = [i for i, at in enumerate(full) if at not in zero_at]
                if not keep:
                    continue
                S = dense_reduced(window, full, B, p)[np.ix_(keep, keep)]
                values, tol = np.linalg.eigvalsh(S), 1e-12 * total[c]
                assert values[0] >= -negative[c] - tol, (flow, window, c, p)
                assert max(-values[0], values[-1]) <= total[c] + tol, (flow, window, c, p)
                assert abs(np.trace(S) - (total[c] - 2 * negative[c])) <= tol, (flow, window, c)
                deferred += len(keep) > 45
        parities |= set(window.sin.tolist())
    assert deferred and parities == {False, True}


@pytest.mark.parametrize("m,n,N,count", [(3, 1, 30, 4), (4, 3, 40, 6)])
def test_weight_bounds_skip_chains_before_their_gram_product(m, n, N, count):
    # at p = 3 the weight floors of `count` chains of more than 45 modes
    # (on (3,1), -0.155 to -0.0099 against a minimum of -0.291) lie above
    # any minimum that can win or tie: the scan codes them BOUNDED, neither
    # solved nor screened, though weight signs do not settle them, and each
    # one's dense minimum lies above the winning value (`_assert_record`)
    flow, window = KolmogorovFlow(m, n), SpectralWindow(N, COS)
    record = _assert_record(flow, window, 3, scan_one(flow, window, 3))
    assert np.count_nonzero(record.codes == BOUNDED) == count


def _outcome(res):
    """A `run_minimize` outcome as exactly comparable values (its error's
    type and text, or its eigenvalue's bits, q, block mode and coefficient
    bytes), and whether it is a result with q >= 0."""
    if isinstance(res, Exception):
        return (type(res), str(res)), False
    return (res.eigen.value.hex(), res.q, res.block_mode, res.coeffs.tobytes()), res.q >= 0


def test_weight_screen_changes_no_verdict(monkeypatch):
    # seeded sweeps and minimizations, with zeroed modes, give what a scan
    # that marks no chain settled gives, bit for bit, except where q >= 0
    # on both sides: a degenerate minimum at rounding level, whose float
    # winner may be a PSD chain; and the screen skips chains before their
    # Gram products, coded SETTLED, which the other scan never does
    rng = random.Random(31)
    runs = [dict(mmax=rng.randint(1, 8), N=rng.randint(1, 16), p=rng.randint(0, 4))
            for _ in range(5)] + [dict(mmax=2, N=12, p=3)]
    for _ in range(30):
        N, subspace = rng.randint(1, 16), rng.choice((COS, SIN, FULL))
        window = SpectralWindow(N, subspace)
        runs.append(dict(flow=KolmogorovFlow(rng.randint(1, 8), rng.randint(1, 8)), N=N,
                         subspace=subspace, p=rng.randint(0, 4), constraints=rng.sample(
                             window_modes(window), min(rng.randint(0, 5), len(window) - 1))))
    runs.append(dict(flow=KolmogorovFlow(1, 1), N=20))

    def outcomes():
        found, settled = [], 0
        for options in runs:
            if "mmax" in options:
                results = [res for _, _, res in pipeline.run_sweep(**options)]
            else:
                try:
                    results = [run_minimize(**options)]
                except Exception as error:  # every outcome is compared, failures too
                    results = [error]
            found.append([_outcome(res) for res in results])
            settled += sum(np.count_nonzero(res.record.codes == SETTLED)
                           for res in results if hasattr(res, "record"))
        return found, settled

    screened, settled = outcomes()
    unsettle(monkeypatch)
    unscreened, unsettled = outcomes()
    for options, got, want in zip(runs, screened, unscreened):
        assert len(got) == len(want)
        for (a, a_open), (b, b_open) in zip(got, want):
            assert a == b or (a_open and b_open), options
    assert settled and not unsettled


@pytest.mark.parametrize("N,p", [(5, 3), (11, 0)])
def test_flow_with_no_negative_minimum_solves_its_settled_chains(monkeypatch, N, p):
    # (1,1) cos: at N=5 every chain shares a stack, and the winner, of about
    # +3.5e-18, is a chain that reaches no disc row; at N=11 the chain that
    # reaches one ends >= 0, so the settled chains of 84 and 72 modes are
    # solved after it, and one of them wins.  Either entry is the entry of a
    # scan that marks no chain settled, bit for bit
    flow, window = KolmogorovFlow(1, 1), SpectralWindow(N, COS)
    settled = scan_chains(flow, window).settled
    entry = scan_one(flow, window, p)
    unsettle(monkeypatch)
    assert _entry_bits(entry, decisions=False) == _entry_bits(scan_one(flow, window, p),
                                                              decisions=False)
    record = entry[2]
    assert settled[record.winner] and record.codes[record.winner] == SOLVED
    assert (record.sizes[record.winner] > 45) == (N == 11)


# the sizes of some chains that the screen beats, and of every chain skipped
# by weight signs and by weight bounds
@pytest.mark.parametrize("m,n,subspace,beaten,settled,bounded", [
    (3, 2, COS, {12: 60}, {}, {9: 70}),
    (2, 2, FULL, {3: 55}, {4: 60, 5: 60, 18: 50, 19: 50}, {2: 55})])
def test_chains_that_share_no_stack_are_deferred(monkeypatch, m, n, subspace, beaten, settled,
                                                 bounded):
    # a chain of more than POOLED_MODES = 45 modes is not pooled, so each
    # such chain is reduced after every pooled chain is screened and its
    # flow's contenders are solved, and solved alone
    # unless weight bounds or the screen show that it can neither win nor
    # tie, or it is settled by weight signs once its flow's minimum is
    # negative; at N=20 the screen rules out these chains of 55-60 modes,
    # which fit a stack alone, the weight signs those of 50-60 modes, and
    # the weight bounds those of 55-70 modes, each before its Gram product
    flow, window = KolmogorovFlow(m, n), SpectralWindow(20, subspace)
    assert POOLED_MODES == 45
    shapes, solve = [], spectral.lowest_eigenpairs
    monkeypatch.setattr(spectral, "lowest_eigenpairs",
                        lambda stack: shapes.append(stack.shape) or solve(stack))
    entry = scan_one(flow, window, 3)
    monkeypatch.undo()
    record = _assert_record(flow, window, 3, entry)
    assert {c: int(record.sizes[c]) for c in beaten} == beaten
    assert (record.codes[list(beaten)] == BEATEN).all()
    assert [{c: int(record.sizes[c]) for c in np.flatnonzero(record.codes == code).tolist()}
            for code in (SETTLED, BOUNDED)] == [settled, bounded]
    # every stack of chains of more than 45 modes holds one, and comes last
    large = [d > 45 for _, d, _ in shapes]
    assert large == sorted(large)
    assert all(count == 1 for count, d, _ in shapes if d > 45)
    # every non-twin chain of more than 45 modes is solved, beaten or skipped
    deferred = record.codes[(record.sizes > 45) & (record.codes != TWIN)]
    assert set(deferred.tolist()) <= {SOLVED, BEATEN, SETTLED, BOUNDED}
    assert sum(d > 45 for _, d, _ in shapes) == np.count_nonzero(deferred == SOLVED)


def test_chain_inside_the_cholesky_margin_is_solved(monkeypatch):
    # (3,2) cos at N=20, p=0 (the reduction multiplies by 1): the first
    # deferred chain that reaches a disc row, shifted by a multiple of I so
    # that its lowest eigenvalue lies above the ceiling of its flow's pooled
    # minimum by half the margin TIE_RTOL d max|S|, is SOLVED, not BEATEN: the
    # factorization of S - tau I, tau = ceiling + margin, fails
    flow, window = KolmogorovFlow(3, 2), SpectralWindow(20, COS)
    chains = scan_chains(flow, window)
    record = scan_one(flow, window, 0)[2]
    top = _ceiling(record.values[(record.codes == SOLVED) & (record.sizes <= 45)].min())
    c = np.flatnonzero((record.sizes > 45) & (record.codes != TWIN) & ~chains.settled)[0]
    _, [S] = chain_alone(chains, c)
    shift = top + TIE_RTOL * len(S) * np.max(np.abs(S)) / 2 - lowest_pair(S).value
    shift_chain(monkeypatch, c, shift)
    shifted = scan_one(flow, window, 0)[2]
    S = S + shift * np.eye(len(S))
    assert 0 < shifted.values[c] - top < TIE_RTOL * len(S) * np.max(np.abs(S))
    assert shifted.codes[c] == SOLVED and shifted.values[c] == lowest_pair(S).value
    assert shifted.winner == record.winner


def test_first_listed_failing_block_raises_its_error(monkeypatch):
    # chains 0, 2 and 3 hold 2 modes and share a stack that is solved
    # before chain 1 of 3 modes, yet chain 1, the first listed to fail,
    # raises its own error
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 3))
    unsymmetric = np.array([[1.0, 2.0], [0.0, 1.0]])
    pairs = np.stack([np.diag([1.0, 2.0]), unsymmetric, np.diag([3.0, 1.0])])
    monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(ConvergenceError, match=r"tol=1\.0e-300\)$") as want:
        lowest_pair(a + a.T)
    with pytest.raises(ConvergenceError) as got:
        hand_built_scan(monkeypatch, [([0, 2, 3], np.zeros((3, 2), dtype=int), pairs),
                                      ([1], np.zeros((1, 3), dtype=int), (a + a.T)[None])])
    assert str(got.value) == str(want.value)
    assert got.value.record.codes[1] == FAILED
    monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 1e-300)  # `hand_built_scan` undid it
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        hand_built_scan(monkeypatch, [([0, 1], np.zeros((2, 2), dtype=int), pairs[1:])])


@pytest.mark.parametrize("m,n,options,dim", [(3, 2, {}, 15),
                                             (1, 1, dict(N=40, subspace=FULL), 820)])
def test_failing_eigensolve_names_the_first_failing_chain(monkeypatch, m, n, options, dim):
    # no chain meets tol = 1e-300; the error names the first listed one,
    # of 15 modes in a stack, or of 820 modes solved alone (the residual
    # digits depend on the BLAS build)
    monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(ConvergenceError, match=rf"\(dim={dim}, tol=1\.0e-300\)$"):
        run_minimize(KolmogorovFlow(m, n), **options)


def test_minimize_result_records_blocks():
    res = run_minimize(KolmogorovFlow(3, 2), N=20)
    assert (res.blocks, res.block_dim_max) == (14, 77)
    winner = [modes for modes in chain_modes(KolmogorovFlow(3, 2), SpectralWindow(20, COS))
              if modes[0] == res.block_mode]
    assert len(winner) == 1 and Mode(1, 0, COS) in winner[0]
    assert run_minimize(KolmogorovFlow(4, 4), N=20).blocks == 34


# MI/pi^2 certified by the dense minimization, before the split into blocks;
# each of these minima is simple, so the split must reproduce them exactly
PINNED = [
    ((3, 2), dict(N=8), "-228488518457/250000000000"),
    ((2, 1), dict(N=6), "-219166473931/500000000000"),
    ((2, 2), dict(N=8, constraints=[Mode(0, 1, COS)]), "-184227999791/500000000000"),
    ((1, 1), dict(subspace=SIN), "-31665466117/500000000000"),
    ((2, 1), dict(N=20), "-877911538499/2000000000000"),
    ((3, 2), dict(N=20), "-58543729901/62500000000"),
    ((4, 4), dict(N=20), "-27384332183/15625000000"),
]


@pytest.mark.parametrize("pair,options,value", PINNED)
def test_certified_values_match_dense_minimization(pair, options, value):
    res = run_minimize(KolmogorovFlow(*pair), **options)
    assert res.q == F(value)
