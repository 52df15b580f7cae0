"""Block structure of the Galerkin form over the bracket's mode chains.

The bracket with psi = -cos mx cos ny sends mode (j, k) only to
(j +- m, k +- n), so the window splits into chains that no bracket row and
no entry of the index form couples.  The numerical route has one scan over
them: `_Chains` lays the chains out in groups of one mode count with
their bracket's nonzeros, `_gram` builds each group's forms from those
nonzeros, and `window_minimum` feeds each group to `_ChainMinimum`, which
solves it in one stacked eigensolve, leaving out the chains that a flow
symmetry maps onto an earlier chain.  These tests check that scan against
per-chain dense products L^T W L, the dense views (`assemble_bracket_matrix`,
`assemble_quadform`) and the exact bracket, check the skipped twins against
the chains they repeat, drive `_ChainMinimum` with hand-built stacks for its
tie and failure rules, and pin the certified values that the dense
minimization gave before the split.
"""

import random
from collections import defaultdict
from fractions import Fraction as F

import numpy as np
import pytest

from kolmconj import spectral
from kolmconj.eigensolve import ConvergenceError, eigen_pair, lowest_eigenpairs, sym_eig_min
from kolmconj.pipeline import run_minimize
from kolmconj.spectral import (FULL, STACK_ENTRIES, CertificationError, QuadForm,
                               ReducedForm, SpectralWindow,
                               assemble_bracket_matrix, assemble_quadform,
                               coefficient_vector, constrain, reduce_symmetric,
                               window_minimum)
from kolmconj.trigpoly import COS, SIN, KolmogorovFlow, Mode, TrigPoly, bracket


def extended(flow, window):
    return SpectralWindow(window.N + max(flow.m, flow.n), window.subspace)


def chain_brackets(flow, window):
    """(index, rows, L) of each chain of `_Chains`, by chain number.

    `index` holds the window positions of the chain's modes, `rows` the
    positions in the extended window of the outputs its bracket reaches,
    and L the dense bracket block between them, scattered from the
    nonzeros that `_Chains.groups` yields.
    """
    chains = {}
    for positions, index, (slot, rows, local, coeffs) in spectral._Chains(
            flow, window, extended(flow, window)).groups():
        by_slot = np.argsort(slot, kind="stable")
        ends = np.searchsorted(slot[by_slot], np.arange(len(positions)), side="right")
        for i, at in enumerate(np.split(by_slot, ends[:-1])):
            L = np.zeros((len(at), index.shape[1]))
            r, t = np.nonzero(coeffs[at])
            L[r, local[at][r, t]] = coeffs[at][r, t]
            chains[positions[i]] = index[i], rows[at], L
    return [chains[number] for number in range(len(chains))]


def chain_layout(flow, window):
    """(index, rows) of each chain of `_Chains`, by chain number."""
    return [(index, rows) for index, rows, _ in chain_brackets(flow, window)]


def chain_modes(flow, window):
    """The modes of each chain, by chain number."""
    return [window.modes_at(index) for index, _ in chain_layout(flow, window)]


def chain_forms(flow, window, p):
    """Each chain's ReducedForm, cut from the dense form at its window positions."""
    B = assemble_quadform(flow, window).matrix
    return [reduce_symmetric(QuadForm(window, B[np.ix_(index, index)], index), p)
            for index, _ in chain_layout(flow, window)]


@pytest.mark.parametrize("m,n,N,subspace", [
    (1, 1, 4, COS), (2, 1, 6, SIN), (3, 2, 5, FULL), (4, 4, 3, COS),
    (3, 1, 1, SIN), (2, 2, 8, FULL)])
def test_blocks_partition_the_window(m, n, N, subspace):
    flow = KolmogorovFlow(m, n)
    window = SpectralWindow(N, subspace)
    layout = chain_layout(flow, window)
    chains = chain_modes(flow, window)
    assert sorted(mode for modes in chains for mode in modes) == list(window.modes)
    outputs = [row for _, rows in layout for row in rows.tolist()]
    assert len(outputs) == len(set(outputs))
    for modes, (_, rows) in zip(chains, layout):
        assert list(modes) == sorted(modes)
        assert rows.tolist() == sorted(rows.tolist())
    assert [modes[0] for modes in chains] == sorted(modes[0] for modes in chains)
    # the form couples no two chains
    chain = np.empty(len(window), dtype=int)
    for number, (index, _) in enumerate(layout):
        chain[index] = number
    B = assemble_quadform(flow, window).matrix
    assert np.all(B[chain[:, None] != chain[None, :]] == 0.0)


@pytest.mark.parametrize("m,n,blocks,largest", [(1, 1, 4, 220), (3, 2, 14, 77),
                                                 (4, 4, 34, 30)])
def test_block_counts_at_N20(m, n, blocks, largest):
    found = chain_layout(KolmogorovFlow(m, n), SpectralWindow(20, COS))
    assert (len(found), max(len(index) for index, _ in found)) == (blocks, largest)


def test_scattered_brackets_match_exact_bracket():
    rng = random.Random(55)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        flow = KolmogorovFlow(m, n)
        window = SpectralWindow(rng.randint(1, 6), rng.choice((COS, SIN, FULL)))
        ext = extended(flow, window)
        M = assemble_bracket_matrix(flow, window, ext)
        for cols, out, block in chain_brackets(flow, window):
            others = np.setdiff1d(np.arange(len(ext)), out)
            assert np.all(M[np.ix_(others, cols)] == 0.0)
            assert np.array_equal(M[np.ix_(out, cols)], block)
        terms, v = {}, np.zeros(len(window))
        for i, mode in enumerate(window.modes):
            c = F(rng.randint(-6, 6), 4)
            if c:
                terms[mode] = c
                v[i] = float(c)
        want = coefficient_vector(bracket(flow.stream(), TrigPoly(terms)), ext).values
        assert np.max(np.abs(M @ v - want)) <= 1e-12


def test_block_gram_equals_dense_gram():
    # B's entries are sums of a few products of quarter-integers, so every
    # summation order gives them exactly
    for m, n, N, subspace in [(3, 2, 6, COS), (1, 1, 5, FULL), (4, 3, 4, SIN)]:
        flow = KolmogorovFlow(m, n)
        window = SpectralWindow(N, subspace)
        L = assemble_bracket_matrix(flow, window, extended(flow, window))
        weights = np.array([md.laplace_weight for md in extended(flow, window).modes],
                           dtype=float) - flow.lambda2
        dense = L.T @ (weights[:, None] * L)
        assert np.array_equal(assemble_quadform(flow, window).matrix, dense)


def _dense_minimum(flow, window, p, zeroed):
    r = reduce_symmetric(assemble_quadform(flow, window), p)
    if zeroed:
        r = constrain(r, zeroed)
    return np.linalg.eigh(r.matrix)[0][0], np.max(np.abs(r.matrix))


def test_block_minimum_equals_dense_eigh():
    # 1e-12 relative to the larger of the eigenvalue and the matrix scale,
    # which covers minima that sit on the bracket kernel (about 1e-17)
    rng = random.Random(2024)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        flow = KolmogorovFlow(m, n)
        window = SpectralWindow(rng.randint(1, 10), rng.choice((COS, SIN, FULL)))
        zeroed = rng.sample(window.modes, rng.choice((0, 1, 3)))
        p = rng.randint(0, 3)
        pair = window_minimum(flow, window, p, zeroed)[0]
        want, scale = _dense_minimum(flow, window, p, zeroed)
        assert abs(pair.value - want) <= 1e-12 * max(abs(want), scale)


def test_zeroed_block_is_skipped():
    flow = KolmogorovFlow(3, 2)
    window = SpectralWindow(8, COS)
    chains = chain_modes(flow, window)
    for modes in chains[:3]:
        zeroed = list(modes)
        pair, winner, _, _ = window_minimum(flow, window, 3, zeroed)
        assert winner.quadform.modes != modes
        want, scale = _dense_minimum(flow, window, 3, zeroed)
        assert abs(pair.value - want) <= 1e-12 * max(abs(want), scale)
    res = run_minimize(flow, N=8, constraints=list(chains[0]))
    assert res.block_mode != chains[0][0]


def test_constraint_errors_unchanged():
    flow = KolmogorovFlow(2, 1)
    window = SpectralWindow(3, COS)
    with pytest.raises(ValueError, match="constraining away every mode"):
        run_minimize(flow, N=3, constraints=list(window.modes))
    with pytest.raises(ValueError, match="cannot constrain modes outside the window"):
        run_minimize(flow, N=3, constraints=[Mode(99, 0, COS)])
    with pytest.raises(ValueError, match="cannot constrain modes outside the window"):
        run_minimize(flow, N=3, constraints=[Mode(1, 0, SIN)])


def test_tie_goes_to_earlier_block():
    # two chains of one shape, solved in one stack: the later one wins
    # only if its minimum lies below the first's by more than TIE_RTOL
    first = chain_forms(KolmogorovFlow(3, 2), SpectralWindow(6, COS), 3)[0]
    value = sym_eig_min(first.matrix).value
    for shift, winner in [(1e-14, 0), (1e-9, 1)]:
        lowered = first.matrix - shift * abs(value) * np.eye(len(first.index))
        later = ReducedForm(first.quadform, first.p, lowered, index=first.index)
        scan = spectral._ChainMinimum(1e-10)
        scan.add([0, 1], np.stack([first.matrix, lowered]), [first, later].__getitem__)
        assert scan.minimum()[1] is [first, later][winner]


def test_tie_goes_to_block_with_lowest_first_mode():
    # the cosine and sine chains of a full window have the same spectra; at
    # N=6 the two lowest hold 21 modes each and share one stacked eigensolve
    for N in (20, 6):
        res = run_minimize(KolmogorovFlow(2, 1), N=N, subspace=FULL)
        assert res.block_mode.parity == COS
        assert res.coeffs.dominant_mode() == Mode(1, 0, COS)
        assert res.certified.detected
    assert 2 * 21 ** 2 <= STACK_ENTRIES
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
                for r in chain_forms(KolmogorovFlow(m, n), SpectralWindow(12, subspace), 3):
                    chains[len(r.index)].append(r.matrix)
    return chains


def test_stacked_eigensolve_matches_one_at_a_time_on_sweep_chains():
    for dim, mats in _sweep_chains(6).items():
        values, vectors, failure = lowest_eigenpairs(np.stack(mats))
        assert failure is None
        for S, value, vector in zip(mats, values, vectors):
            got, want = eigen_pair(S, value, vector, 1e-10), sym_eig_min(S)
            assert got.value == want.value
            assert np.array_equal(got.vector, want.vector)
            assert got.residual == want.residual


@pytest.mark.parametrize("m,n,N,subspace", [(30, 22, 64, COS), (5, 4, 20, COS),
                                             (1, 1, 20, FULL), (3, 3, 30, SIN)])
def test_chain_groups_hold_one_shape_within_the_stack_cap(m, n, N, subspace):
    flow = KolmogorovFlow(m, n)
    window = SpectralWindow(N, subspace)
    ext = extended(flow, window)
    firsts, groups, held = {}, defaultdict(list), []
    for positions, index, (slot, rows, local, coeffs) in spectral._Chains(
            flow, window, ext).groups():
        count, d = index.shape
        assert 1 <= count <= max(1, STACK_ENTRIES // d ** 2)
        assert positions == sorted(positions)
        assert set(slot.tolist()) == set(range(count))
        assert rows.shape == slot.shape and local.shape == coeffs.shape == (len(rows), 4)
        assert not firsts.keys() & set(positions)
        firsts.update(zip(positions, index[:, 0].tolist()))
        held += index.ravel().tolist()
        groups[d].append(count)
    # the chains are numbered by first mode, and together hold the window
    assert sorted(firsts) == list(range(len(firsts)))
    assert [firsts[number] for number in range(len(firsts))] == sorted(firsts.values())
    assert sorted(held) == list(range(len(window)))
    # each mode count fills as few stacks as the cap allows
    for d, counts in groups.items():
        assert len(counts) == -(-sum(counts) // max(1, STACK_ENTRIES // d ** 2))


def _per_chain_products(flow, window, p):
    """Window positions, B and S of each chain, one chain at a time.

    The reference for the grouped path: the dense Gram product L^T W L of
    each chain's bracket block (checked against the exact bracket by
    `test_scattered_brackets_match_exact_bracket`), symmetrized, then the
    Sobolev reduction.
    """
    weights = extended(flow, window).laplace - flow.lambda2
    for index, rows, L in chain_brackets(flow, window):
        B = L.T @ (weights[rows][:, None] * L)
        B = 0.5 * (B + B.T)
        scale = window.laplace[index] ** (-p / 2)
        S = B * np.outer(scale, scale)
        yield index.tolist(), B, 0.5 * (S + S.T)


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


def _twins(flow, window):
    """The chains that a symmetry maps onto an earlier chain."""
    chains = chain_modes(flow, window)
    number = {mode: c for c, modes in enumerate(chains) for mode in modes}
    return {c for c, modes in enumerate(chains)
            if any(number[_image(modes[0], g)[0]] < c for g in _symmetries(flow))}


def _solved_chains(monkeypatch, flow, **options):
    """{chain number: (stacked S, ReducedForm)} of each chain `run_minimize`
    solves, and its result (None if certification fails)."""
    seen, result = {}, None
    add = spectral._ChainMinimum.add

    def spy(self, positions, stack, block):
        for i, position in enumerate(positions):
            seen[position] = stack[i], block(i)
        add(self, positions, stack, block)

    monkeypatch.setattr(spectral._ChainMinimum, "add", spy)
    try:
        result = run_minimize(flow, **options)
    except CertificationError:  # (6,6), (7,6), (7,7) cos at N=12
        pass
    monkeypatch.undo()
    return seen, result


GROUPED_WINDOWS = ([(m, n, 12, subspace) for m in range(1, 11) for n in range(1, m + 1)
                    for subspace in (COS, SIN)]
                   + [(1, 1, 20, FULL), (4, 1, 40, COS)])


def test_grouped_products_equal_per_chain_products(monkeypatch):
    # every chain the scan receives: its reduced matrix as the eigensolve
    # gets it, and the forms built for it should it win; those left out
    # are the twins of earlier chains
    for m, n, N, subspace in GROUPED_WINDOWS:
        flow = KolmogorovFlow(m, n)
        seen, _ = _solved_chains(monkeypatch, flow, N=N, subspace=subspace)
        window = seen[0][1].quadform.window
        assert window._modes is None
        reference = list(_per_chain_products(flow, SpectralWindow(N, subspace), 3))
        twins = _twins(flow, SpectralWindow(N, subspace))
        assert sorted(seen) == sorted(set(range(len(reference))) - twins)
        for position, (stacked, reduced) in seen.items():
            index, B, S = reference[position]
            assert reduced.quadform.window is window
            assert reduced.index.tolist() == index
            assert np.array_equal(reduced.quadform.matrix, B)
            assert np.array_equal(stacked, S)
            assert np.array_equal(reduced.matrix, S)


# (m, n, N, subspace) and the chain count and largest chain the window had
# before twins were skipped
TWIN_WINDOWS = [((3, 2, 20, COS), 14, 77), ((4, 4, 20, COS), 34, 30),
                ((2, 2, 14, FULL), 20, 56), ((1, 1, 40, FULL), 8, 840),
                ((4, 2, 12, SIN), 18, 24)]


@pytest.mark.parametrize("case,blocks,largest", TWIN_WINDOWS)
def test_skipped_twins_repeat_an_earlier_chain(monkeypatch, case, blocks, largest):
    m, n, N, subspace = case
    flow, window = KolmogorovFlow(m, n), SpectralWindow(N, subspace)
    solved, res = _solved_chains(monkeypatch, flow, N=N, subspace=subspace)
    chains = chain_modes(flow, window)
    products = list(_per_chain_products(flow, window, 3))
    skipped = set(range(len(chains))) - solved.keys()
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


def test_first_listed_failing_block_raises_its_error():
    # chains 0, 2 and 3 hold 2 modes and share a stack that is solved
    # before chain 1 of 3 modes, yet chain 1, the first listed to fail,
    # raises its own error
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 3))
    unsymmetric = np.array([[1.0, 2.0], [0.0, 1.0]])
    pairs = np.stack([np.diag([1.0, 2.0]), unsymmetric, np.diag([3.0, 1.0])])
    with pytest.raises(ConvergenceError) as want:
        sym_eig_min(a + a.T, 1e-300)
    scan = spectral._ChainMinimum(1e-300)
    scan.add([0, 2, 3], pairs, None)
    scan.add([1], (a + a.T)[None], None)
    with pytest.raises(ConvergenceError) as got:
        scan.minimum()
    assert str(got.value) == str(want.value)
    scan = spectral._ChainMinimum(1e-300)
    scan.add([0, 1], pairs[1:], None)
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        scan.minimum()


@pytest.mark.parametrize("m,n,options,dim", [(3, 2, {}, 15),
                                             (1, 1, dict(N=40, subspace=FULL), 820)])
def test_failing_eigensolve_names_the_first_failing_chain(m, n, options, dim):
    # no chain meets tol = 1e-300; the error names the first listed one,
    # of 15 modes in a stack, or of 820 modes solved alone (the residual
    # digits depend on the BLAS build)
    with pytest.raises(ConvergenceError, match=rf"\(dim={dim}, tol=1\.0e-300\)$"):
        run_minimize(KolmogorovFlow(m, n), tol=1e-300, **options)


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
    ((3, 2), dict(N=8),
     "-145508941587025113627664436267856602988985608501897851926918359043718305055079953133/"
     "159203742641601203840946106647810035056112188056796184781371410025081364013514737160"),
    ((2, 1), dict(N=6),
     "-53167926213976675192240684664646039088645044406737859964223857924725774203725546262326"
     "597679642410559580237440361/"
     "121297466832988952619492678802146326549807612552595974166476768075503344366412388867323"
     "806179307411542068227651600"),
    ((2, 2), dict(N=8, constraints=[Mode(0, 1, COS)]),
     "-14989444572799404649330602104520967788153868098293131516051667454511771053188393365680"
     "1632032951367104564189231580604031/"
     "40680910613385942702325550002505152576480803010158906570048970563151208014586586301577"
     "9999568500873568916110715125252096"),
    ((1, 1), dict(subspace=SIN),
     "-19229597932470922602798290384629690997338227957931521779821945583698750269957326098880"
     "201683033788527768733389026419857779/"
     "30363907906536846141762058661398787735111685953391956417069720750660502423798718288453"
     "9932226703117238237686848328611452900"),
    ((2, 1), dict(N=20),
     "-33785364865388255062654464299950624877960656646971875271594676109367573255444086913951"
     "6184395809815638757711376945130612767607080302549640057211820117819531548451611283032375"
     "714957/"
     "76966130308496722539318077641504207620718975080109459303521101558352416836664947483759"
     "0832891767282615353089477199254445977440001221999587664757717884051137572384132646000000"
     "000000"),
    ((3, 2), dict(N=20),
     "-99867723391661572573524299303384805858386385744024685390163336891618510317053164369384"
     "0736298854646953074293931492239811584847388069429297095288437810217410112232819961097122"
     "8769351/"
     "10660409716402936976931347356842393828816763080930864137598954888442950437113759561286"
     "4742220659494448066345681231376988744262171786492990530901133587007033722089761574720000"
     "00000000"),
    ((4, 4), dict(N=20),
     "-17593956638175572244204240257456155783805443620598093000987410862792552940033792267889"
     "79396127307222862935196061144341233343007463505927127/"
     "10036946731549786685657933188666188961055138265933212712624987432447380392834920662071"
     "41020080724701488299271730184190777433490498008320000"),
]


@pytest.mark.parametrize("pair,options,value", PINNED)
def test_certified_values_match_dense_minimization(pair, options, value):
    res = run_minimize(KolmogorovFlow(*pair), **options)
    assert res.certified.mi_over_pi2 == F(value)
