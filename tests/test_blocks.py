"""Block structure of the Galerkin form over the bracket's mode chains.

The bracket with psi = -cos mx cos ny sends mode (j, k) only to
(j +- m, k +- n), so the window splits into chains that no bracket row and
no entry of the index form couples.  These tests check the split against
the dense views and the exact bracket, and pin the certified values that
the dense minimization gave before the split.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from kolmconj.pipeline import run_minimize
from kolmconj.spectral import (FULL, ReducedForm, SpectralWindow,
                               assemble_bracket_matrix, assemble_quadform,
                               block_minimum, bracket_blocks, coefficient_vector,
                               constrain, quadform_blocks, reduce_symmetric)
from kolmconj.trigpoly import COS, SIN, KolmogorovFlow, Mode, TrigPoly, bracket


def extended(flow, window):
    return SpectralWindow(window.N + max(flow.m, flow.n), window.subspace)


@pytest.mark.parametrize("m,n,N,subspace", [
    (1, 1, 4, COS), (2, 1, 6, SIN), (3, 2, 5, FULL), (4, 4, 3, COS),
    (3, 1, 1, SIN), (2, 2, 8, FULL)])
def test_blocks_partition_the_window(m, n, N, subspace):
    flow = KolmogorovFlow(m, n)
    window = SpectralWindow(N, subspace)
    blocks = bracket_blocks(flow, window)
    modes = [mode for block in blocks for mode in block.modes]
    assert sorted(modes) == list(window.modes)
    outputs = [mode for block in blocks for mode in block.out_modes]
    assert len(outputs) == len(set(outputs))
    for block in blocks:
        assert list(block.modes) == sorted(block.modes)
        assert block.matrix.shape == (len(block.out_modes), len(block.modes))
    assert [b.modes[0] for b in blocks] == sorted(b.modes[0] for b in blocks)
    assert [q.modes for q in quadform_blocks(flow, window)] == [b.modes for b in blocks]


@pytest.mark.parametrize("m,n,blocks,largest", [(1, 1, 4, 220), (3, 2, 14, 77),
                                                 (4, 4, 34, 30)])
def test_block_counts_at_N20(m, n, blocks, largest):
    found = bracket_blocks(KolmogorovFlow(m, n), SpectralWindow(20, COS))
    assert (len(found), max(len(b.modes) for b in found)) == (blocks, largest)


def test_scattered_brackets_match_exact_bracket():
    rng = random.Random(55)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        flow = KolmogorovFlow(m, n)
        window = SpectralWindow(rng.randint(1, 6), rng.choice((COS, SIN, FULL)))
        ext = extended(flow, window)
        M = assemble_bracket_matrix(flow, window, ext)
        for block in bracket_blocks(flow, window):
            cols = [window.index_of(mode) for mode in block.modes]
            rows = [ext.index_of(mode) for mode in block.out_modes]
            others = np.setdiff1d(np.arange(len(ext)), rows)
            assert np.all(M[np.ix_(others, cols)] == 0.0)
            assert np.array_equal(M[np.ix_(rows, cols)], block.matrix)
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


def _block_minimum(flow, window, p, zeroed):
    blocks = [reduce_symmetric(q, p) for q in quadform_blocks(flow, window)]
    return block_minimum(blocks, zeroed)


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
        pair, _ = _block_minimum(flow, window, p, zeroed)
        want, scale = _dense_minimum(flow, window, p, zeroed)
        assert abs(pair.value - want) <= 1e-12 * max(abs(want), scale)


def test_zeroed_block_is_skipped():
    flow = KolmogorovFlow(3, 2)
    window = SpectralWindow(8, COS)
    blocks = quadform_blocks(flow, window)
    for q in blocks[:3]:
        zeroed = list(q.modes)
        pair, winner = _block_minimum(flow, window, 3, zeroed)
        assert winner.quadform.modes != q.modes
        want, scale = _dense_minimum(flow, window, 3, zeroed)
        assert abs(pair.value - want) <= 1e-12 * max(abs(want), scale)
    res = run_minimize(flow, N=8, constraints=list(blocks[0].modes))
    assert res.block_mode != blocks[0].modes[0]


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
    flow = KolmogorovFlow(3, 2)
    first = reduce_symmetric(quadform_blocks(flow, SpectralWindow(6, COS))[0], 3)
    value = block_minimum([first])[0].value
    for shift, winner in [(1e-14, 0), (1e-9, 1)]:
        lowered = first.matrix - shift * abs(value) * np.eye(len(first.modes))
        later = ReducedForm(first.quadform, first.p, first.modes, lowered)
        assert block_minimum([first, later])[1] is [first, later][winner]


def test_tie_goes_to_block_with_lowest_first_mode():
    # the cosine and sine chains of a full window have the same spectra
    res = run_minimize(KolmogorovFlow(2, 1), N=20, subspace=FULL)
    assert res.block_mode.parity == COS
    assert res.coeffs.dominant_mode() == Mode(1, 0, COS)
    assert res.certified.detected


def test_minimize_result_records_blocks():
    res = run_minimize(KolmogorovFlow(3, 2), N=20)
    assert (res.blocks, res.block_dim_max) == (14, 77)
    winner = [q for q in quadform_blocks(KolmogorovFlow(3, 2), SpectralWindow(20, COS))
              if q.modes[0] == res.block_mode]
    assert len(winner) == 1 and Mode(1, 0, COS) in winner[0].modes
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
