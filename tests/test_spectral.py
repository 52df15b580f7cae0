import ast
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from kolmconj import spectral
from kolmconj.pipeline import run_minimize
from kolmconj.spectral import (FULL, SUBSPACES, CertificationError, SpectralWindow,
                               certify_candidate, window_minimum)
from kolmconj.trigpoly import (COS, SIN, KolmogorovFlow, Mode, TrigPoly,
                               bracket, canonicalize, misiolek_index)

from conftest import (assert_winner_solved, bracket_matrix, extended, form_value, gram_blocks,
                      numerators, reach_box, reduce_form, reference_bracket_sums,
                      reference_pairing, reference_poly, scan_chains, scan_one, window_modes,
                      window_values)


def zeta32_field():
    # cos x (1 - 37/1513 cos 6x + 1/17 cos 4y)
    return TrigPoly.cosine(1, 0) * (TrigPoly.constant(1)
                                    + TrigPoly.cosine(6, 0, F(-37, 1513))
                                    + TrigPoly.cosine(0, 4, F(1, 17)))


def fdiag22_field():
    envelope = (TrigPoly.constant(1)
                + TrigPoly.cosine(0, 4, F(139425, 1899113))
                + TrigPoly.cosine(0, 8, F(-33231, 3798226))
                + TrigPoly.cosine(4, 0, F(-66661217, 854600850)))
    return (TrigPoly.cosine(1, 0) * envelope
            + TrigPoly.sine(1, 0) * TrigPoly.sine(4, 0, F(-19375654, 427300425)))


def random_window_vector(rng, window):
    terms = {}
    values = np.zeros(len(window))
    for i, mode in enumerate(window_modes(window)):
        c = F(rng.randint(-8, 8), 8)
        if c:
            terms[mode] = c
            values[i] = float(c)
    return TrigPoly(terms), values


class TestWindow:
    @pytest.mark.parametrize("N", [1, 2, 5, 8])
    @pytest.mark.parametrize("subspace", [COS, SIN])
    def test_mode_count(self, N, subspace):
        win = SpectralWindow(N, subspace)
        assert len(win) == 2 * N * N + 2 * N

    def test_full_is_direct_sum(self):
        win = SpectralWindow(3, "full")
        assert len(win) == 2 * (2 * 9 + 6)

    def test_constant_mode_excluded(self):
        win = SpectralWindow(4, COS)
        assert Mode(0, 0, COS) not in window_modes(win)

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("subspace", [COS, SIN, FULL])
    def test_ordering_deterministic_and_sorted(self, N, subspace):
        win = SpectralWindow(N, subspace)
        modes = window_modes(win)
        assert list(modes) == sorted(modes)
        assert modes == window_modes(SpectralWindow(N, subspace))
        assert all(win.index_of(mode) == i for i, mode in enumerate(modes))
        assert [(m.j, m.k, m.parity == SIN) for m in modes] == list(
            zip(win.j.tolist(), win.k.tolist(), win.sin.tolist()))
        for parity in ((COS, SIN) if subspace == FULL else (subspace,)):
            assert sum(m.parity == parity for m in modes) == 2 * N * N + 2 * N

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SpectralWindow(0, COS)
        with pytest.raises(ValueError):
            SpectralWindow(3, "weird")

    @pytest.mark.parametrize("subspace", [COS, SIN, FULL])
    def test_order_too_large_to_index_is_memory_error(self, subspace):
        # the least order whose (N+1)(2N+1) grid exceeds the largest array
        # index: the window refuses it before it allocates anything
        largest = int(np.iinfo(np.intp).max)
        N = math.isqrt(largest // 2)
        while (N + 1) * (2 * N + 1) <= largest:
            N += 1
        with pytest.raises(MemoryError, match=f"window order {N} is too large to index"):
            SpectralWindow(N, subspace)


class TestFoldIndex:
    """A lattice index folds into a window by canonicalize, then window lookup."""

    def test_negative_j(self):
        mode, sign = canonicalize(COS, -2, 3)
        assert (mode, sign) == (Mode(2, -3, COS), 1)
        assert SpectralWindow(4, COS).index_of(mode) is not None

    def test_j_zero(self):
        mode, sign = canonicalize(COS, 0, -4)
        assert (mode, sign) == (Mode(0, 4, COS), 1)
        assert SpectralWindow(4, COS).index_of(mode) is not None

    def test_outside_window(self):
        N = 4
        win = SpectralWindow(N, COS)
        assert win.index_of(canonicalize(COS, N + 1, 0)[0]) is None
        assert win.index_of(canonicalize(COS, 2, N + 1)[0]) is None
        assert win.index_of(canonicalize(COS, -2, -N - 1)[0]) is None

    def test_constant_excluded(self):
        assert SpectralWindow(4, COS).index_of(canonicalize(COS, 0, 0)[0]) is None

    def test_sin_fold_sign(self):
        mode, sign = canonicalize(SIN, -2, 3)
        assert (mode, sign) == (Mode(2, -3, SIN), -1)
        assert SpectralWindow(4, SIN).index_of(mode) is not None


class TestBracketMatrix:
    """The chains' bracket blocks, scattered into one matrix, against the exact bracket."""

    def test_cosx_column(self):
        flow = KolmogorovFlow(2, 1)
        win = SpectralWindow(1, COS)
        M = bracket_matrix(flow, win)
        v = np.zeros(len(win))
        v[win.index_of(Mode(1, 0, COS))] = 1.0
        out = M @ v
        expected = {Mode(3, -1, COS): 0.25, Mode(3, 1, COS): -0.25,
                    Mode(1, 1, COS): 0.25, Mode(1, -1, COS): -0.25}
        for i, mode in enumerate(window_modes(extended(flow, win))):
            assert out[i] == pytest.approx(expected.get(mode, 0.0), abs=1e-14)

    def test_stream_coefficients_in_kernel(self):
        for m, n in [(1, 1), (3, 2), (2, 2)]:
            flow = KolmogorovFlow(m, n)
            win = SpectralWindow(max(m, n), COS)
            M = bracket_matrix(flow, win)
            v = window_values(flow.stream(), win)
            assert np.max(np.abs(M @ v)) < 1e-14

    def test_sinx_column_matches_bracket(self):
        flow = KolmogorovFlow(1, 1)
        win = SpectralWindow(1, SIN)
        M = bracket_matrix(flow, win)
        v = np.zeros(len(win))
        v[win.index_of(Mode(1, 0, SIN))] = 1.0
        want = window_values(bracket(flow.stream(), TrigPoly.sine(1, 0)), extended(flow, win))
        assert np.max(np.abs(M @ v - want)) < 1e-14

    @pytest.mark.parametrize("parity", [COS, SIN])
    def test_matches_exact_bracket_random(self, parity):
        rng = random.Random(7 if parity == COS else 8)
        for _ in range(25):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            flow = KolmogorovFlow(m, n)
            win = SpectralWindow(rng.randint(1, 6), parity)
            M = bracket_matrix(flow, win)
            f, v = random_window_vector(rng, win)
            want = window_values(bracket(flow.stream(), f), extended(flow, win))
            assert np.max(np.abs(M @ v - want)) < 1e-12


    @pytest.mark.parametrize("subspace", SUBSPACES)
    def test_reach_box_holds_every_bracket(self, subspace):
        # the chains' table rows come from `_reach_boxes`: the bracket of
        # every window mode must land on a row of its flow's reach, in the
        # mode's own parity, also where m > N or n > N, and every row (J, K)
        # must be an output of a mode (J - sm, K - tn), s, t = +-1, of the
        # square |j|, |k| <= N, so that where n > N no row lies between the
        # two K bands; the rows are distinct canonical modes, in (J, K,
        # parity) order
        for m, n in [(1, 1), (2, 1), (3, 2), (2, 2), (4, 3), (7, 1), (1, 7), (9, 8)]:
            flow = KolmogorovFlow(m, n)
            for N in range(1, 6):
                win = SpectralWindow(N, subspace)
                rows = reach_box(flow, win)
                assert rows == sorted(set(rows))
                assert all(j > 0 or k > 0 for j, k, _ in rows)
                assert {sin for *_, sin in rows} == set(win.sin.tolist())
                assert all(any(abs(J - s * m) <= N and abs(K - t * n) <= N
                               for s in (-1, 1) for t in (-1, 1))
                           for J, K, _ in rows), (flow, win)
                box = set(rows)
                for mode in window_modes(win):
                    make = TrigPoly.cosine if mode.parity == COS else TrigPoly.sine
                    out = bracket(flow.stream(), make(mode.j, mode.k))
                    assert all((t.j, t.k, t.parity == SIN) in box for t in out.terms), (
                        flow, win, mode)
        # per parity, 2 (2N + 1)^2 rows for m, n > N: none in the gap
        # between the two K bands
        parities = 2 if subspace == FULL else 1
        for (m, n), N, count in [((3000, 3000), 20, 3362), ((3000, 2999), 2, 50)]:
            assert len(reach_box(KolmogorovFlow(m, n), SpectralWindow(N, subspace))) == (
                count * parities)


class TestQuadForm:
    """Each chain's form as `_gram` builds it, against the exact index."""

    def test_diagonal_entry_cosx(self):
        for m, n in [(2, 1), (3, 2), (4, 4)]:
            win = SpectralWindow(4, COS)
            i = win.index_of(Mode(1, 0, COS))
            [(index, B)] = [(index, B) for index, B in gram_blocks(KolmogorovFlow(m, n), win)
                            if i in index]
            at = index.tolist().index(i)
            assert B[at, at] == pytest.approx(n * n / 4, rel=1e-13)

    def test_symmetry(self):
        for _, B in gram_blocks(KolmogorovFlow(3, 2), SpectralWindow(6, COS)):
            assert np.array_equal(B, B.T)

    def test_matches_exact_index_zeta32(self):
        flow = KolmogorovFlow(3, 2)
        f = zeta32_field()
        win = SpectralWindow(7, COS)
        got = form_value(flow, win, window_values(f, win))
        want = float(misiolek_index(bracket(flow.stream(), f), flow))
        assert got == pytest.approx(want, rel=1e-10)

    def test_matches_exact_index_fdiag22(self):
        flow = KolmogorovFlow(2, 2)
        f = fdiag22_field()
        win = SpectralWindow(9, COS)
        got = form_value(flow, win, window_values(f, win))
        want = float(misiolek_index(bracket(flow.stream(), f), flow))
        assert got == pytest.approx(want, rel=1e-10)

    def test_random_vectors_match_exact_index(self):
        rng = random.Random(11)
        for _ in range(20):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            parity = rng.choice((COS, SIN))
            flow = KolmogorovFlow(m, n)
            win = SpectralWindow(rng.randint(2, 5), parity)
            f, v = random_window_vector(rng, win)
            got = form_value(flow, win, v)
            want = float(misiolek_index(bracket(flow.stream(), f), flow))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def checked_minimum(flow, window, p, zeroed=()):
    """A one-flow `window_minimum`'s entry and the dense reduced form of its
    winning chain, once `assert_winner_solved` holds for them."""
    entry = scan_one(flow, window, p, zeroed)
    return entry, assert_winner_solved(flow, window, p, *entry, zeroed)


class TestReduceConstrain:
    def test_p_zero_identity(self):
        win = SpectralWindow(4, COS)
        for index, B in gram_blocks(KolmogorovFlow(2, 1), win):
            assert np.array_equal(reduce_form(B, win.laplace[index] ** 0.0), B)

    def test_unit_weight_mode_unchanged(self):
        win = SpectralWindow(4, COS)
        i = win.index_of(Mode(1, 0, COS))
        [(index, B)] = [(index, B) for index, B in gram_blocks(KolmogorovFlow(2, 1), win)
                        if i in index]
        at = index.tolist().index(i)
        # D^{-p/2} at p = 2
        assert reduce_form(B, win.laplace[index] ** -1.0)[at, at] == B[at, at]

    def test_sign_independent_of_p(self):
        win = SpectralWindow(8, COS)
        signs = {scan_one(KolmogorovFlow(3, 2), win, p)[0].value < 0
                 for p in (0, 1, 2, 3)}
        assert signs == {True}

    def test_constrain_empty_is_identity(self):
        flow, win = KolmogorovFlow(2, 1), SpectralWindow(3, COS)
        (pair, r, record), S = checked_minimum(flow, win, 3)
        (c_pair, c, c_record), c_S = checked_minimum(flow, win, 3, [])
        assert c_pair.value == pair.value and np.array_equal(c_pair.vector, pair.vector)
        assert np.array_equal(c_S, S)
        assert np.array_equal(c, r)
        assert ([np.asarray(field).tobytes() for field in c_record]
                == [np.asarray(field).tobytes() for field in record])

    def test_constrain_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="outside the window"):
            window_minimum([KolmogorovFlow(2, 1)], SpectralWindow(3, COS), 3,
                           [Mode(99, 0, COS)])

    def test_constrain_everything_rejected(self):
        win = SpectralWindow(3, COS)
        with pytest.raises(ValueError, match="every mode"):
            scan_one(KolmogorovFlow(2, 1), win, 3, list(window_modes(win)))

    def test_diag22_constrained_minimizer_shape(self):
        win = SpectralWindow(8, COS)
        (_, coeffs, _), _ = checked_minimum(KolmogorovFlow(2, 2), win, 3, [Mode(0, 1, COS)])
        assert win.modes_at([np.argmax(np.abs(coeffs))]) == (Mode(1, 0, COS),)
        assert coeffs[win.index_of(Mode(0, 1, COS))] == 0.0


class TestCertify:
    def test_cosx_alone(self):
        flow = KolmogorovFlow(3, 2)
        win = SpectralWindow(2, COS)
        v = np.zeros(len(win))
        v[win.index_of(Mode(1, 0, COS))] = 1.0
        _, q = certify_candidate(win, v, flow)
        assert q == F(flow.n ** 2, 2)

    def test_zeta32_exact(self):
        flow = KolmogorovFlow(3, 2)
        f = zeta32_field()
        win = SpectralWindow(7, COS)
        _, q = certify_candidate(win, window_values(f, win), flow)
        # small denominators are not recovered exactly: the certificate is
        # the index of the field rounded to 1/10^6 (its peak, cos x, is 1)
        assert max(map(abs, f.terms.values())) == f.terms[Mode(1, 0, COS)] == 1
        rounded = TrigPoly({mode: F(round(c * 10 ** 6), 10 ** 6) for mode, c in f.terms.items()})
        assert rounded != f
        assert q == misiolek_index(bracket(flow.stream(), rounded), flow)
        assert q < 0

    def test_kernel_candidate_rejected(self):
        flow = KolmogorovFlow(2, 1)
        win = SpectralWindow(3, COS)
        with pytest.raises(CertificationError, match="^rationalized candidate lies in the "
                                                     "kernel of the bracket operator$"):
            certify_candidate(win, window_values(flow.stream(), win), flow)

    def test_zero_vector_rejected(self):
        flow = KolmogorovFlow(2, 1)
        win = SpectralWindow(3, COS)
        with pytest.raises(ValueError, match="^cannot certify the zero vector$"):
            certify_candidate(win, np.zeros(len(win)), flow)

    def test_length_mismatch_rejected(self):
        flow = KolmogorovFlow(2, 1)
        win = SpectralWindow(3, COS)
        for length in (len(win) - 1, len(win) + 1):
            with pytest.raises(ValueError, match="^coefficient length does not match window$"):
                certify_candidate(win, np.ones(length), flow)
        with pytest.raises(ValueError, match="does not match"):
            certify_candidate(win, np.ones((1, len(win))), flow)


def _rounded(x: float) -> F:
    """The scaled float x as the certificate rounds it: to an integer over
    10^6, ties to even."""
    return F(round(F(x) * 10 ** 6), 10 ** 6)


def _assert_rounded_certificate(window, values, flow):
    """`certify_candidate`'s field is `_rounded` of each scaled coefficient,
    term for term in window order, its peak is exactly +-1, and
    Q * 8 * 10^12 is an integer."""
    field, q = certify_candidate(window, values, flow)
    scaled = (values / np.max(np.abs(values))).tolist()
    want = {mode: _rounded(x) for mode, x in zip(window_modes(window), scaled) if _rounded(x)}
    assert list(field.terms.items()) == list(want.items())
    assert all(type(c) is F for c in field.terms.values())
    assert abs(field.terms[window_modes(window)[int(np.argmax(np.abs(values)))]]) == 1
    assert (q * 8 * 10 ** 12).denominator == 1


@pytest.mark.parametrize("subspace", [COS, SIN, FULL])
def test_certificate_rounds_onto_one_denominator(subspace):
    rng = random.Random(SUBSPACES.index(subspace))
    window = SpectralWindow(6, subspace)
    # scaled values at and beside (k + 1/2) / 10^6, and exact binary ties odd / 2^7
    edges = [sign * x for t in ((k + 0.5) / 10 ** 6 for k in (0, 1, 7812))
             for x in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0)) for sign in (1, -1)]
    edges += [sign * odd / 2 ** 7 for odd in (1, 3, 5, 127) for sign in (1, -1)]
    for scale in (1.0, 3.7, -1e-5, 0.5):
        for _ in range(3):
            flow = KolmogorovFlow(rng.randint(1, 4), rng.randint(1, 4))
            values = np.array([rng.choice([0.0, -0.0, rng.uniform(-1, 1), rng.choice(edges),
                                           rng.uniform(-1e-6, 1e-6)])
                               for _ in range(len(window))])
            values[rng.randrange(len(window))] = 1.0
            _assert_rounded_certificate(window, values * scale, flow)
    # the minimizers of one scan of every pair m, n <= 4; a minimizer whose
    # rounded field has a zero bracket raises
    flows = [KolmogorovFlow(m, n) for m in range(1, 5) for n in range(1, 5)]
    for flow, (_, coeffs, *_) in zip(flows, window_minimum(flows, window, 3, ())):
        try:
            _assert_rounded_certificate(window, coeffs, flow)
        except CertificationError:
            rounded = {mode: _rounded(x) for mode, x in zip(window_modes(window), coeffs.tolist())}
            assert bracket(flow.stream(), TrigPoly(rounded)).is_zero()


@pytest.mark.parametrize("peak", [1.0, -0.5, 8.0])
def test_certificate_ties_go_to_even(peak):
    # 2^-7 * 10^6 = 7812.5 and 3 * 2^-7 * 10^6 = 23437.5: exact binary ties;
    # a power-of-two peak keeps the scaled values exact
    flow = KolmogorovFlow(3, 2)
    window = SpectralWindow(4, FULL)
    modes = [Mode(1, 0, COS), Mode(2, 1, COS), Mode(1, 3, SIN), Mode(3, -2, SIN)]
    values = np.zeros(len(window))
    for mode, x in zip(modes, (1.0, 2.0 ** -7, -2.0 ** -7, 3 * 2.0 ** -7)):
        values[window.index_of(mode)] = peak * x
    field, _ = certify_candidate(window, values, flow)
    sign = 1 if peak > 0 else -1
    assert field.terms == {mode: sign * F(a, 10 ** 6) for mode, a in
                           zip(modes, (10 ** 6, 7812, -7812, 23438))}


def test_numerators_round_as_fractions_do():
    # `_numerators` gives round(Fraction(x) * D), ties to even, at every
    # position it keeps, and drops only x that round to 0: seeded x in
    # [-1, 1] and near 0, the exact ties odd / 2^7, and the cut's edge,
    # 0.4 / D and 0.5 / D with their neighbours
    D = spectral.MAX_DENOMINATOR
    rng = random.Random(34)
    xs = [rng.uniform(-1, 1) for _ in range(500)]
    xs += [rng.uniform(-2 / D, 2 / D) for _ in range(500)]
    xs += [sign * odd / 2 ** 7 for odd in range(1, 128, 2) for sign in (1, -1)]
    edges = [x for t in (0.4 / D, 0.5 / D)
             for x in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0))]
    xs += edges + [-x for x in edges] + [0.0, -0.0, 1.0, -1.0]
    at, rounded = numerators(np.array(xs))
    got = dict(zip(at.tolist(), rounded))
    assert all(type(c) is int for c in rounded)
    assert [got.get(i, 0) for i in range(len(xs))] == [round(F(x) * D) for x in xs]
    assert (got[xs.index(1 / 2 ** 7)], got[xs.index(3 / 2 ** 7)]) == (7812, 23438)
    assert got[xs.index(math.nextafter(0.5 / D, 1.0))] == 1
    # the cut drops 0.4 / D and below; the next float up is kept, and rounds to 0
    assert not {xs.index(x) for x in edges[:2]} & got.keys() and got[xs.index(edges[2])] == 0


@pytest.mark.parametrize("N,subspace", [(4, COS), (6, SIN), (5, FULL), (12, COS)])
def test_certificate_index_is_the_index_of_the_bracket(N, subspace):
    # the certified index is the one-Fraction-at-a-time reference's index of
    # the returned field's bracket, on the minimizers of one scan of every
    # pair m, n <= 4
    window = SpectralWindow(N, subspace)
    flows = [KolmogorovFlow(m, n) for m in range(1, 5) for n in range(1, 5)]
    certified = 0
    for flow, (_, coeffs, *_) in zip(flows, window_minimum(flows, window, 3, ())):
        try:
            field, q = certify_candidate(window, coeffs, flow)
        except CertificationError as exc:
            assert str(exc) == ("rationalized candidate lies in the kernel of the "
                                "bracket operator")
            continue
        certified += 1
        phi = reference_poly(reference_bracket_sums(flow.stream(), field))
        assert type(q) is F and q == reference_pairing(phi, phi, flow)
    assert certified >= 11


def test_minimizer_in_the_bracket_kernel_is_rejected():
    # (1,1) cos at N=8 with five modes zeroed: the float minimizer is
    # -cos(x-y) - cos(x+y) + a (four cos(1,3)-type modes) + a/3 (cos(3,3) + cos(3,-3)),
    # that is c psi + d psi^3 for the stream psi = -cos x cos y, a function of
    # psi.  One common denominator keeps the 3:1 ratio, so the rounded field
    # has an exactly zero bracket and certification raises
    flow = KolmogorovFlow(1, 1)
    window = SpectralWindow(8, COS)
    zeroed = [Mode(5, 1, COS), Mode(4, -2, COS), Mode(2, 1, COS), Mode(4, -6, COS),
              Mode(5, -3, COS)]
    with pytest.raises(CertificationError, match="kernel of the bracket operator"):
        run_minimize(flow, N=8, subspace=COS, constraints=zeroed)
    [found] = window_minimum([flow], window, 3, zeroed)
    field = TrigPoly({mode: _rounded(x) for mode, x in
                      zip(window_modes(window), found[1].tolist())})
    a, b = F(603, 10 ** 6), F(201, 10 ** 6)
    assert field == TrigPoly.from_terms(
        [(COS, 1, 1, -1), (COS, 1, -1, -1), (COS, 3, 3, b), (COS, 3, -3, b)]
        + [(COS, j, k, a) for j, k in ((1, 3), (1, -3), (3, 1), (3, -1))])
    assert bracket(flow.stream(), field).is_zero()


def _integer_index(flow, window, field, zeroed=()):
    """Q = MI/pi^2 of `field`, summed in Python ints from `_Chains`' integer
    table: Q = sum_r w_r (sum_t (4L)_rt a_t)^2 / (8 * 10^12), a_t the field's
    numerators over 10^6."""
    chains = scan_chains(flow, window, [window.index_of(mode) for mode in zeroed])
    a = [0] * len(window)
    for mode, c in field.terms.items():
        a[window.index_of(mode)] = int(c * 10 ** 6)
    total = sum(w * sum(t * a[col] for col, t in zip(cols, terms) if t) ** 2
                for w, cols, terms in zip(chains.weight.tolist(), chains.cols.tolist(),
                                          chains.terms.tolist()))
    return F(total, 8 * 10 ** 12)


def test_integer_table_index_equals_exact_index():
    # the chains' integer rows and weights give the certificate's exact
    # index, with no float and no trigpoly: every sine sign, every term
    # that folds outside the window and every weight of the table counts
    cases = [(3, 2, 12, COS, ()), (2, 2, 10, SIN, ()), (1, 1, 8, FULL, ()),
             (3, 3, 10, COS, (Mode(0, 1, COS),)), (4, 1, 20, COS, ())]
    rng = random.Random(32)
    for _ in range(6):
        m, n, N, subspace = rng.randint(1, 4), rng.randint(1, 4), rng.randint(3, 10), \
            rng.choice(SUBSPACES)
        modes = window_modes(SpectralWindow(N, subspace))
        cases.append((m, n, N, subspace, tuple(rng.sample(modes, rng.randint(0, 3)))))
    for m, n, N, subspace, zeroed in cases:
        flow, window = KolmogorovFlow(m, n), SpectralWindow(N, subspace)
        res = run_minimize(flow, N=N, subspace=subspace, constraints=zeroed)
        assert _integer_index(flow, window, res.field, zeroed) == res.q


def test_no_function_takes_a_denominator_cap():
    # the certificate's common denominator is the constant MAX_DENOMINATOR
    assert spectral.MAX_DENOMINATOR == 10 ** 6
    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            names = {a.arg for a in arguments}
            assert not names & {"cap", "max_denominator"}, (path.name, node.lineno)


class TestEndToEnd:
    def test_negative_eigenvalue_certified(self):
        # whenever the reduced minimum is clearly negative, certification
        # produces an exact negative rational witness
        for m, n, parity in [(3, 2, COS), (2, 1, COS), (2, 2, COS), (1, 1, SIN)]:
            flow = KolmogorovFlow(m, n)
            win = SpectralWindow(8, parity)
            pair, coeffs = scan_one(flow, win, 3)[:2]
            assert pair.value < -1e-6
            _, q = certify_candidate(win, coeffs, flow)
            assert q < 0
