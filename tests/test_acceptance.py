"""Acceptance gate: one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Tolerances are pinned here and must not be loosened: exact (zero tolerance)
for the closed-form criteria, 1e-12 per coefficient for the matrix/bracket
agreement, 1e-10 relative for the quadratic-form/index agreement.  The
numerical criteria check the code that `minimize` and `sweep` run: the
chains' bracket blocks of `_Chains`' table, their forms from `_gram` in
`_Chains.slabs`, and `run_minimize`.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from kolmconj.pipeline import run_minimize
from kolmconj.spectral import SpectralWindow
from kolmconj.theorems import (DIAG_MIN_DENOMINATOR, DIAG_MIN_NUMERATOR,
                               OFFDIAG_EDGE_COEFFS, diag_candidate, drivas_check,
                               offdiag_candidate, offdiag_form, offdiag_reference,
                               sign_certificates)
from kolmconj.trigpoly import (COS, SIN, KolmogorovFlow, Mode, TrigPoly,
                               bracket, grad_energy, inner, misiolek_index)

from conftest import (chain_brackets, evaluate, extended, form_value, monomials,
                      output_positions, random_trigpoly, window_modes, window_values)


def report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def zeta32_field():
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


def test_criterion_1_drivas_exact():
    ok = drivas_check() == F(-3, 200)
    report(1, "m=n=1 certificate field has exact index -3/200 (zero tolerance)", ok)


def test_criterion_2_offdiag_closed_forms():
    cand = offdiag_candidate(3, 2)
    ok = (cand.values["a"] == F(-37, 1513)
          and cand.values["b"] == F(1, 17)
          and cand.value == F(-23779, 25721))
    for m in range(2, 7):
        for n in range(1, m):
            ref = {k: v for k, v in offdiag_reference(m, n).items() if v}
            ok &= monomials(offdiag_form(m, n)) == ref
    report(2, "off-diagonal (3,2) golden fractions and interpolated forms "
              "match the closed forms for all 1 <= n < m <= 6 (exact)", ok)


def test_criterion_3_diag_closed_forms():
    cand = diag_candidate(2)
    ok = (cand.values["a"] == F(139425, 1899113)
          and cand.values["b"] == F(-33231, 3798226)
          and cand.values["c"] == F(-66661217, 854600850)
          and cand.values["d"] == F(-19375654, 427300425)
          and cand.value == F(-802799, 3798226))
    report(3, "diagonal n=2 critical point and value match the golden "
              "fractions (exact)", ok)


def test_criterion_4_sign_certificates():
    # rows (label, expected, computed): each golden tuple's strict signs, and
    # the golden quintic's and ratio's values against the pipeline's samples
    edge, edge_samples, num, den, ratio = sign_certificates().rows
    ok = (edge[1] == edge[2] == tuple(F(c) for c in OFFDIAG_EDGE_COEFFS)
          and num[1] == num[2] == tuple(F(c) for c in DIAG_MIN_NUMERATOR)
          and den[1] == den[2] == tuple(F(c) for c in DIAG_MIN_DENOMINATOR)
          and all(c < 0 for c in edge[2] + num[2]) and all(c > 0 for c in den[2])
          and edge_samples[1] == edge_samples[2] and all(v < 0 for v in edge_samples[2])
          and ratio[1] == ratio[2] and all(v < 0 for v in ratio[2]))
    report(4, "polynomial sign certificates reproduce the golden coefficient "
              "tuples with the required strict signs (exact)", ok)


def test_criterion_5_matrix_matches_bracket():
    rng = random.Random(52)
    ok = True
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        flow = KolmogorovFlow(m, n)
        N = rng.randint(1, 6)
        parity = rng.choice((COS, SIN))
        win = SpectralWindow(N, parity)
        v = np.zeros(len(win))
        f_terms = {}
        for i, mode in enumerate(window_modes(win)):
            c = F(rng.randint(-6, 6), 4)
            if c:
                f_terms[mode] = c
                v[i] = float(c)
        ext = extended(flow, win)
        want = window_values(bracket(flow.stream(), TrigPoly(f_terms)), ext)
        got = np.zeros(len(ext))
        for index, rows, L in chain_brackets(flow, win):
            got[output_positions(ext, win, index, rows)] += L @ v[index]
        ok &= bool(np.max(np.abs(got - want)) <= 1e-12)
    report(5, "the chains' bracket blocks agree with the exact bracket on 50 "
              "random vectors, m,n <= 3, N <= 6 (<= 1e-12 per coefficient)", ok)


def test_criterion_6_quadform_matches_index():
    ok = True
    for flow, field, N in [(KolmogorovFlow(3, 2), zeta32_field(), 7),
                           (KolmogorovFlow(2, 2), fdiag22_field(), 9)]:
        win = SpectralWindow(N, COS)
        got = form_value(flow, win, window_values(field, win))
        want = float(misiolek_index(bracket(flow.stream(), field), flow))
        ok &= abs(got - want) <= 1e-10 * abs(want)
    report(6, "the chains' quadratic forms reproduce the exact index for the "
              "(3,2) and (2,2) certificate fields (<= 1e-10 relative)", ok)


def test_criterion_7_sweep_certifies_all_pairs():
    from kolmconj.pipeline import run_sweep
    start = time.monotonic()
    runs = run_sweep(4, N=12, p=3)
    elapsed = time.monotonic() - start
    detected = {}
    for flow, _, res in runs:
        if not isinstance(res, Exception) and res.q < 0:
            detected[(flow.m, flow.n)] = res.q
    pairs = {(m, n) for m in range(1, 5) for n in range(1, m + 1)}
    ok = (set(detected) == pairs
          and all(q < 0 for q in detected.values())
          and elapsed < 120)
    report(7, "sweep over 1 <= n <= m <= 4 at N=12, p=3 certifies Q < 0 for "
              f"every pair in {elapsed:.1f}s (< 120s)", ok)


def test_criterion_8_dominant_mode():
    ok = True
    for p in (2, 3):
        res = run_minimize(KolmogorovFlow(3, 2), p=p, N=8)
        ok &= res.dominant_mode == Mode(1, 0, COS)

        res = run_minimize(KolmogorovFlow(2, 2), p=p, N=8, constraints=[Mode(0, 1, COS)])
        ok &= res.dominant_mode == Mode(1, 0, COS)
    report(8, "minimizers for (3,2) and constrained (2,2) at p in {2,3}, N=8 "
              "are dominated by the cos(x) coefficient", ok)


def test_criterion_9_invariants():
    rng = random.Random(9)
    ok = True
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        flow = KolmogorovFlow(m, n)
        f = random_trigpoly(rng, bandwidth=4, n_terms=3)
        g = random_trigpoly(rng, bandwidth=4, n_terms=3)
        # bracket antisymmetry and L^2 antisymmetry of the bracket operator
        ok &= bracket(f, g) == -bracket(g, f)
        phi_f = bracket(flow.stream(), f)
        phi_g = bracket(flow.stream(), g)
        ok &= inner(phi_f, g) == -inner(f, phi_g)
        # the index decomposes through Parseval
        ok &= (misiolek_index(phi_f, flow)
               == grad_energy(phi_f) - flow.lambda2 * inner(phi_f, phi_f))
        # pointwise evaluation agrees with the symbolic product
        x, y = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        prod = f * g
        ok &= abs(evaluate(prod, x, y) - evaluate(f, x, y) * evaluate(g, x, y)) <= 1e-9
    report(9, "algebraic invariants hold on 200 randomized instances "
              "(exact identities; 1e-9 for pointwise evaluation)", ok)
