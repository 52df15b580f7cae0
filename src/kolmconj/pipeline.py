"""The numerical route end to end.

`run_minimize` proposes a minimizer on a Fourier window and certifies it
exactly, into one `MinimizeResult`; `run_sweep` runs it over wavenumber
pairs, one record or error per run.  Field files live in `fieldfile`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .eigensolve import ConvergenceError, EigenPair
from .spectral import (CertificationError, ScanRecord, SpectralWindow, certify_candidate,
                       window_minimum)
from .trigpoly import COS, SIN, KolmogorovFlow, Mode, TrigPoly


@dataclass
class MinimizeResult:
    """One certified minimization: the lowest eigenpair over a window's
    bracket chains, its minimizer, and the exact index q = MI/pi^2 of the
    rationalized minimizer `field`.  q < 0 certifies a conjugate point."""

    flow: KolmogorovFlow
    subspace: str
    p: int
    N: int
    eigen: EigenPair
    coeffs: np.ndarray    # the minimizer over the window's modes, largest magnitude 1
    dominant_mode: Mode   # the mode of the largest coefficient
    field: TrigPoly       # `coeffs` rationalized
    q: Fraction
    blocks: int           # bracket chains the window splits into
    block_dim_max: int    # modes in the largest chain
    block_mode: Mode      # first mode of the chain that holds the minimum
    record: ScanRecord    # what the scan decided for each chain


def _check_options(p: int, N: int) -> None:
    """Reject options that no window can use, before any window is built:
    a p that passes leaves every weight D^{-p/2} a normal double.  The
    common denominator is the constant `spectral.MAX_DENOMINATOR`."""
    if p < 0:
        raise ValueError("Sobolev order must be >= 0")
    if N < 1:
        raise ValueError("window order must be >= 1")
    # the window's smallest weight D^{-p/2} = (2N^2)^(-p/2), at j = k = N,
    # must not underflow; compared in logarithms, which take any int
    if p > -2 * math.log(sys.float_info.min) / math.log(2 * N * N):
        raise ValueError(f"Sobolev order {p} underflows the window's smallest weight "
                         f"(2N^2)^(-p/2) at N={N}")


def _result(flow: KolmogorovFlow, window: SpectralWindow, p: int, found) -> MinimizeResult:
    """The certified result of one flow's `window_minimum` entry; raises the entry's error."""
    if isinstance(found, Exception):
        raise found
    pair, coeffs, record = found
    field, q = certify_candidate(window, coeffs, flow)
    dominant, block_mode = window.modes_at([int(np.argmax(np.abs(coeffs))),
                                            record.firsts[record.winner]])
    return MinimizeResult(flow, window.subspace, p, window.N, pair, coeffs, dominant, field, q,
                          len(record.sizes), int(record.sizes.max()), block_mode, record)


def run_minimize(flow: KolmogorovFlow, p: int = 3, N: Optional[int] = None,
                 subspace: str = COS, constraints: Sequence[Mode] = ()) -> MinimizeResult:
    """Lowest eigenpair over the window's bracket chains, certified exactly."""
    if N is None:
        N = 2 * max(flow.m, flow.n) + 4
    _check_options(p, N)
    window = SpectralWindow(N, subspace)
    [found] = window_minimum([flow], window, p, constraints)
    return _result(flow, window, p, found)


def run_sweep(mmax: int, p: int = 3, N: int = 12
              ) -> List[Tuple[KolmogorovFlow, str, Union[MinimizeResult, Exception]]]:
    """One (flow, subspace, outcome) per minimization run over the pairs
    1 <= n <= m <= mmax: cosine subspace first, sine as fallback.

    The outcome is the run's `MinimizeResult`, or the certification,
    convergence or value error that ended it.  One scan of the cosine
    window minimizes every pair, and one scan of the sine window the pairs
    it leaves without a certified q < 0.  Runs come by pair, the cosine
    run first.
    """
    # bad options fail every run alike: reject them before the first
    _check_options(p, N)
    if mmax < 1:
        raise ValueError("sweep bound mmax must be >= 1")
    runs = []
    flows = [KolmogorovFlow(m, n) for m in range(1, mmax + 1)
             for n in range(1, m + 1)]
    for subspace in (COS, SIN):
        window = SpectralWindow(N, subspace)
        undetected = []
        for flow, found in zip(flows, window_minimum(flows, window, p)):
            try:
                outcome = _result(flow, window, p, found)
            except (CertificationError, ConvergenceError, ValueError) as exc:
                # without its traceback, a kept error holds none of the scan's frames
                outcome = exc.with_traceback(None)
            runs.append((flow, subspace, outcome))
            if isinstance(outcome, Exception) or outcome.q >= 0:
                undetected.append(flow)
        flows = undetected
    # stable: each pair's cosine run stays before its sine run
    return sorted(runs, key=lambda run: (run[0].m, run[0].n))
