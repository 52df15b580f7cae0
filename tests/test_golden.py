"""Byte-exact CLI output of the exact route, pinned in tests/golden/.

Only commands whose output is exact arithmetic are pinned: `minimize` and
`sweep` print float digits that depend on the BLAS build and its thread
count.  Of the numerical route, only what it certifies exactly is pinned:
the certified index, verdict, dominant mode and winning chain.  To re-pin after an
intended change of output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from kolmconj.cli import main
from kolmconj.pipeline import run_minimize, run_sweep
from kolmconj.spectral import FULL
from kolmconj.trigpoly import COS, SIN, KolmogorovFlow, Mode

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    "verify_all": ("verify", "all"),
    "verify_signs": ("verify", "signs"),
    "verify_drivas": ("verify", "drivas"),
    "verify_offdiag_7_3": ("verify", "offdiag", "7", "3"),
    "verify_diag_1": ("verify", "diag", "1"),
    "verify_diag_9": ("verify", "diag", "9"),
    # the top of the exact range: the largest numbers the exact route prints
    "verify_offdiag_30_29": ("verify", "offdiag", "30", "29"),
    "verify_diag_30": ("verify", "diag", "30"),
    # a field the index certifies, and one it does not
    "mi_drivas_11": ("mi", str(GOLDEN / "drivas_11.json")),
    "mi_cosx_32": ("mi", str(GOLDEN / "cosx_32.json")),
    # a rationalized minimizer: 61 sine terms, denominators up to 10**6
    "mi_sin_22_30": ("mi", str(GOLDEN / "sin_22_30.json")),
}


def _sweep_row(flow, subspace, res):
    """A `sweep` row less its eigenvalue: the pair, subspace, q and verdict."""
    if isinstance(res, Exception):
        return f"{flow.m},{flow.n},{subspace},,error: {res}\n"
    verdict = "conjugate point detected" if res.q < 0 else "not detected"
    return f"{flow.m},{flow.n},{subspace},{res.q},{verdict}\n"


def sweep_certified(mmax, N=12):
    """certified_q and verdict of each `sweep` row; the eigenvalue is left out."""
    return "".join(_sweep_row(*run) for run in run_sweep(mmax, N=N))


def minimize_certified(m, n, N=None, subspace=COS, constraints=()):
    res = run_minimize(KolmogorovFlow(m, n), N=N, subspace=subspace,
                       constraints=constraints)
    return (f"certified MI/pi^2 = {res.q}\n"
            f"dominant mode: {res.dominant_mode!r}\n"
            f"block mode: {res.block_mode!r}\n")


NUMERICAL = {
    "sweep_10": lambda: sweep_certified(10),
    "sweep_8_N16": lambda: sweep_certified(8, N=16),
    "minimize_3_2_N20": lambda: minimize_certified(3, 2, 20),
    "minimize_4_1_N40": lambda: minimize_certified(4, 1, 40),
    "minimize_1_1_N20_full": lambda: minimize_certified(1, 1, 20, FULL),
    "minimize_2_2_N30_sin": lambda: minimize_certified(2, 2, 30, SIN),
    # a zeroed mode splits its chain off from the chains of its shape
    "minimize_3_3_constrain_0_1": lambda: minimize_certified(3, 3, constraints=[Mode(0, 1, COS)]),
    "minimize_4_4_constrain_0_1": lambda: minimize_certified(4, 4, constraints=[Mode(0, 1, COS)]),
}


def capture(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = capture(CASES[name])
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(NUMERICAL))
def test_numerical_route_matches_golden(name):
    assert NUMERICAL[name]() == (GOLDEN / f"{name}.out").read_text()


def test_numerical_goldens_fit_the_common_denominator():
    # every certified coefficient is an integer over 10^6 and L's entries are
    # integers over 4, so each pinned Q's denominator divides 8 * 10^12
    qs = []
    for name in NUMERICAL:
        for line in (GOLDEN / f"{name}.out").read_text().splitlines():
            if line.startswith("certified MI/pi^2 = "):
                qs.append(Fraction(line.split()[-1]))
            elif name.startswith("sweep") and ",error:" not in line:
                qs.append(Fraction(line.split(",")[3]))
    assert len(qs) > len(NUMERICAL)
    assert all(8 * 10 ** 12 % q.denominator == 0 for q in qs)


if __name__ == "__main__":
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = capture(argv)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    for name, record in sorted(NUMERICAL.items()):
        (GOLDEN / f"{name}.out").write_text(record())
    sys.exit(0)
