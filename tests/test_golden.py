"""Byte-exact CLI output of the exact route, pinned in tests/golden/.

Only commands whose output is exact arithmetic are pinned: `minimize` and
`sweep` print float digits that depend on the BLAS build.  To re-pin after
an intended change of output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from kolmconj.cli import main

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


if __name__ == "__main__":
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = capture(argv)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    sys.exit(0)
