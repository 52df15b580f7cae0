"""`capture_outputs.py` digests on small inputs: its minimize, sweep,
golden and verify digests run on the current package, and `compare`
gives its exit codes on hand-made records."""

import json
import subprocess
import sys

import pytest

import capture_outputs as tool
import test_golden
from kolmconj.cli import main
from kolmconj.pipeline import run_minimize, run_sweep
from kolmconj.trigpoly import KolmogorovFlow


def test_minimize_digest():
    flow = KolmogorovFlow(2, 1)
    digest, summary = tool._minimize(flow, dict(N=4))
    res = run_minimize(flow, N=4)
    assert tool._minimize_digest(res) == (digest, summary)
    assert summary.startswith(f"block mode {res.block_mode!r}; Q {str(res.q)[:60]};")
    assert tool._minimize(flow, dict(N=0))[1] == "ValueError: window order must be >= 1"


def test_sweep_digest():
    # (2,2) cos at N=4, and (1,1) cos at N=1, fail certification and fall back to sine
    for options, summary in [(dict(mmax=2, N=4), "5 rows; 2 detected; 1 errors"),
                             (dict(mmax=1, N=1), "2 rows; 0 detected; 1 errors")]:
        runs = run_sweep(**options)
        digest = tool._sweep_digest(runs)
        assert digest == tool._sweep(options)
        assert digest[1] == summary


def test_golden_texts(monkeypatch):
    names = ("minimize_3_3_constrain_0_1", "sweep_10")
    monkeypatch.setattr(test_golden, "NUMERICAL",
                        {name: test_golden.NUMERICAL[name] for name in names})
    want = {name: (test_golden.GOLDEN / f"{name}.out").read_text() for name in names}
    assert tool._golden_texts() == want
    assert test_golden.run_minimize is run_minimize and test_golden.run_sweep is run_sweep


@pytest.mark.parametrize("argv", [("verify", "offdiag", "2", "1"), ("verify", "diag", "2"),
                                  ("minimize", "--m", "2", "--n", "1", "--N", "4")])
def test_cli_digest_is_the_command_output(capsys, tmp_path, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    digest, summary = tool._cli(argv, str(tmp_path))
    assert digest == tool._digest(code, out, "")
    assert summary.startswith(f"exit {code}")


def _record(threads, **outputs):
    return {"settings": {"blas_threads": threads}, "package": "pkg",
            "outputs": {key: [digest, f"summary {digest}"] for key, digest in outputs.items()}}


@pytest.mark.parametrize("before, after, expected, code, listing", [
    (_record(1, a="1", b="2"), _record(1, a="1", b="2"), None, 0, None),
    (_record(1, a="1", b="2"), _record(1, a="1", b="3"), "b\n", 0, ("expected changes:", "b")),
    (_record(1, a="1", b="2"), _record(1, a="1", b="3"), "", 1,
     ("differing and not expected:", "b")),
    (_record(1, a="1", b="2"), _record(1, a="1", b="3"), "a\nb\n", 1,
     ("expected to differ, but the same or absent:", "a")),
    (_record(1, a="1", b="2"), _record(2, a="1", b="2"), None, 2, None),
    # a label that names a thread count is listed only at that count
    (_record(1, a="1", b="2"), _record(1, a="1", b="3"), "[threads=1] b\n[threads=2] a\n", 0,
     ("expected changes:", "b")),
    (_record(2, a="1", b="2"), _record(2, a="2", b="2"), "[threads=1] b\n[threads=2] a\n", 0,
     ("expected changes:", "a")),
    (_record(2, a="1", b="2"), _record(2, a="1", b="3"), "[threads=1] b\n", 1,
     ("differing and not expected:", "b")),
    (_record(2, a="1", b="2"), _record(2, a="1", b="3"), "b\n[threads=2] a\n", 1,
     ("expected to differ, but the same or absent:", "a")),
    (_record(1, a="1", b="2"), _record(1, a="1", b="3"), "[threads=12] b\n", 1,
     ("differing and not expected:", "b"))])
def test_compare_exit_code(tmp_path, before, after, expected, code, listing):
    # `listing` is a heading `compare` prints and the first command under it
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, record in zip(paths, (before, after)):
        path.write_text(json.dumps(record))
    if expected is not None:
        paths.append(tmp_path / "expected.txt")
        paths[-1].write_text(expected)
    run = subprocess.run([sys.executable, tool.__file__, "compare", *map(str, paths)],
                         capture_output=True, text=True)
    assert run.returncode == code, run.stdout
    if listing is not None:
        heading, first = listing
        lines = run.stdout.splitlines()
        assert lines[lines.index(heading) + 1] == first
