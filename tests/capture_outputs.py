"""Record the numerical route's outputs, and list the commands two records differ on.

Run it once per source tree, then compare the two records:

    PYTHONPATH=<tree>/src python tests/capture_outputs.py record OUT.json
    python tests/capture_outputs.py compare PARENT.json CHANGE.json

A record holds, per command, a hash of everything it outputs and a short
summary for reading a diff.  The commands: `minimize-ladder` seeds 1-3 of
`perfbench/workloads.py` and `sweep --mmax 10`, `sweep --mmax 8 --N 16`
through `kolmconj.cli.main` (exit code, stdout, stderr and every `--out`
file); the NUMERICAL golden commands of `tests/test_golden.py`; and 150
seeded random `run_minimize` calls (m, n <= 7, N 3-22, every subspace,
p 0-4, 0-5 zeroed modes), hashed by eigenvalue and residual bits,
eigenvector and coefficient bytes, Q, block counts and winning chain.
pytest does not collect this file.
"""

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent), str(TESTS)]

RANDOM_CALLS = 150


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _cli(argv, workdir):
    from kolmconj.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    files = [Path(arg).read_bytes() for arg in argv if arg.startswith(workdir)
             and os.path.exists(arg)]
    stdout, stderr = (s.getvalue().replace(workdir, "<work>") for s in (out, err))
    lines = [line[:80] for line in stdout.splitlines()
             if line.startswith(("min eigenvalue", "certified", "verdict"))]
    return _digest(code, stdout, stderr, *files), "; ".join([f"exit {code}"] + lines)


def _cli_commands(workdir):
    from perfbench.workloads import build
    for seed in (1, 2, 3):
        for cmd in build("minimize-ladder", seed, workdir):
            yield cmd.argv
    yield ("sweep", "--mmax", "10", "--out", os.path.join(workdir, "sweep_10.csv"))
    yield ("sweep", "--mmax", "8", "--N", "16")


def _random_calls():
    from kolmconj.spectral import SUBSPACES, SpectralWindow
    from kolmconj.trigpoly import KolmogorovFlow
    rng = random.Random(150)
    for _ in range(RANDOM_CALLS):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        N, subspace, p = rng.randint(3, 22), rng.choice(SUBSPACES), rng.randint(0, 4)
        zeroed = rng.sample(SpectralWindow(N, subspace).modes, rng.randint(0, 5))
        yield KolmogorovFlow(m, n), dict(N=N, subspace=subspace, p=p, constraints=zeroed)


def _minimize(flow, options):
    from kolmconj.pipeline import run_minimize
    try:
        res = run_minimize(flow, **options)
    except Exception as exc:  # every outcome is recorded, failures too
        return _digest(type(exc).__name__, exc), f"{type(exc).__name__}: {exc}"[:200]
    e, q = res.eigen, res.certified.mi_over_pi2
    summary = f"block mode {res.block_mode!r}; Q {str(q)[:60]}; eigenvalue {e.value:.3e}"
    return _digest(e.value.hex(), e.residual.hex(), e.vector.tobytes(),
                   res.coeffs.values.tobytes(), q, res.blocks, res.block_dim_max,
                   res.block_mode), summary


def record():
    from test_golden import NUMERICAL
    entries = {}
    with tempfile.TemporaryDirectory() as workdir:
        for argv in _cli_commands(workdir):
            key = " ".join(argv).replace(workdir, "<work>")
            entries[key] = _cli(argv, workdir)
    for name, capture in sorted(NUMERICAL.items()):
        text = capture()
        entries[f"golden {name}"] = _digest(text), text.replace("\n", "; ")[:200]
    for flow, options in _random_calls():
        options_text = {k: v for k, v in options.items() if k != "constraints"}
        key = f"run_minimize({flow.m}, {flow.n}, {options_text}, zeroed={options['constraints']})"
        entries[key] = _minimize(flow, options)
    return entries


def compare(before, after):
    differ = sorted(key for key in before.keys() | after.keys()
                    if before.get(key, [None])[0] != after.get(key, [None])[0])
    for key in differ:
        print(key)
        print(f"  before: {before.get(key, [None, 'absent'])[1]}")
        print(f"  after:  {after.get(key, [None, 'absent'])[1]}")
    print(f"{len(differ)} of {len(before.keys() | after.keys())} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "record":
        Path(sys.argv[2]).write_text(json.dumps(record(), indent=1) + "\n")
        sys.exit(0)
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(*(json.loads(Path(p).read_text()) for p in sys.argv[2:])))
    sys.exit(__doc__)
