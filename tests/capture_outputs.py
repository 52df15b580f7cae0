"""Record the numerical and exact routes' outputs, and list the commands two records differ on.

Run it once per source tree, then compare the two records:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python tests/capture_outputs.py record OUT.json
    python tests/capture_outputs.py compare PARENT.json CHANGE.json [EXPECTED]

`compare` exits 0 only if the commands whose outputs differ are exactly
the labels in the optional file EXPECTED, one per line (a change's
intended output changes); a differing command not listed, or a listed one
that does not differ, exits 1.  Float bits depend on the BLAS thread
count, so a line `[threads=T] LABEL` lists LABEL only for records made at
T threads; a line without the prefix lists it at every count.

A record holds, per command, a hash of everything it outputs and a short
summary for reading a diff, and the directory of the `kolmconj` package it
imported, which `compare` prints first.  Float digits depend on the BLAS
thread count, so a record also holds the thread settings it was made under,
and `compare` refuses (exit 2) two records whose thread counts differ.

The commands: `minimize-ladder` seeds 1-3 of `perfbench/workloads.py`;
every `verify offdiag m n` (1 <= n < m <= 30) and `verify diag n`
(n <= 30), so every closed-form family the exact route builds, and
`verify all`, `signs` and `drivas`; and `sweep --mmax 10` and
`sweep --mmax 8 --N 16`; each through `kolmconj.cli.main` (exit code,
stdout, stderr and every `--out` file);
one interleaved sequence of commands that share `main`'s parser, with
argparse and usage errors, an unwritable `--out`, and commands run
before and after others that set `--constrain`, or that name `field`,
a command the parser no longer has (one of them with `--epsilon`), or
`mi --m --n`, options it no longer has, and so exit 2 in argparse; the
NUMERICAL golden commands of `tests/test_golden.py`; and 150
seeded random `run_minimize` calls (m, n <= 7, N 3-22, every subspace,
p 0-4, 0-5 zeroed modes), hashed by eigenvalue and residual bits,
eigenvector and coefficient bytes, Q, block counts and winning chain;
for 24 seeded windows, the unconstrained call and two constrained ones:
the winning chain's first mode zeroed, and every mode of that chain
zeroed; and fixed edge windows in every subspace: N = 1 and 2 for four
small pairs, and (30, 29), (17, 11) and (1, 30) at N = 3 and 12, where
few or none of the 2mn + 2 chain classes meet the window, and (1000, 1)
and (1000, 999) at N = 2 and 4, and (3000, 2999) at N = 2, where a small
window meets a large m, so that the reach box lies far from the window
and the 8mn chain classes far outnumber the window's modes; large windows
where most chains of more than 45 modes are screened out, not solved:
(1,1) full at N=40, (2,1), (3,2) and (4,1) cos at N=40, (4,3) full at
N=30 and (2,2) full at N=20, where the screen acts on chains of 50-60
modes, and (1,1) cos at N=40 and (2,2) cos at N=30, where chains of
112-840 modes that reach no disc row are skipped, and (3,1) cos at N=30
and (4,3) cos at N=40, where weight bounds skip chains before their Gram
product, each at p = 0 and 3;
and 16 seeded `run_sweep` calls (mmax <= 8, N 1-16, p 0-4), hashed by
each row's pair, subspace, eigenvalue bits, Q and verdict, so that
windows where few or many chain classes meet and rows that end in
`error:` go through the pooled scan of many pairs, and `run_sweep`
with mmax 4 at N=30, p = 0 and 3, where every pair has chains of more
than 45 modes, decided inside the pooled scan.  pytest does not collect this file;
`tests/test_capture_outputs.py` runs its digests on small inputs.
"""

import hashlib
import io
import itertools
import json
import os
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent), str(TESTS)]

RANDOM_CALLS = 150
CONSTRAINED_WINDOWS = 24
SWEEP_CALLS = 16


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
    from perfbench.workloads import EXACT_MMAX, build
    for seed in (1, 2, 3):
        for cmd in build("minimize-ladder", seed, workdir):
            yield cmd.argv
    for m in range(2, EXACT_MMAX + 1):
        for n in range(1, m):
            yield ("verify", "offdiag", str(m), str(n))
    for n in range(1, EXACT_MMAX + 1):
        yield ("verify", "diag", str(n))
    yield from (("verify", scope) for scope in ("all", "signs", "drivas"))
    yield ("sweep", "--mmax", "10")
    yield ("sweep", "--mmax", "8", "--N", "16")


def _shared_parser_commands(workdir):
    """One in-process sequence: each command parses after the ones before it."""
    minimize = ("minimize", "--m", "3", "--n", "2", "--N", "6")
    field = os.path.join(workdir, "min21.json")
    deformed = ("field", "deformed", "--field", field, "--grid", "16", "--out")
    yield minimize + ("--constrain", "0,1", "--constrain", "1,0")
    yield minimize
    yield ("minimize", "--m", "2")
    yield ("verify", "offdiag", "2", "2")
    yield ("verify", "offdiag", "17", "11")
    yield ("minimize", "--m", "2", "--n", "1", "--N", "4",
           "--out", os.path.join(workdir, "missing", "x.json"))
    yield ("minimize", "--m", "2", "--n", "1", "--N", "4", "--out", field)
    yield ("mi", field, "--m", "4", "--n", "1")
    yield deformed + (os.path.join(workdir, "deformed_5.csv"), "--epsilon", "5")
    yield deformed + (os.path.join(workdir, "deformed.csv"),)
    yield minimize


def _random_calls():
    from kolmconj.spectral import SUBSPACES, SpectralWindow
    from kolmconj.trigpoly import KolmogorovFlow
    rng = random.Random(150)
    for _ in range(RANDOM_CALLS):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        N, subspace, p = rng.randint(3, 22), rng.choice(SUBSPACES), rng.randint(0, 4)
        window = SpectralWindow(N, subspace)
        zeroed = rng.sample(window.modes_at(np.arange(len(window))), rng.randint(0, 5))
        yield KolmogorovFlow(m, n), dict(N=N, subspace=subspace, p=p, constraints=zeroed)


def _edge_calls():
    from kolmconj.spectral import SUBSPACES
    from kolmconj.trigpoly import KolmogorovFlow
    pairs = [(pair, N) for N in (1, 2) for pair in ((1, 1), (2, 1), (1, 2), (3, 3))]
    pairs += [(pair, N) for N in (3, 12) for pair in ((30, 29), (17, 11), (1, 30))]
    pairs += [(pair, N) for N in (2, 4) for pair in ((1000, 1), (1000, 999))]
    pairs += [((3000, 2999), 2)]
    for ((m, n), N), subspace in itertools.product(pairs, SUBSPACES):
        yield KolmogorovFlow(m, n), dict(N=N, subspace=subspace)


def _large_calls():
    from kolmconj.trigpoly import KolmogorovFlow
    windows = [((1, 1), 40, "full"), ((2, 1), 40, "cos"), ((3, 2), 40, "cos"),
               ((4, 1), 40, "cos"), ((4, 3), 30, "full"), ((2, 2), 20, "full"),
               ((1, 1), 40, "cos"), ((2, 2), 30, "cos"), ((3, 1), 30, "cos"),
               ((4, 3), 40, "cos")]
    for ((m, n), N, subspace), p in itertools.product(windows, (0, 3)):
        yield KolmogorovFlow(m, n), dict(N=N, subspace=subspace, p=p)


def _winner_calls():
    """(flow, options, zeroed label) of an unconstrained call, then, if it
    certifies, the calls that zero its winning chain's first mode and every
    mode of that chain."""
    from kolmconj import spectral
    from kolmconj.pipeline import run_minimize
    from kolmconj.trigpoly import KolmogorovFlow
    rng = random.Random(24)
    for _ in range(CONSTRAINED_WINDOWS):
        flow = KolmogorovFlow(rng.randint(1, 6), rng.randint(1, 6))
        N, subspace = rng.randint(3, 16), rng.choice(spectral.SUBSPACES)
        options = dict(N=N, subspace=subspace, p=rng.randint(0, 4))
        yield flow, options, "none"
        try:
            first = run_minimize(flow, **options).block_mode
        except Exception:  # the failure is recorded by the call above
            continue
        window = spectral.SpectralWindow(N, subspace)
        # a chain is one class of (j mod 2m, k mod 2n) merged with its
        # negation's, per parity, read from the window's public arrays
        j, k, m2, n2 = window.j, window.k, 2 * flow.m, 2 * flow.n
        key = 2 * np.minimum(j % m2 * n2 + k % n2, -j % m2 * n2 + -k % n2) + window.sin
        modes = window.modes_at(np.flatnonzero(key == key[window.index_of(first)]))
        yield flow, dict(options, constraints=[first]), f"first mode {first!r}"
        yield flow, dict(options, constraints=list(modes)), f"chain of {first!r}"


def _minimize_digest(res):
    """Digest and summary of a `run_minimize` result."""
    e, q = res.eigen, res.q
    summary = f"block mode {res.block_mode!r}; Q {str(q)[:60]}; eigenvalue {e.value:.3e}"
    return _digest(e.value.hex(), e.residual.hex(), e.vector.tobytes(),
                   res.coeffs.tobytes(), q, res.blocks, res.block_dim_max,
                   res.block_mode), summary


def _minimize(flow, options):
    from kolmconj.pipeline import run_minimize
    try:
        res = run_minimize(flow, **options)
    except Exception as exc:  # every outcome is recorded, failures too
        return _digest(type(exc).__name__, exc), f"{type(exc).__name__}: {exc}"[:200]
    return _minimize_digest(res)


def _sweep_calls():
    """SWEEP_CALLS distinct seeded options (a repeated draw would share its
    label), then mmax 4 at N=30, p = 0 and 3."""
    rng = random.Random(16)
    calls = {}
    while len(calls) < SWEEP_CALLS:
        options = dict(mmax=rng.randint(1, 8), N=rng.randint(1, 16), p=rng.randint(0, 4))
        calls[str(options)] = options
    return list(calls.values()) + [dict(mmax=4, N=30, p=p) for p in (0, 3)]


def _sweep_digest(runs):
    """Digest and summary of `run_sweep`'s runs: per run its pair, subspace,
    eigenvalue bits, q and `sweep`'s verdict."""
    parts = []
    for flow, subspace, res in runs:
        if isinstance(res, Exception):
            parts.append((flow.m, flow.n, subspace, None, None, f"error: {res}"))
        else:
            verdict = "conjugate point detected" if res.q < 0 else "not detected"
            parts.append((flow.m, flow.n, subspace, res.eigen.value.hex(), res.q, verdict))
    errors = sum(part[-1].startswith("error:") for part in parts)
    detected = sum(part[-1] == "conjugate point detected" for part in parts)
    return _digest(*parts), f"{len(parts)} rows; {detected} detected; {errors} errors"


def _sweep(options):
    from kolmconj.pipeline import run_sweep
    return _sweep_digest(run_sweep(**options))


def _golden_texts():
    """The text of each NUMERICAL golden capture of `tests/test_golden.py`."""
    import test_golden
    return {name: capture() for name, capture in sorted(test_golden.NUMERICAL.items())}


def thread_settings():
    """The BLAS thread count and what set it, read as OpenBLAS reads it: the
    first of these variables set to a positive count, else the usable CPUs."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return {"blas_threads": int(value), "set_by": f"{name}={value}"}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"blas_threads": cpus, "set_by": "usable CPUs"}


def record():
    import kolmconj
    entries = {}
    with tempfile.TemporaryDirectory() as workdir:
        for argv in _cli_commands(workdir):
            key = " ".join(argv).replace(workdir, "<work>")
            entries[key] = _cli(argv, workdir)
        for i, argv in enumerate(_shared_parser_commands(workdir), 1):
            key = f"shared parser {i}: " + " ".join(argv).replace(workdir, "<work>")
            entries[key] = _cli(argv, workdir)
    for name, text in _golden_texts().items():
        entries[f"golden {name}"] = _digest(text), text.replace("\n", "; ")[:200]
    for flow, options in _random_calls():
        options_text = {k: v for k, v in options.items() if k != "constraints"}
        key = f"run_minimize({flow.m}, {flow.n}, {options_text}, zeroed={options['constraints']})"
        entries[key] = _minimize(flow, options)
    for flow, options in itertools.chain(_edge_calls(), _large_calls()):
        entries[f"run_minimize({flow.m}, {flow.n}, {options})"] = _minimize(flow, options)
    for flow, options, zeroed in _winner_calls():
        options_text = {k: v for k, v in options.items() if k != "constraints"}
        entries[f"run_minimize({flow.m}, {flow.n}, {options_text}, zeroed {zeroed})"] = \
            _minimize(flow, options)
    for options in _sweep_calls():
        entries[f"run_sweep({options})"] = _sweep(options)
    return {"settings": thread_settings(), "package": str(Path(kolmconj.__file__).parent),
            "outputs": entries}


def _print_outputs(heading, keys, before, after):
    if keys:
        print(heading)
    for key in keys:
        print(key)
        print(f"  before: {before.get(key, [None, 'absent'])[1]}")
        print(f"  after:  {after.get(key, [None, 'absent'])[1]}")


def expected_labels(lines, threads):
    """The labels that lines of an EXPECTED file list for records made at
    `threads` BLAS threads."""
    labels = set()
    for line in lines:
        match = re.fullmatch(r"\[threads=(\d+)\] (.+)", line)
        if match is None:
            labels.add(line)
        elif int(match[1]) == threads:
            labels.add(match[2])
    return labels


def compare(before, after, expected=()):
    """Print the commands whose outputs differ; 0 if they are exactly the
    labels that the `expected` lines list at the records' BLAS thread
    count, 1 if any other differs or a label does not, and 2 if the
    records' thread counts differ."""
    print(f"before: {before.get('package')}\nafter:  {after.get('package')}")
    settings = [r.get("settings", {}).get("blas_threads") for r in (before, after)]
    if None in settings or settings[0] != settings[1]:
        print("refused: the records were made under different BLAS thread settings "
              f"({before.get('settings')} against {after.get('settings')}); "
              "record both under one OPENBLAS_NUM_THREADS")
        return 2
    before, after = before["outputs"], after["outputs"]
    differ = sorted(key for key in before.keys() | after.keys()
                    if before.get(key, [None])[0] != after.get(key, [None])[0])
    expected = expected_labels(expected, settings[0])
    unexpected = [key for key in differ if key not in expected]
    stale = sorted(expected.difference(differ))
    _print_outputs("differing and not expected:", unexpected, before, after)
    _print_outputs("expected changes:", [key for key in differ if key in expected],
                   before, after)
    if stale:
        print("expected to differ, but the same or absent:")
        print("\n".join(stale))
    print(f"{len(differ)} of {len(before.keys() | after.keys())} commands differ, "
          f"{len(differ) - len(unexpected)} of them expected")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "record":
        Path(sys.argv[2]).write_text(json.dumps(record(), indent=1) + "\n")
        sys.exit(0)
    if len(sys.argv) in (4, 5) and sys.argv[1] == "compare":
        before, after = (json.loads(Path(p).read_text()) for p in sys.argv[2:4])
        expected = [line.strip() for line in Path(sys.argv[4]).read_text().splitlines()
                    if line.strip()] if len(sys.argv) == 5 else []
        sys.exit(compare(before, after, expected))
    sys.exit(__doc__)
