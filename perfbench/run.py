#!/usr/bin/env python3
"""kolmconj benchmark: one workload through ``kolmconj.cli.main``, in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports the package from
the checkout's ``src/`` and nothing else.  ``--trace 0`` measures set-up in
fresh interpreters, then runs one untimed warm-up pass and timed passes of
the workload's command list (at least ``MIN_PASSES``, until ``--seconds``
have passed), checking every output exactly; pass and command times are
reported at the unloaded host's speed (``hostspeed.py``).  ``--trace 1`` alternates
untraced and traced passes and reports per-function self time and counts.
The last line of stdout is one JSON object holding the metrics that
BENCHMARK.json lists; the lines above it print every metric with its unit.
Run records and spans go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import workloads
from hostspeed import REFERENCE_S, SpeedProbe
from spans import Tracer, installed, self_times
from workloads import Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
MIN_PASSES = 2
SETUP_RUNS = 11
# A pair the N=4 window certifies, so set-up ends in a real answer.
SETUP_CODE = ("import sys\nfrom kolmconj.cli import main\n"
              "sys.exit(main(['minimize', '--m', '2', '--n', '1', '--N', '4']))\n")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "certified_per_s": "pairs/s", "certified_frac": "ratio",
             "ops_failed_frac": "ratio", "peak_rss_mb": "MB"}


@dataclass
class PassResult:
    wall: float
    latencies: List[float]
    rcs: List[int]
    outcomes: list  # checks.Outcome per command

    def verdicts(self):
        return [(rc, o.verdict()) for rc, o in zip(self.rcs, self.outcomes)]

    def failed(self) -> int:
        """Commands that exited non-zero or failed an output check."""
        return sum(rc != 0 or bool(o.wrong) for rc, o in zip(self.rcs, self.outcomes))


def blas_threads() -> int:
    """BLAS threads to use: the CPUs this process may run on, at most nproc."""
    return max(1, min(len(os.sched_getaffinity(0)), os.cpu_count() or 1))


def run_command(cli, cmd: Command) -> Tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, never a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    if rc != 0 and err.getvalue():
        print(f"  [{' '.join(cmd.argv)}] exit {rc}: {err.getvalue().strip().splitlines()[-1]}")
    return rc, elapsed, out.getvalue()


def run_pass(cli, cmds: Sequence[Command], check, tracer=None, label: str = "",
             probe: Optional[SpeedProbe] = None) -> PassResult:
    """Run every command once; ``probe`` is sampled between commands, off the clock."""
    start = time.perf_counter()
    results = []
    probing = 0.0
    for i, cmd in enumerate(cmds):
        if probe:
            probing += probe.maybe_sample()
        with tracer.command(f"{label}c{i}") if tracer else nullcontext():
            results.append(run_command(cli, cmd))
    wall = time.perf_counter() - start - probing
    outcomes = [check(cmd, rc, out) for cmd, (rc, _, out) in zip(cmds, results)]
    return PassResult(wall, [dt for _, dt, _ in results], [rc for rc, _, _ in results],
                      outcomes)


def timed_passes(cli, cmds, check, seconds: float) -> Tuple[List[PassResult], SpeedProbe]:
    run_pass(cli, cmds, check)  # warm-up: caches, lazy imports, BLAS start-up
    passes = []
    probe = SpeedProbe()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, cmds, check, probe=probe))
    probe.maybe_sample()  # the stretch of the last commands
    return passes, probe


def measure_setup(env: Dict[str, str]) -> List[float]:
    """Seconds from launching a fresh interpreter to its first certified answer.

    One priming process runs first and is not timed, so the interpreter,
    numpy, the BLAS library and compiled bytecode are in the file cache.
    """
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or "verdict: conjugate point detected" not in proc.stdout:
            raise RuntimeError(f"set-up run failed (exit {proc.returncode}): "
                               f"{proc.stderr.strip()[-300:]}")
        if i:
            times.append(elapsed)
    return times


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten of ``samples`` beyond it.

    100 (the maximum) when there are fewer than 20 samples.
    """
    if samples < 20:
        return 100
    return min(99, math.floor(100 * (1 - 10 / samples)))


def percentile(values: Sequence[float], q: int) -> float:
    if q >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean_latencies(passes: List[PassResult]) -> List[float]:
    """Each command's mean latency over the passes of the run."""
    return [statistics.fmean(lat) for lat in zip(*(p.latencies for p in passes))]


# end-to-end metrics taken at the unloaded host's speed (see hostspeed.py);
# set-up is not: launching interpreters does not slow in step with the probe
HOST_SCALED = ("wall_s", "op_p50_s", "op_tail_s", "certified_per_s")


def end_to_end(passes: List[PassResult], setup: List[float],
               slowdown: float) -> Tuple[dict, dict, dict]:
    """Metrics, their notes, and the host-scaled ones as measured.

    Pass and command times are means over the passes, not medians, because
    the host's slowdown they are divided by is a mean over the same time.
    """
    latencies = mean_latencies(passes)
    outcomes = [o for p in passes for o in p.outcomes]
    attempts = sum(o.attempts for o in outcomes)
    certified = sum(o.certified for o in outcomes)
    failed = sum(p.failed() for p in passes)
    wall = statistics.fmean(p.wall for p in passes)
    per_pass = statistics.median(sum(o.certified for o in p.outcomes) for p in passes)
    q = tail_percentile(len(latencies))
    timed = {
        "wall_s": wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(latencies, q),
        "certified_per_s": per_pass / wall,
    }
    values = {"setup_s": statistics.median(setup)}
    values.update({name: timed[name] / slowdown for name in ("wall_s", "op_p50_s", "op_tail_s")})
    values.update({
        "certified_per_s": timed["certified_per_s"] * slowdown,
        "certified_frac": certified / attempts if attempts else 0.0,
        "ops_failed_frac": failed / (len(passes) * len(latencies)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    each = f"each command's mean of {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, after 1 priming run",
        "wall_s": f"mean of {len(passes)} passes of {len(latencies)} commands",
        "op_p50_s": f"median over {len(latencies)} commands of {each}",
        "op_tail_s": (f"p{q} over {len(latencies)} commands of {each}" if q < 100 else
                      f"maximum over {len(latencies)} commands of {each}"),
        "certified_per_s": f"{per_pass:g} certified pair attempts per pass over wall_s",
        "certified_frac": f"{certified} of {attempts} pair attempts",
        "ops_failed_frac": f"{failed} of {len(passes) * len(latencies)} commands",
        "peak_rss_mb": "peak resident set of this process",
    }
    for name in HOST_SCALED:
        notes[name] += f"; {timed[name]:.6g} as measured, host {slowdown:.4g}x slower than unloaded"
    return values, notes, timed


# ------------------------------------------------------------ traced run

def _observe_eig(counters, args, kwargs, result):
    dim = (args[0] if args else kwargs["S"]).shape[0]
    counters["eigensolve.dim_max"] = max(counters["eigensolve.dim_max"], dim)
    counters["eigensolve.dim3_sum"] += dim ** 3


def _observe_quadform(counters, args, kwargs, result):
    flow, window = args[:2]
    order = window.N + max(flow.m, flow.n)
    ext = (2 if window.subspace == "full" else 1) * (2 * order * order + 2 * order)
    counters["spectral.gram_flops"] += 2 * ext * len(window) ** 2


def _observe_certified(counters, args, kwargs, result):
    largest = max((c.denominator for c in result.field.terms.values()), default=1)
    counters["spectral.max_denominator"] = max(counters["spectral.max_denominator"], largest)


OBSERVERS = {"eigensolve.sym_eig_min": _observe_eig,
             "spectral.assemble_quadform": _observe_quadform,
             "spectral.certify_candidate": _observe_certified}


def layer_values(tracer, cmds: Sequence[Command], result: PassResult) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for name, (self_s, calls) in self_times(tracer.spans).items():
        values[f"{name}.self_s"] = self_s
        values[f"{name}.calls"] = calls
    values.update(tracer.counters)
    sweeps = [o for c, o in zip(cmds, result.outcomes) if c.kind == "sweep"]
    runs = sum(o.minimizations for o in sweeps)
    values["sweep.useful_ratio"] = sum(o.certified for o in sweeps) / runs if runs else 0.0
    return values


def traced_passes(cli, cmds, check, seconds: float):
    run_pass(cli, cmds, check)  # warm-up
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(cli, cmds, check))
        tracer = Tracer()
        with installed(tracer, OBSERVERS):
            traced.append(run_pass(cli, cmds, check, tracer, f"p{len(traced)}-"))
        tracers.append(tracer)
    return plain, traced, tracers


def per_layer(plain, traced, tracers, cmds) -> Tuple[dict, bool]:
    per_pass = [layer_values(t, cmds, p) for t, p in zip(tracers, traced)]
    names = sorted({name for values in per_pass for name in values})
    values = {name: statistics.median(v.get(name, 0.0) for v in per_pass) for name in names}
    traced_wall = statistics.median(p.wall for p in traced)
    plain_wall = statistics.median(p.wall for p in plain)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = plain_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.spans"] = statistics.median(len(t.spans) for t in tracers)
    reference = plain[0].verdicts()
    same = all(p.verdicts() == reference for p in plain + traced)
    return values, same


def write_spans(path: Path, tracers) -> None:
    with open(path, "w") as fh:
        for tracer in tracers:
            for s in tracer.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "trace": s.trace,
                                     "name": s.name, "start": s.start, "end": s.end}) + "\n")


# ------------------------------------------------------------ run record

def git_commit() -> Optional[str]:
    git = shutil.which("git")
    if git is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run([git, "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record(threads: int) -> dict:
    import numpy as np
    blas = None
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):  # numpy older than 1.26 prints instead
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "git_commit": git_commit()}


def unit_of(name: str, spec_units: Dict[str, str]) -> str:
    if name in spec_units:
        return spec_units[name]
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    return "s" if name.endswith("_s") else "count"


# ------------------------------------------------------------ main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "kolmconj" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a kolmconj checkout (needs src/kolmconj and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    threads = blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)  # before numpy is first imported
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import kolmconj.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "kolmconj":
        print(f"error: imported kolmconj from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import check

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        cmds = workloads.build(args.workload, args.seed, str(workdir))
        if args.trace:
            plain, traced, tracers = traced_passes(cli, cmds, check, args.seconds)
            values, same = per_layer(plain, traced, tracers, cmds)
            passes, notes, host = plain + traced, {}, None
            listed = spec["per_layer"]
            write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", tracers)
        else:
            setup = measure_setup(dict(os.environ))
            passes, probe = timed_passes(cli, cmds, check, args.seconds)
            values, notes, timed = end_to_end(passes, setup, probe.slowdown())
            host = {"reference_s": REFERENCE_S, "slowdown": probe.slowdown(),
                    "metrics_as_measured": timed, "probe": probe.samples,
                    "setup_times": setup}
            same = True
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = [(cmd.argv, reason) for p in passes for cmd, o in zip(cmds, p.outcomes)
             for reason in o.wrong]
    attempted = len(passes) * len(cmds)
    failed = sum(p.failed() for p in passes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(threads),
              "commands": [{"argv": " ".join(c.argv), "latency_s": [p.latencies[i] for p in passes]}
                           for i, c in enumerate(cmds)],
              "passes": len(passes), "attempted": attempted,
              "failed": failed, "wrong": [f"{' '.join(a)}: {r}" for a, r in wrong[:20]],
              "verdicts_match": same, "metrics": values, "notes": notes, "host_speed": host}
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"machine {json.dumps(record['machine'])}")
    for argv_, reason in wrong[:20]:
        print(f"  WRONG [{' '.join(argv_)}]: {reason}")
    if args.trace:
        print(f"  traced and untraced verdicts {'match' if same else 'DIFFER'}")
    for name in (list(E2E_UNITS) if not args.trace else sorted(values)):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {values[name]:>16.6g} {unit_of(name, units)}{note}")
    result = {"correct": not wrong and same, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                          for m in listed}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
