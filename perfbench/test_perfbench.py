"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from checks import check  # noqa: E402
from kolmconj.theorems import drivas_field  # noqa: E402
from kolmconj.trigpoly import KolmogorovFlow, TrigPoly, bracket, misiolek_index  # noqa: E402
from hostspeed import REFERENCE_S, SpeedProbe  # noqa: E402
from run import tail_percentile  # noqa: E402
from spans import TRACED_NAMES, Span, Tracer, installed, self_times  # noqa: E402
from workloads import WORKLOADS, Command, build  # noqa: E402


# ------------------------------------------------------------ self time

def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(0, None, "t", "root", 0.0, 10.0),
        Span(1, 0, "t", "a", 1.0, 4.0),
        Span(2, 0, "t", "b", 3.0, 6.0),    # overlaps a: children cover 1..6
        Span(3, 1, "t", "c", 2.0, 3.0),
        Span(4, 0, "t", "a", 9.0, 12.0),   # runs past its parent: clipped at 10
    ]
    times = self_times(spans)
    assert times["root"] == (pytest.approx(10.0 - 5.0 - 1.0), 1)
    assert times["a"] == (pytest.approx((3.0 - 1.0) + 3.0), 2)
    assert times["b"] == (pytest.approx(3.0), 1)
    assert times["c"] == (pytest.approx(1.0), 1)


def _fake_package():
    """fakepkg.algebra defines bracket; fakepkg.front imports it and calls it."""
    pkg = types.ModuleType("fakepkg")
    algebra = types.ModuleType("fakepkg.algebra")
    front = types.ModuleType("fakepkg.front")
    exec("def bracket(x):\n    return x + 1\n", algebra.__dict__)
    front.bracket = algebra.bracket
    exec("def main(x):\n    return bracket(x) * 2\n", front.__dict__)
    return {"fakepkg": pkg, "fakepkg.algebra": algebra, "fakepkg.front": front}


def test_tracer_follows_every_binding_and_restores_it(monkeypatch):
    modules = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    front, algebra = modules["fakepkg.front"], modules["fakepkg.algebra"]
    original = algebra.bracket
    with installed(tracer, {}, package="fakepkg") as labels:
        assert labels == ["front.main", "algebra.bracket"]  # absent names skipped
        assert front.main(1) == 4      # outside a command: no span
        assert tracer.spans == []
        with tracer.command("cmd-0"):
            assert front.main(1) == 4
    assert front.bracket is original and algebra.bracket is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.trace) == ("front.main", None, "cmd-0")
    assert (inner.name, inner.parent, inner.trace) == ("algebra.bracket", outer.id, "cmd-0")
    assert outer.start < inner.start < inner.end < outer.end


def test_per_layer_function_metrics_name_traced_functions():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if parts[-1] in ("self_s", "calls"):
            assert parts[1] in TRACED_NAMES, metric["name"]


# ------------------------------------------------------------ output checks

def _field_file(tmp_path, pair, field):
    path = tmp_path / "field.json"
    modes = [{"parity": m.parity, "j": m.j, "k": m.k, "value": str(c)}
             for m, c in sorted(field.terms.items())]
    path.write_text(json.dumps({"m": pair[0], "n": pair[1], "modes": modes}))
    return str(path)


def _minimize_cmd(path, pair):
    return Command(("minimize",), "minimize", pair, 1, field_file=path)


def _minimize_output(value, detected):
    verdict = ("verdict: conjugate point detected" if detected
               else "verdict: not detected on this window")
    return f"certified MI/pi^2 = {value} (~ {float(value):.6e})\n{verdict}\n"


def test_minimize_check_certifies_a_negative_exact_index(tmp_path):
    cmd = _minimize_cmd(_field_file(tmp_path, (1, 1), drivas_field()), (1, 1))
    outcome = check(cmd, 0, _minimize_output(Fraction(-3, 200), True))
    assert outcome.wrong == [] and outcome.certified == 1 and outcome.attempts == 1


def test_minimize_check_rejects_a_printed_value_the_file_does_not_give(tmp_path):
    cmd = _minimize_cmd(_field_file(tmp_path, (1, 1), drivas_field()), (1, 1))
    outcome = check(cmd, 0, _minimize_output(Fraction(-1, 100), True))
    assert outcome.wrong and outcome.certified == 0


def test_minimize_check_never_certifies_a_nonnegative_index(tmp_path):
    # high modes only: every bracket mode has |k|^2 > m^2 + n^2, so MI > 0
    field = TrigPoly.cosine(5, 0)
    cmd = _minimize_cmd(_field_file(tmp_path, (2, 1), field), (2, 1))
    flow = KolmogorovFlow(2, 1)
    true_value = misiolek_index(bracket(flow.stream(), field), flow)
    assert true_value > 0
    honest = check(cmd, 0, _minimize_output(true_value, False))
    assert honest.wrong == [] and honest.certified == 0
    claimed = check(cmd, 0, _minimize_output(true_value, True))
    assert claimed.wrong and claimed.certified == 0


def test_sweep_check_rejects_a_detected_row_without_a_negative_value():
    cmd = build("sweep-small-windows", 0, "unused")[0]
    pairs = [(m, n) for m in range(1, 11) for n in range(1, m + 1)]
    rows = [f"{m},{n},cos,-1.0e+00,-1/2,conjugate point detected" for m, n in pairs]
    good = "m,n,subspace,eigenvalue,certified_q,verdict\n" + "\n".join(rows) + "\n"
    outcome = check(cmd, 0, good)
    assert outcome.wrong == [] and outcome.certified == len(pairs) == outcome.attempts
    bad = good.replace("1,1,cos,-1.0e+00,-1/2,", "1,1,cos,-1.0e+00,1/2,")
    outcome = check(cmd, 0, bad)
    assert outcome.wrong and outcome.certified == len(pairs) - 1


def test_verify_check_counts_only_equal_negative_values():
    cmd = Command(("verify", "offdiag", "3", "2"), "verify", (3, 2), 1)
    out = ("off-diagonal family (m,n)=(3,2)\n"
           "  minimum value: expected -5/7  computed -5/7  [OK]\n"
           "  minimum negative: expected True  computed True  [OK]\nPASS\n")
    assert check(cmd, 0, out).certified == 1
    wrong = out.replace("computed -5/7  [OK]", "computed -4/7  [OK]")
    outcome = check(cmd, 0, wrong)
    assert outcome.wrong and outcome.certified == 0


# ------------------------------------------------------------ seeds

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_reproduces_the_command_list(workload):
    assert build(workload, 7, "w") == build(workload, 7, "w")


def test_seed_draws_the_ladder_and_shuffles_the_exact_route():
    for workload in ("minimize-ladder", "exact-all-pairs"):
        assert build(workload, 1, "w") != build(workload, 2, "w")
    assert build("sweep-small-windows", 1, "w") == build("sweep-small-windows", 2, "w")


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert tail_percentile(19) == 100
    for n in (20, 32, 932, 100000):
        q = tail_percentile(n)
        assert n * (1 - q / 100) >= 10
        assert q == 99 or n * (1 - (q + 1) / 100) < 10


def test_exact_route_spans_every_m_and_every_diagonal_pair():
    cmds = build("exact-all-pairs", 3, "w")
    offdiag = {c.pair for c in cmds if c.argv[1] == "offdiag"}
    assert {m for m, _ in offdiag} == set(range(2, 31))
    assert {(n, n) for n in range(1, 31)} <= {c.pair for c in cmds if c.argv[1] == "diag"}
    assert len(cmds) == len(set(c.argv for c in cmds))


# ------------------------------------------------------------ host speed

def test_slowdown_is_time_weighted_and_drops_the_slowest_timings():
    probe = SpeedProbe.__new__(SpeedProbe)
    # 19 timings at twice the reference, one long stretch at the reference,
    # one stray pause, which is the slowest twentieth and is dropped
    probe.samples = [(0.1, 2 * REFERENCE_S)] * 19 + [(1.9, REFERENCE_S), (0.1, 50 * REFERENCE_S)]
    assert probe.slowdown() == pytest.approx((1.9 * 2 + 1.9 * 1) / 3.8)


def test_probe_samples_once_per_interval_passed():
    probe = SpeedProbe(every_s=0.01)
    probe._last -= 0.05
    spent = probe.maybe_sample()
    assert spent > 0 and 1 <= len(probe.samples) <= 10
    assert sum(w for w, _ in probe.samples) >= 0.05
    assert probe.slowdown() > 0
