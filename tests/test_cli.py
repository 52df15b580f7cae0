import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kolmconj import pipeline
from kolmconj.cli import main
from kolmconj.pipeline import (read_field_file, run_minimize, run_sweep,
                               write_field_file)
from kolmconj.trigpoly import COS, SIN, KolmogorovFlow, Mode, TrigPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_drivas(self, capsys):
        code, out, _ = run(capsys, "verify", "drivas")
        assert code == 0
        assert "-3/200" in out
        assert out.strip().endswith("PASS")

    def test_offdiag(self, capsys):
        code, out, _ = run(capsys, "verify", "offdiag", "3", "2")
        assert code == 0
        assert "[OK]" in out and "[FAIL]" not in out
        assert "-23779/25721" in out

    def test_offdiag_bad_order_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "offdiag", "2", "2")
        assert code == 2
        assert "m > n" in err

    def test_offdiag_missing_params_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "offdiag", "3")
        assert code == 2

    def test_diag(self, capsys):
        code, out, _ = run(capsys, "verify", "diag", "2")
        assert code == 0
        assert "-802799/3798226" in out

    def test_diag_n1_reports_without_failing(self, capsys):
        code, out, _ = run(capsys, "verify", "diag", "1")
        assert code == 0
        assert "without sign assertion" in out

    def test_signs(self, capsys):
        code, out, _ = run(capsys, "verify", "signs")
        assert code == 0
        assert "[FAIL]" not in out

    def test_all(self, capsys):
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0
        assert "[FAIL]" not in out
        assert out.strip().endswith("PASS")


class TestMinimizeCommand:
    def test_detects_32(self, capsys, tmp_path):
        out_file = tmp_path / "min32.json"
        code, out, _ = run(capsys, "minimize", "--m", "3", "--n", "2",
                           "--N", "8", "--out", str(out_file))
        assert code == 0
        assert "conjugate point detected" in out
        flow, field, _ = read_field_file(str(out_file))
        assert (flow.m, flow.n) == (3, 2)
        assert max(abs(c) for c in field.terms.values()) == 1

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "minimize", "--m", "2", "--n", "1", "--N", "6",
            "--out", str(a))
        run(capsys, "minimize", "--m", "2", "--n", "1", "--N", "6",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_constraint_accepted(self, capsys):
        code, out, _ = run(capsys, "minimize", "--m", "2", "--n", "2",
                           "--N", "8", "--constrain", "0,1")
        assert code == 0
        assert "conjugate point detected" in out

    def test_bad_constraint_is_usage_error(self, capsys):
        code, _, err = run(capsys, "minimize", "--m", "2", "--n", "1",
                           "--constrain", "nonsense")
        assert code == 2
        assert "constraint" in err

    def test_cos_subspace_11_not_detected(self, capsys):
        # the (1,1) cosine minimum is numerically zero; the rationalized
        # witness certifies a nonnegative value, so no detection
        code, out, _ = run(capsys, "minimize", "--m", "1", "--n", "1",
                           "--subspace", "cos")
        assert code == 0
        assert "not detected" in out

    def test_sine_fallback_certifies_11(self, capsys):
        code, out, _ = run(capsys, "minimize", "--m", "1", "--n", "1",
                           "--subspace", "sin")
        assert code == 0
        assert "conjugate point detected" in out


class TestMiCommand:
    def test_round_trip_reproduces_certified_value(self, capsys, tmp_path):
        res = run_minimize(KolmogorovFlow(3, 2), N=8)
        path = tmp_path / "f.json"
        write_field_file(str(path), res.flow, res.certified.field, "test")
        code, out, _ = run(capsys, "mi", str(path))
        assert code == 0
        assert f"MI/pi^2 = {res.certified.mi_over_pi2} " in out
        assert "conjugate point detected" in out

    def test_positive_field_not_detected(self, capsys, tmp_path):
        path = tmp_path / "cosx.json"
        write_field_file(str(path), KolmogorovFlow(3, 2),
                         TrigPoly.cosine(1, 0), "plain cosine")
        code, out, _ = run(capsys, "mi", str(path))
        assert code == 0
        assert "MI/pi^2 = 2 " in out
        assert "not detected" in out

    def test_kernel_field_fails(self, capsys, tmp_path):
        flow = KolmogorovFlow(2, 1)
        path = tmp_path / "psi.json"
        write_field_file(str(path), flow, flow.stream(), "stream function")
        code, out, _ = run(capsys, "mi", str(path))
        assert code == 1
        assert "kernel" in out

    def test_flow_override(self, capsys, tmp_path):
        path = tmp_path / "cosx.json"
        write_field_file(str(path), KolmogorovFlow(3, 2),
                         TrigPoly.cosine(1, 0), "plain cosine")
        code, out, _ = run(capsys, "mi", str(path), "--m", "4", "--n", "1")
        assert code == 0
        assert "m=4 n=1" in out and "MI/pi^2 = 1/2 " in out

    def test_partial_override_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cosx.json"
        write_field_file(str(path), KolmogorovFlow(3, 2),
                         TrigPoly.cosine(1, 0), "plain cosine")
        code, _, _ = run(capsys, "mi", str(path), "--m", "4")
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "mi", str(tmp_path / "nope.json"))
        assert code == 2


class TestSweepCommand:
    def test_small_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--mmax", "2", "--N", "8",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "m,n,subspace,eigenvalue,certified_q,verdict"
        detected = [ln for ln in lines[1:] if ln.endswith("conjugate point detected")]
        pairs = {tuple(ln.split(",")[:2]) for ln in detected}
        assert pairs == {("1", "1"), ("2", "1"), ("2", "2")}

    def test_run_sweep_cos_fallback_to_sin(self):
        rows = run_sweep(1, N=10)
        assert [r["subspace"] for r in rows] == ["cos", "sin"]
        assert rows[1]["verdict"] == "conjugate point detected"


class TestFieldCommand:
    def test_stream_grid(self, capsys, tmp_path):
        out_file = tmp_path / "stream.csv"
        code, _, _ = run(capsys, "field", "stream", "--m", "1", "--n", "1",
                         "--grid", "16", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 16 * 16
        x0, y0, v0 = lines[1].split(",")
        assert (float(x0), float(y0)) == (0.0, 0.0)
        assert float(v0) == pytest.approx(-1.0)

    def test_deformed_zero_epsilon_equals_stream(self, capsys, tmp_path):
        stream_file = tmp_path / "s.csv"
        run(capsys, "field", "stream", "--m", "2", "--n", "1",
            "--grid", "16", "--out", str(stream_file))
        field_file = tmp_path / "f.json"
        write_field_file(str(field_file), KolmogorovFlow(2, 1),
                         TrigPoly.cosine(1, 0), "probe")
        deformed_file = tmp_path / "d.csv"
        code, _, _ = run(capsys, "field", "deformed", "--field", str(field_file),
                         "--epsilon", "0", "--grid", "16",
                         "--out", str(deformed_file))
        assert code == 0
        assert deformed_file.read_text() == stream_file.read_text()

    def test_minimizer_grid_matches_eval(self, capsys, tmp_path):
        field_file = tmp_path / "f.json"
        f = TrigPoly.cosine(1, 0) + TrigPoly.sine(2, 3, F(1, 4))
        write_field_file(str(field_file), KolmogorovFlow(1, 1), f, "probe")
        out_file = tmp_path / "g.csv"
        code, _, _ = run(capsys, "field", "minimizer", "--field", str(field_file),
                         "--grid", "16", "--out", str(out_file))
        assert code == 0
        for line in out_file.read_text().strip().splitlines()[1:9]:
            x, y, v = (float(t) for t in line.split(","))
            assert v == pytest.approx(f.eval(x, y), abs=1e-12)

    def test_small_grid_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "field", "stream", "--m", "1", "--n", "1",
                           "--grid", "8", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "grid" in err

    def test_deformed_partial_override_is_usage_error(self, capsys, tmp_path):
        field_file = tmp_path / "f.json"
        write_field_file(str(field_file), KolmogorovFlow(2, 1),
                         TrigPoly.cosine(1, 0), "probe")
        out_file = tmp_path / "d.csv"
        code, _, err = run(capsys, "field", "deformed", "--field", str(field_file),
                           "--m", "3", "--grid", "16", "--out", str(out_file))
        assert code == 2
        assert "--m and --n" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("flag", ["--m", "--n"])
    def test_minimizer_flow_flag_is_usage_error(self, capsys, tmp_path, flag):
        field_file = tmp_path / "f.json"
        write_field_file(str(field_file), KolmogorovFlow(2, 1),
                         TrigPoly.cosine(1, 0), "probe")
        out_file = tmp_path / "g.csv"
        code, _, err = run(capsys, "field", "minimizer", "--field", str(field_file),
                           flag, "7", "--grid", "16", "--out", str(out_file))
        assert code == 2
        assert flag in err
        assert not out_file.exists()

    def test_missing_field_arg_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "field", "minimizer",
                         "--out", str(tmp_path / "x.csv"))
        assert code == 2


class TestFieldFiles:
    def test_round_trip_exact(self, tmp_path):
        f = (TrigPoly.cosine(1, 0, F(22, 7))
             + TrigPoly.sine(0, 3, F(-1, 10 ** 12)))
        path = tmp_path / "f.json"
        write_field_file(str(path), KolmogorovFlow(3, 2), f, "round trip")
        flow, back, desc = read_field_file(str(path))
        assert back == f
        assert (flow.m, flow.n) == (3, 2)
        assert desc == "round trip"

    def test_values_are_fraction_strings(self, tmp_path):
        path = tmp_path / "f.json"
        write_field_file(str(path), KolmogorovFlow(1, 1),
                         TrigPoly.cosine(1, 0, F(1, 3)), "fmt")
        doc = json.loads(path.read_text())
        assert doc["modes"][0]["value"] == "1/3"

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "mi", str(path))
        assert code == 2


def _field_doc(m=3, n=2, parity="cos", value="1"):
    return {"m": m, "n": n, "description": "probe",
            "modes": [{"parity": parity, "j": 1, "k": 0, "value": value}]}


BAD_FIELD_FILES = {
    "unknown parity": _field_doc(parity="tan"),
    "zero denominator": _field_doc(value="1/0"),
    "bool and float wavenumbers": _field_doc(m=True, n=2.7),
    "top-level list": [_field_doc()],
    "missing m": {key: v for key, v in _field_doc().items() if key != "m"},
    "huge exponent": _field_doc(value="1e1000000"),
}


@pytest.mark.parametrize("doc", BAD_FIELD_FILES.values(), ids=BAD_FIELD_FILES.keys())
def test_bad_field_file_is_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "mi", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: field file: ") and err.count("\n") == 1


def test_index_beyond_float_range_is_numerical_failure(capsys, tmp_path):
    doc = _field_doc()
    doc["modes"][0]["j"] = 10 ** 200
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "mi", str(path))
    assert code == 3
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from(["cos", "sin", "tan", "-3/7", "1/0", "2.5", "x"])
            | st.text(max_size=6))
_VALID_DOCS = st.fixed_dictionaries({
    "m": st.integers(1, 4), "n": st.integers(1, 4),
    "modes": st.lists(st.fixed_dictionaries({
        "parity": st.sampled_from(["cos", "sin"]),
        "j": st.integers(-4, 4), "k": st.integers(-4, 4),
        "value": st.integers(-9, 9) | st.fractions().map(str)}), max_size=3)})


@st.composite
def _field_docs(draw):
    """A valid document, or one with a single fault: replaced whole, or one
    member of the top level or of a mode deleted or set to any JSON scalar."""
    doc = draw(_VALID_DOCS)
    where = draw(st.sampled_from(["none", "whole", "top"] + ["mode"] * bool(doc["modes"])))
    if where == "none":
        return doc
    if where == "whole":
        return draw(_SCALARS | st.lists(_SCALARS, max_size=3))
    obj = doc if where == "top" else draw(st.sampled_from(doc["modes"]))
    key = draw(st.sampled_from(sorted(obj)))
    if draw(st.booleans()):
        del obj[key]
    else:
        obj[key] = draw(_SCALARS)
    return doc


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_field_docs())
def test_any_field_file_ends_in_an_exit_code(capsys, tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    for argv in (["mi", str(path)],
                 ["field", "minimizer", "--field", str(path), "--grid", "16",
                  "--out", str(tmp_path / "grid.csv")],
                 ["field", "deformed", "--field", str(path), "--grid", "16",
                  "--out", str(tmp_path / "grid.csv")]):
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_bad_minimize_tolerance_is_usage_error(capsys, tol):
    code, out, err = run(capsys, "minimize", "--m", "2", "--n", "1", "--N", "4",
                         "--tol", tol)
    assert code == 2
    assert "tolerance" in err and out == ""


def test_bad_sweep_tolerance_is_usage_error(capsys):
    code, out, err = run(capsys, "sweep", "--mmax", "2", "--tol", "nan")
    assert code == 2
    assert "tolerance" in err and out == ""


@pytest.mark.parametrize("option,value,word", [
    ("--cap", "0", "denominator cap"), ("--p", "-1", "Sobolev order"),
    ("--N", "0", "window order"), ("--mmax", "0", "mmax and nmax"),
    ("--nmax", "-1", "mmax and nmax"), ("--nmax", "0", "mmax and nmax")])
def test_bad_sweep_option_is_usage_error(capsys, option, value, word):
    # rejected before the first row, not reported as a failure of every row
    # or as an empty sweep (a later --mmax overrides the --mmax 2 below)
    code, out, err = run(capsys, "sweep", "--mmax", "2", option, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and word in err and err.count("\n") == 1


@pytest.mark.parametrize("option,value,word", [
    ("--cap", "0", "denominator cap must be >= 1"), ("--p", "-1", "Sobolev order"),
    ("--N", "0", "window order"), ("--tol", "0", "tolerance")])
def test_bad_minimize_option_is_rejected_before_any_window(capsys, monkeypatch,
                                                          option, value, word):
    def window_minimum(*args, **kwargs):
        raise AssertionError("window_minimum called")

    monkeypatch.setattr(pipeline, "window_minimum", window_minimum)
    code, out, err = run(capsys, "minimize", "--m", "4", "--n", "1", option, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and word in err and err.count("\n") == 1


@pytest.mark.parametrize("value", ["1e2200", "1e-2200"])
def test_index_too_long_to_print_is_numerical_failure(capsys, tmp_path, value):
    # a legal value near the exponent bound gives an index of more than 4300
    # digits, beyond what CPython converts to a string
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_field_doc(value=value)))
    code, out, err = run(capsys, "mi", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_time_bound_too_long_to_print_is_numerical_failure(capsys, tmp_path):
    # psi = -cos x cos y is in the bracket's kernel: the index is that of
    # the certifying field, and only T*^2/pi^2 carries the 1e-2200
    doc = json.loads((Path(__file__).parent / "golden" / "drivas_11.json").read_text())
    doc["modes"] += [{"parity": "cos", "j": 1, "k": k, "value": "1e-2200"} for k in (1, -1)]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "mi", str(path))
    assert code == 3
    assert out == ""
    assert err == "numerical failure: T*^2/pi^2 has too many digits to print\n"


# past CPython's 4300-digit limit for int strings, yet a float (0.0)
_Q_TOO_LONG = F(-1, 10 ** 4400)


def test_minimize_q_too_long_to_print_is_numerical_failure(capsys, monkeypatch, tmp_path):
    res = run_minimize(KolmogorovFlow(2, 1), N=4)
    res.certified.mi_over_pi2 = _Q_TOO_LONG
    monkeypatch.setattr("kolmconj.cli.run_minimize", lambda *args, **kwargs: res)
    out_file = tmp_path / "min.json"
    code, out, err = run(capsys, "minimize", "--m", "2", "--n", "1", "--out", str(out_file))
    assert code == 3
    assert out == ""
    assert err == "numerical failure: MI/pi^2 has too many digits to print\n"
    assert not out_file.exists()


def test_sweep_q_too_long_to_print_is_numerical_failure(capsys, monkeypatch):
    row = {"m": 1, "n": 1, "subspace": COS, "eigenvalue": -1.0,
           "certified_q": _Q_TOO_LONG, "verdict": "conjugate point detected"}
    monkeypatch.setattr("kolmconj.cli.run_sweep", lambda *args, **kwargs: [row])
    code, out, err = run(capsys, "sweep", "--mmax", "1")
    assert code == 3
    assert out == ""
    assert err == "numerical failure: certified_q has too many digits to print\n"


_SMALL_INTS = st.integers(-4, 4).map(str)
_CONSTRAINT_INTS = st.one_of(
    _SMALL_INTS,
    st.tuples(st.sampled_from(["", " ", "\t", "+", "0", "_"]), _SMALL_INTS,
              st.sampled_from(["", " ", "_", "_0"])).map("".join),
    # non-ASCII digits, which int() accepts: Arabic-Indic 3, fullwidth 1, Devanagari 2
    st.sampled_from(["٣", "１", "२", "-０", "1_0", "１_２"]),
    # long digit runs on both sides of CPython's 4300-digit limit
    st.sampled_from(["9" * 30, "9" * 4300, "9" * 4301]))
_CONSTRAINT_SPECS = st.one_of(
    st.tuples(st.sampled_from(["", "cos:", "sin:"]), _CONSTRAINT_INTS, st.just(","),
              _CONSTRAINT_INTS).map("".join),
    st.tuples(st.sampled_from(["", "cos:", "sin:", "tan:", ":", "cos:sin:", " cos:"]),
              _CONSTRAINT_INTS, st.sampled_from([",", " , ", ",,", ";", ""]),
              _CONSTRAINT_INTS, st.sampled_from(["", ",1", ":"])).map("".join),
    st.text(alphabet="0123456789,:_-+ cosin٣１", max_size=10))


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_CONSTRAINT_SPECS)
def test_any_constraint_spec_ends_in_an_exit_code(capsys, spec):
    code, _, err = run(capsys, "minimize", "--m", "2", "--n", "1", "--N", "4",
                       "--constrain=" + spec)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
