import argparse
import ast
import dataclasses
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kolmconj
from kolmconj import eigensolve, pipeline, theorems
from kolmconj.cli import build_parser, main
from kolmconj.fieldfile import read_field_file, write_field_file
from kolmconj.pipeline import run_minimize, run_sweep
from kolmconj.spectral import CertificationError, SpectralWindow
from kolmconj.theorems import drivas_field
from kolmconj.trigpoly import COS, SIN, KolmogorovFlow, TrigPoly, canonicalize

import test_golden
from conftest import assert_winner_solved


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

    @pytest.mark.parametrize("argv", [("all", "3", "2"), ("drivas", "5"),
                                      ("signs", "1", "2", "3")])
    def test_stray_params_are_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"usage: verify {argv[0]}\n"

    @pytest.mark.parametrize("params,message", [
        ((), "usage: verify diag N"), (("2", "3"), "usage: verify diag N"),
        (("0",), "verify diag requires n >= 1")])
    def test_bad_diag_params_are_usage_error(self, capsys, params, message):
        code, out, err = run(capsys, "verify", "diag", *params)
        assert code == 2 and out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("scope,blocks", [("signs", 1), ("all", 23)])
    def test_failing_sign_certificate_prints_its_fail_row(self, capsys, monkeypatch, scope,
                                                          blocks):
        # a golden coefficient off by one: its samples row fails, every block is printed
        monkeypatch.setattr(theorems, "OFFDIAG_EDGE_COEFFS",
                            (-82,) + theorems.OFFDIAG_EDGE_COEFFS[1:])
        code, out, err = run(capsys, "verify", scope)
        lines = out.splitlines()
        assert code == 1 and err == "" and lines[-1] == "FAIL"
        assert [line.split(":")[0] for line in lines if line.endswith("[FAIL]")] == \
            ["  worst-case quintic at k=1..10, (m,n)=(k+1,k)"]
        assert sum(not line.startswith("  ") for line in lines[:-1]) == blocks


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

    @pytest.mark.parametrize("subspace,unfolded,canonical", [
        (COS, "0,-1", "0,1"), (COS, "-1,0", "1,0"), (SIN, "0,-1", "0,1")])
    def test_negated_constraint_zeroes_the_same_mode(self, capsys, subspace, unfolded,
                                                     canonical):
        # cos(-t) = cos(t) and sin(-t) = -sin(t): (j, k) and (-j, -k) name
        # one mode up to sign, and zeroing it ignores the sign
        first, second = (run(capsys, "minimize", "--m", "2", "--n", "2", "--subspace",
                             subspace, "--constrain=" + spec) for spec in (unfolded, canonical))
        assert first == second
        assert first[0] == 0 and "conjugate point detected" in first[1]

    def test_zero_function_constraint_is_usage_error(self, capsys):
        code, out, err = run(capsys, "minimize", "--m", "2", "--n", "1",
                             "--constrain", "sin:0,0")
        assert code == 2 and out == ""
        assert err == "error: bad constraint 'sin:0,0': sin(0x+0y) is the zero function\n"

    def test_unwritable_out_prints_nothing(self, capsys, tmp_path):
        # the field file is written before the verdict is printed
        out_file = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "minimize", "--m", "2", "--n", "1", "--N", "4",
                             "--out", str(out_file))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.parent.exists()

    def test_kernel_candidate_is_numerical_failure(self, capsys, tmp_path):
        # (6,6) cos at N=12 has no negative direction, and its rationalized
        # minimizer is constant on streamlines
        out_file = tmp_path / "w.json"
        code, out, err = run(capsys, "minimize", "--m", "6", "--n", "6", "--N", "12",
                             "--out", str(out_file))
        assert code == 3 and out == ""
        assert err == ("numerical failure: rationalized candidate lies in the kernel "
                       "of the bracket operator\n")
        assert not out_file.exists()

    def test_cos_subspace_11_not_detected(self, capsys):
        # the (1,1) cosine minimum is numerically zero; the rationalized
        # witness certifies a nonnegative value, so no detection
        code, out, _ = run(capsys, "minimize", "--m", "1", "--n", "1",
                           "--subspace", "cos")
        assert code == 0
        assert "not detected" in out

    def test_large_11_window_prints_its_q(self, capsys):
        # the certificate's field is over the common denominator 10^6, so Q's
        # denominator divides 8 * 10^12 and prints at any window order
        code, out, err = run(capsys, "minimize", "--m", "1", "--n", "1", "--N", "56")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[-1] == "verdict: not detected on this window"
        [q] = [line.split()[3] for line in lines if line.startswith("certified MI/pi^2 = ")]
        assert F(q) > 0 and 8 * 10 ** 12 % F(q).denominator == 0

    def test_sine_fallback_certifies_11(self, capsys):
        code, out, _ = run(capsys, "minimize", "--m", "1", "--n", "1",
                           "--subspace", "sin")
        assert code == 0
        assert "conjugate point detected" in out


class TestSharedParser:
    """`main` parses every call with one parser; no call may change the next."""

    def test_constrain_default_is_not_mutated(self, capsys):
        plain = ("minimize", "--m", "3", "--n", "2", "--N", "6")
        build_parser.cache_clear()
        first = run(capsys, *plain)
        constrained = run(capsys, *plain, "--constrain", "0,1", "--constrain", "1,0")
        again = run(capsys, *plain)
        assert first[0] == constrained[0] == 0 and constrained != first
        assert again == first

    @pytest.mark.parametrize("argv,code,stream", [
        (("minimize", "--m", "2"), 2, "err"),
        (("verify", "nope"), 2, "err"),
        (("sweep", "--mmax", "3", "--bogus"), 2, "err"),
        ((), 2, "err"),
        (("--help",), 0, "out"),
        (("minimize", "--help"), 0, "out"),
    ])
    def test_argparse_exit_is_returned(self, capsys, argv, code, stream):
        got, out, err = run(capsys, *argv)
        assert got == code
        assert {"out": out, "err": err}[stream].startswith("usage: kolmconj")

    def test_argparse_error_then_good_command(self, capsys):
        assert main(["minimize", "--m", "2"]) == 2
        assert "--n" in capsys.readouterr().err
        code, out, _ = run(capsys, "verify", "diag", "2")
        assert code == 0 and out.strip().endswith("PASS")

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        build_parser.cache_clear()
        run(capsys, "verify", "diag", "2")
        assert built  # the first call builds the parser and its subparsers
        built.clear()
        for argv in (("verify", "offdiag", "3", "2"), ("verify", "offdiag", "2", "2"),
                     ("minimize", "--m", "2", "--n", "1", "--N", "4"),
                     ("sweep", "--mmax", "2", "--N", "4")):
            run(capsys, *argv)
        assert main(["minimize", "--m", "2"]) == 2
        assert built == []


class TestMiCommand:
    def test_round_trip_reproduces_certified_value(self, capsys, tmp_path):
        res = run_minimize(KolmogorovFlow(3, 2), N=8)
        path = tmp_path / "f.json"
        write_field_file(str(path), res.flow, res.field, "test")
        code, out, _ = run(capsys, "mi", str(path))
        assert code == 0
        assert f"MI/pi^2 = {res.q} " in out
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
        assert out == "field is in the kernel of the bracket operator (constant on streamlines)\n"

    def test_scores_against_the_flow_the_file_names(self, capsys, tmp_path):
        # cos x scores 2 against (3, 2) above, and 1/2 against (4, 1) here
        path = tmp_path / "cosx.json"
        write_field_file(str(path), KolmogorovFlow(4, 1),
                         TrigPoly.cosine(1, 0), "plain cosine")
        code, out, _ = run(capsys, "mi", str(path))
        assert code == 0
        assert "m=4 n=1" in out and "MI/pi^2 = 1/2 " in out

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "mi", str(tmp_path / "nope.json"))
        assert code == 2


class TestConjugateTimeBound:
    """The threshold T* = pi * sqrt(E / -MI) that `mi` prints for a negative index."""

    @staticmethod
    def mi(capsys, tmp_path, flow, field):
        path = tmp_path / "field.json"
        write_field_file(str(path), flow, field, "time bound")
        return run(capsys, "mi", str(path))

    def test_drivas_bound(self, capsys, tmp_path):
        code, out, _ = self.mi(capsys, tmp_path, KolmogorovFlow(1, 1), drivas_field())
        assert code == 0
        [line] = [line for line in out.splitlines() if "T* =" in line]
        # T*^2 = pi^2 * (43/20) / (3/200) = 430 pi^2 / 3
        assert line.endswith("(T*^2/pi^2 = 430/3)")
        tstar = float(line.split("T* = ")[1].split()[0])
        assert tstar ** 2 == pytest.approx(430 * math.pi ** 2 / 3, rel=1e-12)

    def test_positive_index_returns_none(self, capsys, tmp_path):
        code, out, _ = self.mi(capsys, tmp_path, KolmogorovFlow(2, 1), TrigPoly.cosine(1, 0))
        assert code == 0
        assert "not detected" in out and "T*" not in out

    def test_kernel_field_rejected(self, capsys, tmp_path):
        for m, n in [(1, 1), (2, 1), (3, 2)]:
            flow = KolmogorovFlow(m, n)
            code, out, _ = self.mi(capsys, tmp_path, flow, flow.stream())
            assert code == 1
            assert "kernel" in out and "T*" not in out


class TestSweepCommand:
    def test_small_sweep(self, capsys):
        code, out, err = run(capsys, "sweep", "--mmax", "2", "--N", "8")
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,subspace,eigenvalue,certified_q,verdict"
        detected = [ln for ln in lines[1:] if ln.endswith("conjugate point detected")]
        pairs = {tuple(ln.split(",")[:2]) for ln in detected}
        assert pairs == {("1", "1"), ("2", "1"), ("2", "2")}

    def test_run_sweep_cos_fallback_to_sin(self):
        runs = run_sweep(1, N=10)
        assert [subspace for _, subspace, _ in runs] == ["cos", "sin"]
        assert runs[0][2].q >= 0 and runs[1][2].q < 0

    def test_run_sweep_covers_the_triangle(self):
        runs = run_sweep(3, N=8)
        pairs = list(dict.fromkeys((flow.m, flow.n) for flow, _, _ in runs))
        assert pairs == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
        assert {(flow.m, flow.n) for flow, subspace, _ in runs if subspace == COS} == set(pairs)

    @staticmethod
    def _line(flow, subspace, res):
        """The CSV row of one `run_sweep` run, formatted here from its record."""
        if isinstance(res, Exception):
            return f"{flow.m},{flow.n},{subspace},,,error: {res}"
        verdict = "conjugate point detected" if res.q < 0 else "not detected"
        return f"{flow.m},{flow.n},{subspace},{res.eigen.value:.12e},{res.q},{verdict}"

    def test_rows_are_formatted_from_the_records(self, capsys):
        code, out, err = run(capsys, "sweep", "--mmax", "7", "--N", "12")
        runs = run_sweep(7, N=12)
        lines = out.splitlines()
        assert lines == (["m,n,subspace,eigenvalue,certified_q,verdict"]
                         + [self._line(*r) for r in runs])
        errors = [line for line in lines if ",error: " in line]
        assert [line.split(",")[:3] for line in errors] == [
            ["6", "6", "cos"], ["7", "6", "cos"], ["7", "7", "cos"]]
        assert code == 3 and err == ""

    def test_error_row_is_followed_by_its_sine_fallback(self, capsys):
        code, out, _ = run(capsys, "sweep", "--mmax", "1", "--N", "1")
        runs = run_sweep(1, N=1)
        [(_, cos, error), (_, sin, res)] = runs
        assert (cos, sin) == (COS, SIN)
        assert isinstance(error, CertificationError) and res.q >= 0
        # a kept traceback would hold the scan's frames, and the runs through them
        assert error.__traceback__ is None
        assert out.splitlines()[1:] == [self._line(*r) for r in runs]
        assert out.splitlines()[1].startswith("1,1,cos,,,error: ")
        assert code == 3


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

    def test_written_bytes_are_json_dump_with_indent(self, tmp_path):
        # the writer formats what json.dumps(doc, indent=2) and a newline
        # give: seeded fields with sine modes, j = 0, negative k and large
        # numerators, and descriptions with quotes, backslashes and non-ASCII
        rng = random.Random(34)
        descriptions = ["", 'say "hi"', "back\\slash\\", "ψ = −cos mx cos ny, λ²",
                        "tab\tand\nnewline"]
        path, seen = tmp_path / "f.json", set()
        for description in descriptions * 4:
            terms = {}
            for _ in range(rng.randint(1, 8)):
                j, k = rng.randint(0, 9), rng.randint(-9, 9)
                mode, _ = canonicalize(rng.choice((COS, SIN)), j, k if j or k else 1)
                terms[mode] = F(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 12))
            field, flow = TrigPoly(terms), KolmogorovFlow(rng.randint(1, 30), rng.randint(1, 30))
            write_field_file(str(path), flow, field, description)
            modes = [{"parity": mode.parity, "j": mode.j, "k": mode.k,
                      "value": str(field.terms[mode])} for mode in sorted(field.terms)]
            doc = {"m": flow.m, "n": flow.n, "description": description, "modes": modes}
            assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()
            seen |= {(mode.parity, mode.j == 0, mode.k < 0) for mode in field.terms}
        assert {(SIN, True, False), (COS, False, True), (SIN, False, True)} <= seen
        write_field_file(str(path), KolmogorovFlow(1, 1), TrigPoly(), "empty")
        assert path.read_text() == json.dumps({"m": 1, "n": 1, "description": "empty",
                                               "modes": []}, indent=2) + "\n"

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "mi", str(path))
        assert code == 2


def _field_doc(m=3, n=2, parity="cos", value="1", j=1):
    return {"m": m, "n": n, "description": "probe",
            "modes": [{"parity": parity, "j": j, "k": 0, "value": value}]}


def _with_cos_x(doc):
    """`doc` with cos x listed first."""
    return {**doc, "modes": _field_doc()["modes"] + doc["modes"]}


BAD_FIELD_FILES = {
    "unknown parity": _field_doc(parity="tan"),
    "zero denominator": _field_doc(value="1/0"),
    "bool and float wavenumbers": _field_doc(m=True, n=2.7),
    "top-level list": [_field_doc()],
    "missing m": {key: v for key, v in _field_doc().items() if key != "m"},
    "huge exponent": _field_doc(value="1e1000000"),
    # cos(-x) is cos x: not read as 2 cos x
    "mode repeated after folding": _with_cos_x(_field_doc(j=-1)),
    # not dropped, as --constrain sin:0,0 is not
    "zero function sin(0,0)": _with_cos_x(_field_doc(parity="sin", j=0)),
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
    code, _, err = run(capsys, "mi", str(path))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("--m", "3", "--n", "2", "--N", "12"),
                                  ("--m", "1", "--n", "1", "--N", "40", "--subspace", "full")])
def test_minimize_prints_its_winning_rows_residual(capsys, monkeypatch, argv):
    # the residual printed is the one the eigensolve checked: the winning
    # chain's row, which also holds the eigenvalue and eigenvector behind the
    # coefficients; (1,1) full at N=40 wins with a chain solved alone
    results = []
    monkeypatch.setattr(pipeline, "run_minimize",
                        lambda *args, **kwargs: results.append(run_minimize(*args, **kwargs))
                        or results[-1])
    code, out, _ = run(capsys, "minimize", *argv)
    monkeypatch.undo()
    [res] = results
    assert_winner_solved(res.flow, SpectralWindow(res.N, res.subspace), res.p, res.eigen,
                         res.coeffs, res.record)
    assert code == 0 and f"residual: {res.eigen.residual:.3e}" in out.splitlines()
    assert (res.record.sizes[res.record.winner] > 45) == (res.N == 40)


@pytest.mark.parametrize("argv,tol", [
    *((("minimize", "--m", "2", "--n", "1", "--N", "4"), tol)
      for tol in ["1e-10", "nan", "0", "-1", "1e308"]),
    *((("sweep", "--mmax", "2"), tol) for tol in ["1e-10", "nan"])])
def test_tolerance_option_is_gone(capsys, monkeypatch, argv, tol):
    # the residual tolerance is a constant: its own value and the values once
    # rejected as bad tolerances are all an unknown option, before any window
    def window_minimum(*args, **kwargs):
        raise AssertionError("window_minimum called")

    monkeypatch.setattr(pipeline, "window_minimum", window_minimum)
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 2
    assert "--tol" in err and out == ""


@pytest.mark.parametrize("cap", ["1000000", "0", "1000"])
@pytest.mark.parametrize("argv", [("minimize", "--m", "2", "--n", "1", "--N", "4"),
                                  ("sweep", "--mmax", "2")], ids=["minimize", "sweep"])
def test_cap_option_is_gone(capsys, monkeypatch, argv, cap):
    # the common denominator is the constant spectral.MAX_DENOMINATOR: its
    # own value and the values once rejected or accepted as caps are all an
    # unknown option, before any window
    def window_minimum(*args, **kwargs):
        raise AssertionError("window_minimum called")

    monkeypatch.setattr(pipeline, "window_minimum", window_minimum)
    code, out, err = run(capsys, *argv, "--cap", cap)
    assert code == 2
    assert "--cap" in err and out == ""


@pytest.mark.parametrize("argv", [("stream", "--m", "2", "--n", "1"),
                                  ("minimizer", "--field", "w.json"),
                                  ("deformed", "--field", "w.json", "--epsilon", "0.3")],
                         ids=["stream", "minimizer", "deformed"])
def test_field_command_is_gone(capsys, tmp_path, argv):
    out_file = tmp_path / "grid.csv"
    code, out, err = run(capsys, "field", *argv, "--out", str(out_file))
    assert code == 2 and out == ""
    assert "invalid choice: 'field'" in err
    assert not out_file.exists()


@pytest.mark.parametrize("argv,option", [
    (("sweep", "--mmax", "2", "--nmax", "1"), "--nmax"),
    (("sweep", "--mmax", "2", "--out", "{out}"), "--out"),
    (("mi", "{field}", "--m", "4", "--n", "1"), "--m"),
    (("mi", "{field}", "--m", "4"), "--m"),
    (("mi", "{field}", "--n", "1"), "--n")],
    ids=["sweep-nmax", "sweep-out", "mi-m-n", "mi-m", "mi-n"])
def test_removed_option_is_argparse_error(capsys, tmp_path, argv, option):
    # `sweep` covers the whole triangle and writes to stdout, and `mi` scores
    # a field against the flow its file names: each of these options exits 2
    # in argparse, before any file is read or written
    field, out_file = tmp_path / "cosx.json", tmp_path / "sweep.csv"
    write_field_file(str(field), KolmogorovFlow(3, 2), TrigPoly.cosine(1, 0), "plain cosine")
    code, out, err = run(capsys, *(arg.format(field=field, out=out_file) for arg in argv))
    assert code == 2 and out == ""
    assert f"error: unrecognized arguments: {option} " in err
    assert not out_file.exists()


@pytest.mark.parametrize("option,value,word", [
    ("--p", "-1", "Sobolev order"),
    ("--N", "0", "window order"), ("--mmax", "0", "bound mmax"),
    ("--p", "1000", "Sobolev order")])
def test_bad_sweep_option_is_usage_error(capsys, option, value, word):
    # rejected before the first row, not reported as a failure of every row
    # or as an empty sweep (a later --mmax overrides the --mmax 2 below)
    code, out, err = run(capsys, "sweep", "--mmax", "2", option, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and word in err and err.count("\n") == 1


@pytest.mark.parametrize("option,value,word", [
    ("--p", "-1", "Sobolev order"), ("--N", "0", "window order"),
    ("--p", "1000", "Sobolev order")])
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


def _long_denominators():
    """100 cos modes whose values have distinct denominators of 3,900 digits."""
    rng = random.Random(7)
    return [{"parity": "cos", "j": j, "k": k,
             "value": f"1/{rng.randrange(10 ** 3899, 10 ** 3900)}"}
            for j in range(1, 11) for k in range(10)]


@pytest.mark.parametrize("modes", [
    _long_denominators(),
    [{"parity": "cos", "j": 1, "k": 0, "value": "1e-2200"},
     {"parity": "cos", "j": 0, "k": 1, "value": f"1/{10 ** 2200 + 1}"}]], ids=["100", "2"])
def test_field_past_the_denominator_bound_is_refused_at_once(capsys, tmp_path, modes):
    # each value alone reads, but the values' common denominator passes
    # 10**4300; every bracket and pairing would carry it, so the file is
    # refused before any field is built
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"m": 3, "n": 2, "description": "long", "modes": modes}))
    start = time.perf_counter()
    code, out, err = run(capsys, "mi", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == "error: field file: values' common denominator exceeds 10**4300\n"


def test_one_value_at_the_denominator_bound_reads(tmp_path):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(_field_doc(value="1e-4300")))
    _, field, _ = read_field_file(str(path))
    assert field.terms == {canonicalize(COS, 1, 0)[0]: F(1, 10 ** 4300)}


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


@pytest.mark.parametrize("argv,name", [
    (("offdiag", str(10 ** 800 + 1), str(10 ** 800)), "minimum value"),
    (("diag", str(10 ** 800)), "a0")])
def test_verify_value_too_long_to_print_is_numerical_failure(capsys, argv, name):
    # the family's first value past 4300 digits stops the report before any line
    code, out, err = run(capsys, "verify", *argv)
    assert code == 3
    assert out == ""
    assert err == f"numerical failure: {name} has too many digits to print\n"


def _shift_reference(name, key):
    """Patch the published reference `theorems.name` so that one entry reads
    1 more: a coefficient (by monomial), a critical coordinate or the value."""
    def mutate(monkeypatch):
        reference = getattr(theorems, name)

        def shifted(*args):
            ref = reference(*args)
            if isinstance(ref, dict):
                return {**ref, key: ref[key] + 1}
            if key == "value":
                return dataclasses.replace(ref, value=ref.value + 1)
            return dataclasses.replace(ref, values={**ref.values, key: ref.values[key] + 1})

        monkeypatch.setattr(theorems, name, shifted)
    return mutate


def _change_golden(name, position, change):
    def mutate(monkeypatch):
        golden = list(getattr(theorems, name))
        golden[position] = change(golden[position])
        monkeypatch.setattr(theorems, name, tuple(golden))
    return mutate


def _nonnegative_values(monkeypatch):
    # every form evaluates to 0, so each candidate's value is not negative
    monkeypatch.setattr(theorems.QuadraticFormInParams, "evaluate", lambda self, point: F(0))


_EDGE_SAMPLES = "worst-case quintic at k=1..10, (m,n)=(k+1,k)"
_RATIO_SAMPLES = "diagonal ratio at n=2..12, k=n^2-4"


@pytest.mark.parametrize("argv,mutate,label", [
    pytest.param(("offdiag", "3", "2"), _shift_reference("offdiag_reference", (1, 1)),
                 "coeff ab", id="offdiag-coefficient"),
    pytest.param(("diag", "2"), _shift_reference("diag_reference", (0, 0, 1, 1)),
                 "coeff cd", id="diag-coefficient"),
    pytest.param(("offdiag", "3", "2"), _shift_reference("offdiag_reference_candidate", "a"),
                 "a0", id="a0"),
    pytest.param(("diag", "2"), _shift_reference("diag_reference_candidate", "d"),
                 "d0", id="d0"),
    pytest.param(("offdiag", "3", "2"), _shift_reference("offdiag_reference_candidate", "value"),
                 "minimum value", id="minimum-value"),
    pytest.param(("diag", "2"), _shift_reference("diag_reference_candidate", "value"),
                 "critical value", id="critical-value"),
    pytest.param(("offdiag", "3", "2"), _nonnegative_values, "minimum negative",
                 id="minimum-negative"),
    pytest.param(("diag", "2"), _nonnegative_values, "critical value negative",
                 id="critical-value-negative"),
    pytest.param(("drivas",), lambda monkeypatch: monkeypatch.setattr(
        theorems, "DRIVAS_INDEX", F(-3, 199)), "MI/pi^2", id="drivas"),
    pytest.param(("signs",), _change_golden("OFFDIAG_EDGE_COEFFS", 0, lambda c: c + 1),
                 _EDGE_SAMPLES, id="edge-quintic-plus-1"),
    pytest.param(("signs",), _change_golden("OFFDIAG_EDGE_COEFFS", 3, lambda c: -c),
                 "worst-case coefficients negative (in k)", id="edge-sign"),
    pytest.param(("signs",), _change_golden("DIAG_MIN_NUMERATOR", 1, lambda c: c - 1),
                 _RATIO_SAMPLES, id="numerator-minus-1"),
    pytest.param(("signs",), _change_golden("DIAG_MIN_NUMERATOR", 4, lambda c: -c),
                 "diagonal numerator negative (in k)", id="numerator-sign"),
    pytest.param(("signs",), _change_golden("DIAG_MIN_DENOMINATOR", 2, lambda c: c + 1),
                 _RATIO_SAMPLES, id="denominator-plus-1"),
    pytest.param(("signs",), _change_golden("DIAG_MIN_DENOMINATOR", 0, lambda c: -c),
                 "diagonal denominator positive (in k)", id="denominator-sign"),
])
def test_every_row_kind_can_fail(capsys, monkeypatch, argv, mutate, label):
    # one reference or golden changed: its row prints [FAIL], then FAIL, exit 1
    mutate(monkeypatch)
    code, out, err = run(capsys, "verify", *argv)
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert lines[-1] == "FAIL"
    [row] = [line for line in lines if line.startswith(f"  {label}: ")]
    assert row.endswith("  [FAIL]")


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


@pytest.mark.parametrize("message,printed", [
    (("Unable to allocate 7.45 TiB for an array",), "Unable to allocate 7.45 TiB for an array"),
    ((), "out of memory")])
@pytest.mark.parametrize("target,command", [
    ("run_minimize", ["minimize", "--m", "1", "--n", "1", "--N", "1000000", "--out", "{out}"]),
    ("run_sweep", ["sweep", "--mmax", "1", "--N", "1000000"])])
def test_out_of_memory_is_numerical_failure(capsys, monkeypatch, tmp_path, target, command,
                                            message, printed):
    # the allocation is faked: the stand-in raises what numpy raises when a
    # window this large does not fit in memory
    def exhausted(*args, **kwargs):
        raise MemoryError(*message)

    monkeypatch.setattr(f"kolmconj.pipeline.{target}", exhausted)
    out_file = tmp_path / "out.txt"
    code, out, err = run(capsys, *(arg.format(out=out_file) for arg in command))
    assert code == 3
    assert out == ""
    assert err == f"numerical failure: {printed}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("message,printed", [
    (("Unable to allocate 7.45 TiB for an array",), "Unable to allocate 7.45 TiB for an array"),
    ((), "out of memory")])
def test_mi_out_of_memory_is_numerical_failure(capsys, monkeypatch, tmp_path, message, printed):
    def exhausted(*args, **kwargs):
        raise MemoryError(*message)

    path = tmp_path / "cosx.json"
    write_field_file(str(path), KolmogorovFlow(3, 2), TrigPoly.cosine(1, 0), "plain cosine")
    monkeypatch.setattr("kolmconj.cli.bracket", exhausted)
    code, out, err = run(capsys, "mi", str(path))
    assert code == 3
    assert out == ""
    assert err == f"numerical failure: {printed}\n"


@pytest.mark.parametrize("argv", [
    ("minimize", "--m", "2", "--n", "1", "--N", str(10 ** 20)),
    ("minimize", "--m", str(10 ** 20), "--n", "1", "--N", "2"),  # the chain table's range
    ("minimize", "--m", "2", "--n", "1", "--N", str(10 ** 20), "--subspace", "sin"),
    ("minimize", "--m", "2", "--n", "1", "--N", str(10 ** 20), "--subspace", "full"),
    ("sweep", "--mmax", "2", "--N", str(10 ** 20))])
def test_window_too_large_to_index_is_numerical_failure(capsys, argv):
    # (N+1)(2N+1) grid points exceed the largest array index, where numpy
    # would refuse the grid with a ValueError; or, at m = 10^20, the chain
    # table's 2 R^2, R = N + max(m, n), passes 2^31: each is refused before
    # any allocation
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: window order ") and err.count("\n") == 1


def test_window_order_at_the_int32_range_certifies(capsys):
    # R = N + max(m, n) = 32767, the largest with 2 R^2 < 2^31, so that the
    # chain table's stencil terms and weights fit int32: certified q < 0
    code, out, err = run(capsys, "minimize", "--m", "32765", "--n", "1", "--N", "2")
    assert code == 0 and err == ""
    q = F(re.search(r"certified MI/pi\^2 = (\S+)", out)[1])
    assert q < 0


def test_window_order_past_the_int32_range_is_numerical_failure(capsys):
    # R = 32768: 2 R^2 = 2^31, refused before any array of the table is built
    code, out, err = run(capsys, "minimize", "--m", "32766", "--n", "1", "--N", "2")
    assert code == 3 and out == ""
    assert err == "numerical failure: window order 32768 is too large to index\n"


def test_convergence_failure_is_numerical_failure(capsys, monkeypatch, tmp_path):
    # a negative tolerance fails every residual's bound: the eigensolve's
    # ConvergenceError ends `minimize` before it formats or writes anything
    monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", -1)
    out_file = tmp_path / "F"
    code, out, err = run(capsys, "minimize", "--m", "2", "--n", "1", "--N", "4",
                         "--out", str(out_file))
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: residual ") and err.count("\n") == 1
    assert not out_file.exists()


def _fresh_interpreter(code, *args, **options):
    """Run `code` in a new interpreter that imports this tree's package;
    `options` go to `subprocess.run`."""
    src = str(Path(kolmconj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300, **options)


# runs `minimize` for the m, n and N in argv[1:] at one BLAS thread, then
# prints the interpreter's own peak RSS in kB to stderr.  Linux's VmHWM
# counts from exec; ru_maxrss would keep the forking process's peak
_LARGE_PAIR_PROBE = """
import os, re, sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"
from kolmconj.cli import main
m, n, N = sys.argv[1:]
code = main(["minimize", "--m", m, "--n", n, "--N", N])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read())[1], file=sys.stderr)
sys.exit(code)
"""


def _address_space_2gib():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))


def test_large_pair_on_a_small_window_runs_in_small_memory():
    # (3000, 2999) at N = 2: 8mn = 72M chain classes meet 12 modes, so
    # numbering the chains must cost memory by the window, not by m n (an
    # int32 table over the classes alone is 288 MB).  (3000, 3000) at
    # N = 20, n > N: the table holds the 3,362 rows of the flow's reach and
    # none of the 244,319 in the gap between its two K bands, which take the
    # peak to 67 MB.  The address-space cap makes a regression fail fast
    for pair, N, value, megabytes in [((3000, 2999), 2, "287904016", 80),
                                      ((3000, 3000), 20, "2880000000000", 50)]:
        done = _fresh_interpreter(_LARGE_PAIR_PROBE, *map(str, (*pair, N)),
                                  preexec_fn=_address_space_2gib)
        assert done.returncode == 0, done.stderr
        assert f"certified MI/pi^2 = {value} " in done.stdout, pair
        assert int(done.stderr) < megabytes * 1024, pair


# exits 77 if a bare `import numpy` loads numpy.ma (numpy 1.x does)
_NUMPY_MA_PROBE = """
import contextlib, io, sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit(77)
from kolmconj.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["minimize", "--m", "3", "--n", "2"]), main(["sweep", "--mmax", "3"]),
             main(["verify", "all"])]
print(codes, "numpy.ma" in sys.modules)
"""


def test_commands_leave_numpy_ma_unloaded():
    # numpy 2 loads numpy.ma on first use (np.unique loads it), which costs
    # about 1 MB and 10 ms of import time on every command
    done = _fresh_interpreter(_NUMPY_MA_PROBE)
    if done.returncode == 77:
        pytest.skip("a bare `import numpy` loads numpy.ma")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0] False\n"


# runs each command named in argv[1] with numpy made unimportable; prints
# every exit code and output, and the numpy modules loaded at the end
_NO_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from kolmconj.cli import main
outputs = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outputs[name] = [main(argv), out.getvalue()]
loaded = [key for key, module in sys.modules.items()
          if key.split(".")[0] == "numpy" and module is not None]
print(json.dumps({"outputs": outputs, "numpy": loaded}))
"""


def test_exact_commands_run_without_numpy():
    # `verify` and `mi` are exact arithmetic: neither may load numpy, and
    # each gives its golden output in an interpreter where numpy cannot load
    cases = {name: list(argv) for name, argv in test_golden.CASES.items()
             if argv[0] in ("verify", "mi")}
    assert cases
    done = _fresh_interpreter(_NO_NUMPY_PROBE, json.dumps(cases))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["numpy"] == []
    codes = json.loads((test_golden.GOLDEN / "exit_codes.json").read_text())
    assert sorted(result["outputs"]) == sorted(cases)
    for name, (code, out) in result["outputs"].items():
        assert code == codes[name], name
        assert out == (test_golden.GOLDEN / f"{name}.out").read_text(), name


def test_no_module_imports_a_private_name():
    # a leading underscore keeps a name to its own module: a module that
    # needs another's helper imports a public name
    def private(name):
        return any(part.startswith("_") and not part.endswith("__") for part in name.split("."))

    for path in sorted(Path(kolmconj.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                assert not [name for name in names if private(name)], (path.name, node.lineno)


def test_tests_read_no_private_scan_name():
    # a test reads what the scan decided from its `ScanRecord`: only
    # conftest, with its oracles, its screens-off reference and its fault
    # injectors, reads or patches a private name of `spectral` or
    # `eigensolve`.  capture_outputs, which pytest does not collect, reads
    # none either, so that it records an older commit's package too
    modules = {"spectral", "eigensolve"}
    paths = {f"kolmconj.{module}" for module in modules}

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "conftest.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {alias.asname or alias.name for node in nodes
                 if isinstance(node, ast.ImportFrom) and node.module == "kolmconj"
                 for alias in node.names if alias.name in modules}
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module in paths:
                found += [(path.name, node.lineno) for a in node.names if private(a.name)]
            elif isinstance(node, ast.Attribute) and private(node.attr):
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id in names
                        or isinstance(owner, ast.Attribute) and owner.attr in modules):
                    found.append((path.name, node.lineno))
            elif isinstance(node, ast.Call) and len(node.args) >= 2:
                owner, name = node.args[:2]
                if (isinstance(owner, ast.Name) and owner.id in names
                        and isinstance(name, ast.Constant) and private(str(name.value))):
                    found.append((path.name, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.search(r"kolmconj\.(spectral|eigensolve)\._", node.value):
                    found.append((path.name, node.lineno))
    assert not found


def test_only_trigpoly_reads_the_integer_representation():
    # a TrigPoly's `nums` and `den` are trigpoly's own: every other module
    # goes through its operations, and `terms` at the boundary
    for path in sorted(Path(kolmconj.__file__).parent.glob("*.py")):
        if path.name != "trigpoly.py":
            reads = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and node.attr in ("nums", "den")]
            assert not reads, (path.name, reads)
