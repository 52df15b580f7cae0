"""Command-line front end: verify, minimize, sweep, mi, field.

Exit codes: 0 success / verdict holds, 1 assertion failure, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import theorems
from .eigensolve import ConvergenceError, EigenPair, check_tol
from .spectral import (CertificationError, CertifiedResult, CoeffVector,
                       SpectralWindow, block_minimum, certify_candidate,
                       minimizer_coefficients, quadform_blocks, reduce_symmetric)
from .theorems import VerificationError
from .trigpoly import (COS, SIN, KolmogorovFlow, Mode, TrigPoly, bracket,
                       conjugate_time_bound, grad_energy, misiolek_index)

OK, FAIL, USAGE, NUMERIC = 0, 1, 2, 3

TWO_PI = 2.0 * np.pi


# ------------------------------------------------------------ field files

def field_to_document(flow: KolmogorovFlow, field: TrigPoly, description: str) -> dict:
    modes = []
    for mode in sorted(field.terms):
        modes.append({"parity": mode.parity, "j": mode.j, "k": mode.k,
                      "value": str(field.terms[mode])})
    return {"m": flow.m, "n": flow.n, "description": description, "modes": modes}


def write_field_file(path: str, flow: KolmogorovFlow, field: TrigPoly,
                     description: str) -> None:
    with open(path, "w") as fh:
        json.dump(field_to_document(flow, field, description), fh, indent=2)
        fh.write("\n")


def read_field_file(path: str) -> Tuple[KolmogorovFlow, TrigPoly, str]:
    with open(path) as fh:
        doc = json.load(fh)
    flow = KolmogorovFlow(int(doc["m"]), int(doc["n"]))
    terms = [(entry["parity"], int(entry["j"]), int(entry["k"]),
              Fraction(str(entry["value"])))
             for entry in doc.get("modes", [])]
    return flow, TrigPoly.from_terms(terms), doc.get("description", "")


# ------------------------------------------------------------ grid export

def grid_eval(field: TrigPoly, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast(xs, ys).shape)
    for mode, c in field.terms.items():
        fn = np.cos if mode.parity == COS else np.sin
        out += float(c) * fn(mode.j * xs + mode.k * ys)
    return out


def write_grid_file(path: str, values_at) -> None:
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for x, y, v in values_at:
            fh.write(f"{x:.17g},{y:.17g},{v:.17g}\n")


def sample_grid(field_eval, grid: int):
    step = TWO_PI / grid
    xs = np.arange(grid) * step
    ys = np.arange(grid) * step
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    V = field_eval(X, Y)
    for i in range(grid):
        for j in range(grid):
            yield xs[i], ys[j], V[i, j]


# ------------------------------------------------------------ minimize pipeline

@dataclass
class MinimizeResult:
    flow: KolmogorovFlow
    subspace: str
    p: int
    N: int
    eigen: EigenPair
    coeffs: CoeffVector
    certified: CertifiedResult
    blocks: int           # bracket chains the window splits into
    block_dim_max: int    # modes in the largest chain
    block_mode: Mode      # first mode of the chain that holds the minimum


def run_minimize(flow: KolmogorovFlow, p: int = 3, N: Optional[int] = None,
                 subspace: str = COS, constraints: Sequence[Mode] = (),
                 tol: float = 1e-10, max_denominator: int = 10 ** 6) -> MinimizeResult:
    """Lowest eigenpair over the window's bracket chains, certified exactly."""
    if N is None:
        N = 2 * max(flow.m, flow.n) + 4
    window = SpectralWindow(N, subspace)
    blocks = [reduce_symmetric(q, p) for q in quadform_blocks(flow, window)]
    pair, reduced = block_minimum(blocks, constraints, tol)
    coeffs = minimizer_coefficients(reduced, pair.vector)
    certified = certify_candidate(coeffs, flow, max_denominator)
    return MinimizeResult(flow, subspace, p, N, pair, coeffs, certified, len(blocks),
                          max(len(r.modes) for r in blocks), reduced.quadform.modes[0])


def run_sweep(mmax: int, nmax: Optional[int] = None, p: int = 3, N: int = 12,
              tol: float = 1e-10, max_denominator: int = 10 ** 6) -> List[dict]:
    """One row per minimization run: cosine subspace first, sine as fallback."""
    if nmax is None:
        nmax = mmax
    check_tol(tol)
    rows = []
    for m in range(1, mmax + 1):
        for n in range(1, min(m, nmax) + 1):
            flow = KolmogorovFlow(m, n)
            detected = False
            for subspace in (COS, SIN):
                row = {"m": m, "n": n, "subspace": subspace,
                       "eigenvalue": None, "certified_q": None, "verdict": None}
                try:
                    res = run_minimize(flow, p=p, N=N, subspace=subspace, tol=tol,
                                       max_denominator=max_denominator)
                    row["eigenvalue"] = res.eigen.value
                    row["certified_q"] = res.certified.mi_over_pi2
                    detected = res.certified.detected
                    row["verdict"] = ("conjugate point detected" if detected
                                      else "not detected")
                except (CertificationError, ConvergenceError, ValueError) as exc:
                    row["verdict"] = f"error: {exc}"
                rows.append(row)
                if detected:
                    break
    return rows


# ------------------------------------------------------------ verify reporting

def _report(name: str, expected, computed) -> bool:
    ok = expected == computed
    print(f"  {name}: expected {expected}  computed {computed}  "
          f"[{'OK' if ok else 'FAIL'}]")
    return ok


def _verify_offdiag(m: int, n: int) -> bool:
    print(f"off-diagonal family (m,n)=({m},{n})")
    form = theorems.offdiag_form(m, n)
    ref = theorems.offdiag_reference(m, n)
    ok = True
    for mono in sorted(ref, reverse=True):
        name = "coeff " + _mono_name(("a", "b"), mono)
        ok &= _report(name, ref[mono], form.coefficient(mono))
    cand = theorems.offdiag_candidate(m, n)
    refc = theorems.offdiag_reference_candidate(m, n)
    for var in ("a", "b"):
        ok &= _report(f"{var}0", refc.values[var], cand.values[var])
    ok &= _report("minimum value", refc.value, cand.value)
    ok &= _report("minimum negative", True, cand.value < 0)
    return ok


def _verify_diag(n: int) -> bool:
    print(f"diagonal family n={n}")
    cand = theorems.diag_candidate(n)
    if n == 1:
        # the closed forms assume n >= 2 (mode collisions at n = 1 change
        # the index form); report the exact value without comparisons
        print(f"  n=1 critical value reported without sign assertion: {cand.value}")
        return True
    form = theorems.diag_form(n)
    ref = theorems.diag_reference(n)
    ok = True
    for mono in sorted(ref, reverse=True):
        name = "coeff " + _mono_name(("a", "b", "c", "d"), mono)
        ok &= _report(name, ref[mono], form.coefficient(mono))
    refc = theorems.diag_reference_candidate(n)
    for var in ("a", "b", "c", "d"):
        ok &= _report(f"{var}0", refc.values[var], cand.values[var])
    ok &= _report("critical value", refc.value, cand.value)
    ok &= _report("critical value negative", True, cand.value < 0)
    return ok


def _mono_name(variables: Tuple[str, ...], mono: Tuple[int, ...]) -> str:
    parts = [v * e for v, e in zip(variables, mono) if e]
    return "".join(parts) if parts else "1"


def _verify_drivas() -> bool:
    print("m=n=1 certificate field")
    return _report("MI/pi^2", Fraction(-3, 200), theorems.drivas_check())


def _verify_signs() -> bool:
    print("polynomial sign certificates")
    try:
        report = theorems.sign_certificates(10)
    except VerificationError as exc:
        print(f"  FAIL: {exc}")
        return False
    ok = True
    ok &= _report("worst-case coefficients (in k)",
                  tuple(Fraction(c) for c in theorems.OFFDIAG_EDGE_COEFFS),
                  report.offdiag_edge_coeffs)
    ok &= _report("diagonal numerator (in k)",
                  tuple(Fraction(c) for c in theorems.DIAG_MIN_NUMERATOR),
                  report.diag_min_numerator)
    ok &= _report("diagonal denominator (in k)",
                  tuple(Fraction(c) for c in theorems.DIAG_MIN_DENOMINATOR),
                  report.diag_min_denominator)
    return ok


def cmd_verify(args) -> int:
    scope = args.scope
    params = args.params
    ok = True
    if scope == "offdiag":
        if len(params) != 2:
            print("usage: verify offdiag M N", file=sys.stderr)
            return USAGE
        m, n = params
        if not m > n >= 1:
            print("verify offdiag requires m > n >= 1", file=sys.stderr)
            return USAGE
        ok = _verify_offdiag(m, n)
    elif scope == "diag":
        if len(params) != 1:
            print("usage: verify diag N", file=sys.stderr)
            return USAGE
        if params[0] < 1:
            print("verify diag requires n >= 1", file=sys.stderr)
            return USAGE
        ok = _verify_diag(params[0])
    elif scope == "drivas":
        ok = _verify_drivas()
    elif scope == "signs":
        ok = _verify_signs()
    elif scope == "all":
        results = []
        for m in range(2, 7):
            for n in range(1, m):
                results.append(_verify_offdiag(m, n))
        for n in range(1, 7):
            results.append(_verify_diag(n))
        results.append(_verify_drivas())
        results.append(_verify_signs())
        ok = all(results)
    else:  # pragma: no cover - argparse restricts choices
        return USAGE
    print("PASS" if ok else "FAIL")
    return OK if ok else FAIL


# ------------------------------------------------------------ other commands

def _parse_constraints(specs: Sequence[str], subspace: str) -> List[Mode]:
    default_parity = SIN if subspace == SIN else COS
    modes = []
    for spec in specs:
        parity = default_parity
        body = spec
        if ":" in spec:
            parity, body = spec.split(":", 1)
            if parity not in (COS, SIN):
                raise ValueError(f"bad constraint parity in {spec!r}")
        try:
            j, k = (int(v) for v in body.split(","))
        except Exception as exc:
            raise ValueError(f"bad constraint {spec!r}: expected j,k") from exc
        modes.append(Mode(j, k, parity))
    return modes


def _print_minimize(res: MinimizeResult) -> None:
    q = res.certified.mi_over_pi2
    print(f"flow: m={res.flow.m} n={res.flow.n} (lambda^2={res.flow.lambda2})")
    print(f"subspace: {res.subspace}  p: {res.p}  N: {res.N}  "
          f"dim: {len(res.coeffs.values)}")
    print(f"min eigenvalue: {res.eigen.value:.12e}")
    print(f"residual: {res.eigen.residual:.3e}")
    print(f"dominant mode: {res.coeffs.dominant_mode()!r}")
    print(f"certified MI/pi^2 = {q} (~ {float(q):.6e})")
    print("verdict: conjugate point detected" if res.certified.detected
          else "verdict: not detected on this window")


def cmd_minimize(args) -> int:
    flow = KolmogorovFlow(args.m, args.n)
    constraints = _parse_constraints(args.constrain, args.subspace)
    try:
        res = run_minimize(flow, p=args.p, N=args.N, subspace=args.subspace,
                           constraints=constraints, tol=args.tol,
                           max_denominator=args.cap)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return NUMERIC
    _print_minimize(res)
    if args.out:
        description = (f"rationalized minimizer, subspace={res.subspace}, "
                       f"p={res.p}, N={res.N}")
        write_field_file(args.out, flow, res.certified.field, description)
        print(f"wrote {args.out}")
    return OK


def cmd_sweep(args) -> int:
    rows = run_sweep(args.mmax, args.nmax, p=args.p, N=args.N, tol=args.tol,
                     max_denominator=args.cap)
    lines = ["m,n,subspace,eigenvalue,certified_q,verdict"]
    for row in rows:
        eig = "" if row["eigenvalue"] is None else f"{row['eigenvalue']:.12e}"
        q = "" if row["certified_q"] is None else str(row["certified_q"])
        lines.append(f"{row['m']},{row['n']},{row['subspace']},{eig},{q},"
                     f"{row['verdict']}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if any(str(r["verdict"]).startswith("error") for r in rows):
        return NUMERIC
    return OK


def cmd_mi(args) -> int:
    flow, field, _ = read_field_file(args.file)
    if args.m is not None or args.n is not None:
        if args.m is None or args.n is None:
            print("provide both --m and --n to override the file", file=sys.stderr)
            return USAGE
        flow = KolmogorovFlow(args.m, args.n)
    phi = bracket(flow.stream(), field)
    if phi.is_zero():
        print("field is in the kernel of the bracket operator "
              "(constant on streamlines)")
        return FAIL
    q = misiolek_index(phi, flow)
    print(f"flow: m={flow.m} n={flow.n}")
    print(f"MI/pi^2 = {q} (~ {float(q):.6e})")
    if q < 0:
        tstar = conjugate_time_bound(field, flow)
        print("verdict: conjugate point detected")
        print(f"conjugate point occurs before any T > T* = {tstar:.12e} "
              f"(T*^2/pi^2 = {grad_energy(field) / -q})")
    else:
        print("verdict: not detected by this field")
    return OK


def cmd_field(args) -> int:
    if args.what == "stream":
        if args.m is None or args.n is None:
            print("field stream requires --m and --n", file=sys.stderr)
            return USAGE
        flow = KolmogorovFlow(args.m, args.n)
        psi = flow.stream()
        values = sample_grid(lambda X, Y: grid_eval(psi, X, Y), args.grid)
    elif args.what == "minimizer":
        if not args.field:
            print("field minimizer requires --field FILE", file=sys.stderr)
            return USAGE
        _, f, _ = read_field_file(args.field)
        values = sample_grid(lambda X, Y: grid_eval(f, X, Y), args.grid)
    else:  # deformed
        if not args.field:
            print("field deformed requires --field FILE", file=sys.stderr)
            return USAGE
        flow, f, _ = read_field_file(args.field)
        if args.m is not None and args.n is not None:
            flow = KolmogorovFlow(args.m, args.n)
        psi = flow.stream()
        fx, fy = f.dx(), f.dy()
        eps = args.epsilon

        def deformed(X, Y):
            return grid_eval(psi, X - eps * grid_eval(fy, X, Y),
                             Y + eps * grid_eval(fx, X, Y))

        values = sample_grid(deformed, args.grid)
    write_grid_file(args.out, values)
    print(f"wrote {args.out}")
    return OK


# ------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolmconj",
        description="Conjugate-point detection along Kolmogorov flows on the "
                    "flat 2-torus")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="exact verification of the "
                              "closed-form certificates")
    p_verify.add_argument("scope", choices=["all", "offdiag", "diag", "drivas",
                                            "signs"])
    p_verify.add_argument("params", nargs="*", type=int)
    p_verify.set_defaults(func=cmd_verify)

    p_min = sub.add_parser("minimize", help="numerical minimization with exact "
                           "certification")
    p_min.add_argument("--m", type=int, required=True)
    p_min.add_argument("--n", type=int, required=True)
    p_min.add_argument("--p", type=int, default=3, help="Sobolev order")
    p_min.add_argument("--N", type=int, default=None, help="window order "
                       "(default 2*max(m,n)+4)")
    p_min.add_argument("--subspace", choices=[COS, SIN, "full"], default=COS)
    p_min.add_argument("--constrain", action="append", default=[],
                       metavar="[cos:|sin:]J,K",
                       help="force a Fourier coefficient to zero (repeatable)")
    p_min.add_argument("--tol", type=float, default=1e-10)
    p_min.add_argument("--cap", type=int, default=10 ** 6,
                       help="denominator cap for certification")
    p_min.add_argument("--out", default=None, help="write the minimizer field file")
    p_min.set_defaults(func=cmd_minimize)

    p_sweep = sub.add_parser("sweep", help="detection sweep over wavenumber pairs")
    p_sweep.add_argument("--mmax", type=int, required=True)
    p_sweep.add_argument("--nmax", type=int, default=None)
    p_sweep.add_argument("--p", type=int, default=3)
    p_sweep.add_argument("--N", type=int, default=12)
    p_sweep.add_argument("--tol", type=float, default=1e-10)
    p_sweep.add_argument("--cap", type=int, default=10 ** 6)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_mi = sub.add_parser("mi", help="evaluate the index of a user field file")
    p_mi.add_argument("file")
    p_mi.add_argument("--m", type=int, default=None)
    p_mi.add_argument("--n", type=int, default=None)
    p_mi.set_defaults(func=cmd_mi)

    p_field = sub.add_parser("field", help="grid export of stream / minimizer / "
                             "deformed stream")
    p_field.add_argument("what", choices=["stream", "minimizer", "deformed"])
    p_field.add_argument("--m", type=int, default=None)
    p_field.add_argument("--n", type=int, default=None)
    p_field.add_argument("--field", default=None, help="field file input")
    p_field.add_argument("--grid", type=int, default=256)
    p_field.add_argument("--epsilon", type=float, default=0.3)
    p_field.add_argument("--out", required=True)
    p_field.set_defaults(func=cmd_field)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "grid", 16) < 16:
        print("grid resolution must be >= 16", file=sys.stderr)
        return USAGE
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return FAIL
    except (ConvergenceError, CertificationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
