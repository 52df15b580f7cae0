"""Command-line front end: verify, minimize, sweep, mi, field.

Exit codes: 0 success / verdict holds, 1 assertion failure, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import theorems
from .eigensolve import ConvergenceError
from .pipeline import (MinimizeResult, deformed_stream, read_field_file,
                       run_minimize, run_sweep, write_field_file, write_grid_file)
from .spectral import CertificationError
from .theorems import VerificationError
from .trigpoly import (COS, SIN, KolmogorovFlow, Mode, bracket,
                       conjugate_time_bound, grad_energy, misiolek_index)

OK, FAIL, USAGE, NUMERIC = 0, 1, 2, 3


class UsageError(Exception):
    """Bad command-line arguments; the message is printed as is, exit 2."""


# ------------------------------------------------------------ verify reporting

def _report(name: str, expected, computed) -> bool:
    ok = expected == computed
    print(f"  {name}: expected {expected}  computed {computed}  "
          f"[{'OK' if ok else 'FAIL'}]")
    return ok


def _verify_family(m: int, n: int) -> bool:
    """Report one closed-form family: off-diagonal if m > n, diagonal if m = n."""
    if m > n:
        print(f"off-diagonal family (m,n)=({m},{n})")
        variables, labels = ("a", "b"), ("minimum value", "minimum negative")
        form, ref = theorems.offdiag_form(m, n), theorems.offdiag_reference(m, n)
        cand = theorems.offdiag_candidate(m, n)
        refc = theorems.offdiag_reference_candidate(m, n)
    else:
        print(f"diagonal family n={n}")
        cand = theorems.diag_candidate(n)
        if n == 1:
            # the closed forms assume n >= 2 (mode collisions at n = 1 change
            # the index form); report the exact value without comparisons
            print(f"  n=1 critical value reported without sign assertion: {cand.value}")
            return True
        variables = ("a", "b", "c", "d")
        labels = ("critical value", "critical value negative")
        form, ref = theorems.diag_form(n), theorems.diag_reference(n)
        refc = theorems.diag_reference_candidate(n)
    ok = True
    for mono in sorted(ref, reverse=True):
        name = "".join(v * e for v, e in zip(variables, mono)) or "1"
        ok &= _report("coeff " + name, ref[mono], form.coefficient(mono))
    for var in variables:
        ok &= _report(f"{var}0", refc.values[var], cand.values[var])
    ok &= _report(labels[0], refc.value, cand.value)
    ok &= _report(labels[1], True, cand.value < 0)
    return ok


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
    scope, params = args.scope, args.params
    if scope == "offdiag":
        if len(params) != 2:
            raise UsageError("usage: verify offdiag M N")
        if not params[0] > params[1] >= 1:
            raise UsageError("verify offdiag requires m > n >= 1")
        ok = _verify_family(*params)
    elif scope == "diag":
        if len(params) != 1:
            raise UsageError("usage: verify diag N")
        if params[0] < 1:
            raise UsageError("verify diag requires n >= 1")
        ok = _verify_family(params[0], params[0])
    elif scope == "drivas":
        ok = _verify_drivas()
    elif scope == "signs":
        ok = _verify_signs()
    else:  # all
        pairs = [(m, n) for m in range(2, 7) for n in range(1, m)]
        pairs += [(n, n) for n in range(1, 7)]
        results = [_verify_family(m, n) for m, n in pairs]
        ok = all(results + [_verify_drivas(), _verify_signs()])
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


def _flow_override(args, flow: KolmogorovFlow) -> KolmogorovFlow:
    """The flow that --m and --n name when both are given, else `flow`."""
    if args.m is None and args.n is None:
        return flow
    if args.m is None or args.n is None:
        raise UsageError("provide both --m and --n to override the file")
    return KolmogorovFlow(args.m, args.n)


def cmd_mi(args) -> int:
    flow, field, _ = read_field_file(args.file)
    flow = _flow_override(args, flow)
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
    if args.grid < 16:
        raise UsageError("grid resolution must be >= 16")
    if args.what == "stream":
        if args.m is None or args.n is None:
            raise UsageError("field stream requires --m and --n")
        values_at = KolmogorovFlow(args.m, args.n).stream().eval
    else:
        if not args.field:
            raise UsageError(f"field {args.what} requires --field FILE")
        flow, f, _ = read_field_file(args.field)
        if args.what == "minimizer":
            values_at = f.eval
        else:
            values_at = deformed_stream(_flow_override(args, flow), f, args.epsilon)
    write_grid_file(args.out, args.grid, values_at)
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
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return FAIL
    except (ConvergenceError, CertificationError, OverflowError) as exc:
        # OverflowError: an exact value too large to print as a float
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
