"""Command-line front end: verify, minimize, sweep, mi.

`sweep` writes its CSV on stdout, over every pair 1 <= n <= m <= mmax;
`mi` scores a field file against the flow the file names.

Exit codes: 0 success / verdict holds, 1 assertion failure, 2 usage error,
3 numerical failure.  Only `minimize` and `sweep` import the numerical
route, and with it numpy.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import List, Optional, Sequence

from . import theorems
from .fieldfile import read_field_file, write_field_file
from .trigpoly import (COS, SIN, KolmogorovFlow, Mode, bracket, canonicalize, grad_energy,
                       misiolek_index)

OK, FAIL, USAGE, NUMERIC = 0, 1, 2, 3


class UsageError(Exception):
    """Bad command-line arguments; the message is printed as is, exit 2."""


# ------------------------------------------------------------ verify reporting

def _exact_str(value, name: str) -> str:
    """str(value); past CPython's int-to-string digit limit, OverflowError (exit 3)."""
    try:
        return str(value)
    except ValueError:
        raise OverflowError(f"{name} has too many digits to print") from None


def _report(lines: List[str], block: theorems.CheckBlock) -> bool:
    """Append `block`'s lines to `lines`, one per row; whether every row holds."""
    lines.append(block.header)
    if block.note is not None:
        lines.append("  " + block.note)
    ok = True
    for label, expected, computed in block.rows:
        same = expected == computed
        lines.append(f"  {label}: expected {_exact_str(expected, label)}  "
                     f"computed {_exact_str(computed, label)}  [{'OK' if same else 'FAIL'}]")
        ok &= same
    return ok


def cmd_verify(args) -> int:
    scope, params = args.scope, args.params
    if scope in ("all", "drivas", "signs") and params:
        raise UsageError(f"usage: verify {scope}")
    if scope == "offdiag":
        if len(params) != 2:
            raise UsageError("usage: verify offdiag M N")
        if not params[0] > params[1] >= 1:
            raise UsageError("verify offdiag requires m > n >= 1")
        blocks = [theorems.family_block(*params)]
    elif scope == "diag":
        if len(params) != 1:
            raise UsageError("usage: verify diag N")
        if params[0] < 1:
            raise UsageError("verify diag requires n >= 1")
        blocks = [theorems.family_block(params[0], params[0])]
    elif scope == "drivas":
        blocks = [theorems.drivas_block()]
    elif scope == "signs":
        blocks = [theorems.sign_certificates()]
    else:  # all
        pairs = [(m, n) for m in range(2, 7) for n in range(1, m)]
        pairs += [(n, n) for n in range(1, 7)]
        blocks = [theorems.family_block(m, n) for m, n in pairs]
        blocks += [theorems.drivas_block(), theorems.sign_certificates()]
    # every line is formatted before the first print: a value too long to print prints nothing
    lines: List[str] = []
    ok = all([_report(lines, block) for block in blocks])
    lines.append("PASS" if ok else "FAIL")
    print("\n".join(lines))
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
        # (j, k) and (-j, -k) name one function up to sign, and zeroing ignores sign
        mode, _ = canonicalize(parity, j, k)
        if mode is None:
            raise ValueError(f"bad constraint {spec!r}: sin(0x+0y) is the zero function")
        modes.append(mode)
    return modes


def _minimize_lines(res) -> List[str]:
    """`minimize`'s report of one `pipeline.MinimizeResult`."""
    return [f"flow: m={res.flow.m} n={res.flow.n} (lambda^2={res.flow.lambda2})",
            f"subspace: {res.subspace}  p: {res.p}  N: {res.N}  dim: {len(res.coeffs)}",
            f"min eigenvalue: {res.eigen.value:.12e}",
            f"residual: {res.eigen.residual:.3e}",
            f"dominant mode: {res.dominant_mode!r}",
            f"certified MI/pi^2 = {res.q} (~ {float(res.q):.6e})",
            "verdict: conjugate point detected" if res.q < 0
            else "verdict: not detected on this window"]


def cmd_minimize(args) -> int:
    from .pipeline import run_minimize
    flow = KolmogorovFlow(args.m, args.n)
    constraints = _parse_constraints(args.constrain, args.subspace)
    res = run_minimize(flow, p=args.p, N=args.N, subspace=args.subspace,
                       constraints=constraints)
    # format every line, then write the file, then print: a failed write prints nothing
    lines = _minimize_lines(res)
    if args.out:
        description = (f"rationalized minimizer, subspace={res.subspace}, "
                       f"p={res.p}, N={res.N}")
        write_field_file(args.out, flow, res.field, description)
        lines.append(f"wrote {args.out}")
    print("\n".join(lines))
    return OK


def _sweep_line(flow: KolmogorovFlow, subspace: str, outcome) -> str:
    """One CSV row of `sweep` from a run's record, or from the error that ended it."""
    if isinstance(outcome, Exception):
        return f"{flow.m},{flow.n},{subspace},,,error: {outcome}"
    verdict = "conjugate point detected" if outcome.q < 0 else "not detected"
    return (f"{flow.m},{flow.n},{subspace},{outcome.eigen.value:.12e},"
            f"{outcome.q},{verdict}")


def cmd_sweep(args) -> int:
    from .pipeline import run_sweep
    runs = run_sweep(args.mmax, p=args.p, N=args.N)
    lines = ["m,n,subspace,eigenvalue,certified_q,verdict"]
    lines += [_sweep_line(*run) for run in runs]
    print("\n".join(lines))
    return NUMERIC if any(isinstance(outcome, Exception) for _, _, outcome in runs) else OK


def cmd_mi(args) -> int:
    flow, field, _ = read_field_file(args.file)
    phi = bracket(flow.stream(), field)
    if phi.is_zero():
        print("field is in the kernel of the bracket operator "
              "(constant on streamlines)")
        return FAIL
    q = misiolek_index(phi, flow)
    # every value is formatted before the first print: a failure prints nothing
    lines = [f"flow: m={flow.m} n={flow.n}",
             f"MI/pi^2 = {_exact_str(q, 'MI/pi^2')} (~ {float(q):.6e})"]
    if q < 0:
        ratio = grad_energy(field) / -q
        tstar = math.pi * math.sqrt(ratio)
        lines += ["verdict: conjugate point detected",
                  f"conjugate point occurs before any T > T* = {tstar:.12e} "
                  f"(T*^2/pi^2 = {_exact_str(ratio, 'T*^2/pi^2')})"]
    else:
        lines.append("verdict: not detected by this field")
    print("\n".join(lines))
    return OK


# ------------------------------------------------------------ parser

@functools.cache  # the parser depends on no argument: `main` builds it once
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
    p_min.add_argument("--out", default=None, help="write the minimizer field file")
    p_min.set_defaults(func=cmd_minimize)

    p_sweep = sub.add_parser("sweep", help="detection sweep over wavenumber pairs")
    p_sweep.add_argument("--mmax", type=int, required=True)
    p_sweep.add_argument("--p", type=int, default=3)
    p_sweep.add_argument("--N", type=int, default=12)
    p_sweep.set_defaults(func=cmd_sweep)

    p_mi = sub.add_parser("mi", help="evaluate the index of a user field file")
    p_mi.add_argument("file")
    p_mi.set_defaults(func=cmd_mi)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own exit: 2 on an error, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (RuntimeError, OverflowError, MemoryError) as exc:
        # RuntimeError: a failed eigensolve or certification, whose error classes
        # subclass it; OverflowError: an exact value too large to print, as a float
        # or in digits; MemoryError: a window too large to index or allocate
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
