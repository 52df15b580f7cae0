"""Output checks: every answer the benchmark counts is verified exactly.

A pair counts as certified only when the benchmark itself has seen an exact
negative Misiolek index for it: minimize results are re-scored from the
written field file, sweep rows must carry a negative exact value, and
verify blocks must report equal exact values that are negative.  A check
that fails marks the command wrong; it never stops the run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Set, Tuple

from kolmconj.trigpoly import KolmogorovFlow, TrigPoly, bracket, misiolek_index

from workloads import Command, Pair

DETECTED = "conjugate point detected"
_REPORT = re.compile(r"^  (.+): expected (.+)  computed (.+)  \[(OK|FAIL)\]$")
_FRACTION = re.compile(r"-?\d+(?:/\d+)?")


@dataclass
class Outcome:
    """What one command's output proved.

    ``attempts`` counts the pair certifications the command tried (fixed
    by the command, so a failed command still counts them), ``certified``
    those verified exactly, ``wrong`` the reasons its output
    failed a check, ``minimizations`` the sweep rows it ran.
    """

    attempts: int = 0
    certified: int = 0
    wrong: List[str] = field(default_factory=list)
    minimizations: int = 0

    def verdict(self) -> Tuple[int, int, bool, int]:
        return (self.attempts, self.certified, not self.wrong, self.minimizations)


def exact_index(path: str, pair: Pair) -> Optional[Fraction]:
    """MI/pi^2 of the bracket of the file's field with pair's stream; None in the kernel."""
    with open(path) as fh:
        doc = json.load(fh)
    file_pair = (int(doc["m"]), int(doc["n"]))
    terms = [(entry["parity"], int(entry["j"]), int(entry["k"]), Fraction(entry["value"]))
             for entry in doc["modes"]]
    if file_pair != pair:
        raise ValueError(f"field file is for {file_pair}, command was for {pair}")
    flow = KolmogorovFlow(*pair)
    phi = bracket(flow.stream(), TrigPoly.from_terms(terms))
    return None if phi.is_zero() else misiolek_index(phi, flow)


def _printed_fraction(out: str, prefix: str) -> Optional[Fraction]:
    for line in out.splitlines():
        if line.startswith(prefix):
            return Fraction(line[len(prefix):].split()[0])
    return None


def check_minimize(cmd: Command, rc: int, out: str) -> Outcome:
    o = Outcome(cmd.attempts)
    if rc != 0:
        return o
    prefix = "certified MI/pi^2 = "
    printed = _printed_fraction(out, prefix)
    if printed is None:
        o.wrong.append(f"no '{prefix}' line")
        return o
    q = exact_index(cmd.field_file, cmd.pair)
    if q is None:
        o.wrong.append("field lies in the bracket kernel but an index was printed")
    elif q != printed:
        o.wrong.append(f"printed {printed} but the field file scores {q}")
    elif (f"verdict: {DETECTED}" in out.splitlines()) != (q < 0):
        o.wrong.append(f"verdict line disagrees with the exact index {q}")
    else:
        o.certified = int(q < 0)
    return o


def check_sweep(cmd: Command, rc: int, out: str) -> Outcome:
    mmax = int(cmd.argv[cmd.argv.index("--mmax") + 1])
    expected = {(m, n) for m in range(1, mmax + 1) for n in range(1, m + 1)}
    o = Outcome(cmd.attempts)
    lines = out.splitlines()
    if not lines or lines[0] != "m,n,subspace,eigenvalue,certified_q,verdict":
        o.wrong.append("missing sweep CSV header")
        return o
    seen: Set[Pair] = set()
    certified: Set[Pair] = set()
    errors = 0
    for line in lines[1:]:
        m, n, _subspace, _eig, q, verdict = line.split(",", 5)
        pair = (int(m), int(n))
        seen.add(pair)
        o.minimizations += 1
        if verdict == DETECTED:
            if q and Fraction(q) < 0:
                certified.add(pair)
            else:
                o.wrong.append(f"{pair}: detected with certified_q {q!r}")
        elif verdict == "not detected":
            if not q or Fraction(q) < 0:
                o.wrong.append(f"{pair}: not detected with certified_q {q!r}")
        elif verdict.startswith("error"):
            errors += 1
        else:
            o.wrong.append(f"{pair}: unknown verdict {verdict!r}")
    if seen != expected:
        o.wrong.append(f"sweep rows cover {len(seen)} pairs, expected {len(expected)}")
    if rc != (3 if errors else 0):
        o.wrong.append(f"exit {rc} with {errors} error rows")
    o.certified = len(certified)
    return o


def _verify_blocks(lines: List[str]):
    header: Optional[str] = None
    body: List[str] = []
    for line in lines:
        if line.startswith("  "):
            body.append(line)
            continue
        if header is not None:
            yield header, body
        header, body = line, []
    if header is not None:
        yield header, body


def _block_pair(header: str) -> Optional[Tuple[Pair, str]]:
    """The pair a verify block certifies and the report line naming its value."""
    match = re.fullmatch(r"off-diagonal family \(m,n\)=\((\d+),(\d+)\)", header)
    if match:
        return (int(match[1]), int(match[2])), "minimum value"
    match = re.fullmatch(r"diagonal family n=(\d+)", header)
    if match:
        return (int(match[1]), int(match[1])), "critical value"
    if header == "m=n=1 certificate field":
        return (1, 1), "MI/pi^2"
    return None


def _report_value(body: List[str], key: str, o: Outcome) -> Optional[Fraction]:
    for line in body:
        match = _REPORT.match(line)
        if match and match[1] == key:
            expected, computed = Fraction(match[2]), Fraction(match[3])
            return computed if expected == computed else None
        if line.startswith("  n=1 critical value reported without sign assertion: "):
            return Fraction(line.rsplit(": ", 1)[1])
    o.wrong.append(f"no '{key}' report line")
    return None


def check_verify(cmd: Command, rc: int, out: str) -> Outcome:
    o = Outcome(cmd.attempts)
    lines = out.splitlines()
    if rc != 0:
        return o
    if not lines or lines[-1] != "PASS":
        o.wrong.append("exit 0 without a final PASS line")
        return o
    for line in lines[:-1]:
        match = _REPORT.match(line)
        if not match:
            continue
        expected, computed, tag = match[2], match[3], match[4]
        if _FRACTION.fullmatch(expected) and _FRACTION.fullmatch(computed):
            same = Fraction(expected) == Fraction(computed)
        else:
            same = expected == computed
        if tag != "OK" or not same:
            o.wrong.append(f"report line {line.strip()!r}")
    blocks = 0
    for header, body in _verify_blocks(lines[:-1]):
        found = _block_pair(header)
        if found is None:
            continue
        pair, key = found
        if cmd.pair is not None and pair != cmd.pair:
            o.wrong.append(f"block for {pair} in a command for {cmd.pair}")
        blocks += 1
        value = _report_value(body, key, o)
        o.certified += int(value is not None and value < 0)
    if blocks != cmd.attempts:
        o.wrong.append(f"{blocks} certificate blocks, expected {cmd.attempts}")
    return o


CHECKS = {"minimize": check_minimize, "sweep": check_sweep, "verify": check_verify}


def check(cmd: Command, rc: int, out: str) -> Outcome:
    """Check one command's exit status and output; never raises on bad output."""
    try:
        return CHECKS[cmd.kind](cmd, rc, out)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, IndexError) as exc:
        return Outcome(cmd.attempts, wrong=[f"output could not be checked: {exc!r}"])
