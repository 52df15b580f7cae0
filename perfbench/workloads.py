"""Seeded command lists for the three benchmark workloads.

Each workload is a list of ``Command`` objects: the argv handed to
``kolmconj.cli.main`` plus what the output checker needs to know about it.
The same seed always gives the same list.  Only ``minimize-ladder`` draws
inputs from the seed; ``exact-all-pairs`` uses it only to shuffle command
order, and ``sweep-small-windows`` ignores it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

Pair = Tuple[int, int]

# Every pair with n <= m <= 4.  Each pass minimizes every pool pair at N=20
# in the cosine subspace, and (1, 1), which the cosine window never
# certifies, at N=30 too, so the certified count does not depend on the
# seed.  The seed draws the other two N=30 pairs, the N=40 pair among
# m = 4 (the largest window extension N + max(m, n), which sets the memory
# peak), and the full- and sine-subspace pairs.  This mix puts the median
# latency inside the N=20 runs and the tail (ten samples beyond it over two
# passes, i.e. the fifth and sixth slowest of a pass) inside the two
# full-subspace runs, whatever the seed.
LADDER_POOL: Tuple[Pair, ...] = tuple((m, n) for m in range(1, 5) for n in range(1, m + 1))
HARD_PAIR: Pair = (1, 1)

SWEEP_MMAX = 10
EXACT_MMAX = 30
# Off the diagonal every pair with m - n = 1, 6, ..., 26 (99 of the 435),
# so 1 <= n < m <= 30 is spanned and a pass is short enough for each command
# to be timed many times in one run; on it every n <= 30.
EXACT_STRIDE = 5
# `verify all` checks the off-diagonal family for 1 <= n < m <= 6, the
# diagonal family for n <= 6 and the m = n = 1 certificate field
VERIFY_ALL_ATTEMPTS = 15 + 6 + 1


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the facts its output is checked against.

    ``kind`` is the subcommand; ``pair`` the flow (m, n) it is about, if
    any; ``attempts`` the pair certifications it tries; ``field_file`` the
    minimizer file a minimize command writes.
    """

    argv: Tuple[str, ...]
    kind: str
    pair: Optional[Pair] = None
    attempts: int = 0
    field_file: Optional[str] = None


def _minimize(workdir: str, tag: str, pair: Pair, *options: str) -> Command:
    out = os.path.join(workdir, f"{tag}.json")
    argv = ("minimize", "--m", str(pair[0]), "--n", str(pair[1]), *options, "--out", out)
    return Command(argv, "minimize", pair, 1, field_file=out)


def minimize_ladder(rng: random.Random, workdir: str) -> List[Command]:
    others = [p for p in LADDER_POOL if p != HARD_PAIR]
    cmds = [_minimize(workdir, f"cos-N20-{m}-{n}", (m, n), "--N", "20") for m, n in LADDER_POOL]
    cmds += [_minimize(workdir, f"cos-N30-{m}-{n}", (m, n), "--N", "30")
             for m, n in [HARD_PAIR] + rng.sample(others, 2)]
    cmds.append(_minimize(workdir, "cos-N40", rng.choice([p for p in LADDER_POOL if p[0] == 4]),
                          "--N", "40"))
    cmds += [_minimize(workdir, f"full-N20-{m}-{n}", (m, n), "--N", "20", "--subspace", "full")
             for m, n in rng.sample(LADDER_POOL, 2)]
    cmds.append(_minimize(workdir, "sin", rng.choice(LADDER_POOL), "--subspace", "sin"))
    # every m = n pair of the pool, so the constrained path's outcome does
    # not depend on which diagonal pair a seed would have drawn
    cmds += [_minimize(workdir, f"constrain-{k}", (k, k), "--constrain", "0,1")
             for k in range(1, 5)]
    rng.shuffle(cmds)
    return cmds


def sweep_small_windows(rng: random.Random, workdir: str) -> List[Command]:
    pairs = SWEEP_MMAX * (SWEEP_MMAX + 1) // 2
    return [Command(("sweep", "--mmax", str(SWEEP_MMAX)), "sweep", attempts=pairs)]


def exact_all_pairs(rng: random.Random, workdir: str) -> List[Command]:
    cmds = [Command(("verify", "all"), "verify", attempts=VERIFY_ALL_ATTEMPTS)]
    cmds += [Command(("verify", "offdiag", str(m), str(n)), "verify", (m, n), 1)
             for m in range(2, EXACT_MMAX + 1) for n in range(1, m)
             if (m - n) % EXACT_STRIDE == 1]
    cmds += [Command(("verify", "diag", str(n)), "verify", (n, n), 1)
             for n in range(1, EXACT_MMAX + 1)]
    rng.shuffle(cmds)
    return cmds


WORKLOADS: Dict[str, Callable[[random.Random, str], List[Command]]] = {
    "minimize-ladder": minimize_ladder,
    "sweep-small-windows": sweep_small_windows,
    "exact-all-pairs": exact_all_pairs,
}


def build(workload: str, seed: int, workdir: str) -> List[Command]:
    return WORKLOADS[workload](random.Random(seed), workdir)
