"""Spans around the kolmconj package's public functions, recorded from outside.

The tracer replaces each traced function wherever any ``kolmconj.*`` module
binds it (``cli.assemble_quadform``, ``theorems.bracket``, ...), so spans
follow the real call path.  A name that no module defines any more is
skipped: a function deleted by a later change simply has no span.  Spans
are kept in memory; ``self_times`` turns them into per-function self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# Functions (and one class, whose __init__ is wrapped) traced by name.  The
# layer label is the module that defines the name, so a function moved to
# another module keeps its span under its new module.
TRACED_NAMES = (
    # cli: parsing and printing stay in cli.main's self time
    "main", "run_minimize", "run_sweep", "write_field_file",
    # spectral
    "SpectralWindow", "assemble_bracket_matrix", "assemble_quadform",
    "reduce_symmetric", "constrain", "minimizer_coefficients", "certify_candidate",
    # eigensolve
    "sym_eig_min",
    # theorems
    "offdiag_form", "offdiag_reference", "offdiag_candidate",
    "offdiag_reference_candidate", "diag_form", "diag_reference", "diag_candidate",
    "diag_reference_candidate", "drivas_check", "sign_certificates",
    # exactalg
    "solve_linear", "fit_polynomial", "fit_rational",
    # trigpoly
    "bracket", "misiolek_index",
)

Observer = Callable[[Dict[str, float], tuple, dict, object], None]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    trace: str
    name: str
    start: float
    end: float = float("nan")


class Tracer:
    """Records spans only while a command is active (see ``command``)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._trace: Optional[str] = None

    @contextmanager
    def command(self, trace_id: str) -> Iterator[None]:
        self._trace = trace_id
        try:
            yield
        finally:
            self._trace = None
            self._stack.clear()

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._trace is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), parent, tracer._trace, name, tracer.clock())
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if observe is not None:
                try:
                    observe(tracer.counters, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    # a later change altered the signature or the result:
                    # the counter goes missing, the call is unaffected
                    pass
            return result

        return traced


def _definition(modules: Sequence, name: str):
    for module in modules:
        obj = module.__dict__.get(name)
        if obj is not None and getattr(obj, "__module__", None) == module.__name__:
            return module, obj
    return None


@contextmanager
def installed(tracer: Tracer, observers: Dict[str, Observer],
              package: str = "kolmconj") -> Iterator[List[str]]:
    """Wrap every traced name in the loaded ``package`` modules; undo on exit.

    Yields the labels that were found, e.g. ``spectral.assemble_quadform``.
    """
    modules = [mod for key, mod in list(sys.modules.items())
               if mod is not None and (key == package or key.startswith(package + "."))]
    undo: List[Tuple[object, str, object]] = []
    labels: List[str] = []
    for name in TRACED_NAMES:
        found = _definition(modules, name)
        if found is None:
            continue
        module, obj = found
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        if isinstance(obj, type):
            init = obj.__dict__.get("__init__")
            if init is None:
                continue
            setattr(obj, "__init__", tracer.wrap(label, init, observers.get(label)))
            undo.append((obj, "__init__", init))
        else:
            wrapper = tracer.wrap(label, obj, observers.get(label))
            for mod in modules:
                if mod.__dict__.get(name) is obj:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, obj))
        labels.append(label)
    try:
        yield labels
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """Per span name: (self time in seconds, call count).

    Self time is a span's duration minus the part of that interval that its
    child spans cover.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        covered = _covered([(max(c.start, span.start), min(c.end, span.end))
                            for c in children[span.id]])
        totals[span.name][0] += (span.end - span.start) - covered
        totals[span.name][1] += 1
    return {name: (t, int(n)) for name, (t, n) in totals.items()}
