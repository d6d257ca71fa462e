"""Outside-in span tracer for the benchmark's traced runs.

Spans are recorded by wrapping public functions at the module bindings their
callers look up (``keyhorn.approx.body_graph_l`` is what ``procedure2``
calls), so no file of the program changes.  A binding that no longer exists
is reported as absent; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    op: int
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    self_s: float  # duration minus the time covered by child spans


@dataclass(frozen=True)
class Binding:
    """A function to trace: ``module.attr`` is the name its callers use."""

    module: str
    attr: str
    names: tuple[str, ...]  # span names; ``pick`` chooses one per call
    pick: Optional[Callable[[tuple, dict], int]] = None
    count: Optional[tuple[str, Callable[[tuple, dict], int]]] = None  # "{span}" expands


def _unrooted_or_rooted(args: tuple, kwargs: dict) -> int:
    root = kwargs["root"] if "root" in kwargs else (args[1] if len(args) > 1 else None)
    return 0 if root is None else 1


def _arcs(args: tuple, kwargs: dict) -> int:
    """The m(m-1) arcs of the instance or body graph passed first."""
    return args[0].m * (args[0].m - 1)


def _bodies_of_instance(args: tuple, kwargs: dict) -> int:
    return args[1].m


def _bodies_of_family(args: tuple, kwargs: dict) -> int:
    bodies = args[2] if len(args) > 2 else kwargs["bodies"]
    return len(bodies) if hasattr(bodies, "__len__") else 0


def _candidate_clauses(args: tuple, kwargs: dict) -> int:
    inst = args[0]
    return sum(inst.n - len(b) for b in inst.bodies)


BINDINGS = (
    Binding("keyhorn.cli", "parse_bodies", ("cli.parse_bodies",)),
    Binding("keyhorn.cli", "normalize", ("reduce.normalize",)),
    Binding("keyhorn.cli", "minimize_all", ("approx.minimize_all",)),
    Binding("keyhorn.approx", "hamiltonian_formula", ("approx.hamiltonian_formula",)),
    Binding("keyhorn.approx", "procedure1", ("approx.procedure1",)),
    Binding("keyhorn.approx", "procedure2", ("approx.procedure2",)),
    Binding(
        "keyhorn.approx", "body_graph_l", ("graph.body_graph_l",),
        count=("{span}.arcs", _arcs),
    ),
    Binding(
        "keyhorn.approx", "min_in_arborescence",
        ("graph.min_in_arborescence.unrooted", "graph.min_in_arborescence.rooted"),
        pick=_unrooted_or_rooted, count=("{span}.arcs", _arcs),
    ),
    Binding("keyhorn.approx", "lambda_formula", ("graph.lambda_formula",)),
    Binding(
        "keyhorn.approx", "verify_representation", ("core.verify.normalized",),
        count=("core.verify.closures", _bodies_of_instance),
    ),
    Binding(
        "keyhorn.cli", "verify_against_family", ("core.verify.lifted",),
        count=("core.verify.closures", _bodies_of_family),
    ),
    Binding("keyhorn.cli", "lift", ("reduce.lift",)),
    Binding("keyhorn.cli", "mwscs_2approx", ("graph.mwscs_2approx",)),
    Binding("keyhorn.cli", "gen_projective", ("gen.gen_projective",)),
    Binding(
        "keyhorn.cli", "opt_exact_all", ("exact.opt_exact_all",),
        count=("exact.candidates", _candidate_clauses),
    ),
    # keyhorn.exact seeds its search through the attribute ``approx.minimize``
    Binding("keyhorn.approx", "minimize", ("exact.seed_minimize",)),
)

ROOT_SPAN = "cli"
SPAN_NAMES = tuple(name for b in BINDINGS for name in b.names)


class Tracer:
    """Span stack plus in-memory span and count records, one op at a time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.op = 0
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [id, name, start, child time]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        frame = [self._next_id, name, self.clock(), 0.0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - frame[2]
            if self._stack:
                self._stack[-1][3] += duration
            self.spans.append(
                Span(self.op, frame[0], parent, name, frame[2], end, duration - frame[3])
            )

    def count(self, name: str, k: int) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, fn: Callable, binding: Binding) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = binding.names[binding.pick(args, kwargs) if binding.pick else 0]
            if binding.count is not None:
                count_name, measure = binding.count
                try:
                    k = measure(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    k = 0  # the call's shape changed: the count is lost, not the op
                tracer.count(count_name.format(span=name), k)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, bindings=BINDINGS) -> None:
        for binding in bindings:
            try:
                module = importlib.import_module(binding.module)
            except ImportError:
                module = None
            fn = getattr(module, binding.attr, None)
            if not callable(fn):
                self.absent.extend(n for n in binding.names if n not in self.absent)
                continue
            self._patched.append((module, binding.attr, fn))
            setattr(module, binding.attr, self.wrap(fn, binding))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def per_op(self) -> dict[int, dict[str, list]]:
        """op -> span name -> [self seconds, calls]."""
        out: dict[int, dict[str, list]] = {}
        for s in self.spans:
            entry = out.setdefault(s.op, {}).setdefault(s.name, [0.0, 0])
            entry[0] += s.self_s
            entry[1] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
