"""Wall-clock spans around calls into the program's layers (traced runs).

:meth:`Tracer.install` wraps the layers' public functions where their
callers look them up, so nothing under ``src/`` changes.  Each call made
while the tracer is active records a span: name, start, end, parent span
and a few attributes.  Spans stay in memory and are written out once, at
the end of the run.

Spans nest through one stack, which holds while one thread at a time
runs traced code: the serial backend, or the thread backend with one
worker while its caller blocks in ``map``.  Process-pool workers fork
while the tracer is inactive and never record.
"""

from __future__ import annotations

import json
import pickle
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the block (a no-op while inactive)."""
        if not self.active:
            yield None
            return
        parent = self._stack[-1].id if self._stack else 0
        sp = Span(len(self.spans) + 1, parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span.

        ``describe(span, args, kwargs, result)`` may add attributes.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            with tracer.span(name) as sp:
                result = original(*args, **kwargs)
                if describe is not None:
                    describe(sp, args, kwargs, result)
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, own))

    def install(self) -> None:
        """Wrap the public entry point of every measured layer."""
        import repro.atomic.database as database
        import repro.parallel.executor as executor
        import repro.physics.apec as apec
        import repro.physics.brems as brems
        import repro.physics.fitting as fitting
        import repro.physics.lines as lines
        import repro.physics.plan as plan

        self.wrap(database, "build_levels", "atomic.build_levels", _describe_levels)
        for module in (apec, lines, plan):
            self.wrap(module, "ion_density", "ionbalance.ion_density")
        self.wrap(apec, "level_windows", "windows.level_windows", _describe_windows)
        self.wrap(apec, "ion_emissivity_batched", "apec.kernel", _describe_kernel)
        self.wrap(apec.SerialAPEC, "compute", "apec.compute")
        self.wrap(lines, "ion_line_emissivity", "lines")
        self.wrap(brems, "brems_emissivity", "brems")
        self.wrap(fitting.InstrumentResponse, "apply", "fitting.response")
        self.wrap(fitting, "chi_squared", "fitting.chi_squared")
        self.wrap(executor.ProcessBackend, "map", "parallel.map", _describe_ipc)
        self.wrap(executor.ThreadBackend, "map", "parallel.map")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis --------------------------------------------------------
    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for sp in self.spans:
            kids.setdefault(sp.parent, []).append(sp)
        return kids

    def self_seconds(self, sp: Span, kids: dict[int, list[Span]]) -> float:
        """The span's duration minus what its (sequential) children cover."""
        return sp.seconds - sum(c.seconds for c in kids.get(sp.id, ()))

    def subtree(self, sp: Span, kids: dict[int, list[Span]]) -> list[Span]:
        out, todo = [], [sp]
        while todo:
            cur = todo.pop()
            out.append(cur)
            todo.extend(kids.get(cur.id, ()))
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            dict(asdict(sp), start=sp.start - self._t0, end=sp.end - self._t0)
            for sp in self.spans
        ]
        path.write_text(json.dumps({"meta": meta, "spans": rows}, default=str))


def _describe_levels(sp, args, kwargs, result) -> None:
    sp.attrs["levels"] = len(result)


def _describe_windows(sp, args, kwargs, result) -> None:
    sp.attrs["active_pairs"] = result.n_active
    sp.attrs["pairs"] = result.n_total


def _describe_kernel(sp, args, kwargs, result) -> None:
    db, ion, _point, grid = args[:4]
    sp.attrs["pairs"] = len(db.levels(ion)) * grid.n_bins
    sp.attrs["pieces"] = kwargs.get("pieces", 64)
    sp.attrs["tail_tol"] = kwargs.get("tail_tol", 0.0)


def _describe_ipc(sp, args, kwargs, result) -> None:
    # Computed, not measured: the pickled size of what crosses the pool
    # boundary (the chunked map sends (fn, chunk) pairs of these items).
    _backend, fn, items = args[:3]
    sp.attrs["ipc_bytes"] = len(pickle.dumps((fn, list(items)))) + len(
        pickle.dumps(result)
    )
