"""Span totals per rank for the traced run, from wrappers in this file.

:func:`traced` replaces, for the duration of one training call, the methods
the trainers call into each layer:

* ``LearnerWorkload.compute_gradient`` (the nn forward/backward and batch);
* ``SASGDLocalState.local_step`` (the optimiser step on the flat vector);
* ``Collective.allreduce`` / ``broadcast`` of the mp and net backends;
* PS client ``push`` / ``pull`` of the mp and net backends.

The wrappers are installed before the backend forks, so mp and net workers
inherit them.  Each adds its wall time and a call count to a per-rank row of
an anonymous shared mapping, which forked workers write and the parent reads
after the run: no file, no extra message.
"""

from __future__ import annotations

import contextlib
import mmap
import time
from typing import Dict, Iterator, List

import numpy as np

#: one column each for seconds and calls, per span kind
KINDS = ("compute", "optimizer", "allreduce", "broadcast", "push", "pull")
COMM = ("allreduce", "broadcast", "push", "pull")


class Spans:
    """Per-rank seconds and call counts, shared across ``fork``."""

    def __init__(self, p: int) -> None:
        self._map = mmap.mmap(-1, 8 * p * 2 * len(KINDS))
        table = np.frombuffer(self._map, dtype=np.float64).reshape(p, 2, len(KINDS))
        self.seconds = table[:, 0, :]
        self.calls = table[:, 1, :]

    def add(self, rank: int, kind: int, seconds: float) -> None:
        self.seconds[rank, kind] += seconds
        self.calls[rank, kind] += 1

    def total(self, kinds) -> np.ndarray:
        """Seconds per rank over the named span kinds."""
        return self.seconds[:, [KINDS.index(k) for k in kinds]].sum(axis=1)

    def count(self, kind: str) -> float:
        return float(self.calls[:, KINDS.index(kind)].sum())


def _timed_call(original, kind: int, spans: Spans, rank_of):
    def wrapper(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            spans.add(rank_of(self, args), kind, time.perf_counter() - t0)

    return wrapper


def _timed_coroutine(original, kind: int, spans: Spans, rank_of):
    def wrapper(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = yield from original(self, *args, **kwargs)
        finally:
            spans.add(rank_of(self, args), kind, time.perf_counter() - t0)
        return result

    return wrapper


@contextlib.contextmanager
def traced(trainer) -> Iterator[Spans]:
    """Time ``trainer``'s calls into each layer until the block exits."""
    from repro.algos.base import LearnerWorkload
    from repro.core.sasgd import SASGDLocalState
    from repro.net.backend import NetCollective, NetPSClient
    from repro.runtime.mp_backend import MPCollective, MPPSClient

    spans = Spans(trainer.config.p)
    # rank lookups by object identity survive fork: children see the same ids
    rank_of_workload = {id(wl): lid for lid, wl in enumerate(trainer.workloads)}
    rank_of_flat = {id(wl.flat): lid for lid, wl in enumerate(trainer.workloads)}
    targets = [
        (LearnerWorkload, "compute_gradient", _timed_call,
         lambda obj, args: rank_of_workload[id(obj)]),
        (SASGDLocalState, "local_step", _timed_call,
         lambda obj, args: rank_of_flat[id(obj.flat)]),
    ]
    for cls in (MPCollective, NetCollective):
        for name in ("allreduce", "broadcast"):
            targets.append((cls, name, _timed_coroutine, lambda obj, args: args[0]))
    for cls in (MPPSClient, NetPSClient):
        for name in ("push", "pull"):
            targets.append((cls, name, _timed_coroutine, lambda obj, args: obj.rank))
    kind_of = {"compute_gradient": "compute", "local_step": "optimizer"}
    saved: List = []
    try:
        for cls, name, make, rank_of in targets:
            original = cls.__dict__[name]
            saved.append((cls, name, original))
            kind = KINDS.index(kind_of.get(name, name))
            setattr(cls, name, make(original, kind, spans, rank_of))
        yield spans
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


def shares(spans: Spans, wall_s: float) -> Dict[str, float]:
    """Mean per-rank share of the training call's wall time per layer; the
    rest (fork, rendezvous, result collection, the trainer loop) is
    ``other``."""
    compute = float(spans.total(("compute",)).mean()) / wall_s
    optimizer = float(spans.total(("optimizer",)).mean()) / wall_s
    comm = float(spans.total(COMM).mean()) / wall_s
    return {
        "compute": compute,
        "optimizer": optimizer,
        "comm": comm,
        "other": 1.0 - compute - optimizer - comm,
    }
