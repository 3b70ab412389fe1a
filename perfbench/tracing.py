"""Per-layer tracing from outside the program: wrap public layer functions.

The benchmark records spans at each layer boundary without touching the
library.  :class:`Tracer` patches the names the solvers actually call --
module-level functions imported by name (``repro.core.pcg.distributed_spmv``)
and methods on the classes the workloads use -- for the duration of a
``with`` block, and restores the originals afterwards.  The wrappers pass
arguments and results through unchanged, so a traced solve computes the same
iterates and ledger charges as an untraced one; the benchmark checks this.

A span is ``[name, start, end, parent, root]``: ``parent`` indexes the span
that was open when this one started (``-1`` for none) and ``root`` is the
identifier shared by every span of one solve or service batch.  Spans stay
in memory and are written out once, when the benchmark ends.  Two very hot
accessors (``get_block`` and ``BlockRowPartition.size_of``) are counted but
not timed, because a span per call would distort the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: Timed layers: metric prefix -> ``(module, attribute path)`` targets.  A
#: dotted attribute path patches a method on a class.
TIMED_LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "distributed.spmv": (
        ("repro.core.pcg", "distributed_spmv"),
        ("repro.core.block_pcg", "distributed_spmv_block"),
    ),
    "precond.apply_block": (
        ("repro.precond.block_jacobi", "BlockJacobiPreconditioner.apply_block"),
    ),
    "distributed.blas1": tuple(
        (module, f"{cls}.{op}")
        for module, cls in (("repro.distributed.dvector", "DistributedVector"),
                            ("repro.distributed.dmultivector",
                             "DistributedMultiVector"))
        for op in ("axpy", "aypx", "assign", "scale")
    ),
    "distributed.reduce": (
        ("repro.distributed.dvector", "DistributedVector.dot"),
        ("repro.distributed.dvector", "DistributedVector.norm2"),
        ("repro.distributed.dmultivector", "DistributedMultiVector.dots"),
        ("repro.distributed.dmultivector", "DistributedMultiVector.gram"),
        ("repro.distributed.dmultivector", "fused_dots"),
        ("repro.core.block_pcg", "fused_dots"),
    ),
    "cluster.allreduce": (
        ("repro.cluster.communicator", "Communicator.allreduce_sum"),
    ),
    "esr.after_spmv": (("repro.core.esr", "ESRProtocol.after_spmv"),),
    "esr.recover_block": (("repro.core.esr", "ESRProtocol.recover_block"),),
    "rs_parity.encode": (("repro.core.rs_parity", "RSParityScheme.encode"),),
    "rs_parity.decode": (("repro.core.rs_parity", "RSParityScheme.decode"),),
    "reconstruction.reconstruct": (
        ("repro.core.reconstruction", "ESRReconstructor.reconstruct"),
    ),
    "local_solver.solve": (
        ("repro.solvers.local_solver", "LocalSubsystemSolver.solve"),
        ("repro.solvers.local_solver", "LocalSubsystemSolver.solve_block"),
    ),
}

#: Counted-only accessors: metric prefix -> targets.
COUNTED_LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "distributed.get_block": (
        ("repro.distributed.dvector", "DistributedVector.get_block"),
        ("repro.distributed.dmultivector", "DistributedMultiVector.get_block"),
    ),
    "distributed.partition.size_of": (
        ("repro.distributed.partition", "BlockRowPartition.size_of"),
    ),
}

#: Root spans: one per call of the solver entry point, by the benchmark
#: (``repro.solve``) or by the service's batch dispatcher.
ROOT = "solve"
ROOT_TARGETS = (("repro", "solve"), ("repro.service.service", "solve"))


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    """The object owning the attribute at *path* and the attribute name."""
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder that wraps the library's layer functions."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, List[int]] = {name: [0] for name in COUNTED_LAYERS}
        self.n_roots = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            if name == ROOT:
                root = self.n_roots
                self.n_roots += 1
            else:
                root = self.spans[parent][4] if parent >= 0 else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def _timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _counted(cell: List[int], fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every layer target for the duration of the block."""
        plan = [(targets, functools.partial(self._timed, name))
                for name, targets in {ROOT: ROOT_TARGETS, **TIMED_LAYERS}.items()]
        plan += [(targets, functools.partial(self._counted, self.counts[name]))
                 for name, targets in COUNTED_LAYERS.items()]
        saved: List[Tuple[object, str, object]] = []
        try:
            for targets, wrap in plan:
                for module_name, path in targets:
                    owner, attr = _resolve(module_name, path)
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------
    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over all closed spans.

        A span's self time is its duration minus the durations of its direct
        children; children run on the parent's thread, strictly nested in
        its interval, so their durations are exactly the part it covers.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
        return {name: (int(calls), secs) for name, (calls, secs) in totals.items()}

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer calls and self seconds, averaged over the root spans."""
        per = max(self.n_roots, 1)
        stats = self.self_times()
        out: Dict[str, float] = {}
        for name in TIMED_LAYERS:
            calls, secs = stats.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls / per
            out[f"{name}.self_s"] = secs / per
        out[f"{ROOT}.self_s"] = stats.get(ROOT, (0, 0.0))[1] / per
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0] / per
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON (``[name, start, end, parent, root]``)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "root"],
                       "spans": self.spans,
                       "counts": {k: v[0] for k, v in self.counts.items()}},
                      handle)
