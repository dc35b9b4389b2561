"""In-memory span tracing of calls into the program's layers.

The benchmark times each layer from the outside: :class:`Tracer`
replaces chosen functions and methods with wrappers that record one
span per call — layer-qualified name, start, end and the enclosing
span — into flat arrays, and the arrays are written out when the run
ends.  Nothing inside ``src/`` is edited.

Two details make the numbers trustworthy:

* a function imported by name (``from ..gf.kernels import mix_rows``)
  is rebound in *every* module that holds it, so callers that bound
  the name at import time are traced too;
* only synchronous callables are wrapped.  Everything runs on one
  thread and a synchronous call cannot be interleaved by the event
  loop, so spans nest strictly and a parent is always the innermost
  open span.

A layer's self time is the time its spans cover minus the part their
child spans cover (:func:`self_times`); calls and work units are
counted only at the outermost span of each layer, so a layer that
calls itself (``eliminate`` -> ``mix_rows``) is not counted twice.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

#: ``unit(args, result) -> float`` — work units one call performed.
UnitFn = Callable[[tuple, object], float]
#: ``hook(counts, args, result)`` — extra counts recorded at a boundary.
HookFn = Callable[[dict, tuple, object], None]


@dataclass(frozen=True)
class Probe:
    """One traced callable: ``module:qualname`` plus its accounting."""

    layer: str
    target: str
    unit: Optional[UnitFn] = None
    hook: Optional[HookFn] = None


class Tracer:
    """Records spans while installed; one instance per workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.units = array("d")
        #: Counts recorded by probe hooks at the same boundaries.
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, name: str, fn: Callable, unit: Optional[UnitFn] = None,
             hook: Optional[HookFn] = None) -> Callable:
        """A span-recording stand-in for the synchronous callable ``fn``."""
        if inspect.iscoroutinefunction(fn) or inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name}: only synchronous callables nest as spans")
        name_id = self._name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, units, stack = self.parent, self.units, self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            units.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if unit is not None:
                units[index] = unit(args, result)
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, probes: Sequence[Probe]) -> None:
        """Wrap every probe target wherever callers look it up."""
        for probe in probes:
            module_name, qualname = probe.target.split(":")
            module = sys.modules.get(module_name)
            if module is None:
                module = __import__(module_name, fromlist=["_"])
            name = f"{probe.layer}:{qualname}"
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{probe.target} is not a plain method")
                self._set(owner, attr, self.wrap(name, original, probe.unit,
                                                 probe.hook))
                continue
            original = getattr(module, qualname)
            traced = self.wrap(name, original, probe.unit, probe.hook)
            # Rebind in every module that imported the function by name.
            for holder in list(sys.modules.values()):
                namespace = getattr(holder, "__dict__", None)
                if not namespace or not getattr(holder, "__name__", "").startswith(
                    module_name.split(".")[0]
                ):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._set(holder, key, traced)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every rebound name (in reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def summarize(self) -> dict[str, "LayerTotals"]:
        """Fold the spans into per-layer calls, units and self time."""
        selfs = self_times(self.start, self.end, self.parent)
        layers = [name.split(":", 1)[0] for name in self.names]
        span_layer = [layers[i] for i in self.name]
        totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for i, layer in enumerate(span_layer):
            entry = totals[layer]
            entry.self_s += selfs[i]
            parent = self.parent[i]
            if parent < 0 or span_layer[parent] != layer:
                entry.calls += 1
                entry.units += self.units[i]
                entry.inclusive_s += self.end[i] - self.start[i]
        return dict(totals)

    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        import gzip

        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("run_id\tspan\tparent\tname\tstart\tend\tunits\n")
            names, run = self.names, self.run_id
            for i in range(len(self.start)):
                out.write(
                    f"{run}\t{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.units[i]:g}\n"
                )


@dataclass
class LayerTotals:
    """One layer's totals: outermost calls and their work units and
    wall time (``inclusive_s``), plus the layer's self time."""

    calls: int = 0
    units: float = 0.0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval and their union is
    taken, so overlapping children are not subtracted twice and a child
    that outlives its parent only removes the overlapping part.
    """
    out = [end - start for start, end in zip(starts, ends)]
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    for parent, kids in children.items():
        low, high = starts[parent], ends[parent]
        covered = 0.0
        run_start = run_end = None
        for kid in sorted(kids, key=starts.__getitem__):
            s, e = max(starts[kid], low), min(ends[kid], high)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            elif e > run_end:
                run_end = e
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out


@contextlib.contextmanager
def installed(tracer: Optional[Tracer], probes: Sequence[Probe]):
    """Install ``probes`` on ``tracer`` for the block (no-op if None)."""
    if tracer is None:
        yield None
        return
    try:
        tracer.install(probes)  # a missing target leaves nothing patched
        yield tracer
    finally:
        tracer.uninstall()

