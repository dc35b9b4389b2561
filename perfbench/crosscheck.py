"""Cross-check the traced run's boundary counts against ``repro.obs``.

A wrapper that misses a caller (one that bound the name at import, say)
undercounts silently; comparing its count with the program's own
counter for the same quantity exposes that.  Each pair below must agree
exactly whenever the program keeps the counter in that workload.
"""

from __future__ import annotations

from typing import Iterable

from spans import LayerTotals

#: Program counters read after a traced iteration (summed over nodes).
OBS_NAMES = (
    "dataplane.packets_in", "dataplane.mixtures_out", "engine.joins",
    "net.packets_sent", "net.rounds", "net.sender.sent", "net.sender.flushes",
    "net.sender.dropped", "net.sender.bytes_sent", "sim.slots",
    "sim.sends_delivered",
)


class Baseline:
    """Buffer-pool counters around one iteration (the pool is shared by
    every node, so its gauges are read once as a delta, not summed)."""

    def __enter__(self) -> "Baseline":
        from repro.coding.buffers import DEFAULT_POOL

        self._stats = DEFAULT_POOL.stats
        self._before = (self._stats.leases, self._stats.reuses)
        return self

    def __exit__(self, *exc) -> None:
        self.leases = self._stats.leases - self._before[0]
        self.reuses = self._stats.reuses - self._before[1]


def sum_obs(registries: Iterable, names: Iterable[str]) -> dict[str, float]:
    """Sum the counters/gauges called ``names`` over every registry;
    names no registry holds are left out."""
    wanted = set(names)
    out: dict[str, float] = {}
    for registry in registries:
        snap = registry.snapshot()
        for kind in ("counters", "gauges"):
            for name, value in snap[kind].items():
                if name in wanted:
                    out[name] = out.get(name, 0.0) + value
    return out


def program_counters(registries, baseline: Baseline) -> dict[str, float]:
    """The program's own counts for one iteration, by obs name."""
    counters = sum_obs(registries, OBS_NAMES)
    counters["coding.pool.leases"] = baseline.leases
    counters["coding.pool.reuses"] = baseline.reuses
    return counters


def compare(workload: str, totals: dict[str, LayerTotals],
            counts: dict[str, float], obs: dict[str, float]) -> list[str]:
    """Mismatches between span counts and program counters (empty = ok)."""
    sim_steps = totals.get("sim", LayerTotals()).calls
    pairs = (
        ("sim.slots", sim_steps),
        ("sim.sends_delivered", counts.get("dataplane.ingested", 0.0)),
        ("dataplane.packets_in", counts.get("dataplane.ingested", 0.0)),
        ("dataplane.mixtures_out", counts.get("dataplane.mixtures", 0.0)),
        ("net.packets_sent", counts.get("dataplane.source_packets", 0.0)),
        ("engine.joins", counts.get("protocol.admitted", 0.0)),
        ("coding.pool.leases", counts.get("coding.pool.leases", 0.0)),
    )
    return [
        f"{workload}: {name} = {obs[name]:g} but the spans counted {traced:g}"
        for name, traced in pairs
        if name in obs and obs[name] != traced
    ]
