"""The benchmark's workloads, one closed-loop iteration at a time.

Each workload turns an iteration seed into its inputs (overlay, content,
peer seeds), runs one transfer to completion, checks every peer's
decoded bytes against the source, and returns an :class:`Iteration`.
Host times are ``time.perf_counter`` seconds.  The makespan runs from
the end of set-up, the moment coded packets can flow, to the last
peer's full decode; a peer's own decode time runs from the moment it
started joining (or, in the simulator, from the end of set-up).

* ``sim_bulk`` — :class:`~repro.sim.broadcast.BroadcastSimulation` on a
  curtain overlay, stepped slot by slot to full decode.
* ``swarm_churn`` — one :meth:`~repro.net.testing.swarm.SwarmHarness.run_round`:
  join 1000 peers, broadcast, crash 10%, wait for the survivors to
  decode and the server to repair every crash, check the invariants.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field
from itertools import accumulate
from time import perf_counter
from typing import Optional

import numpy as np

from repro.coding.buffers import DEFAULT_POOL
from repro.coding.generation import GenerationParams
from repro.core.overlay import OverlayNetwork
from repro.net.peer import PeerNode
from repro.net.testing.swarm import SwarmConfig, SwarmHarness
from repro.obs import Registry, bind_pool
from repro.sim.broadcast import BroadcastSimulation

import hostspeed
from layers import PROBES
from spans import Tracer, installed


@dataclass
class Iteration:
    """What one closed-loop iteration measured and whether it was right."""

    seed: int
    #: Host seconds (divided by the host's slowdown when the iteration
    #: was probed, see :mod:`hostspeed`) of each set-up timed in the
    #: iteration, and of the join phase inside it.
    setup_s: list[float] = field(default_factory=list)
    join_s: list[float] = field(default_factory=list)
    makespan_s: float = 0.0
    round_s: float = 0.0
    #: Decoded content bytes summed over the peers that decoded.
    decoded_bytes: int = 0
    #: Per-peer seconds from starting to join (simulator: from the end
    #: of set-up) to full decode.
    decode_s: list[float] = field(default_factory=list)
    #: Per-peer content packets / (d x completion slot or round).
    efficiency: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Every node's ``repro.obs`` registry (traced iterations only: the
    #: registries keep the whole deployment alive).
    registries: list = field(default_factory=list)
    #: Workload-specific observations (digests, virtual times, rounds).
    notes: dict = field(default_factory=dict)

    def scale(self, slowdown: float) -> None:
        """Divide every host time by the host's ``slowdown``."""
        self.setup_s = [t / slowdown for t in self.setup_s]
        self.join_s = [t / slowdown for t in self.join_s]
        self.decode_s = [t / slowdown for t in self.decode_s]
        self.makespan_s /= slowdown
        self.round_s /= slowdown
        self.notes["host_slowdown"] = slowdown

    @property
    def rate_efficiency(self) -> float:
        return float(np.mean(self.efficiency)) if self.efficiency else 0.0


def content_for(seed: int, size: int) -> bytes:
    """The broadcast content of one iteration, derived from its seed."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def completion_digest(completed: dict[int, Optional[int]]) -> str:
    """Digest of ``node -> completion slot``: identical simulated results
    give identical digests, whatever the host speed."""
    text = ",".join(f"{node}:{completed[node]}" for node in sorted(completed))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SimBulk:
    """Slotted RLNC broadcast: k=16, d=2, N=128, 4 generations of 32 x 1 KiB.

    Only the content shape varies (the cost-against-g sweep sets it).
    """

    name = "sim_bulk"
    K, D, PEERS, PAYLOAD_SIZE = 16, 2, 128, 1024
    #: A bound on the slots stepped; full decode takes about 160.
    MAX_SLOTS = 2000
    #: Slots between host-speed samples, each taken with an extra timed
    #: set-up.  A set-up takes milliseconds, so set-ups timed only at
    #: the start of each iteration sample too few moments; these are
    #: spread over the transfer like the slots are, and their time is
    #: kept out of every transfer timing.
    SETUP_EVERY = 16
    #: The mix of the probe's two parts (see :mod:`hostspeed`) whose
    #: swings best matched those of the slots' times on the reference
    #: host; a set-up is interpreter work, scaled by that part alone.
    TABLES_SHARE = 0.4

    def __init__(self, *, generations: int = 4, generation_size: int = 32) -> None:
        self.generations = generations
        self.params = GenerationParams(generation_size, self.PAYLOAD_SIZE)

    def _set_up(self, seed: int, content: bytes):
        """Overlay growth plus simulation construction, timed."""
        started = perf_counter()
        net = OverlayNetwork(k=self.K, d=self.D, seed=seed)
        joining = perf_counter()
        joined = len(net.grow(self.PEERS))
        join_s = perf_counter() - joining
        sim = BroadcastSimulation(net, content, self.params, seed=seed)
        return sim, joined, perf_counter() - started, join_s

    def run(self, seed: int, tracer: Optional[Tracer] = None, *,
            probe: bool = False) -> Iteration:
        """One transfer to full decode.

        With ``probe`` the host speed is sampled before the first slot
        and every :data:`SETUP_EVERY` slots; each slot's time is divided
        by the mean slowdown of the two samples around it, each set-up's
        by that of the sample taken with it (see :mod:`hostspeed`).
        """
        needed = self.generations * self.params.generation_size
        content = content_for(seed, needed * self.params.payload_size)
        it = Iteration(seed)
        speed = [hostspeed.sample()] if probe else []
        with installed(tracer, PROBES):
            sim, joined, setup_s, join_s = self._set_up(seed, content)
            set_ups = [(setup_s, join_s)]
            registry = Registry("sim")
            sim.runtime.attach_obs(registry)
            bind_pool(registry, DEFAULT_POOL)
            targets = sim.runtime.measured_nodes()
            completed = sim.behavior.completed_at()
            slot_s: list[float] = []
            mark = perf_counter()
            while len(slot_s) < self.MAX_SLOTS and not all(
                t in completed for t in targets
            ):
                sim.step()
                slot_s.append(perf_counter() - mark)
                if probe and len(slot_s) % self.SETUP_EVERY == 0:
                    set_ups.append(self._set_up(seed + len(slot_s), content)[2:])
                    speed.append(hostspeed.sample())
                mark = perf_counter()
            if tracer is not None:
                it.registries = [registry]
            it.attempted = self.PEERS + len(targets)
            it.failed = self.PEERS - joined
            recovered = {}
            for node in targets:
                if completed.get(node) is not None:
                    decoder = sim.recoder_of(node).decoder
                    recovered[node] = decoder.recover(len(content))
            check_s = perf_counter() - mark
        if probe:
            if len(slot_s) % self.SETUP_EVERY:
                speed.append(hostspeed.sample())
            share = self.TABLES_SHARE
            slow = [hostspeed.slowdown(speed[i // self.SETUP_EVERY:][:2], share)
                    for i in range(len(slot_s))]
            set_ups = [(s / hostspeed.slowdown([p]), j / hostspeed.slowdown([p]))
                       for (s, j), p in zip(set_ups, speed)]
            check_s /= hostspeed.slowdown(speed[-1:], share)
            it.notes["host_slowdown"] = hostspeed.slowdown(speed, share)
        else:
            slow = [1.0] * len(slot_s)
        it.setup_s = [s for s, _ in set_ups]
        it.join_s = [j for _, j in set_ups]
        step_end = list(accumulate(t / f for t, f in zip(slot_s, slow)))
        for node in targets:
            slot = completed.get(node)
            if slot is None or recovered[node] != content:
                it.failed += 1
                continue
            it.decode_s.append(step_end[slot])
            it.efficiency.append(needed / (self.D * (slot + 1)))
            it.decoded_bytes += len(content)
        it.makespan_s = max(it.decode_s) if it.decode_s else 0.0
        it.round_s = it.setup_s[0] + (step_end[-1] if step_end else 0.0) + check_s
        it.notes["slots"] = len(slot_s)
        it.notes["digest"] = completion_digest(
            {node: completed.get(node) for node in targets}
        )
        return it


class _TimedSwarm(SwarmHarness):
    """A swarm harness that stamps set-up, joins, decodes, the churn and
    the repair, so :meth:`SwarmHarness.run_round` runs unchanged.

    With ``probe`` it also samples the host speed before each join wave
    but the first; the stamps leave out the time those samples take.
    """

    def __init__(self, config: SwarmConfig, probe: bool = False) -> None:
        super().__init__(config)
        self.probe = probe
        #: host-speed samples taken between join waves, and their host time
        self.speed: list[hostspeed.Sample] = []
        self.paused = 0.0
        #: host time the server was up and coded packets could flow
        self.flowing = 0.0
        #: peer index -> host time it started joining (its wave's start)
        self.joining: dict[int, float] = {}
        #: peer index -> (host time of its full decode, server round)
        self.completions: dict[int, tuple[float, int]] = {}
        #: virtual times of the churn and of the first repaired() check
        #: that held
        self.churned_at: Optional[float] = None
        self.repaired_at: Optional[float] = None

    def _now(self) -> float:
        return perf_counter() - self.paused

    async def start(self, peers: Optional[int] = None) -> None:
        await super().start(peers)
        self.flowing = self._now()

    def _make_peer(self, index: int) -> PeerNode:
        if self.probe and index and index % self.swarm.join_batch == 0:
            began = perf_counter()
            self.speed += SwarmChurn.speed_samples()
            self.paused += perf_counter() - began
        peer = super()._make_peer(index)
        peer.on_complete = lambda p, i=index: self._completed(i)
        self.joining[index] = self._now()
        return peer

    def _completed(self, index: int) -> None:
        self.completions[index] = (self._now(), self.server.stats.rounds)

    def churn(self, fraction: Optional[float] = None) -> list[int]:
        self.churned_at = self.clock.time()
        return super().churn(fraction)

    def repaired(self) -> bool:
        done = super().repaired()
        if done and self.repaired_at is None and self.churned_at is not None:
            self.repaired_at = self.clock.time()
        return done


class SwarmChurn:
    """One 1000-peer :meth:`SwarmHarness.run_round` on the turbo virtual net.

    With the harness's default content (one generation of 8 x 32 B) the
    attach seed burst decodes every peer during the join phase, so the
    10% churn lands after full decode: the round measures joins, the
    crash detection and the server's repair, not survivors re-decoding
    off repaired parents.
    """

    name = "swarm_churn"
    PEERS = 1000
    #: Host-speed samples taken at each point a probed round samples:
    #: before it, between its join waves and after it.
    SPEED_SAMPLES = 3
    #: The mix of the probe's two parts whose swings best matched those
    #: of the rounds' times on the reference host (see :mod:`hostspeed`).
    TABLES_SHARE = 0.25

    @classmethod
    def speed_samples(cls) -> list[hostspeed.Sample]:
        return [hostspeed.sample() for _ in range(cls.SPEED_SAMPLES)]

    def run(self, seed: int, tracer: Optional[Tracer] = None, *,
            probe: bool = False) -> Iteration:
        """One round.  With ``probe`` every host time is divided by the
        host's mean slowdown over samples taken before the round,
        between its join waves and after it (see :mod:`hostspeed`)."""
        return asyncio.run(self._run(seed, tracer, probe))

    async def _run(self, seed: int, tracer: Optional[Tracer],
                   probe: bool) -> Iteration:
        config = SwarmConfig(peers=self.PEERS, seed=seed)
        it = Iteration(seed)
        speed = self.speed_samples() if probe else []
        with installed(tracer, PROBES):
            started = perf_counter()
            harness = _TimedSwarm(config, probe)
            try:
                report = await harness.run_round()
            finally:
                await harness.teardown()
            # Every sample inside the round is taken in the join phase.
            it.round_s = perf_counter() - started - harness.paused
        it.setup_s.append(harness.flowing - started)
        it.join_s.append(report.wall_join - harness.paused)
        survivors = [(i, p) for i, p in enumerate(harness.peers)
                     if i not in harness.killed]
        # Attempts: every join, every survivor's decode, and the round's
        # convergence and invariant checks as a whole.
        it.attempted = config.peers + len(survivors) + 1
        it.failed = (config.peers - report.joined) + (0 if report.ok else 1)
        content_packets = config.generations * config.generation_size
        for index, peer in survivors:
            done = harness.completions.get(index)
            if done is None or not peer.completed or (
                peer.recovered_content() != harness.content
            ):
                it.failed += 1
                continue
            it.decode_s.append(done[0] - harness.joining[index])
            it.makespan_s = max(it.makespan_s, done[0] - harness.flowing)
            it.efficiency.append(content_packets / (config.d * max(1, done[1])))
            it.decoded_bytes += len(harness.content)
        if tracer is not None:
            it.registries = [harness.server.registry,
                             *(p.registry for p in harness.peers)]
        it.notes["violations"] = report.violations
        it.notes["killed"] = report.killed
        if harness.repaired_at is not None:
            it.notes["repair_virtual_s"] = harness.repaired_at - harness.churned_at
        if probe:
            speed += harness.speed + self.speed_samples()
            it.scale(hostspeed.slowdown(speed, self.TABLES_SHARE))
        return it


WORKLOADS = {w.name: w for w in (SimBulk, SwarmChurn)}
