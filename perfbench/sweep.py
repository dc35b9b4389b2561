"""Per-packet cost against generation size g (traced runs only).

Li, Soljanin and Spasojević analyse RLNC cost along the generation-size
axis; this sweep reports decode and recode cost per packet and GF cost
per byte at g in {16, 32, 64} on the ``sim_bulk`` geometry (k=16, d=2,
N=128, 1 KiB payloads).  One generation per point keeps the g=64 run
short; each point runs to full decode, so every rank a decoder passes
through is costed.
"""

from __future__ import annotations

from layers import SWEEP_SIZES, layer_metrics
from spans import Tracer
from workloads import SimBulk


def generation_sweep(seed: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for g in SWEEP_SIZES:
        tracer = Tracer(f"sweep-g{g}-seed{seed}")
        it = SimBulk(generations=1, generation_size=g).run(seed, tracer)
        values = layer_metrics(tracer.summarize(), tracer.counts, {}, it.round_s)
        out[f"coding.decode.us_per_packet.g{g}"] = values["coding.decode.us_per_packet"]
        out[f"coding.recode.us_per_packet.g{g}"] = values["coding.recode.us_per_packet"]
        out[f"gf.ns_per_byte.g{g}"] = values["gf.ns_per_byte"]
    return out
