"""The traced layers: which calls are timed, and what each layer reports.

Layer names follow the package layout of ``src/repro`` from the bottom
of the stack up: ``gf`` (GF(2^8) kernels) -> ``coding`` (encode,
recode, decode, wire codec, buffer pool) -> ``dataplane`` and
``protocol``/``core`` (the sans-IO engines) -> ``net`` (framing and
send pumps) -> ``vnet`` (the virtual network and clock) and ``sim``
(the slotted runtime).  Whatever no span covers — the asyncio loop and
the benchmark's own driver code — is ``driver.unattributed_s``.
"""

from __future__ import annotations

from spans import LayerTotals, Probe

# -- work units -----------------------------------------------------------


def _size(position: int):
    return lambda args, result: args[position].size


def _one(args, result) -> float:
    return 1.0


def _present(args, result) -> float:
    return 0.0 if result is None else 1.0


def _length(args, result) -> float:
    return len(result)


def _rows_emitted(args, result) -> float:
    return sum(len(positions) for _, _, positions in result)


def _frame_found(args, result) -> float:
    return 0.0 if result[0] is None else 1.0


# -- boundary counts (cross-checked against repro.obs) -------------------


def _relay_counts(counts: dict, args, result) -> None:
    from repro.dataplane import EmitToChildren, IdlePoll, Ingested

    idle = isinstance(args[1], IdlePoll)
    for effect in result:
        if isinstance(effect, Ingested):
            counts["dataplane.ingested"] += 1
            if effect.innovative:
                counts["dataplane.innovative"] += 1
        elif isinstance(effect, EmitToChildren) and not idle:
            counts["dataplane.mixtures"] += effect.count


def _source_counts(counts: dict, args, result) -> None:
    from repro.dataplane import EmitToChildren

    for effect in result:
        if isinstance(effect, EmitToChildren):
            counts["dataplane.mixtures"] += effect.count
            counts["dataplane.source_packets"] += effect.count


def _admissions(counts: dict, args, result) -> None:
    from repro.protocol import Admitted

    counts["protocol.admitted"] += sum(isinstance(e, Admitted) for e in result)


def _lease(counts: dict, args, result) -> None:
    counts["coding.pool.leases"] += 1


def _queue_depth(counts: dict, args, result) -> None:
    depth = args[0].queue_depth
    if depth > counts["net.queue_depth_max"]:
        counts["net.queue_depth_max"] = depth


def _probes() -> list[Probe]:
    gf = "repro.gf.kernels:"
    wire = "repro.coding.wire:"
    framing = "repro.net.framing:"
    vnet = "repro.net.testing.virtualnet:"
    probes = [
        # gf.bytes: operand bytes presented to each kernel (eliminate's
        # bytes are those of the mix_rows it delegates to).
        Probe("gf", gf + "addmul_row", _size(1)),
        Probe("gf", gf + "scale_row", _size(0)),
        Probe("gf", gf + "scale_row_inplace", _size(0)),
        Probe("gf", gf + "addmul_rows", _size(0)),
        Probe("gf", gf + "mix_rows", _size(1)),
        Probe("gf", gf + "eliminate", _size(1)),
        Probe("gf", gf + "combine_rows",
              lambda args, result: len(result) * args[1].size),
        Probe("gf", gf + "gemm",
              lambda args, result: args[0].shape[0] * args[1].size),
        Probe("coding.encode", "repro.coding.encoder:SourceEncoder.emit", _one),
        Probe("coding.encode", "repro.coding.encoder:SourceEncoder.emit_batch",
              _length),
        Probe("coding.recode", "repro.coding.recoder:Recoder.emit", _present),
        Probe("coding.recode", "repro.coding.recoder:Recoder.emit_rows",
              _rows_emitted),
        Probe("coding.recode", "repro.coding.recoder:Recoder.emit_batch", _length),
        Probe("coding.recode", "repro.coding.recoder:Recoder.emit_trivial",
              _present),
        Probe("coding.decode", "repro.coding.decoder:Decoder.push", _one),
        Probe("coding.wire.encode", wire + "encode_packet_into", _one),
        Probe("coding.wire.encode", wire + "encode_packet", _one),
        Probe("coding.wire.encode", wire + "encode_packets_rows",
              lambda args, result: len(args[0])),
        Probe("coding.wire.encode", wire + "encode_mixture_rows",
              lambda args, result: args[1].shape[0]),
        Probe("coding.wire.encode", wire + "encode_packets_into",
              lambda args, result: len(args[0])),
        Probe("coding.wire.decode", wire + "decode_packet_from", _one),
        Probe("coding.wire.decode", wire + "decode_packet", _one),
        Probe("coding.wire.decode", wire + "read_frame_at", _frame_found),
        Probe("coding.wire.decode", wire + "read_frame", _frame_found),
        Probe("coding.pool", "repro.coding.buffers:BufferPool.lease", _one,
              _lease),
        Probe("coding.pool", "repro.coding.buffers:BufferPool.release"),
        Probe("dataplane", "repro.dataplane.relay_engine:RelayEngine.handle",
              _one, _relay_counts),
        Probe("dataplane", "repro.dataplane.source_engine:SourceEngine.handle",
              _one, _source_counts),
        Probe("protocol.server",
              "repro.protocol.server_engine:ServerEngine.handle", _one,
              _admissions),
        Probe("protocol.peer", "repro.protocol.peer_engine:PeerEngine.handle",
              _one),
        Probe("net.framing", framing + "encode_frame"),
        Probe("net.framing", framing + "encode_data_frame"),
        Probe("net.framing", framing + "encode_data_frames"),
        Probe("net.framing", framing + "encode_mixture_frames"),
        Probe("net.framing", framing + "write_packet_nowait"),
        Probe("net.framing", framing + "write_control_nowait"),
        Probe("net.framing", framing + "FrameBuffer.feed"),
        Probe("net.framing", framing + "FrameBuffer.next_message"),
        Probe("net.sender", "repro.net.streams:PacketSender.enqueue"),
        Probe("net.sender", "repro.net.streams:PacketSender.enqueue_frame",
              None, _queue_depth),
        Probe("net.sender", "repro.net.streams:PacketSender.close"),
        Probe("vnet", vnet + "VirtualClock.time"),
        Probe("vnet", vnet + "_VirtualWriter.write"),
        Probe("vnet", vnet + "_VirtualWriter._writelines"),
        Probe("vnet", vnet + "_VirtualWriter.close"),
        Probe("sim", "repro.sim.runtime:SlottedRuntime.step", _one),
    ]
    for method in ("hello", "goodbye", "fail", "complain", "repair",
                   "repair_all", "congestion_drop", "congestion_restore",
                   "is_working"):
        probes.append(Probe("core.server",
                            f"repro.core.server:CoordinationServer.{method}"))
    for method in ("record", "link", "transport", "bind", "partition", "heal",
                   "set_link", "set_default"):
        probes.append(Probe("vnet", f"{vnet}VirtualNetwork.{method}"))
    return probes


PROBES = _probes()

#: Every per-layer metric a traced run reports, with its unit.  The
#: g-sweep names are added by :data:`SWEEP_METRICS`.  ``calls`` count
#: outermost calls into a layer; ``self_s`` excludes time in other
#: layers; the coding ``us_per_packet`` costs include the GF work a call
#: does (the cost a caller pays), ``dataplane.us_per_event`` does not
#: (the engine's own overhead).
LAYER_METRICS: dict[str, str] = {
    "gf.calls": "count",
    "gf.self_s": "s",
    "gf.bytes": "bytes",
    "gf.ns_per_byte": "ns/byte",
    "coding.encode.calls": "count",
    "coding.encode.self_s": "s",
    "coding.recode.calls": "count",
    "coding.recode.self_s": "s",
    "coding.recode.us_per_packet": "us/packet",
    "coding.decode.calls": "count",
    "coding.decode.self_s": "s",
    "coding.decode.us_per_packet": "us/packet",
    "coding.wire.encode_self_s": "s",
    "coding.wire.decode_self_s": "s",
    "coding.wire.frames": "count",
    "coding.pool.reuse_ratio": "ratio",
    "coding.innovative_ratio": "ratio",
    "dataplane.events": "count",
    "dataplane.self_s": "s",
    "dataplane.us_per_event": "us/event",
    "protocol.server.events": "count",
    "protocol.server.self_s": "s",
    "protocol.peer.events": "count",
    "protocol.peer.self_s": "s",
    "core.server.self_s": "s",
    "net.framing.self_s": "s",
    "net.sender.self_s": "s",
    "net.sender.frames": "count",
    "net.sender.flushes": "count",
    "net.sender.drops": "count",
    "net.sender.bytes": "bytes",
    "net.frames_per_flush": "ratio",
    "net.queue_depth_max": "count",
    "vnet.calls": "count",
    "vnet.self_s": "s",
    "sim.slots": "count",
    "sim.step.self_s": "s",
    "live.rounds": "count",
    "driver.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.crosscheck_mismatches": "count",
}

#: Generation sizes of the cost-against-g sweep (traced runs only).
SWEEP_SIZES = (16, 32, 64)

SWEEP_METRICS: dict[str, str] = {}
for _g in SWEEP_SIZES:
    SWEEP_METRICS[f"coding.decode.us_per_packet.g{_g}"] = "us/packet"
    SWEEP_METRICS[f"coding.recode.us_per_packet.g{_g}"] = "us/packet"
    SWEEP_METRICS[f"gf.ns_per_byte.g{_g}"] = "ns/byte"


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(totals: dict[str, LayerTotals], counts: dict[str, float],
                  obs: dict[str, float], wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced workload run.

    ``totals`` comes from :meth:`spans.Tracer.summarize`, ``counts``
    from the probe hooks, ``obs`` holds the program's own counters
    (sender and round totals summed over the run's registries, buffer
    pool deltas), and ``wall_s`` is the traced wall time the spans fall
    inside.
    """
    empty = LayerTotals()

    def get(layer: str) -> LayerTotals:
        return totals.get(layer, empty)

    gf, enc, rec, dec = (get("gf"), get("coding.encode"),
                         get("coding.recode"), get("coding.decode"))
    wire_enc, wire_dec = get("coding.wire.encode"), get("coding.wire.decode")
    dp = get("dataplane")
    received = counts.get("dataplane.ingested", 0.0)
    flushes = obs.get("net.sender.flushes", 0.0)
    frames = obs.get("net.sender.sent", 0.0)
    return {
        "gf.calls": gf.calls,
        "gf.self_s": gf.self_s,
        "gf.bytes": gf.units,
        "gf.ns_per_byte": _ratio(gf.self_s, gf.units, 1e9),
        "coding.encode.calls": enc.calls,
        "coding.encode.self_s": enc.self_s,
        "coding.recode.calls": rec.calls,
        "coding.recode.self_s": rec.self_s,
        "coding.recode.us_per_packet": _ratio(rec.inclusive_s, rec.units, 1e6),
        "coding.decode.calls": dec.calls,
        "coding.decode.self_s": dec.self_s,
        "coding.decode.us_per_packet": _ratio(dec.inclusive_s, dec.units, 1e6),
        "coding.wire.encode_self_s": wire_enc.self_s,
        "coding.wire.decode_self_s": wire_dec.self_s,
        "coding.wire.frames": wire_enc.units + wire_dec.units,
        "coding.pool.reuse_ratio": _ratio(obs.get("coding.pool.reuses", 0.0),
                                          obs.get("coding.pool.leases", 0.0)),
        "coding.innovative_ratio": _ratio(
            counts.get("dataplane.innovative", 0.0), received),
        "dataplane.events": dp.calls,
        "dataplane.self_s": dp.self_s,
        "dataplane.us_per_event": _ratio(dp.self_s, dp.calls, 1e6),
        "protocol.server.events": get("protocol.server").calls,
        "protocol.server.self_s": get("protocol.server").self_s,
        "protocol.peer.events": get("protocol.peer").calls,
        "protocol.peer.self_s": get("protocol.peer").self_s,
        "core.server.self_s": get("core.server").self_s,
        "net.framing.self_s": get("net.framing").self_s,
        "net.sender.self_s": get("net.sender").self_s,
        "net.sender.frames": frames,
        "net.sender.flushes": flushes,
        "net.sender.drops": obs.get("net.sender.dropped", 0.0),
        "net.sender.bytes": obs.get("net.sender.bytes_sent", 0.0),
        "net.frames_per_flush": _ratio(frames, flushes),
        "net.queue_depth_max": counts.get("net.queue_depth_max", 0.0),
        "vnet.calls": get("vnet").calls,
        "vnet.self_s": get("vnet").self_s,
        "sim.slots": get("sim").calls,
        "sim.step.self_s": get("sim").self_s,
        "live.rounds": obs.get("net.rounds", 0.0),
        "driver.unattributed_s": wall_s - sum(t.self_s for t in totals.values()),
    }
