"""The repository benchmark: two workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim_bulk --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: closed-
loop iterations of the workload, each with its own seed derived from
``--seed``, until ``--seconds`` have passed, reporting medians.  The
host's speed is sampled between the steps of every iteration and each
host time is divided by the host's slowdown (``hostspeed``), so the
times read as seconds on the reference host at its usual speed.
``--trace 1`` is the separate traced run: each traced iteration is paired
with an untraced iteration of the same seed (their wall-time ratio is
the tracing overhead), and the run ends with the cost-against-
generation-size sweep.  Spans and a run record (result plus environment
fingerprint) go to ``.perfbench_out/`` when the run ends.

Every peer's decoded bytes are checked against the source; failures are
counted, never fatal.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: The workloads, as ``workloads.WORKLOADS`` names them.
WORKLOAD_NAMES = ("sim_bulk", "swarm_churn")

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "join_s": "s",
    "makespan_s": "s",
    "round_s": "s",
    "goodput_MBps": "MB/s",
    "peer_decode_p50_s": "s",
    "rate_efficiency": "ratio",
    "peak_rss_MB": "MB",
}

#: A table row: name, value, unit, note.
Row = tuple[str, object, str, str]


def iteration_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th iteration of a run seeded ``seed``."""
    return seed * 1_000 + index


def _safe_run(workload, seed: int, tracer=None, probe: bool = False):
    """One iteration; an exception fails the iteration, not the run.

    Each iteration starts from a collected heap, so garbage left by the
    previous one is not collected on its clock.
    """
    from workloads import Iteration

    gc.collect()
    try:
        return workload.run(seed, tracer, probe=probe)
    except Exception:  # noqa: BLE001 - recorded, counted, run continues
        traceback.print_exc(file=sys.stderr)
        failed = Iteration(seed, attempted=1, failed=1)
        failed.notes["error"] = traceback.format_exc(limit=1).strip()
        return failed


def end_to_end(workload, seed: int, seconds: float):
    """Closed-loop iterations for ``seconds``.

    Returns ``(metrics, iterations, rows)``; ``rows`` are the table
    lines beyond the bounded metrics (tail percentile, repair time).
    """
    from stats import median, tail

    iterations = []
    started = time.perf_counter()
    while not iterations or time.perf_counter() - started < seconds:
        iterations.append(_safe_run(workload, iteration_seed(seed, len(iterations)),
                                     probe=True))
    good = [it for it in iterations if it.decode_s and it.makespan_s > 0]
    pooled = [t for it in good for t in it.decode_s]
    metrics = dict.fromkeys(END_TO_END, 0.0)
    metrics["peak_rss_MB"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    rows: list[Row] = [
        ("set-up samples", sum(len(it.setup_s) for it in good), "count",
         "pooled over iterations for setup_s and join_s"),
        ("decode samples", len(pooled), "count",
         "pooled over iterations for peer_decode_*")]
    if good:
        metrics.update({
            "setup_s": median([t for it in good for t in it.setup_s]),
            "join_s": median([t for it in good for t in it.join_s]),
            "makespan_s": median([it.makespan_s for it in good]),
            "round_s": median([it.round_s for it in good]),
            "goodput_MBps": median([it.decoded_bytes / it.makespan_s / 1e6
                                    for it in good]),
            "peer_decode_p50_s": median(pooled),
            "rate_efficiency": median([it.rate_efficiency for it in good]),
        })
        decode_tail = tail(pooled)
        if decode_tail is None:
            rows.append(("peer_decode_p90_s", "n/a", "s",
                         f"n={len(pooled)}: a tail needs 10 samples beyond it"))
        else:
            rows.append((f"peer_decode_p{decode_tail.percentile:g}_s",
                         decode_tail.value, "s", f"n={decode_tail.samples}"))
        slowdowns = [it.notes["host_slowdown"] for it in good]
        rows.append(("host slowdown", median(slowdowns), "ratio",
                     f"median of n={len(slowdowns)} iterations; host times "
                     "above are divided by each iteration's"))
        repairs = [it.notes["repair_virtual_s"] for it in good
                   if "repair_virtual_s" in it.notes]
        if repairs:
            rows.append(("repair_virtual_s", median(repairs), "virtual s",
                         f"n={len(repairs)} rounds"))
    return metrics, iterations, rows


def traced(workload, seed: int, seconds: float):
    """Untraced/traced iteration pairs for ``seconds``, then the g-sweep.

    A pair is started only if one as long as the last still fits in
    ``seconds``, so the sweep does not push the run far past them.

    Returns ``(metrics, iterations, mismatches)``: per-layer medians over
    the traced iterations and every cross-check mismatch.
    """
    import crosscheck
    from layers import LAYER_METRICS, layer_metrics
    from spans import Tracer
    from stats import median
    from sweep import generation_sweep

    per_iteration: list[dict] = []
    ratios: list[float] = []
    iterations = []
    mismatches: list[str] = []
    started = time.perf_counter()
    pair_s = 0.0
    while not per_iteration or time.perf_counter() - started + pair_s < seconds:
        pair_started = time.perf_counter()
        index = len(per_iteration)
        seed_i = iteration_seed(seed, index)
        plain = _safe_run(workload, seed_i)
        tracer = Tracer(f"{workload.name}-seed{seed}-it{index}")
        with crosscheck.Baseline() as baseline:
            it = _safe_run(workload, seed_i, tracer)
        iterations += [plain, it]
        tracer.write(OUT_DIR / f"spans-{tracer.run_id}.tsv.gz")
        totals = tracer.summarize()
        obs = crosscheck.program_counters(it.registries, baseline)
        problems = crosscheck.compare(workload.name, totals, tracer.counts, obs)
        mismatches += problems
        values = layer_metrics(totals, tracer.counts, obs, it.round_s)
        values["trace.spans"] = len(tracer)
        if plain.round_s > 0 and it.round_s > 0:
            ratios.append(it.round_s / plain.round_s)
        per_iteration.append(values)
        pair_s = time.perf_counter() - pair_started
    metrics = {
        "trace.crosscheck_mismatches": len(mismatches),
        "trace.overhead_ratio": median(ratios) if ratios else 0.0,
    }
    for name in LAYER_METRICS.keys() - metrics.keys():
        metrics[name] = median([v[name] for v in per_iteration])
    metrics.update(generation_sweep(seed))
    return metrics, iterations, mismatches


def _print_table(title: str, rows: list[Row]) -> None:
    print(title)
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        print(f"  {name:36s} {shown:>14s} {unit:10s} {note}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The BLAS cap must be set before numpy is first imported.
    from fingerprint import cap_blas_threads, collect, usable_cpus, validate

    thread_cap = cap_blas_threads(usable_cpus())
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    fingerprint = collect(ROOT, thread_cap)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for problem in validate(fingerprint):
        print(f"fingerprint problem: {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    if args.trace:
        from layers import LAYER_METRICS, SWEEP_METRICS

        metrics, iterations, mismatches = traced(workload, args.seed,
                                                 args.seconds)
        units = {**LAYER_METRICS, **SWEEP_METRICS}
        extra: list[Row] = [("cross-check mismatch", m, "", "")
                            for m in mismatches]
    else:
        metrics, iterations, extra = end_to_end(workload, args.seed,
                                                args.seconds)
        units, mismatches = END_TO_END, []
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    for it in iterations:
        notes = {k: v for k, v in it.notes.items() if k != "violations"}
        print(f"iteration seed={it.seed} setups={len(it.setup_s)} "
              f"makespan_s={it.makespan_s:.4f} "
              f"attempted={it.attempted} failed={it.failed} {json.dumps(notes)}")
        for violation in it.notes.get("violations", []):
            print(f"  invariant violation: {violation}")
    rows = [(name, metrics[name], unit, "") for name, unit in units.items()]
    rows += extra
    rows.append(("fail_frac", failed / attempted if attempted else 1.0, "ratio",
                 f"{failed} of {attempted} attempts"))
    _print_table(f"{args.workload} seed={args.seed} trace={args.trace} "
                 f"iterations={len(iterations)}", rows)
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"fingerprint": fingerprint, "result": result},
                                 indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
