"""End-to-end benchmark of the unrealizability solver, with per-layer attribution.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload grid-check --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``grid-check``, ``cegis-solve`` and
``serve-mixed``.  ``BENCHMARK.json`` lists grid-check and serve-mixed only:
at its 2 s budget about half of cegis-solve's cells decide within a second
and the rest end at the budget, so its median latency jumps between the two
groups from one run to the next.  serve-mixed runs the same Alg. 2 solves
on one client of its own, so the listed workloads still reach the CEGIS
layers and its deadline overruns.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same workload, then a traced run of the same cells
with every layer's public entry points wrapped (see ``layers.py``), and
reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print every end-to-end metric by name and unit (and, traced, every
per-layer metric and the paper-anchor split).  A full record of the run,
with the environment it ran in, is written to ``.e2ebench/`` in the
checkout.  The exit code is non-zero when the correctness oracle fails.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 — the set-up clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, NoReturn, Optional, Tuple  # noqa: E402

from layers import ENGINES, ratio  # noqa: E402
from workloads import DEFINITIVE, GRACE_S, stop_children  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Where runs write their scratch files and records (inside the checkout).
SCRATCH = os.path.join(ROOT, ".e2ebench")

#: ``BENCHMARK.json`` names the metrics of the result line: its
#: ``end_to_end`` list untraced, its ``per_layer`` list traced.  The report
#: lines above the result also print ``deadline_missed_share`` and
#: ``failed_share``: they read 0 on grid-check, so no bound relative to
#: them is meaningful there.
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def fail_setup(message: str) -> NoReturn:
    print(f"e2ebench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program() -> None:
    """Put the program's sources on the path, or stop without a result."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail_setup(f"the program's sources are missing ({SRC}/repro)")
    sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than eleven
    samples no percentile has ten beyond it; the maximum is reported with
    its true count beyond (zero).
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count < 11:
        return ordered[-1], 100.0, 0
    index = count - 11
    return ordered[index], 100.0 * (index + 1) / count, count - index - 1


def end_to_end(run) -> Dict[str, Dict[str, Any]]:
    cells = run.cells
    attempted = len(cells)
    latencies = [cell.latency_s for cell in cells]
    tail_value, percentile, beyond = tail(latencies)
    return {
        "throughput_per_s": {"value": attempted / run.wall_s, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1000.0, "unit": "ms"},
        "latency_tail_ms": {
            "value": tail_value * 1000.0,
            "unit": "ms",
            "percentile": round(percentile, 3),
            "samples_beyond": beyond,
            "samples": attempted,
        },
        "decided_share": {
            "value": sum(cell.decided for cell in cells) / attempted,
            "unit": "ratio",
        },
        "deadline_missed_share": {
            "value": sum(cell.missed for cell in cells) / attempted,
            "unit": "ratio",
            "grace_s": GRACE_S,
        },
        "failed_share": {
            "value": sum(bool(cell.error) or cell.missed for cell in cells) / attempted,
            "unit": "ratio",
        },
        "setup_s": {"value": run.setup_s, "unit": "s"},
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MiB"},
    }


def per_layer(run) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, from the traced run's spans and counters."""
    layers = run.layers
    summary = layers["summary"]
    counts = layers["counts"]
    counters = layers["counters"]
    fabric = layers.get("fabric", {})
    self_s = summary.self_s

    def metric(value: float, unit: str) -> Dict[str, Any]:
        return {"value": value, "unit": unit}

    naysl_wall = summary.phase("api.facade/run_engine", "naySL")
    replies = traced_replies(run)
    rounds = sum(
        result[2] for result in layers.get("replay_results", []) if result[4] == "solve"
    )
    metrics = {
        "grammar.self_s": metric(self_s["grammar"], "s"),
        "grammar.normalize_hit_ratio": metric(hit_ratio(counters, "normalize"), "ratio"),
        "gfa.self_s": metric(self_s["gfa"], "s"),
        "gfa.calls": metric(summary.calls_of("gfa"), "count"),
        "domains.self_s": metric(self_s["domains"], "s"),
        "domains.simplify_hit_ratio": metric(hit_ratio(counters, "simplify"), "ratio"),
        "domains.semilinear_share_naySL": metric(
            ratio(semilinear_seconds(summary, "naySL"), naysl_wall), "ratio"
        ),
        "logic.self_s": metric(self_s["logic"], "s"),
        "logic.queries": metric(counters["sat_checks"], "count"),
        "logic.core_probes": metric(counters["core_probes"], "count"),
        "logic.lemma_hits": metric(counters["lemma_hits"], "count"),
        "logic.core_minimization_s": metric(summary.phase("logic/core_min"), "s"),
        "logic.query_cache_hit_ratio": metric(hit_ratio(counters, "query_cache"), "ratio"),
        "horn.self_s": metric(self_s["horn"], "s"),
        "unreal.checks": metric(summary.calls_of("unreal/check"), "count"),
        "unreal.self_s": metric(self_s["unreal"], "s"),
        "unreal.cegis_rounds": metric(rounds, "count"),
        "unreal.certificate_build_s": metric(summary.phase("unreal/certificate"), "s"),
        "analysis.certcheck_s": metric(summary.phase("analysis/certcheck"), "s"),
        "analysis.certificate_bytes": metric(
            sum(
                int((reply.get("solver_stats") or {}).get("certificate_size", 0))
                for reply in replies
            ),
            "bytes",
        ),
        "synth.self_s": metric(self_s["synth"], "s"),
        "synth.candidates": metric(counts.get("synth.generated", 0), "count"),
        "synth.dedup_ratio": metric(
            ratio(counts.get("synth.deduped", 0), counts.get("synth.generated", 0)),
            "ratio",
        ),
        "semantics.self_s": metric(self_s["semantics"], "s"),
    }
    for engine in ENGINES:
        metrics[f"baselines.{engine}.wall_s"] = metric(
            summary.phase("api.facade/run_engine", engine), "s"
        )
        metrics[f"baselines.{engine}.decided"] = metric(
            decided_by_engine(run).get(engine, 0), "count"
        )
    metrics.update(
        {
            "sygus.self_s": metric(self_s["sygus"], "s"),
            "api.wire.self_s": metric(self_s["api.wire"], "s"),
            "api.wire.bytes": metric(layers.get("wire_bytes", 0), "bytes"),
            "api.facade.self_s": metric(self_s["api.facade"], "s"),
            "engine.store.get_s": metric(summary.phase("engine.store/get"), "s"),
            "engine.store.put_s": metric(summary.phase("engine.store/put"), "s"),
            "engine.store.hit_ratio": metric(
                ratio(counts.get("store.hits", 0), counts.get("store.gets", 0)), "ratio"
            ),
            "engine.supervisor.wait_s": metric(
                sum(cell.wait_s for cell in run.cells), "s"
            ),
            "engine.supervisor.workers_replaced": metric(
                fabric.get("workers_replaced", 0), "count"
            ),
            "engine.supervisor.retries": metric(fabric.get("retries", 0), "count"),
            "engine.supervisor.jobs_cancelled": metric(
                fabric.get("jobs_cancelled", 0), "count"
            ),
            "api.service.self_s": metric(self_s["api.service"], "s"),
            "api.service.rejected": metric(
                sum(cell.verdict == "refused" for cell in run.cells), "count"
            ),
            "trace.overhead_share": metric(layers["overhead_share"], "ratio"),
        }
    )
    return metrics


def hit_ratio(counters: Dict[str, int], cache: str) -> float:
    hits = counters[f"{cache}_hits"]
    return ratio(hits, hits + counters[f"{cache}_misses"])


def semilinear_seconds(summary, engine: str) -> float:
    """Time spent building and solving the GFA equations, i.e. computing
    the semi-linear sets (the paper's section 8.1 phase); the re-solve done
    while building a certificate is counted in the certificate phase."""
    return summary.phase(
        "gfa/build", engine, outside_certificate=True
    ) + summary.phase("gfa/solve", engine, outside_certificate=True)


def traced_replies(run) -> List[Dict[str, Any]]:
    """The replies of the work the traced run attributes."""
    if "replies" in run.layers:
        return run.layers["replies"]
    return [cell.reply for cell in run.cells if cell.reply is not None]


def decided_by_engine(run) -> Dict[str, int]:
    """Definitive verdicts per engine in the traced run (the staged
    strategy's verdicts count for the engine that won them)."""
    decided: Dict[str, int] = {}
    if "engine_cells" in run.layers:
        outcomes = [(cell.verdict, cell.engine) for cell in run.layers["engine_cells"]]
    else:
        outcomes = [(result[0], result[3]) for result in run.layers["replay_results"]]
    for verdict, engine in outcomes:
        if verdict in DEFINITIVE:
            decided[engine] = decided.get(engine, 0) + 1
    return decided


def paper_anchor(run) -> List[str]:
    """The per-engine split of the traced grid: where each engine's time goes."""
    summary = run.layers["summary"]
    lines = [
        "# paper anchor (traced pass): engine | wall s | certificate build+validation"
        " | unsat-core minimization | semi-linear sets (outside certificates)"
    ]
    for engine in ENGINES:
        wall = summary.phase("api.facade/run_engine", engine)
        certificate = summary.phase("unreal/certificate", engine)
        core = summary.phase("logic/core_min", engine)
        semilinear = semilinear_seconds(summary, engine)
        lines.append(
            f"#   {engine:8s} | {wall:7.3f} | {ratio(certificate, wall):6.1%}"
            f" | {ratio(core, wall):6.1%} | {ratio(semilinear, wall):6.1%}"
        )
    naysl = ratio(
        semilinear_seconds(summary, "naySL"),
        summary.phase("api.facade/run_engine", "naySL"),
    )
    lines.append(
        f"# naySL semi-linear-set share: {naysl:.1%} (paper, section 8.1: 70.6%)"
    )
    return lines


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (a plain source export has
    none, so ``unknown`` is a normal answer)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> Dict[str, Any]:
    from repro.utils.columns import active_ops

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "columns_backend": active_ops().name,
        "commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    from workloads import WORKLOADS, teardown  # noqa: PLC0415

    if args.workload not in WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    os.makedirs(SCRATCH, exist_ok=True)
    setup, drive = WORKLOADS[args.workload]
    env = setup(SCRATCH)
    # Imports, suite construction, fabric spawn and warm-up, server start:
    # everything before the first timed cell, in this process.
    setup_s = time.perf_counter() - _PROCESS_START
    try:
        run = drive(env, args.seed, args.seconds, bool(args.trace), setup_s, SCRATCH)
    finally:
        teardown(env)

    from oracle import check_run

    failures = check_run(run)
    e2e = end_to_end(run)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "end_to_end": e2e,
        "attempted": len(run.cells),
        "oracle_failures": failures,
        "notes": run.notes,
        "cells": [
            [cell.key, cell.engine, cell.verdict, round(cell.latency_s, 6), cell.error]
            for cell in run.cells
        ],
    }
    env_line = record["environment"]
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        f" nproc={env_line['nproc']} python={env_line['python']}"
        f" columns={env_line['columns_backend']} commit={env_line['commit'][:12]}"
    )
    for name, item in e2e.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = (
                f"  (p{item['percentile']:g}, {item['samples_beyond']} of"
                f" {item['samples']} samples beyond)"
            )
        elif name == "deadline_missed_share":
            extra = f"  (budget + {item['grace_s']:g} s grace)"
        print(f"{name:24s} {item['value']:.6g} {item['unit']}{extra}")
    for failure in failures[:20]:
        print(f"# ORACLE FAILURE: {failure}")

    if args.trace:
        layer_metrics = per_layer(run)
        record["per_layer"] = layer_metrics
        for name, item in layer_metrics.items():
            print(f"{name:40s} {item['value']:.6g} {item['unit']}")
        if args.workload == "grid-check":
            for line in paper_anchor(run):
                print(line)
        listed = [item["name"] for item in spec["per_layer"]]
        metrics = {name: layer_metrics[name] for name in listed}
    else:
        listed = [item["name"] for item in spec["end_to_end"]]
        metrics = {
            name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
            for name in listed
        }

    path = os.path.join(
        SCRATCH, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=str)

    correct = not failures
    # Operations that errored, were refused or gave a wrong answer.  Cells
    # cut at their deadline are not wrong: they are deadline_missed_share
    # (and count in the printed failed_share, which counts every miss).
    failed = sum(bool(cell.error) for cell in run.cells)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(run.cells),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        CODE = main()
    finally:
        # On every way out, so that no helper process outlives the run.
        stop_children()
    sys.exit(CODE)
