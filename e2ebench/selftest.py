"""Self-test of the benchmark: ``python3 e2ebench/selftest.py`` from the root.

1. A minimal-size run of each workload, untraced and traced, prints every
   named metric with its unit, the result line carries exactly the metrics
   ``BENCHMARK.json`` lists, and no process the run started outlives it.
2. The oracle rejects a tampered certificate, a flipped verdict, a store
   hit that differs from its first reply, a malformed reply and an
   ``error`` verdict.
3. Without the program's sources the benchmark exits non-zero and prints no
   result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".e2ebench")

#: Every end-to-end metric printed for each workload, with its unit.
E2E_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_share": "ratio",
    "deadline_missed_share": "ratio",
    "failed_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"SELFTEST FAILED: {message}")
        raise SystemExit(1)


#: Run length per workload: serve-mixed needs budget + grace (2.5 s) beyond
#: its first Alg. 2 solve, which must start for the run to cover them.
SECONDS = {"grid-check": 1, "cegis-solve": 1, "serve-mixed": 4}


def run_benchmark(workload: str, trace: int) -> tuple:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", "0",
        "--seconds", str(SECONDS[workload]),
        "--trace", str(trace),
    ]
    # In a session of its own, so that any process the run leaves behind
    # can be found after it exits.
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    stdout, stderr = process.communicate(timeout=300)
    left = session_members(process.pid)
    check(not left, f"{workload} trace={trace}: processes left running: {left}")
    lines = stdout.strip().splitlines()
    check(bool(lines), f"{workload} trace={trace}: no output ({stderr[-500:]})")
    return process.returncode, lines[:-1], json.loads(lines[-1])


def session_members(session: int) -> list:
    """Pids of the processes, zombies included, still in ``session``."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # fields after "(comm) ": state, ppid, pgrp, session, ...
        if int(stat[stat.rindex(")") + 2 :].split()[3]) == session:
            members.append(int(name))
    return members


def check_outputs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = {
        0: {item["name"]: item["unit"] for item in spec["end_to_end"]},
        1: {item["name"]: item["unit"] for item in spec["per_layer"]},
    }
    # every workload the harness has, including those BENCHMARK.json leaves out
    for workload in ("grid-check", "cegis-solve", "serve-mixed"):
        for trace in (0, 1):
            code, report, result = run_benchmark(workload, trace)
            label = f"{workload} trace={trace}"
            check(code == 0, f"{label}: exit code {code}")
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result keys {sorted(result)}",
            )
            check(result["correct"] is True and result["attempted"] >= 1, label)
            metrics = result["metrics"]
            check(set(metrics) == set(listed[trace]), f"{label}: metrics {sorted(metrics)}")
            for name, unit in listed[trace].items():
                check(metrics[name]["unit"] == unit, f"{label}: unit of {name}")
                check(isinstance(metrics[name]["value"], (int, float)), f"{label}: {name}")
            printed = {
                line.split()[0]: line.split()[2]
                for line in report
                if not line.startswith("#")
            }
            for name, unit in E2E_UNITS.items():
                check(printed.get(name) == unit, f"{label}: {name} not printed in {unit}")
            if trace:
                for name, unit in listed[1].items():
                    check(printed.get(name) == unit, f"{label}: {name} not printed")
            if trace and workload == "grid-check":
                check(
                    any("70.6%" in line for line in report),
                    f"{label}: no semi-linear share next to the paper's 70.6%",
                )
            if workload == "serve-mixed":
                path = os.path.join(SCRATCH, f"result-serve-mixed-seed0-trace{trace}.json")
                with open(path, encoding="utf-8") as handle:
                    engines = {row[1] for row in json.load(handle)["cells"]}
                check("staged" in engines, f"{label}: no Alg. 2 solve ran")
            print(f"ok  {label}: {result['attempted']} cells, {len(metrics)} metrics")


def check_oracle() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from oracle import check_run
    from workloads import CHECK_BUDGET_S, Cell, Run, cell_key

    from repro.api import facade
    from repro.suites import get_benchmark

    benchmark = get_benchmark("plane1", "LimitedPlus")
    response = facade.run_engine(
        "naySL", "check", benchmark.problem, benchmark.witness_examples, timeout=10.0
    )
    check(response.verdict == "unrealizable", "plane1 is unrealizable under naySL")
    key = cell_key(benchmark)

    def run_with(reply, engine="naySL", store_hit=False, extra=(), request=None):
        cell = Cell(
            key, engine, 0.01, reply["verdict"], CHECK_BUDGET_S, reply=reply, request=request
        )
        cell.store_hit = store_hit
        return Run(
            cells=[*extra, cell],
            wall_s=1.0,
            setup_s=0.0,
            peak_rss_mb=0.0,
            problems={key: benchmark},
            witness_keys=frozenset({key}),
        )

    honest = response.to_json()
    check(not check_run(run_with(honest)), "an honest reply passes")

    def rejects(run, reason: str) -> bool:
        return any(reason in failure for failure in check_run(run))

    tampered = copy.deepcopy(honest)
    certificate = tampered["certificate"]
    certificate["examples"] = [
        {name: value + 7 for name, value in example.items()}
        for example in certificate["examples"]
    ]
    check(
        rejects(run_with(tampered), "certificate rejected"),
        "a tampered certificate is rejected",
    )

    flipped = dict(honest, verdict="realizable", certificate=None)
    check(
        rejects(run_with(flipped), "naySL said realizable"),
        "a flipped naySL verdict is rejected",
    )
    other = Cell(key, "nayHorn", 0.01, "unrealizable", CHECK_BUDGET_S, reply=honest)
    check(
        rejects(
            run_with(flipped, engine="nope", extra=[other]),
            "another engine certified unrealizable",
        ),
        "realizable beside a certified unrealizable is rejected",
    )
    check(
        rejects(
            run_with(flipped, engine="staged", request={"kind": "solve"}),
            "CEGIS said realizable",
        ),
        "a realizable CEGIS verdict is rejected",
    )

    first = Cell(key, "naySL", 0.2, "unrealizable", CHECK_BUDGET_S, reply=honest)
    stale = dict(honest, num_examples=honest["num_examples"] + 1)
    check(
        rejects(
            run_with(stale, store_hit=True, extra=[first]),
            "differs from the first miss reply",
        ),
        "a store hit that differs from its first reply is rejected",
    )

    # What the serve client records for a reply that does not parse, and
    # for an engine that answers ``error``.
    malformed = Cell(key, "naySL", 0.01, "error", CHECK_BUDGET_S, error="malformed reply: x")
    check(
        rejects(run_with(honest, extra=[malformed]), "malformed reply"),
        "a malformed reply fails the run",
    )
    errored = dict(honest, verdict="error", certificate=None)
    check(
        bool(check_run(run_with(errored, engine="nope"))),
        "an error verdict fails the run",
    )
    refused = Cell(key, "naySL", 0.01, "refused", CHECK_BUDGET_S, error="HTTP 503")
    check(
        not check_run(run_with(honest, extra=[refused])),
        "a 503 refusal is admission control, not a wrong answer",
    )
    print("ok  oracle rejects tampered certificates, flipped verdicts and failed replies")


def check_bare_directory() -> None:
    """The benchmark alone, without the program, must refuse to report."""
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        HERE,
        os.path.join(bare, "e2ebench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [
            sys.executable,
            "e2ebench/run.py",
            "--workload", "grid-check",
            "--seed", "0",
            "--seconds", "1",
            "--trace", "0",
        ],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(completed.returncode != 0, "a bare directory must exit non-zero")
    check('"correct"' not in completed.stdout, "a bare directory must print no result")
    print("ok  without the program: exit code", completed.returncode)


if __name__ == "__main__":
    check_oracle()
    check_bare_directory()
    check_outputs()
    print("selftest passed")
