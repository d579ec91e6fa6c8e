"""The three workloads, each driven through the program's public API.

* ``grid-check`` — the Table 1/2 grid: every benchmark x the five engines in
  ``check`` mode, benchmark-major, in-process and single-threaded.
* ``cegis-solve`` — Alg. 2 ``solve`` through the ``staged`` strategy under a
  per-cell budget, on a 2-worker supervised fabric.
* ``serve-mixed`` — the HTTP server over a 2-worker fabric and a fresh
  result store, driven closed-loop by 2 client threads with ~70% repeats,
  beside one client that runs cegis-solve's Alg. 2 solves on a one-worker
  fabric of its own.

A workload returns a :class:`Run`: one :class:`Cell` per timed operation
plus what the correctness oracle and the per-layer report need.  Inputs
come only from the seed; the program sees only the generated requests.
"""

from __future__ import annotations

import glob
import http.client
import json
import math
import multiprocessing
import os
import random
import shutil
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import ENGINES, SpanSummary, Tracer, counter_delta, program_counters

DEFINITIVE = ("unrealizable", "realizable")

#: Per-cell budget of the grid and serve cells (the re-anchor's 10 s grid).
CHECK_BUDGET_S = 10.0

#: Per-cell budget of a CEGIS solve (Alg. 2 runs each check under a timeout).
CEGIS_BUDGET_S = 2.0

#: How long past its budget the benchmark waits for a reply before it
#: cancels the cell and counts a deadline miss.
GRACE_S = 0.5

#: About how long one grid pass (660 cells) takes on a 2-vCPU machine.
PASS_SECONDS = 20.0

#: Fabric size for the two fabric workloads, and closed-loop client count.
FABRIC_WORKERS = 2
CLIENTS = 2

#: serve-mixed's extra client, the one that submits Alg. 2 solves to a
#: fabric directly (numbered after the HTTP clients).
SERVE_CEGIS_CLIENT = CLIENTS

#: Share of serve-mixed requests that repeat an earlier definitive reply.
REPEAT_SHARE = 0.7


def worker_seconds(reply: Dict[str, Any]) -> float:
    """The time the program itself reports for a reply: the staged
    strategy's total over its legs, else the engine's elapsed time."""
    staged = (reply.get("details") or {}).get("staged")
    if isinstance(staged, dict) and "total_seconds" in staged:
        return float(staged["total_seconds"])
    return float(reply.get("elapsed_seconds") or 0.0)


@dataclass
class Cell:
    """One timed operation (a grid cell, a CEGIS cell or an HTTP request)."""

    key: str
    engine: str
    latency_s: float
    verdict: str
    budget_s: float
    #: the wire reply (None when cut, refused or malformed)
    reply: Optional[Dict[str, Any]] = None
    #: an HTTP reply's raw body, kept instead of ``reply`` while the timed
    #: loop runs so the client's own memory does not grow with every reply
    body: Optional[bytes] = None
    #: why the operation failed outright ("" when it did not)
    error: str = ""
    #: dispatch-to-reply minus the worker's own elapsed time (fabric cells)
    wait_s: float = 0.0
    store_hit: bool = False
    #: the request, for replay in the traced run
    request: Optional[Dict[str, Any]] = None

    @property
    def missed(self) -> bool:
        return self.verdict == "cut" or self.latency_s > self.budget_s + GRACE_S

    @property
    def decided(self) -> bool:
        return self.verdict in DEFINITIVE and self.latency_s <= self.budget_s


@dataclass
class Run:
    """Everything one workload run produced."""

    cells: List[Cell]
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    #: benchmark name -> (suite, problem) for the oracle
    problems: Dict[str, Any] = field(default_factory=dict)
    #: cells whose examples are the benchmark's recorded witness examples
    witness_keys: frozenset = frozenset()
    #: per-layer data (traced runs only)
    layers: Dict[str, Any] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _status_kib(pid: int, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


class RssSampler:
    """Peak of (own resident set + the fabric workers' resident sets),
    sampled every 50 ms on a daemon thread.

    Workers come and go (a cancelled cell's worker is replaced), so the sum
    is sampled rather than summing each process's own high-water mark.
    """

    def __init__(self, pids: Callable[[], List[int]]):
        self._pids = pids
        self._stop = threading.Event()
        self.peak_kib = 0
        self._thread = threading.Thread(target=self._loop, name="rss", daemon=True)

    def sample(self) -> None:
        total = _status_kib(os.getpid(), "VmRSS")
        for pid in self._pids():
            total += _status_kib(pid, "VmRSS")
        self.peak_kib = max(self.peak_kib, total)

    def _loop(self) -> None:
        while not self._stop.wait(0.05):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(5.0)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return max(self.peak_kib / 1024.0, own_peak_mb())


def own_peak_mb() -> float:
    """This process's resident-set high-water mark."""
    return _status_kib(os.getpid(), "VmHWM") / 1024.0


def suite() -> List[Any]:
    from repro.suites.registry import all_benchmarks

    return all_benchmarks()


def grid_cells(benchmarks: List[Any], rng: random.Random) -> List[Tuple[Any, str]]:
    """The 132 x 5 grid, benchmark-major like ``experiments._table_tasks``;
    the seed shuffles the benchmark order, engines keep the column order."""
    order = list(benchmarks)
    rng.shuffle(order)
    return [(benchmark, engine) for benchmark in order for engine in ENGINES]


def cell_key(benchmark: Any) -> str:
    return f"{benchmark.suite}/{benchmark.name}"


def _warm_up() -> None:
    """One tiny exact check, so lazy imports are paid during set-up."""
    from repro.api import facade
    from repro.suites import get_benchmark

    benchmark = get_benchmark("plane1", "LimitedPlus")
    facade.run_engine(
        "naySL", "check", benchmark.problem, benchmark.witness_examples, timeout=10.0
    )


def scratch_dir(root: str, name: str) -> str:
    """A fresh directory under the benchmark's scratch root in the checkout."""
    path = os.path.join(root, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# grid-check
# ---------------------------------------------------------------------------


def _grid_pass(
    cells: List[Tuple[Any, str]], examples: Dict[str, Any]
) -> Tuple[List[Tuple[Any, str, float, Any]], float]:
    """One timed pass; caches cleared first, as a fresh process would be.

    Returns (benchmark, engine, latency, response) per cell; responses are
    turned into wire form only after the pass, outside the timed region.
    """
    from repro.api import facade
    from repro.engine.cache import clear_cache
    from repro.logic.solver import clear_logic_caches

    clear_cache()
    clear_logic_caches()
    clock = time.perf_counter
    done = []
    start = clock()
    for benchmark, engine in cells:
        began = clock()
        response = facade.run_engine(
            engine,
            "check",
            benchmark.problem,
            examples[cell_key(benchmark)],
            knobs={"seed": 0},
            timeout=CHECK_BUDGET_S,
        )
        done.append((benchmark, engine, clock() - began, response))
    return done, clock() - start


def _grid_cell(benchmark: Any, engine: str, latency: float, response: Any) -> Cell:
    return Cell(
        key=cell_key(benchmark),
        engine=engine,
        latency_s=latency,
        verdict=response.verdict,
        budget_s=CHECK_BUDGET_S,
        reply=response.to_json(),
        error="engine error" if response.verdict == "error" else "",
    )


def setup_grid(_: str) -> Dict[str, Any]:
    from repro.suites.registry import benchmark_examples

    benchmarks = suite()
    examples = {cell_key(b): benchmark_examples(b) for b in benchmarks}
    _warm_up()
    return {"benchmarks": benchmarks, "examples": examples}


def run_grid(
    env: Dict[str, Any], seed: int, seconds: float, trace: bool, setup_s: float, root: str
) -> Run:
    """Whole passes over the grid: as many as ``seconds`` holds at about
    ``PASS_SECONDS`` each, and at least one.

    A pass is the complete grid, so every run measures the same cells in a
    seed-dependent order; a partial pass would make the figures depend on
    which benchmarks the cut happened to leave out.  The pass count follows
    from ``seconds`` alone, never from a measured time, so the tail
    percentile (fixed by the cell count) is the same in every run.
    """
    benchmarks, examples = env["benchmarks"], env["examples"]
    cells = grid_cells(benchmarks, random.Random(seed))
    run_cells: List[Cell] = []
    pass_walls: List[float] = []
    for _ in range(max(1, round(seconds / PASS_SECONDS))):
        done, wall = _grid_pass(cells, examples)
        pass_walls.append(wall)
        run_cells.extend(_grid_cell(*outcome) for outcome in done)
    run = Run(
        cells=run_cells,
        wall_s=sum(pass_walls),
        setup_s=setup_s,
        peak_rss_mb=own_peak_mb(),
        problems={cell_key(b): b for b in benchmarks},
        witness_keys=frozenset(
            cell_key(b) for b in benchmarks if b.witness_examples is not None
        ),
        notes={"passes": len(pass_walls), "cells_per_pass": len(cells)},
    )
    if trace:
        # Replay the first pass with every layer wrapped, in the same order
        # and from the same cleared caches, and compare walls.
        from repro.engine.cache import clear_cache

        tracer = Tracer()
        tracer.install()
        try:
            # The pass clears the caches again; clearing first makes their
            # hit/miss counts start at zero here too.
            clear_cache()
            before = program_counters()
            traced, traced_wall = _grid_pass(cells, examples)
            counters = counter_delta(before, program_counters())
        finally:
            tracer.uninstall()
        traced_cells = [_grid_cell(*outcome) for outcome in traced]
        tracer.write(os.path.join(root, "spans-grid-check.jsonl"))
        run.layers = {
            "summary": tracer.summary(),
            "counts": dict(tracer.counts),
            "counters": counters,
            "replies": [cell.reply for cell in traced_cells],
            "engine_cells": traced_cells,
            "overhead_share": traced_wall / pass_walls[0] - 1.0,
        }
    return run


# ---------------------------------------------------------------------------
# cegis-solve
# ---------------------------------------------------------------------------


def cegis_draw(benchmarks: List[Any], seed: int, draw: int) -> List[Any]:
    """A seeded draw: every second benchmark of the suite, in seeded order.

    The benchmarks are sorted by suite and name, so families sit together
    and each half takes one of every neighbouring pair: the two halves have
    the same mix of families and of hard cells.  The seed picks the half
    (later draws in one run alternate) and the order.  A run measures whole
    draws, so its figures do not depend on where a time limit cut the draw.
    """
    ordered = sorted(benchmarks, key=lambda b: (b.suite, b.name))
    half = ordered[(seed + draw) % 2 :: 2]
    random.Random(seed * 7919 + draw).shuffle(half)
    return half


def solve_sequence(benchmarks: List[Any], seed: int) -> List[Any]:
    """serve-mixed's Alg. 2 solves: the whole suite, sorted by suite and
    name, walked from a seeded start with a stride of 5.

    The stride is prime to the suite size, so a lap visits every benchmark
    once; and the solves a run gets through (~30 in 45 s) are spread over
    the whole sorted suite, so every run meets the families in about the
    same proportions, the hard ones (about half overrun the 2 s budget)
    included.
    """
    ordered = sorted(benchmarks, key=lambda b: (b.suite, b.name))
    count = len(ordered)
    stride = next(step for step in range(5, count) if math.gcd(step, count) == 1)
    start = random.Random(seed).randrange(count)
    return [ordered[(start + index * stride) % count] for index in range(count)]


def start_fabric(workers: int, name: str) -> Any:
    """A supervised fabric whose workers have all finished warming up."""
    from repro.api.wire import SolveRequest
    from repro.engine.supervisor import Supervisor

    supervisor = Supervisor(workers, warm=True, name=name)
    # One tiny request per worker, concurrently, so every worker has
    # finished its own warm-up before the first timed cell.  The problem is
    # from the scaling suite, outside the drawn population, so it leaves
    # nothing in a store that a timed cell could hit.
    warm = SolveRequest(
        kind="check", engine="naySL", benchmark="chain_3", suite="Scaling", example_count=1
    )
    supervisor.map([warm] * workers)
    return supervisor


def setup_fabric(store_dir: Optional[str]) -> Dict[str, Any]:
    if store_dir is not None:
        from repro.engine.store import STORE_ENV

        # Exported before the fabric spawns so the workers open the same
        # file, exactly as ``repro-nay serve --store`` does.
        os.environ[STORE_ENV] = os.path.join(store_dir, "store.sqlite")
    benchmarks = suite()
    _warm_up()
    return {"benchmarks": benchmarks, "supervisor": start_fabric(FABRIC_WORKERS, "bench")}


def setup_cegis(root: str) -> Dict[str, Any]:
    return setup_fabric(None)


def cegis_cell(supervisor: Any, benchmark: Any, seed: int) -> Cell:
    """One Alg. 2 ``solve`` through the staged strategy on the fabric,
    waited for up to budget + grace and cancelled (a deadline miss) after.

    ``seed`` drives the CEGIS loop's random examples.
    """
    from repro.api.wire import SolveRequest
    from repro.engine.supervisor import FabricTimeoutError, WorkerCrashError

    request = SolveRequest(
        kind="solve",
        engine="staged",
        benchmark=benchmark.name,
        suite=benchmark.suite,
        timeout_seconds=CEGIS_BUDGET_S,
        seed=seed,
    )
    began = time.perf_counter()
    cell = Cell(
        key=cell_key(benchmark),
        engine="staged",
        latency_s=0.0,
        verdict="cut",
        budget_s=CEGIS_BUDGET_S,
        request=request.to_json(),
    )
    try:
        job = supervisor.submit(request)
        # The job's own clock starts at dispatch: it gets its whole budget
        # plus grace on a worker, however long checkout took.
        response = supervisor.harvest(job, timeout=CEGIS_BUDGET_S + GRACE_S)
    except FabricTimeoutError:
        supervisor.cancel(job)
        cell.latency_s = time.perf_counter() - began
        return cell
    except WorkerCrashError as error:
        cell.latency_s = time.perf_counter() - began
        cell.verdict = "error"
        cell.error = f"crashed worker: {error}"
        return cell
    cell.latency_s = time.perf_counter() - began
    cell.verdict = response.verdict
    cell.reply = response.to_json()
    cell.wait_s = max(0.0, cell.latency_s - worker_seconds(cell.reply))
    if response.verdict == "error":
        cell.error = "engine error"
    return cell


def _closed_loop(
    clients: int,
    step: Callable[[int, int], Optional[Cell]],
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> Tuple[List[Cell], float]:
    """Run ``step(client, index)`` on ``clients`` threads, each client
    waiting for its reply before its next step, until ``seconds`` have
    elapsed or ``count`` steps have been taken.  A client whose step
    returns None stops there."""
    cells: List[Cell] = []
    lock = threading.Lock()
    counter = [0]
    start = time.perf_counter()
    deadline = float("inf") if seconds is None else start + seconds
    failures: List[BaseException] = []

    def client(number: int) -> None:
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index = counter[0]
                    counter[0] += 1
                if count is not None and index >= count:
                    return
                cell = step(number, index)
                if cell is None:
                    return
                with lock:
                    cells.append(cell)
        except BaseException as error:  # noqa: BLE001 — re-raised in the parent
            failures.append(error)

    threads = [
        threading.Thread(target=client, args=(number,), name=f"client-{number}")
        for number in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return cells, time.perf_counter() - start


def run_cegis(
    env: Dict[str, Any], seed: int, seconds: float, trace: bool, setup_s: float, root: str
) -> Run:
    supervisor = env["supervisor"]
    benchmarks = env["benchmarks"]
    stats_before = supervisor.stats.snapshot()
    tracer = _parent_tracer(trace)
    draw: List[Any] = []
    cegis_seed = [seed]

    def step(_: int, index: int) -> Cell:
        return cegis_cell(supervisor, draw[index], cegis_seed[0])

    cells: List[Cell] = []
    wall = 0.0
    draws = 0
    with RssSampler(supervisor.worker_pids) as rss:
        while not draws or wall < seconds:
            draw[:] = cegis_draw(benchmarks, seed, draws)
            # the run seed drives the CEGIS loop's random examples; a later
            # draw asks with another one
            cegis_seed[0] = seed + draws
            done, draw_wall = _closed_loop(CLIENTS, step, count=len(draw))
            cells.extend(done)
            wall += draw_wall
            draws += 1
    stats = counter_delta(stats_before, supervisor.stats.snapshot())
    run = Run(
        cells=cells,
        wall_s=wall,
        setup_s=setup_s,
        peak_rss_mb=rss.peak_mb,
        problems={cell_key(b): b for b in benchmarks},
        notes={"fabric": stats, "draws": draws, "cells_per_draw": len(draw)},
    )
    if trace:
        tracer.uninstall()
        run.layers = _replay_layers(
            "cegis-solve", cells, seconds, CEGIS_BUDGET_S, root, tracer, stats, None
        )
    return run


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


def setup_serve(root: str) -> Dict[str, Any]:
    from repro.api.facade import Solver
    from repro.api.service import make_server
    from repro.engine.store import ResultStore, install_result_store
    from repro.engine.supervisor import install_fabric
    from repro.suites.registry import benchmark_examples

    store_dir = scratch_dir(root, f"store-{os.getpid()}")
    env = setup_fabric(store_dir)
    # The Alg. 2 client's own one-worker fabric, so that its solves, and
    # the worker replaced after every cut, never hold up an HTTP miss.
    env["solve_fabric"] = start_fabric(1, "bench-solve")
    install_result_store(ResultStore(os.path.join(store_dir, "store.sqlite")))
    install_fabric(env["supervisor"])
    server = make_server("127.0.0.1", 0, Solver())
    thread = threading.Thread(target=server.serve_forever, name="server", daemon=True)
    thread.start()
    env.update(
        server=server,
        server_thread=thread,
        store_dir=store_dir,
        examples={
            cell_key(b): [dict(e) for e in benchmark_examples(b).as_dicts()]
            for b in env["benchmarks"]
        },
    )
    return env


def post_json(
    address: Tuple[str, int], payload: Dict[str, Any]
) -> Tuple[int, bytes, int]:
    """One ``POST /solve``; returns (status, body, request bytes)."""
    body = json.dumps(payload).encode("utf-8")
    connection = http.client.HTTPConnection(address[0], address[1], timeout=60)
    try:
        connection.request(
            "POST", "/solve", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read(), len(body)
    finally:
        connection.close()


def run_serve(
    env: Dict[str, Any], seed: int, seconds: float, trace: bool, setup_s: float, root: str
) -> Run:
    from repro.api.wire import SolveRequest, SolveResponse

    supervisor = env["supervisor"]
    solve_fabric = env["solve_fabric"]
    server = env["server"]
    address = server.server_address[:2]
    benchmarks = env["benchmarks"]
    examples = env["examples"]
    fresh_cells = grid_cells(benchmarks, random.Random(seed))
    fresh_cursor = [0]
    solve_order = solve_sequence(benchmarks, seed)
    solve_cursor = [0]
    # Replies already received with a definitive verdict: only those are in
    # the store, so only those can be repeated as store reads.
    repeatable: List[Dict[str, Any]] = []
    # One copy of each distinct reply body: a store hit replays the same
    # bytes every time.
    bodies: Dict[bytes, bytes] = {}
    lock = threading.Lock()
    rngs = [random.Random(seed * 1000 + number) for number in range(CLIENTS)]
    wire_bytes = [0]
    fabrics = (supervisor, solve_fabric)
    stats_before = [fabric.stats.snapshot() for fabric in fabrics]
    tracer = _parent_tracer(trace)

    def next_request(client: int) -> Tuple[Dict[str, Any], bool]:
        rng = rngs[client]
        wants_repeat = rng.random() < REPEAT_SHARE
        pick = rng.random()
        with lock:
            if wants_repeat and repeatable:
                return repeatable[int(pick * len(repeatable))], True
            position = fresh_cursor[0]
            fresh_cursor[0] += 1
        benchmark, engine = fresh_cells[position % len(fresh_cells)]
        request = SolveRequest(
            kind="check",
            engine=engine,
            benchmark=benchmark.name,
            suite=benchmark.suite,
            examples=examples[cell_key(benchmark)],
            timeout_seconds=CHECK_BUDGET_S,
            # a second lap over the grid asks with another seed, so it is
            # fresh to the store rather than a repeat
            seed=position // len(fresh_cells),
        )
        return request.to_json(), False

    def step(client: int, _: int) -> Optional[Cell]:
        if client == SERVE_CEGIS_CLIENT:
            # No solve starts that could outlive the run: a cut one would
            # hold the run open up to budget + grace after the others end.
            if time.perf_counter() > last_solve_start:
                return None
            benchmark = solve_order[solve_cursor[0] % len(solve_order)]
            solve_cursor[0] += 1
            return cegis_cell(solve_fabric, benchmark, seed)
        payload, repeat = next_request(client)
        began = time.perf_counter()
        try:
            status, body, sent = post_json(address, payload)
        except (OSError, http.client.HTTPException) as error:
            return Cell(
                key=f"{payload['suite']}/{payload['benchmark']}",
                engine=payload["engine"],
                latency_s=time.perf_counter() - began,
                verdict="error",
                budget_s=CHECK_BUDGET_S,
                error=f"transport: {error}",
                request=payload,
            )
        latency = time.perf_counter() - began
        cell = Cell(
            key=f"{payload['suite']}/{payload['benchmark']}",
            engine=payload["engine"],
            latency_s=latency,
            verdict="error",
            budget_s=CHECK_BUDGET_S,
            request=payload,
        )
        with lock:
            wire_bytes[0] += sent + len(body)
        if status != 200:
            cell.error = f"HTTP {status}"
            cell.verdict = "refused" if status == 503 else "error"
            return cell
        try:
            reply = json.loads(body)
            SolveResponse.from_json(reply)
        except Exception as error:  # noqa: BLE001 — any parse failure is one
            cell.error = f"malformed reply: {error}"
            return cell
        with lock:
            cell.body = bodies.setdefault(body, body)
        cell.verdict = reply["verdict"]
        # Only a repeat can be an HTTP-tier hit; a first request may still
        # carry the marker from the workers' engine-tier store.
        marked = bool((reply.get("solver_stats") or {}).get("store_hits"))
        cell.store_hit = repeat and marked
        if cell.verdict == "error":
            cell.error = "engine error"
        if not cell.store_hit:
            cell.wait_s = max(0.0, latency - worker_seconds(reply))
        if not repeat and cell.verdict in DEFINITIVE:
            with lock:
                repeatable.append(payload)
        return cell

    def worker_pids() -> List[int]:
        return [pid for fabric in fabrics for pid in fabric.worker_pids()]

    with RssSampler(worker_pids) as rss:
        last_solve_start = time.perf_counter() + seconds - (CEGIS_BUDGET_S + GRACE_S)
        cells, wall = _closed_loop(CLIENTS + 1, step, seconds=seconds)
    peak_rss_mb = rss.peak_mb
    parsed: Dict[bytes, Dict[str, Any]] = {}
    for cell in cells:
        if cell.body is not None:
            if cell.body not in parsed:
                parsed[cell.body] = json.loads(cell.body)
            cell.reply, cell.body = parsed[cell.body], None
    stats: Dict[str, int] = {}
    for fabric, before in zip(fabrics, stats_before):
        for key, value in counter_delta(before, fabric.stats.snapshot()).items():
            stats[key] = stats.get(key, 0) + value
    run = Run(
        cells=cells,
        wall_s=wall,
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb,
        problems={cell_key(b): b for b in benchmarks},
        witness_keys=frozenset(
            cell_key(b) for b in benchmarks if b.witness_examples is not None
        ),
        notes={
            "fabric": stats,
            "wire_bytes": wire_bytes[0],
            "solves": solve_cursor[0],
        },
    )
    if trace:
        tracer.uninstall()
        # Every cell a worker ran: HTTP misses and the Alg. 2 solves,
        # those cut at their deadline included.
        misses = [
            cell
            for cell in cells
            if not cell.store_hit and (cell.reply is not None or cell.verdict == "cut")
        ]
        run.layers = _replay_layers(
            "serve-mixed",
            misses,
            seconds,
            CHECK_BUDGET_S,
            root,
            tracer,
            stats,
            scratch_dir(root, f"replay-store-{os.getpid()}"),
        )
        run.layers["wire_bytes"] = wire_bytes[0]
    return run


def teardown(env: Dict[str, Any]) -> None:
    """Stop the server and the fabric and remove the scratch store."""
    from repro.engine.store import install_result_store
    from repro.engine.supervisor import install_fabric

    server = env.get("server")
    if server is not None:
        server.shutdown()
        server.server_close()
        env["server_thread"].join(10.0)
    supervisor = env.get("supervisor")
    if supervisor is not None:
        install_fabric(None)
        supervisor.shutdown()
    if env.get("solve_fabric") is not None:
        env["solve_fabric"].shutdown()
    store = install_result_store(None)
    if store is not None:
        store.close()
    if env.get("store_dir"):
        shutil.rmtree(env["store_dir"], ignore_errors=True)


def _child_pids() -> List[int]:
    pids: List[int] = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path, encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            pass
    return pids


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Starting a process with multiprocessing's ``spawn`` method (the fabric
    replaces a cut worker that way, and the traced replay runs in spawned
    children) also starts a resource-tracker helper, which otherwise exits
    only after this process has.  Closing this process's end of its pipe
    lets it exit now.  A child still running after ``grace_s`` is sent
    SIGTERM, then SIGKILL; every child is reaped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    waiting = set(_child_pids())
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        if getattr(tracker, "_pid", None) is not None:
            waiting.add(tracker._pid)
            tracker._pid = None
    for signum in (None, signal.SIGTERM, signal.SIGKILL):
        for pid in waiting if signum is not None else ():
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while waiting and time.monotonic() < deadline:
            for pid in list(waiting):
                try:
                    ended = os.waitpid(pid, os.WNOHANG)[0] == pid
                except ChildProcessError:
                    ended = True
                if ended:
                    waiting.discard(pid)
            if waiting:
                time.sleep(0.01)
        if not waiting:
            return


# ---------------------------------------------------------------------------
# Traced replay of fabric work in one process
# ---------------------------------------------------------------------------

#: The parent-side layers of the fabric workloads: they run in the
#: benchmark process itself, so their spans are taken during the live run.
PARENT_ENTRY_PREFIXES = ("api.service", "api.wire", "engine.supervisor", "engine.store")


def _parent_tracer(trace: bool) -> Optional[Tracer]:
    if not trace:
        return None
    from layers import ENTRY_POINTS

    tracer = Tracer()
    tracer.install(
        entry for entry in ENTRY_POINTS if entry[0].startswith(PARENT_ENTRY_PREFIXES)
    )
    return tracer


class CellCut(BaseException):
    """Raised by the replay's alarm when a cell runs past budget + grace.

    A ``BaseException`` so that the program's ``except Exception`` handlers
    (which turn errors into ``error`` replies) let it through.
    """


def _on_alarm(signum, frame):  # noqa: ARG001 — signal handler signature
    raise CellCut()


def replay_child(
    conn,
    requests: List[Dict[str, Any]],
    seconds: float,
    budget: float,
    store_path: Optional[str],
    spans_path: Optional[str],
) -> None:
    """Replay fabric cells in this one process, traced when ``spans_path``
    is given, for at most ``seconds``.

    Runs in a spawned child so that a cell cut by the alarm cannot leave
    half-updated caches behind in the benchmark process.
    """
    from repro.api import facade
    from repro.api.wire import SolveRequest

    if store_path is not None:
        from repro.engine.store import ResultStore, install_result_store

        install_result_store(ResultStore(store_path))
    _warm_up()
    tracer = Tracer() if spans_path is not None else None
    if tracer is not None:
        tracer.install()
    before = program_counters()
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    deadline = time.perf_counter() + seconds
    try:
        for payload in requests:
            if time.perf_counter() >= deadline:
                break
            began = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, budget + GRACE_S)
            try:
                try:
                    response = facade.execute_request(SolveRequest.from_json(payload))
                    outcome = (response.verdict, response.iterations, response.engine)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except CellCut:  # also when the alarm lands as it is disarmed
                outcome = ("cut", 0, payload["engine"])
            # (verdict, seconds, iterations, engine, kind)
            results.append(
                (outcome[0], time.perf_counter() - began, *outcome[1:], payload["kind"])
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    report: Dict[str, Any] = {"results": results}
    if tracer is not None:
        report.update(
            summary=tracer.summary().to_json(),
            counts=dict(tracer.counts),
            counters=counter_delta(before, program_counters()),
        )
        tracer.write(spans_path)
    conn.send(report)
    conn.close()


def _replay(
    requests: List[Dict[str, Any]],
    seconds: float,
    budget: float,
    store_dir: Optional[str],
    spans_path: Optional[str],
) -> Dict[str, Any]:
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    store_path = None
    if store_dir is not None:
        store_path = os.path.join(store_dir, f"replay-{bool(spans_path)}.sqlite")
    child = context.Process(
        target=replay_child,
        args=(sender, requests, seconds, budget, store_path, spans_path),
        name="replay",
    )
    child.start()
    sender.close()
    limit = seconds + 2 * (budget + GRACE_S) + 60.0
    report = receiver.recv() if receiver.poll(limit) else None
    child.join(10.0)
    if child.is_alive():
        child.kill()
        child.join(5.0)
    if report is None:
        raise RuntimeError("a replay child did not report back")
    return report


def _replay_layers(
    workload: str,
    cells: List[Cell],
    seconds: float,
    budget: float,
    root: str,
    parent_tracer: Tracer,
    fabric_stats: Dict[str, int],
    store_dir: Optional[str],
) -> Dict[str, Any]:
    """Merge the live run's parent-side spans with a traced one-process
    replay of the same cells (the work that ran inside the fabric workers).

    The replay also runs untraced, in another fresh process, so the tracing
    overhead compares the same cells in the same mode.
    """
    requests = [cell.request for cell in cells if cell.request is not None]
    # Each replay gets half the run's length, so a traced run costs about
    # twice an untraced one.
    plain = _replay(requests, seconds / 2, budget, store_dir, None)
    traced = _replay(
        requests,
        seconds / 2,
        budget,
        store_dir,
        os.path.join(root, f"spans-{workload}-replay.jsonl"),
    )
    if store_dir is not None:
        shutil.rmtree(store_dir, ignore_errors=True)
    parent_tracer.write(os.path.join(root, f"spans-{workload}-parent.jsonl"))
    summary = parent_tracer.summary()
    summary.merge(SpanSummary.from_json(traced["summary"]))
    untraced_s, traced_s = 0.0, 0.0
    for before, after in zip(plain["results"], traced["results"]):
        if before[0] != "cut" and after[0] != "cut":
            untraced_s += before[1]
            traced_s += after[1]
    counts = dict(parent_tracer.counts)
    for key, value in traced["counts"].items():
        counts[key] = counts.get(key, 0) + value
    return {
        "summary": summary,
        "counts": counts,
        "counters": traced["counters"],
        "replay_results": traced["results"],
        "fabric": fabric_stats,
        "overhead_share": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    }


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "grid-check": (setup_grid, run_grid),
    "cegis-solve": (setup_cegis, run_cegis),
    "serve-mixed": (setup_serve, run_serve),
}
