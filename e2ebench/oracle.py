"""The correctness oracle, run after the timed region.

Every check marks the cells it rejects (``cell.error``), so a failure both
fails the run and counts in ``failed_share``:

* no operation failed outright: an ``error`` verdict, a malformed or
  non-200 reply (503 refusals aside: they are admission control, counted
  in ``failed_share`` only), a transport failure or a crashed worker all
  fail the run.  Cells cut at their deadline are not wrong answers;
* every ``unrealizable`` reply's certificate is accepted by the independent
  checker :func:`repro.analysis.certcheck.check_certificate`.  A reply that
  carries none (the CLIA builder gives up when its coarse re-solve cannot
  refute the examples) is verified the way ``Solver.verify`` falls back:
  the exact naySL check must say ``unrealizable`` on its witness examples.
  Such replies are counted in ``uncertified``;
* ``naySL`` says ``unrealizable`` on every cell that runs on a benchmark's
  recorded witness examples;
* no engine says ``realizable`` on a cell that another engine proved
  ``unrealizable`` with an accepted certificate;
* an Alg. 2 ``solve`` never says ``realizable``: every suite benchmark is
  unrealizable;
* every store hit equals the first miss reply for the same request, once
  the store's provenance markers are stripped.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from workloads import Cell, Run


def _digest(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def check_run(run: Run) -> List[str]:
    """Run every applicable check; returns the failure messages."""
    from repro.analysis.certcheck import check_certificate
    from repro.api.facade import Solver
    from repro.api.wire import SolveResponse
    from repro.engine.store import pristine_response

    failures: List[str] = []

    def fail(cell: Cell, message: str) -> None:
        if not cell.error:
            cell.error = f"oracle: {message}"
        failures.append(f"{cell.key} [{cell.engine}]: {message}")

    for cell in run.cells:
        if cell.verdict == "error" or (cell.error and cell.verdict != "refused"):
            fail(cell, cell.error or "error verdict")

    verdicts: Dict[Tuple[str, str], Dict[str, List[Cell]]] = {}
    certified: Dict[Tuple[str, str], bool] = {}
    checked: Dict[Tuple[str, str], Optional[str]] = {}
    for cell in run.cells:
        reply = cell.reply
        if reply is None:
            continue
        scope = (cell.key, _digest((cell.request or {}).get("examples")))
        verdicts.setdefault(scope, {}).setdefault(cell.verdict, []).append(cell)
        if cell.verdict != "unrealizable":
            continue
        certificate = reply.get("certificate")
        benchmark = run.problems[cell.key]
        if certificate is None:
            key = (cell.key, _digest(reply.get("witness_examples")))
            if key not in checked:
                run.notes["uncertified"] = run.notes.get("uncertified", 0) + 1
                response = SolveResponse.from_json(reply)
                verified = Solver().verify(response, benchmark)
                checked[key] = None if verified else "exact re-check disagrees"
            if checked[key] is not None:
                fail(cell, f"uncertified verdict rejected: {checked[key]}")
            continue
        key = (cell.key, _digest(certificate))
        if key not in checked:
            outcome = check_certificate(benchmark.problem, certificate)
            checked[key] = None if outcome else (outcome.reason or "rejected")
        if checked[key] is not None:
            fail(cell, f"certificate rejected: {checked[key]}")
        else:
            certified[scope] = True

    for cell in run.cells:
        if (
            cell.engine == "naySL"
            and cell.key in run.witness_keys
            and cell.reply is not None
            and cell.verdict != "unrealizable"
        ):
            fail(cell, f"naySL said {cell.verdict} on witness examples")
        if (cell.request or {}).get("kind") == "solve" and cell.verdict == "realizable":
            fail(cell, "CEGIS said realizable on an unrealizable benchmark")

    for scope, by_verdict in verdicts.items():
        if certified.get(scope) and "realizable" in by_verdict:
            for cell in by_verdict["realizable"]:
                fail(cell, "realizable where another engine certified unrealizable")

    first_reply: Dict[str, str] = {}
    for cell in run.cells:
        if cell.reply is not None and not cell.store_hit:
            first_reply.setdefault(
                _digest(cell.request), _digest(pristine_response(cell.reply))
            )
    for cell in run.cells:
        if cell.reply is None or not cell.store_hit:
            continue
        if _digest(pristine_response(cell.reply)) != first_reply.get(
            _digest(cell.request)
        ):
            fail(cell, "store hit differs from the first miss reply")
    return failures
