"""Persistence and comparison of experiment results.

Every experiment run can append its rows to a JSONL file under a results
directory (one file per experiment, one JSON object per row), so benchmark
trajectories are reproducible and later runs can be diffed against earlier
ones instead of re-running everything.

Rows carry two kinds of fields:

* **stable** fields — suite, benchmark, tool, verdict, example counts —
  which are deterministic for a fixed request list (``Solver.solve_batch``
  returns the same rows for ``workers=1`` and ``workers=N``);
* **timing** fields — anything measured with a wall clock — which vary
  between runs and machines.

:func:`stable_view` strips the timing fields, and :func:`render_stable` /
:func:`stable_fingerprint` build byte-identical tables/digests from what is
left; the determinism tests compare those.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Field names whose values are wall-clock measurements (never deterministic).
TIMING_FIELDS = frozenset(
    {
        "seconds",
        "stratified_seconds",
        "unstratified_seconds",
        "speedup",
        "gfa_seconds",
        "elapsed_seconds",
        "timestamp",
    }
)


def stable_view(row: Dict[str, object]) -> Dict[str, object]:
    """The row without its timing fields, keys sorted for canonical order."""
    return {
        key: row[key] for key in sorted(row) if key not in TIMING_FIELDS
    }


def stable_fingerprint(rows: Sequence[Dict[str, object]]) -> str:
    """SHA-256 digest of the stable fields of a row sequence (order matters)."""
    canonical = json.dumps(
        [stable_view(row) for row in rows], sort_keys=True, default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Tag keys that change *what is being solved* and therefore belong in a
#: request fingerprint.  Everything else on the tag mapping is operational
#: metadata — fault-injection plans (``"faults"``), future diagnostics —
#: that must not split dedup/cache keys: a chaos-tagged request and its
#: clean twin ask the same mathematical question.  The persistent result
#: store separately refuses to read or record fault-injected runs
#: (:mod:`repro.engine.store`), so excluding ``"faults"`` here can never
#: let a poisoned response leak to a clean caller.
SEMANTIC_TAGS = frozenset({"prune"})


def request_fingerprint(payload: Dict[str, object]) -> str:
    """SHA-256 digest of a wire-request payload, canonical-JSON keyed.

    The serve endpoint's in-flight dedup key and the persistent result
    store's request-tier key: two requests share a fingerprint exactly when
    they agree on every *semantic* field — engine, problem source, budgets,
    seed, and the :data:`SEMANTIC_TAGS` subset of the tag mapping.
    Non-semantic tags are dropped before hashing, so a fault-tagged request
    dedups against its clean twin instead of forcing a redundant solve.
    The ``tags`` entry is normalized (absent == empty == all-non-semantic),
    so a payload without the key and one with vacuous tags agree too.
    """
    tags = payload.get("tags")
    payload = {
        **payload,
        "tags": {
            key: value
            for key, value in (tags.items() if isinstance(tags, dict) else ())
            if key in SEMANTIC_TAGS
        },
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def render_stable(rows: Sequence[Dict[str, object]]) -> str:
    """A canonical text rendering of the stable fields (for diffing runs)."""
    lines = []
    for row in rows:
        view = stable_view(row)
        lines.append("  ".join(f"{key}={view[key]}" for key in view))
    return "\n".join(lines)


class ResultsStore:
    """Append-only JSONL persistence of experiment rows under a directory."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)

    def path_for(self, experiment: str) -> Path:
        return self.directory / f"{experiment}.jsonl"

    def append(
        self,
        experiment: str,
        rows: Iterable[Dict[str, object]],
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Append one run (all its rows) to the experiment's JSONL file."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(experiment)
        stamp = time.time()
        with path.open("a", encoding="utf-8") as handle:
            for index, row in enumerate(rows):
                record = {
                    "experiment": experiment,
                    "row_index": index,
                    "timestamp": round(stamp, 3),
                    **(meta or {}),
                    **row,
                }
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        return path

    def load(self, experiment: str) -> List[Dict[str, object]]:
        """All persisted rows of an experiment, in file order."""
        path = self.path_for(experiment)
        if not path.exists():
            return []
        rows: List[Dict[str, object]] = []
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
        return rows

    def latest_run(self, experiment: str) -> List[Dict[str, object]]:
        """The rows of the most recent run (grouped by identical timestamp)."""
        rows = self.load(experiment)
        if not rows:
            return []
        last_stamp = rows[-1].get("timestamp")
        return [row for row in rows if row.get("timestamp") == last_stamp]

    def diff_latest(
        self, experiment: str, rows: Sequence[Dict[str, object]]
    ) -> List[Tuple[Dict[str, object], Dict[str, object]]]:
        """Stable-field differences between ``rows`` and the last persisted run.

        Returns ``(previous, current)`` pairs for rows whose stable view
        changed (matched positionally); used to flag verdict regressions
        between benchmark trajectories.
        """
        previous = self.latest_run(experiment)
        changed = []
        for old, new in zip(previous, rows):
            old_view, new_view = stable_view(old), stable_view(dict(new))
            shared = set(old_view) & set(new_view)
            if any(old_view[key] != new_view[key] for key in shared):
                changed.append((old, dict(new)))
        return changed
