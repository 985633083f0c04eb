"""Per-layer spans and counters, installed from outside the program.

:func:`install` wraps public names of ``minimaxsm`` where their callers look
them up (``cli`` holds its own imported names; ``exact_min_super_bp`` finds
``super_stable_solve`` in ``minimaxsm.solvers``).  A span's self time is its
duration minus the time its child spans cover; self times are summed per
layer.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter

# (module, attribute path, layer, counter, metrics fed).  A layer of None
# records no span, only the counter.  Counters count calls, except that
# ``solvers.subsets_tried`` counts only calls made by the subset search and
# ``core.super_bps`` adds up the super-BPs of the reports built.
WRAPS = [
    ("cli", "main", "cli", None, ["cli.overhead_ms"]),
    ("files", "load_instance", "files.parse", None, ["files.parse_ms"]),
    ("files", "load_matching", "files.parse", None, ["files.parse_ms"]),
    ("files", "report_to_dict", "files.serialize", None, ["files.serialize_ms"]),
    ("files", "write_json", "files.serialize", None, ["files.serialize_ms"]),
    ("core", "Instance.__init__", "core.instance_build", "core.instance_builds",
     ["core.instance_build_ms", "core.instance_builds"]),
    ("solvers", "SolveReport.build", "core.certify", "core.super_bps",
     ["core.certify_ms", "core.super_bps"]),
    ("core", "super_blocking_pairs", "core.certify", "core.pair_scans",
     ["core.certify_ms", "core.pair_scans"]),
    ("solvers", "super_blocking_pairs", "core.certify", "core.pair_scans",
     ["core.certify_ms", "core.pair_scans"]),
    ("solvers", "obvious_blocking_pairs", "core.certify", "core.pair_scans",
     ["core.certify_ms", "core.pair_scans"]),
    ("core", "Completion.blocking_pairs", "core.certify", "core.pair_scans",
     ["core.certify_ms", "core.pair_scans"]),
    ("solvers", "build_witness_completion", "core.witness", None, ["core.witness_ms"]),
    ("cli", "gale_shapley_completion", "solvers", None, ["solvers.self_ms"]),
    ("cli", "exact_min_super_bp", "solvers", None, ["solvers.self_ms"]),
    ("cli", "min_delete_approx", "solvers", None, ["solvers.self_ms"]),
    ("solvers", "super_stable_solve", "solvers", "solvers.subsets_tried",
     ["solvers.self_ms", "solvers.subsets_tried"]),
    ("solvers", "propose_with", "solvers", "solvers.proposal_passes",
     ["solvers.self_ms", "solvers.proposal_passes"]),
    ("solvers", "find_exposed_rotation", "solvers", None, ["solvers.self_ms"]),
    ("solvers", "eliminate_rotation", None, "solvers.rotations", ["solvers.rotations"]),
    ("solvers", "WorkingInstance.delete", None, "solvers.deletions",
     ["solvers.deletions"]),
    ("cli", "max_bp_over_completions", "oracles.minimax", None, ["oracles.minimax_ms"]),
]

# Time metric -> layer whose self time it reports.
LAYER_MS = {
    "files.parse_ms": "files.parse",
    "files.serialize_ms": "files.serialize",
    "core.instance_build_ms": "core.instance_build",
    "core.certify_ms": "core.certify",
    "core.witness_ms": "core.witness",
    "solvers.self_ms": "solvers",
    "oracles.minimax_ms": "oracles.minimax",
    "cli.overhead_ms": "cli",
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, name, start_ns, child_ns, span_id]
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.request = 0
        self.absent: set[str] = set()
        self._ids = itertools.count(1)
        self._restore: list = []

    def _span(self, layer: str | None, counter: str | None, fn):
        name = fn.__name__
        stack, clock, counts = self.stack, time.perf_counter_ns, self.counts

        if layer is None:
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self.request += 1
            if counter == "solvers.subsets_tried":
                if parent is not None and parent[1] == "exact_min_super_bp":
                    counts[counter] += 1
            elif counter is not None and counter != "core.super_bps":
                counts[counter] += 1
            frame = [layer, name, clock(), 0, next(self._ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.self_ns[layer] += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                self.spans.append((self.request, frame[4],
                                   parent[4] if parent else 0, layer, name,
                                   frame[2], end))
            if counter == "core.super_bps":
                counts[counter] += len(result.super_blocking_pairs)
            return result
        return functools.wraps(fn)(spanned)

    def install(self, package) -> None:
        """Wrap every name in :data:`WRAPS` that ``package`` still has; the
        metrics fed by a missing name are recorded as absent."""
        for module_name, path, layer, counter, metrics in WRAPS:
            owner = getattr(package, module_name, None)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent.update(metrics)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(layer, counter, raw.__func__))
            else:
                wrapped = self._span(layer, counter, raw)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON line per span: request, id, parent id, layer, function,
        start and end in ns."""
        keys = ("request", "id", "parent", "layer", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
