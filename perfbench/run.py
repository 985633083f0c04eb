"""File-to-report benchmark of the ``minimaxsm`` command line.

    python3 perfbench/run.py --workload bulk-gs --seed 1 --seconds 30 --trace 0

One client calls ``minimaxsm.cli.main`` in this process in a closed loop,
with no think time: each request starts after the previous one has been
timed and its report checked.  A request is timed from ``cli.main`` entry
until its report is written; every report goes to a fresh path.  Checks are
not timed.  With ``--trace 1`` each request runs twice, untraced then traced
with the wrappers of :mod:`tracer`, and per-layer metrics are printed
instead of end-to-end ones.  The last line of output is one JSON object;
the lines before it repeat every metric for people, with the digests of the
input and report files and where those files lived.

Run it from the root of a checkout: the program is imported from ``src``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import markets  # noqa: E402
from check import check_oracle, check_solve  # noqa: E402
from tracer import LAYER_MS, Tracer  # noqa: E402

ROOT = HERE.parent
SETUP_REPEATS = 3
BULK_N = 200
BULK_BLOCKS = 3          # blocks of three random markets and one cascade
RANDOM_TIE_PROBS = (0.25, 0.5, 0.75)
DESK_BLOCKS = 24
TRACE_SLOTS = {"bulk-gs": 12, "bulk-algo1": 12, "desk-crosscheck": 60}

# Desk-crosscheck repeats a block of twenty market shapes DESK_BLOCKS
# times.  Each entry is (n, per-agent tier sizes, depth band): the tier
# sizes fix the completion count, hence the oracle's work, and the band
# bounds how many candidate sets the paper's subset search tries before it
# succeeds (see markets.min_super_bp), hence the exact solver's work.  Seeds
# vary everything else: which agent gets which shape, the order of the tiers
# and who sits in each; draws outside the band are rejected and counted.
_L4 = ((2, 1, 1),) * 4 + ((2, 2),) * 2 + ((1, 1, 1, 1),) * 2          # 256
_M5 = ((2, 2, 1),) * 3 + ((3, 1, 1),) + ((2, 1, 1, 1),) * 4 + ((1,) * 5,) * 2  # 6144
_M4 = ((2, 2),) * 3 + ((3, 1),) * 2 + ((2, 1, 1),) * 3          # 18432
_H4 = ((3, 1),) * 4 + ((2, 2),) * 4                             # 331776
# Solve costs fall into four groups: seven cheap searches, six of depth 9-15
# (the solve median falls inside them), three of optimum 2 and four of depth
# 300-400 (optimum 3, where the solve p90 falls).  Completion counts fall
# into eight light, four medium (the oracle median), four larger and four
# heavy markets (the oracle p90).  The order interleaves the groups so that
# every prefix of the cycle keeps the mix.
DESK_BLOCK = [
    (4, _L4, 1, 1), (4, _L4, 9, 15), (5, _M5, 27, 80), (4, _H4, 300, 400),
    (5, _M5, 1, 1), (4, _M4, 9, 15), (4, _L4, 2, 6), (4, _M4, 300, 400),
    (4, _L4, 9, 15), (5, _M5, 2, 7), (4, _M4, 40, 120), (4, _H4, 300, 400),
    (4, _L4, 1, 1), (4, _L4, 9, 15), (4, _H4, 40, 120), (5, _M5, 2, 7),
    (4, _M4, 9, 15), (4, _L4, 2, 6), (4, _L4, 9, 15), (4, _H4, 300, 400),
]

E2E = {
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "files.parse_ms": "ms",
    "files.input_bytes": "bytes_computed",
    "files.serialize_ms": "ms",
    "files.report_bytes": "bytes_computed",
    "core.instance_build_ms": "ms",
    "core.instance_builds": "count",
    "core.certify_ms": "ms",
    "core.witness_ms": "ms",
    "core.pair_scans": "count",
    "core.super_bps": "count",
    "solvers.self_ms": "ms",
    "solvers.deletions": "count",
    "solvers.proposal_passes": "count",
    "solvers.rotations": "count",
    "solvers.subsets_tried": "count",
    "oracles.minimax_ms": "ms",
    "oracles.completions": "count",
    "cli.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
COUNTERS = ("core.instance_builds", "core.pair_scans", "core.super_bps",
            "solvers.deletions", "solvers.proposal_passes", "solvers.rotations",
            "solvers.subsets_tried")


@dataclass
class Slot:
    """One input file and the requests the workload makes on it."""

    men: list
    women: list
    path: Path
    algo: str
    solve_args: list[str]
    optimum: int | None = None      # desk: the market's own minimum super-BP count
    digests: dict = field(default_factory=dict)  # request kind -> report SHA-256


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _cascade_deltas(n: int) -> list[Fraction]:
    """Cascade deltas (y/half)^2 for the three largest valid block sizes y."""
    half = n // 2
    ys = [y for y in range(2, half // 2 + 1) if half % y == 0]
    return [Fraction(y * y, half * half) for y in ys[-3:]]


def build_bulk(workload: str, seed: int, out: Path) -> tuple[list[Slot], dict]:
    from minimaxsm.generators import gen_fig1, gen_fig4

    rng = random.Random(f"{workload}/{seed}")
    algo = "gs" if workload == "bulk-gs" else "algo1"
    slots = []
    deltas = _cascade_deltas(BULK_N)
    for block in range(BULK_BLOCKS):
        for tie_prob in RANDOM_TIE_PROBS:
            if algo == "gs":
                men = [markets.random_tiers(BULK_N, rng, tie_prob) for _ in range(BULK_N)]
                women = [markets.random_tiers(BULK_N, rng, tie_prob)
                         for _ in range(BULK_N)]
            else:
                men = [markets.random_tiers(BULK_N, rng, 0.0) for _ in range(BULK_N)]
                women = [markets.bottom_tie_tiers(BULK_N, rng) for _ in range(BULK_N)]
            slots.append(Slot(men, women, out / f"in{len(slots):03d}.json", algo, []))
        delta = deltas[block % len(deltas)]
        inst = (gen_fig1(BULK_N, delta) if algo == "gs" else gen_fig4(BULK_N, delta)[0])
        slots.append(Slot(markets.tiers_of(inst.men), markets.tiers_of(inst.women),
                          out / f"in{len(slots):03d}.json", algo, []))
    for slot in slots:
        if algo == "gs":
            slot.solve_args = ["--seed", str(rng.randrange(2**31))]
        markets.write_instance(slot.path, slot.men, slot.women)
    return slots, {}


def build_desk(seed: int, out: Path) -> tuple[list[Slot], dict]:
    rng = random.Random(f"desk-crosscheck/{seed}")
    slots, rejected = [], 0
    for _ in range(DESK_BLOCKS):
        for n, shapes, lo, hi in DESK_BLOCK:
            while True:
                dealt = list(shapes)
                rng.shuffle(dealt)
                men = [markets.shaped_tiers(n, s, rng) for s in dealt[:n]]
                women = [markets.shaped_tiers(n, s, rng) for s in dealt[n:]]
                optimum, depth = markets.min_super_bp(markets.ranks(men),
                                                      markets.ranks(women))
                if lo <= depth <= hi:
                    break
                rejected += 1
            path = out / f"in{len(slots):04d}.json"
            slots.append(Slot(men, women, path, "exact", ["--kmax", str(n * n)], optimum))
            markets.write_instance(path, men, women)
    return slots, {"rejected_draws": rejected, "drawn": len(slots) + rejected}


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

class Runner:
    """Issues requests against one set of slots and checks their reports."""

    def __init__(self, cli, out: Path):
        self.cli = cli
        self.out = out
        self.seq = 0
        self.sink = io.StringIO()
        self.latency: dict[str, list[float]] = {"solve": [], "oracle": []}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report_bytes = 0
        self.input_bytes = 0
        self.nondeterministic = 0

    def _fresh(self, suffix: str) -> Path:
        self.seq += 1
        return self.out / f"r{self.seq:06d}{suffix}.json"

    def _call(self, argv: list[str]) -> tuple[int, float]:
        gc.collect()
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink):
            start = time.perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed request, not a stop
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - start
        return code, elapsed / 1e6

    def _read(self, kind: str, slot: Slot, path: Path, check) -> dict | None:
        """Full check the first time a slot's report is seen; afterwards the
        bytes must repeat or pass the full check again.  Returns None when
        the report failed, else the parsed report (left empty for a repeated
        report whose contents are not needed)."""
        data = path.read_bytes()
        self.report_bytes += len(data)
        sha = hashlib.sha256(data).hexdigest()
        path.unlink()
        if slot.digests.get(kind) == sha:
            return json.loads(data) if slot.optimum is not None else {}
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return self._fail(f"{kind} {slot.path.name}: unreadable report ({exc})")
        problems = check(doc)
        if problems:
            return self._fail(f"{kind} {slot.path.name}: " + "; ".join(problems))
        if kind in slot.digests:
            self.nondeterministic += 1
        else:
            slot.digests[kind] = sha
        return doc

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        return None

    def run_slot(self, slot: Slot, record: bool = True) -> list[float]:
        """Run the slot's requests; returns their latencies in ms."""
        report = self._fresh("")
        argv = ["solve", "--algo", slot.algo, *slot.solve_args,
                "--input", str(slot.path), "-o", str(report)]
        self.attempted += 1
        self.input_bytes += slot.path.stat().st_size
        code, ms = self._call(argv)
        if record:
            self.latency["solve"].append(ms)
        if code != 0:
            report.unlink(missing_ok=True)
            self._fail(f"solve {slot.path.name}: exit {code}")
            return [ms]
        doc = self._read("solve", slot, report,
                         lambda d: check_solve(slot.men, slot.women, d, slot.algo,
                                               slot.optimum))
        if slot.optimum is None or doc is None:
            return [ms]

        matching = self._fresh(".matching")
        matching.write_text(json.dumps(doc["matching"]) + "\n", encoding="utf-8")
        report = self._fresh("")
        self.attempted += 1
        self.input_bytes += slot.path.stat().st_size + matching.stat().st_size
        code2, ms2 = self._call(["oracle", "--mode", "minimax", "--input", str(slot.path),
                                 "--matching", str(matching), "-o", str(report)])
        matching.unlink()
        if record:
            self.latency["oracle"].append(ms2)
        if code2 != 0:
            report.unlink(missing_ok=True)
            self._fail(f"oracle {slot.path.name}: exit {code2}")
        else:
            exact = len(doc["super_blocking_pairs"])
            self._read("oracle", slot, report, lambda d: check_oracle(d, exact))
        return [ms, ms2]


# ---------------------------------------------------------------------------
# Workload driver
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, base: Path, mm) -> tuple[float, list[Slot], dict]:
    """Generate and write the inputs, then warm up on the first slot."""
    start = time.perf_counter()
    base.mkdir(parents=True)
    if workload == "desk-crosscheck":
        slots, info = build_desk(seed, base)
    else:
        slots, info = build_bulk(workload, seed, base)
    warm = Runner(mm.cli, base)
    warm.run_slot(slots[0], record=False)
    for slot in slots:
        slot.digests.clear()
    return time.perf_counter() - start, slots, info


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner: Runner, slots: list[Slot], seconds: float) -> float:
    deadline = time.perf_counter() + seconds
    for slot in itertools.cycle(slots):
        runner.run_slot(slot)
        if time.perf_counter() >= deadline:
            break
    return sum(runner.latency["solve"]) + sum(runner.latency["oracle"])


def measure_traced(runner: Runner, slots: list[Slot], seconds: float, tracer: Tracer,
                   mm, trace_slots: int) -> dict:
    """Alternate untraced and traced runs of each slot.  Times are per traced
    request over the whole run; counts are per request over the first
    ``trace_slots`` slots, so that they repeat exactly for a seed."""
    untraced = traced = 0.0
    requests = 0
    counts = Counter()
    count_requests = 0
    count_input = count_report = completions = 0
    deadline = time.perf_counter() + seconds
    done = 0
    for slot in itertools.cycle(slots):
        untraced += sum(runner.run_slot(slot, record=False))
        before_in, before_rep = runner.input_bytes, runner.report_bytes
        tracer.install(mm)
        try:
            tracer.counts.clear()
            latencies = runner.run_slot(slot, record=False)
        finally:
            tracer.uninstall()
        traced += sum(latencies)
        requests += len(latencies)
        if done < trace_slots:
            counts.update(tracer.counts)
            count_requests += len(latencies)
            count_input += runner.input_bytes - before_in
            count_report += runner.report_bytes - before_rep
            if slot.optimum is not None:
                completions += markets.completions(slot.men, slot.women)
        done += 1
        if done >= trace_slots and time.perf_counter() >= deadline:
            break
    metrics = {}
    for name, layer in LAYER_MS.items():
        metrics[name] = tracer.self_ns[layer] / requests / 1e6
    for name in COUNTERS:
        metrics[name] = counts[name] / count_requests
    metrics["files.input_bytes"] = count_input / count_requests
    metrics["files.report_bytes"] = count_report / count_requests
    metrics["oracles.completions"] = completions / count_requests
    metrics["trace.overhead_ratio"] = traced / untraced
    for name in tracer.absent:
        metrics.pop(name, None)
    return metrics


def import_program():
    """Import ``minimaxsm`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import minimaxsm
        import minimaxsm.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import minimaxsm from {src}: {exc}")
    if not Path(minimaxsm.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: minimaxsm imported from {minimaxsm.__file__}, "
                         f"not from {src}")
    return minimaxsm


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["bulk-gs", "bulk-algo1", "desk-crosscheck"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    mm = import_program()
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return run(args, mm, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, mm, run_dir: Path) -> int:
    setups = []
    for k in range(SETUP_REPEATS):
        if k:
            shutil.rmtree(run_dir / f"setup{k - 1}")
        took, slots, info = setup(args.workload, args.seed, run_dir / f"setup{k}", mm)
        setups.append(took)
    out = run_dir / "out"
    out.mkdir()
    gc.collect()
    gc.freeze()

    runner = Runner(mm.cli, out)
    say = lambda text: print(text, flush=True)  # noqa: E731
    say(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}; closed loop, one client, in-process cli.main")
    say(f"files: {run_dir.relative_to(ROOT)} in the checkout, "
        "one fresh path per report and matching")
    say(f"inputs: {len(slots)} files, {sum(s.path.stat().st_size for s in slots)} bytes, "
        f"sha256 {markets.digest(s.path for s in slots)}"
        + "".join(f", {k} {v}" for k, v in info.items()))

    if args.trace:
        tracer = Tracer()
        metrics = measure_traced(runner, slots, args.seconds, tracer, mm,
                                 TRACE_SLOTS[args.workload])
        trace_path = ROOT / ".perfbench_run" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        say(f"trace: {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}")
        if tracer.absent:
            say(f"absent (wrapped name no longer exists): {', '.join(sorted(tracer.absent))}")
        units = PER_LAYER
    else:
        busy_ms = measure(runner, slots, args.seconds)
        solve = runner.latency["solve"]
        metrics = {
            "solve_ms_p50": statistics.median(solve),
            "solve_ms_p90": percentile(solve, 90),
            "requests_per_s": runner.attempted / (busy_ms / 1000),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E
        say(f"solve requests: {len(solve)} (p90 has {len(solve) - int(0.9 * len(solve))} "
            "samples beyond it)")
        oracle = runner.latency["oracle"]
        if oracle:
            say(f"oracle_ms_p50 {statistics.median(oracle):.4f} ms, oracle_ms_p90 "
                f"{percentile(oracle, 90):.4f} ms over {len(oracle)} oracle requests")
        say("setup_s runs: " + ", ".join(f"{s:.4f}" for s in setups))

    say(f"reports: sha256 {report_digest(slots)} over {sum(len(s.digests) for s in slots)} "
        f"distinct reports; {runner.nondeterministic} differed on repeat and passed")
    say(f"error_rate {runner.failed / runner.attempted:.6f} ratio "
        f"({runner.failed} failed / {runner.attempted} attempted)")
    for problem in runner.problems[:10]:
        say(f"failure: {problem}")
    for name in units:
        if name in metrics:
            say(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def report_digest(slots: list[Slot]) -> str:
    h = hashlib.sha256()
    for slot in slots:
        for kind in sorted(slot.digests):
            h.update(slot.digests[kind].encode())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
