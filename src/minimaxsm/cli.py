"""Command-line interface.

Exit codes: 0 success, 2 input or parameter error, 3 solver precondition
failure, 4 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import hashlib
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from .core import Instance, ValidationError, compute_delta
from . import files
from .generators import (
    GeneratorError,
    bottom_tie_market,
    UndirectedGraph,
    build_yes_matching,
    gen_fig1,
    gen_fig3,
    gen_fig4,
    gen_random,
    gen_vc_reduction,
    two_sided_tie_market,
    verify_block_claims,
)
from .oracles import (
    BudgetExceededError,
    max_bp_over_completions,
    min_delete,
    min_super_bp,
)
from .solvers import (
    DegenerateInstanceError,
    PreconditionError,
    SolveReport,
    exact_min_super_bp,
    gale_shapley_completion,
    min_delete_approx,
)

CSV_FIELDS = [
    "id",
    "family",
    "n",
    "delta",
    "algorithm",
    "super_bp_count",
    "obvious_bp_count",
    "oracle_optimum",
    "ratio",
    "runtime_ms",
]


def _parse_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational number: {text!r}") from exc
    return value


def _emit(doc: dict, out: str | None) -> None:
    if out:
        files.write_json(out, doc)
        print(out)
    else:
        print(files.dumps(doc))


def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    out = Path(args.output)
    if family in ("fig1", "fig3", "fig4", "random") and args.n is None:
        raise ValidationError(f"--n is required for family {family}")
    if family in ("fig1", "fig3", "fig4", "random") and args.delta is None:
        raise ValidationError(f"--delta is required for family {family}")

    if family == "fig1":
        inst = gen_fig1(args.n, _parse_rational(args.delta), args.figure_verbatim)
        files.save_instance(inst, out)
        print(out)
    elif family == "fig3":
        inst = gen_fig3(args.n, _parse_rational(args.delta))
        files.save_instance(inst, out)
        print(out)
    elif family == "fig4":
        inst, matching = gen_fig4(
            args.n, _parse_rational(args.delta), args.figure_verbatim
        )
        files.save_instance(inst, out)
        mpath = out.with_name(out.stem + ".matching" + out.suffix)
        files.save_matching(matching, mpath)
        print(out)
        print(mpath)
    elif family == "vc":
        if not args.graph:
            raise ValidationError("--graph is required for family vc")
        if args.k0 is None or args.y is None or args.z is None:
            raise ValidationError("--k0, --y and --z are required for family vc")
        try:
            text = Path(args.graph).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{args.graph}: not UTF-8 text ({exc})") from exc
        graph = UndirectedGraph.from_text(text)
        inst, cert = gen_vc_reduction(
            graph, args.k0, args.y, args.z, args.figure_verbatim
        )
        files.save_instance(inst, out)
        cpath = out.with_name(out.stem + ".cert" + out.suffix)
        files.write_json(
            cpath, files.certificate_to_dict(cert, verify_block_claims(inst, cert))
        )
        print(out)
        print(cpath)
    elif family == "random":
        seed = 0 if args.seed is None else args.seed
        inst = gen_random(args.n, _parse_rational(args.delta), seed)
        files.save_instance(inst, out)
        print(out)
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown family {family}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = files.load_instance(args.input)
    if args.algo == "gs":
        report = gale_shapley_completion(inst, seed=args.seed)
    elif args.algo == "exact":
        result = exact_min_super_bp(inst, k_max=args.kmax)
        if result is None:
            raise PreconditionError(
                f"search exhausted: no solution within kmax={args.kmax}"
            )
        report = result
    else:
        report = min_delete_approx(inst)
    _emit(files.report_to_dict(report), args.output)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = files.load_instance(args.input)
    if args.mode == "minimax":
        if not args.matching:
            raise ValidationError("--matching is required for minimax mode")
        matching = files.load_matching(args.matching)
        value = max_bp_over_completions(inst, matching)
        doc = {"schema": files.REPORT_SCHEMA, "mode": "minimax", "max_blocking_pairs": value}
    elif args.mode == "min-super-bp":
        count, matching = min_super_bp(inst)
        doc = {
            "schema": files.REPORT_SCHEMA,
            "mode": "min-super-bp",
            "optimum": count,
            "matching": files.matching_to_dict(matching),
        }
    else:
        deleted_men, deleted_women = min_delete(inst)
        doc = {
            "schema": files.REPORT_SCHEMA,
            "mode": "min-delete",
            "deleted_agents": {
                "men": [m + 1 for m in deleted_men],
                "women": [w + 1 for w in deleted_women],
            },
            "size": len(deleted_men) + len(deleted_women),
        }
    _emit(doc, args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = files.load_instance(args.input)
    matching = files.load_matching(args.matching)
    report = SolveReport.build(inst, matching, "verify")
    obps, sbps = report.obvious_blocking_pairs, report.super_blocking_pairs
    doc = {
        "schema": files.REPORT_SCHEMA,
        "weakly_stable": not obps,
        "super_stable": not sbps,
        "obvious_blocking_pairs": [[m + 1, w + 1] for m, w in obps],
        "super_blocking_pairs": [[m + 1, w + 1] for m, w in sbps],
        "witness_completion": files.instance_to_dict(report.witness_completion),
    }
    _emit(doc, args.output)
    return 0


def _row(
    row_id: str,
    family: str,
    inst: Instance,
    report: SolveReport,
    runtime_ms: float,
    oracle_optimum: int | None = None,
) -> dict:
    ratio = ""
    if oracle_optimum is not None:
        ratio = str(Fraction(report.super_bp_count, max(1, oracle_optimum)))
    return {
        "id": row_id,
        "family": family,
        "n": inst.n,
        "delta": str(compute_delta(inst)),
        "algorithm": report.algorithm,
        "super_bp_count": report.super_bp_count,
        "obvious_bp_count": len(report.obvious_blocking_pairs),
        "oracle_optimum": "" if oracle_optimum is None else oracle_optimum,
        "ratio": ratio,
        "runtime_ms": f"{runtime_ms:.3f}",
    }


def _timed_report(fn):
    start = time.perf_counter()
    report = fn()
    return report, (time.perf_counter() - start) * 1000


def _bench_paper() -> list[dict]:
    rows = []
    quarter = Fraction(1, 4)

    inst8 = gen_fig1(8, quarter)
    report, ms = _timed_report(lambda: gale_shapley_completion(inst8, seed=0))
    rows.append(_row("fig1-n8-gs", "fig1", inst8, report, ms))
    report, ms = _timed_report(lambda: exact_min_super_bp(inst8, k_max=2))
    rows.append(_row("fig1-n8-exact", "fig1", inst8, report, ms))

    inst16 = gen_fig1(16, quarter)
    report, ms = _timed_report(lambda: gale_shapley_completion(inst16, seed=0))
    rows.append(_row("fig1-n16-gs", "fig1", inst16, report, ms))

    inst3 = gen_fig3(16, Fraction(1, 256))
    report, ms = _timed_report(lambda: gale_shapley_completion(inst3, seed=0))
    rows.append(_row("fig3-n16-gs", "fig3", inst3, report, ms))

    inst4, _ = gen_fig4(16, quarter)
    report, ms = _timed_report(lambda: min_delete_approx(inst4))
    rows.append(_row("fig4-n16-algo1", "fig4", inst4, report, ms))

    triangle = UndirectedGraph(k=3, edges=((0, 1), (0, 2), (1, 2)))
    instv, cert = gen_vc_reduction(triangle, k0=2, y=4, z=2)
    report, ms = _timed_report(lambda: SolveReport.build(
        instv, build_yes_matching(instv, cert, cover=(0, 1)), "yes-cover"))
    rows.append(_row("vc-k3-yes", "vc", instv, report, ms))
    return rows


def _bench_random(seed: int) -> list[dict]:
    rows = []
    for idx in range(20):
        n = 3 + (idx % 2)
        inst = gen_random(n, Fraction(1, 4), seed=seed * 1000 + idx)
        optimum, _ = min_super_bp(inst)
        report, ms = _timed_report(lambda: gale_shapley_completion(inst, seed=seed))
        rows.append(_row(f"random-{idx}-gs", "random", inst, report, ms,
                         oracle_optimum=optimum))
        report, ms = _timed_report(lambda: exact_min_super_bp(inst))
        rows.append(_row(f"random-{idx}-exact", "random", inst, report, ms,
                         oracle_optimum=optimum))
    return rows


SCALE_SIZES = (100, 200, 400, 800)
SCALE_REPEATS = 3
SCALE_PHASES = ("end_to_end_ms", "parse_ms", "solve_ms", "certify_ms", "serialize_ms")
SCALE_STATS = (("", statistics.median), ("_min", min), ("_max", max))


def _bench_scale(workdir: Path) -> list[dict]:
    """One record per market: a file-to-report solve of a fixed-seed tied
    market (``random.Random(1)``), run SCALE_REPEATS times, each phase's
    median in ms beside its min (``<phase>_min``) and max (``<phase>_max``).
    Parse is ``load_instance``, solve the solver call (its own certificate
    included), serialize ``report_to_dict`` plus ``write_json``, and end to
    end the three timed in one stretch.  Certify is one extra
    ``SolveReport.build`` on the reported matching, timed alone."""
    families = (
        ("two_sided_tie_market", two_sided_tie_market,
         lambda inst: gale_shapley_completion(inst, seed=0)),
        ("bottom_tie_market", bottom_tie_market, min_delete_approx),
    )
    records = []
    for family, make, solve in families:
        for n in SCALE_SIZES:
            ipath = workdir / f"{family}-{n}.json"
            files.save_instance(make(n, random.Random(1)), ipath)
            runs, reports = [], set()
            for rep in range(SCALE_REPEATS):
                # a fresh path each run: rewriting a file can stall in open()
                rpath = workdir / f"{family}-{n}-{rep}.report.json"
                gc.collect()
                start = time.perf_counter()
                inst = files.load_instance(ipath)
                parsed = time.perf_counter()
                report = solve(inst)
                solved = time.perf_counter()
                files.write_json(rpath, files.report_to_dict(report))
                written = time.perf_counter()
                SolveReport.build(inst, report.matching, report.algorithm)
                certified = time.perf_counter()
                runs.append((written - start, parsed - start, solved - parsed,
                             certified - written, written - solved))
                reports.add((report.algorithm, report.super_bp_count,
                             hashlib.sha256(rpath.read_bytes()).hexdigest()[:16]))
                rpath.unlink()
                del inst, report
            if len(reports) != 1:
                raise RuntimeError(f"{family} n={n}: the report differed between runs")
            algorithm, count, digest = reports.pop()
            records.append({
                "family": family,
                "n": n,
                "algorithm": algorithm,
                "super_bp_count": count,
                "report_sha256": digest,
                **{phase + suffix: round(1000 * stat(times), 3)
                   for phase, times in zip(SCALE_PHASES, zip(*runs))
                   for suffix, stat in SCALE_STATS},
            })
    return records


def cmd_bench(args: argparse.Namespace) -> int:
    if args.suite == "scale":
        with tempfile.TemporaryDirectory() as tmp:
            records = _bench_scale(Path(tmp))
        files.write_json(args.out, {
            "suite": "scale",
            "repeats": SCALE_REPEATS,
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "records": records,
        })
        print(args.out)
        return 0
    rows = _bench_paper() if args.suite == "paper" else _bench_random(args.seed)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    about twenty times a parse, and a parse leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="minimaxsm",
        description="Stable marriage with tied preferences: generators, solvers, "
        "oracles, and a benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance family")
    p.add_argument("--family", required=True,
                   choices=["fig1", "fig3", "fig4", "vc", "random"])
    p.add_argument("--n", type=int)
    p.add_argument("--delta", help="rational, e.g. 1/4")
    p.add_argument("--graph", help="graph file for the vc family")
    p.add_argument("--k0", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--z", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--figure-verbatim", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run a solver on an instance file")
    p.add_argument("--algo", required=True, choices=["gs", "exact", "algo1"])
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--kmax", type=int, default=3,
        help="largest candidate blocking set the exact search tries (default 3; "
        "the library's exact_min_super_bp defaults to n*n, an exhaustive search)",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="run a brute-force oracle")
    p.add_argument("--mode", required=True,
                   choices=["minimax", "min-super-bp", "min-delete"])
    p.add_argument("--input", required=True)
    p.add_argument("--matching")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="check a matching against an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--matching", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="write the experiment matrix as CSV")
    p.add_argument("--suite", required=True, choices=["paper", "random", "scale"],
                   help="scale writes JSON timings of fixed-seed markets, n=100-800")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the random suite")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, DegenerateInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, GeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
