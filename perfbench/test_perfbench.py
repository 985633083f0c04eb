"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import markets  # noqa: E402
import run  # noqa: E402
from check import check_oracle, check_solve  # noqa: E402
from tracer import Tracer  # noqa: E402

mm = run.import_program()


@pytest.fixture
def market(tmp_path):
    rng = random.Random(7)
    n = 5
    men = [markets.random_tiers(n, rng, 0.5) for _ in range(n)]
    women = [markets.random_tiers(n, rng, 0.5) for _ in range(n)]
    path = tmp_path / "in.json"
    markets.write_instance(path, men, women)
    return men, women, path


def solve(path: Path, out: Path, algo: str = "gs", *extra: str) -> dict:
    argv = ["solve", "--algo", algo, *extra, "--input", str(path), "-o", str(out)]
    assert mm.cli.main(argv) == 0
    return json.loads(out.read_text())


def test_program_reports_pass_the_check(market, tmp_path):
    men, women, path = market
    doc = solve(path, tmp_path / "gs.json")
    assert check_solve(men, women, doc, "gs") == []
    exact = solve(path, tmp_path / "exact.json", "exact", "--kmax", "25")
    optimum, _ = markets.min_super_bp(markets.ranks(men), markets.ranks(women))
    assert check_solve(men, women, exact, "exact", optimum) == []
    assert check_oracle({"max_blocking_pairs": optimum}, optimum) == []
    assert check_oracle({"max_blocking_pairs": optimum + 1}, optimum) != []


def test_algo1_report_passes_the_check(tmp_path):
    rng = random.Random(3)
    n = 8
    men = [markets.random_tiers(n, rng, 0.0) for _ in range(n)]
    women = [markets.bottom_tie_tiers(n, rng) for _ in range(n)]
    path = tmp_path / "in.json"
    markets.write_instance(path, men, women)
    doc = solve(path, tmp_path / "algo1.json", "algo1")
    assert check_solve(men, women, doc, "algo1") == []
    if doc["super_blocking_pairs"]:
        doc["deleted_agents"] = {"men": [], "women": []}
        assert any("deletion set" in p for p in check_solve(men, women, doc, "algo1"))


def corruptions(doc: dict, men: list):
    """A wrong super-BP count, and a witness that breaks a strict comparison."""
    n = len(men)
    wrong_count = copy.deepcopy(doc)
    m, w = next((m, w) for m in range(1, n + 1) for w in range(1, n + 1)
                if [m, w] not in doc["super_blocking_pairs"]
                and [m, w] not in doc["matching"]["pairs"])
    wrong_count["super_blocking_pairs"] = sorted(doc["super_blocking_pairs"] + [[m, w]])
    yield "super-blocking pairs", wrong_count

    not_refining = copy.deepcopy(doc)
    man = next(i for i, tiers in enumerate(men) if len(tiers) > 1)
    men_orders = not_refining["witness_completion"]["men"]
    men_orders[man] = men_orders[man][::-1]
    yield "does not refine", not_refining


def test_corrupted_reports_are_caught(market, tmp_path):
    men, women, path = market
    doc = solve(path, tmp_path / "gs.json")
    for expected, bad in corruptions(doc, men):
        problems = check_solve(men, women, bad, "gs")
        assert any(expected in p for p in problems), problems


class CorruptingCli:
    """Stands in for ``minimaxsm.cli``: solves, then corrupts the report."""

    def __init__(self, bad: dict):
        self.bad = bad

    def main(self, argv):
        out = Path(argv[argv.index("-o") + 1])
        out.write_text(json.dumps(self.bad))
        return 0


def test_runner_counts_a_corrupted_report_as_failed(market, tmp_path):
    men, women, path = market
    doc = solve(path, tmp_path / "gs.json")
    for _, bad in corruptions(doc, men):
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        runner = run.Runner(CorruptingCli(bad), out)
        runner.run_slot(run.Slot(men, women, path, "gs", []))
        assert (runner.attempted, runner.failed) == (1, 1)
        assert list(out.iterdir()) == []


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared() -> dict:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in doc[key]}
            for key in ("end_to_end", "per_layer")}


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_prints_with_its_unit(trace, key):
    done = bench("--workload", "desk-crosscheck", "--seed", "3", "--seconds", "1",
                 "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = declared()[key]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name
    assert any(line.startswith("error_rate ") for line in lines)


def test_counts_repeat_for_a_seed():
    runs = [bench("--workload", "desk-crosscheck", "--seed", "4", "--seconds", "1",
                  "--trace", "1") for _ in range(2)]
    metrics = [json.loads(r.stdout.splitlines()[-1])["metrics"] for r in runs]
    for name, unit in declared()["per_layer"].items():
        if unit in ("count", "bytes_computed"):
            assert metrics[0][name] == metrics[1][name], name


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "bulk-gs", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_reports_removed_names_as_absent():
    class Package:
        pass

    tracer = Tracer()
    tracer.install(Package())
    assert "solvers.deletions" in tracer.absent
    assert "files.parse_ms" in tracer.absent
    tracer.uninstall()
