"""File formats and the command-line surface, exercised in process."""

import csv
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import minimaxsm
from minimaxsm import (
    Instance,
    Matching,
    ValidationError,
    cli,
    gale_shapley_completion,
    generators,
    min_delete_approx,
)
from minimaxsm.cli import build_parser, main
from minimaxsm.files import (
    dumps,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_matching,
    matching_from_dict,
    matching_to_dict,
    report_to_dict,
    save_instance,
    save_matching,
)
from minimaxsm.generators import gen_fig1, gen_fig4, gen_random

from conftest import bottom_tie_market, strict, two_sided_tie_market


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_instance_round_trip():
    inst = gen_random(4, Fraction(1, 4), seed=9)
    doc = instance_to_dict(inst)
    assert doc["n"] == 4
    assert instance_from_dict(doc) == inst


def test_instance_dict_uses_one_based_sorted_tiers():
    inst = Instance([[[1, 0]], [[0], [1]]], [[[0], [1]], [[1], [0]]])
    doc = instance_to_dict(inst)
    assert doc["men"][0] == [[1, 2]]
    assert doc["women"][1] == [[2], [1]]


def test_instance_from_dict_reports_agent():
    doc = {"n": 2, "men": [[[1], [2]], [[1], [1]]], "women": [[[1], [2]]] * 2}
    with pytest.raises(ValidationError, match="man 2"):
        instance_from_dict(doc)


def test_matching_round_trip():
    matching = Matching([(0, 1), (2, 0)])
    doc = matching_to_dict(matching)
    assert doc == {"pairs": [[1, 2], [3, 1]]}
    assert matching_from_dict(doc) == matching


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
# Leaves also include int lists and lists of one-int lists, which dumps
# joins in one step.
_JSON_VALUES = st.recursive(
    _JSON_SCALARS
    | st.lists(st.integers())
    | st.lists(st.lists(st.integers(), min_size=1, max_size=1)),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
@example([True, 1])
@example([[True]])
@example([[], [1]])
@example({})
@example([])
@example({"k": [{}, []]})
@example({"tiers": [[[1], [2]], [[1, 2], [3]]], "mixed": [[1], [1.5], ["\u00e9"]]})
@example({"\u00e9\u4e2d": "\U0001f600 caf\u00e9", "b": [1, True, None, -0.0]})
@settings(max_examples=300, deadline=None, derandomize=True)
def test_dumps_matches_indented_json(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_fig1_writes_instance(tmp_path, capsys):
    out = tmp_path / "i.json"
    assert main(["gen", "--family", "fig1", "--n", "8", "--delta", "1/4",
                 "-o", str(out)]) == 0
    inst = load_instance(out)
    assert inst.n == 8
    assert str(out) in capsys.readouterr().out


def test_gen_rejects_non_integral_parameters(tmp_path, capsys):
    out = tmp_path / "i.json"
    assert main(["gen", "--family", "fig1", "--n", "8", "--delta", "1/8",
                 "-o", str(out)]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_fig4_also_writes_matching(tmp_path):
    out = tmp_path / "f4.json"
    assert main(["gen", "--family", "fig4", "--n", "16", "--delta", "1/4",
                 "-o", str(out)]) == 0
    inst = load_instance(out)
    matching = load_matching(tmp_path / "f4.matching.json")
    assert matching.is_perfect(inst.n)


def test_gen_vc_writes_certificate(tmp_path):
    graph = tmp_path / "tri.txt"
    graph.write_text("3 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
    out = tmp_path / "vc.json"
    assert main(["gen", "--family", "vc", "--graph", str(graph), "--k0", "2",
                 "--y", "4", "--z", "2", "-o", str(out)]) == 0
    inst = load_instance(out)
    assert inst.n == 51
    cert = json.loads((tmp_path / "vc.cert.json").read_text())
    assert cert["n"] == 51
    assert len(cert["blocks"]) == 3
    assert all(block["check"]["ok"] for block in cert["blocks"])


def test_gen_random_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["gen", "--family", "random", "--n", "5", "--delta", "1/4",
                     "--seed", "7", "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_missing_flags(tmp_path):
    assert main(["gen", "--family", "fig1", "-o", str(tmp_path / "x.json")]) == 2
    assert main(["gen", "--family", "vc", "--k0", "2", "--y", "4", "--z", "2",
                 "-o", str(tmp_path / "x.json")]) == 2


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    save_instance(gen_fig1(12, Fraction(1, 4)), path)
    return path



def test_parses_share_no_state(fig1_file, capsys):
    parser = build_parser()
    args = parser.parse_args(["solve", "--algo", "exact", "--input", "x.json",
                              "--seed", "3", "--kmax", "16"])
    assert (args.seed, args.kmax) == (3, 16)
    assert build_parser() is parser
    args = parser.parse_args(["solve", "--algo", "exact", "--input", "x.json"])
    assert args.seed is None and args.kmax == 3
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--algo", "exact", "--kmax", "two", "--input", str(fig1_file)])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["solve", "--algo", "exact", "--input", str(fig1_file),
                 "--kmax", "2"]) == 0
    assert '"algorithm": "exact"' in capsys.readouterr().out


def test_solve_exact_recovers_optimum(fig1_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["solve", "--algo", "exact", "--input", str(fig1_file),
                 "--kmax", "2", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["algorithm"] == "exact"
    assert len(report["super_blocking_pairs"]) == 1
    assert report["deleted_agents"] is None
    # the witness completion realises exactly the super-blocking pairs
    witness = report["witness_completion"]
    assert all(len(t) == 1 for agent in witness["men"] for t in agent)


def test_solve_algo1_requires_bottom_ties(fig1_file, capsys):
    fig1_16 = fig1_file.parent / "fig1_16.json"
    save_instance(gen_fig1(16, Fraction(1, 4)), fig1_16)
    assert main(["solve", "--algo", "algo1", "--input", str(fig1_16)]) == 3
    assert "error" in capsys.readouterr().err


def test_solve_gs_is_byte_deterministic(tmp_path):
    inst_path = tmp_path / "inst.json"
    save_instance(gen_random(5, Fraction(1, 3), seed=3), inst_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["solve", "--algo", "gs", "--input", str(inst_path),
                     "--seed", "0", "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_exact_exhausted(fig1_file):
    assert main(["solve", "--algo", "exact", "--input", str(fig1_file),
                 "--kmax", "0"]) == 3


def test_solve_algo1_reports_deletions(tmp_path):
    path = tmp_path / "fig4.json"
    inst, _ = gen_fig4(16, Fraction(1, 4))
    save_instance(inst, path)
    out = tmp_path / "r.json"
    assert main(["solve", "--algo", "algo1", "--input", str(path),
                 "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["algorithm"] == "algo1"
    assert report["obvious_blocking_pairs"] == []
    deleted = report["deleted_agents"]
    assert deleted is not None and len(deleted["men"]) == len(deleted["women"])


# ---------------------------------------------------------------------------
# verify and oracle
# ---------------------------------------------------------------------------

def test_verify_fig4_bundled_matching(tmp_path):
    inst, rotated = gen_fig4(16, Fraction(1, 4))
    ipath, mpath = tmp_path / "i.json", tmp_path / "m.json"
    save_instance(inst, ipath)
    mpath.write_text(json.dumps(matching_to_dict(rotated)), encoding="utf-8")
    out = tmp_path / "v.json"
    assert main(["verify", "--input", str(ipath), "--matching", str(mpath),
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["weakly_stable"] is True
    assert doc["super_stable"] is False


def test_verify_identity_on_fig1(tmp_path, capsys):
    ipath, mpath = tmp_path / "i.json", tmp_path / "m.json"
    save_instance(gen_fig1(8, Fraction(1, 4)), ipath)
    mpath.write_text(
        json.dumps(matching_to_dict(Matching.identity(8))), encoding="utf-8"
    )
    assert main(["verify", "--input", str(ipath), "--matching", str(mpath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["super_blocking_pairs"] == [[2, 1]]
    assert doc["obvious_blocking_pairs"] == [[2, 1]]


def test_verify_rejects_absent_agents(tmp_path, capsys):
    ipath, mpath = tmp_path / "i.json", tmp_path / "m.json"
    save_instance(strict([[0, 1], [0, 1]], [[0, 1], [0, 1]]), ipath)
    mpath.write_text(json.dumps({"pairs": [[1, 7]]}), encoding="utf-8")
    assert main(["verify", "--input", str(ipath), "--matching", str(mpath)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad", [True, 1.9])
def test_solve_rejects_non_integer_agent_in_instance(tmp_path, capsys, bad):
    ipath = tmp_path / "i.json"
    doc = {"n": 2, "men": [[[bad], [2]], [[1], [2]]], "women": [[[1], [2]]] * 2}
    ipath.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", "--algo", "gs", "--input", str(ipath)]) == 2
    assert "man 1" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [True, 1.9])
def test_verify_rejects_non_integer_agent_in_matching(tmp_path, capsys, bad):
    ipath, mpath = tmp_path / "i.json", tmp_path / "m.json"
    save_instance(strict([[0, 1], [0, 1]], [[0, 1], [0, 1]]), ipath)
    mpath.write_text(json.dumps({"pairs": [[bad, 1], [2, 2]]}), encoding="utf-8")
    assert main(["verify", "--input", str(ipath), "--matching", str(mpath)]) == 2
    assert "expected an integer" in capsys.readouterr().err


STRICT3 = [[1], [2], [3]]


# (agent, row, the rest of the error line after "error: <agent>: ")
MALFORMED_ROWS = [
    # agent 0 is index -1 in memory
    ("man 2", [[0], [1], [2]], "malformed tiers (index -1 is outside 0..2)"),
    # agent n + 1
    ("woman 1", [[1], [2], [4]], "malformed tiers (index 3 is outside 0..2)"),
    ("man 2", [[1], [], [2], [3]], "malformed tiers (tier 2 is empty)"),
    ("man 2", [[1], [2]], "ranks 2 agents, not 3"),
    ("woman 1", [[1, 2], [2], [3]], "malformed tiers (index 1 is listed twice)"),
    # a boolean inside a tie
    ("man 2", [[1, True], [3]], "malformed tiers (expected an integer, got true)"),
    ("woman 3", [[1.5], [2], [3]], "malformed tiers (expected an integer, got 1.5)"),
    ("man 1", [[1], ["2"], [3]], 'malformed tiers (expected an integer, got "2")'),
    # a bare integer for a tier
    ("man 2", [1, [2], [3]], "malformed tiers ('int' object is not iterable)"),
    # a bad entry before a bare integer tier is named first
    ("man 2", [[True], 1], "malformed tiers (expected an integer, got true)"),
    # nested one level too deep
    ("man 2", [[[1]], [2], [3]], "malformed tiers (expected an integer, got [1])"),
    # a row that is a dict iterates its keys
    ("woman 2", {"1": [1]}, 'malformed tiers (expected an integer, got "1")'),
    # two faults in one tie, listed out of order: the lower index is named
    ("man 3", [[4, 0], [2]], "malformed tiers (index -1 is outside 0..2)"),
    ("man 2", [[3, 2, 3, 2]], "malformed tiers (index 1 is listed twice)"),
    ("woman 3", [[3, 3, 0]], "malformed tiers (index -1 is outside 0..2)"),
]


@pytest.mark.parametrize("agent, row, reason", [
    pytest.param(*case, id=f"{case[0]}-row{i}") for i, case in enumerate(MALFORMED_ROWS)
])
def test_solve_rejects_malformed_row(tmp_path, capsys, agent, row, reason):
    label, number = agent.split()
    doc = {"n": 3, "men": [STRICT3] * 3, "women": [STRICT3] * 3}
    side = doc["men" if label == "man" else "women"]
    side[int(number) - 1] = row
    ipath = tmp_path / "i.json"
    ipath.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", "--algo", "gs", "--input", str(ipath)]) == 2
    assert capsys.readouterr().err == f"error: {agent}: {reason}\n"


def test_unsorted_tie_members_parse_like_sorted_ones():
    ties = [[[1, 3], [2]], [[2], [1, 3]], [[1, 2, 3]]]
    shuffled = [[[3, 1], [2]], [[2], [3, 1]], [[3, 1, 2]]]
    sorted_inst = instance_from_dict({"n": 3, "men": ties, "women": [STRICT3] * 3})
    unsorted = instance_from_dict({"n": 3, "men": shuffled, "women": [STRICT3] * 3})
    assert unsorted == sorted_inst
    assert unsorted.men[0].order == (0, 2, 1)
    assert unsorted.men[0].tiers == ((0, 2), (1,))


def _bad_kmax(tmp_path):
    ipath = tmp_path / "i.json"
    save_instance(strict([[0, 1], [0, 1]], [[0, 1], [0, 1]]), ipath)
    return ["solve", "--algo", "exact", "--kmax", "-1", "--input", str(ipath)]


def _latin1_input(tmp_path):
    ipath = tmp_path / "i.json"
    ipath.write_bytes('{"n": 1, "men": [[[1]]], "women": [[[1]]], "by": "\u00e9"}'
                      .encode("latin-1"))
    return ["solve", "--algo", "gs", "--input", str(ipath)]


def _latin1_graph(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_bytes(b"3 3\n1 2\xff\n")
    return ["gen", "--family", "vc", "--graph", str(graph), "--k0", "2",
            "--y", "4", "--z", "2", "-o", str(tmp_path / "vc.json")]


def _written_input(text):
    def args(tmp_path):
        ipath = tmp_path / "i.json"
        ipath.write_text(text, encoding="utf-8")
        return ["solve", "--algo", "gs", "--input", str(ipath)]
    return args


MALFORMED_RUNS = {
    "negative-kmax": _bad_kmax,
    "negative-n": lambda tmp_path: ["gen", "--family", "random", "--n", "-1",
                                    "--delta", "1/4", "-o", str(tmp_path / "o.json")],
    "directory-input": lambda tmp_path: ["solve", "--algo", "gs",
                                         "--input", str(tmp_path)],
    "not-utf8": _latin1_input,
    "not-utf8-graph": _latin1_graph,
    "deep-nesting": _written_input("[" * 100_000 + "]" * 100_000),
    "huge-integer": _written_input('{"n": ' + "9" * 5000 + "}"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RUNS))
def test_malformed_input_exits_2_with_a_message(case, tmp_path):
    """Run as a program, so that an uncaught exception shows as a traceback."""
    src = Path(minimaxsm.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "minimaxsm.cli", *MALFORMED_RUNS[case](tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert re.search(r"^error: ", proc.stderr, re.M)
    assert "Traceback" not in proc.stderr


def test_instance_n_must_be_an_integer():
    doc = {"n": "2", "men": [[[1], [2]]] * 2, "women": [[[1], [2]]] * 2}
    with pytest.raises(ValidationError, match="expected an integer"):
        instance_from_dict(doc)


def test_oracle_minimax_agrees_with_verify(tmp_path, capsys):
    inst = gen_random(3, Fraction(1, 2), seed=21)
    ipath, mpath = tmp_path / "i.json", tmp_path / "m.json"
    save_instance(inst, ipath)
    mpath.write_text(
        json.dumps(matching_to_dict(Matching.identity(3))), encoding="utf-8"
    )
    assert main(["oracle", "--mode", "minimax", "--input", str(ipath),
                 "--matching", str(mpath)]) == 0
    minimax = json.loads(capsys.readouterr().out)["max_blocking_pairs"]
    assert main(["verify", "--input", str(ipath), "--matching", str(mpath)]) == 0
    verify = json.loads(capsys.readouterr().out)
    assert minimax == len(verify["super_blocking_pairs"])


def test_oracle_min_super_bp_zero_on_solvable(tmp_path, capsys):
    ipath = tmp_path / "i.json"
    save_instance(strict([[0, 1], [0, 1]], [[0, 1], [0, 1]]), ipath)
    assert main(["oracle", "--mode", "min-super-bp", "--input", str(ipath)]) == 0
    assert json.loads(capsys.readouterr().out)["optimum"] == 0


def test_oracle_budget_exceeded(tmp_path, capsys):
    ipath = tmp_path / "i.json"
    save_instance(gen_random(6, Fraction(1, 4), seed=1), ipath)
    assert main(["oracle", "--mode", "min-delete", "--input", str(ipath)]) == 4
    assert "budget" in capsys.readouterr().err


def test_oracle_minimax_rejects_absent_agents_before_the_budget(tmp_path, capsys):
    ipath, mpath = tmp_path / "i.json", tmp_path / "m.json"
    save_instance(gen_random(6, Fraction(1, 4), seed=1), ipath)
    mpath.write_text(json.dumps({"pairs": [[1, 7]]}), encoding="utf-8")
    argv = ["oracle", "--mode", "minimax", "--input", str(ipath)]
    assert main([*argv, "--matching", str(mpath)]) == 2
    assert "absent agent" in capsys.readouterr().err


def test_oracle_minimax_requires_matching(tmp_path, capsys):
    ipath = tmp_path / "i.json"
    save_instance(gen_random(3, Fraction(1, 4), seed=1), ipath)
    assert main(["oracle", "--mode", "minimax", "--input", str(ipath)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_bench_paper_suite(tmp_path):
    out = tmp_path / "paper.csv"
    assert main(["bench", "--suite", "paper", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert {r["family"] for r in rows} == {"fig1", "fig3", "fig4", "vc"}
    by_id = {r["id"]: r for r in rows}
    assert by_id["fig1-n8-exact"]["super_bp_count"] == "0"
    assert int(by_id["fig1-n16-gs"]["super_bp_count"]) >= 6
    assert by_id["fig4-n16-algo1"]["obvious_bp_count"] == "0"
    assert int(by_id["vc-k3-yes"]["super_bp_count"]) <= 18
    assert all(r["ratio"] == "" for r in rows)  # no oracle at these sizes
    assert all(re.fullmatch(r"\d+\.\d{3}", r["runtime_ms"]) for r in rows)
    assert any(float(r["runtime_ms"]) > 0 for r in rows)


def test_bench_random_suite_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["bench", "--suite", "random", "--seed", "5",
                     "--out", str(out)]) == 0

    def stable_cells(path):
        return [
            {k: v for k, v in row.items() if k != "runtime_ms"}
            for row in read_rows(path)
        ]

    assert stable_cells(a) == stable_cells(b)
    rows = read_rows(a)
    assert all(r["oracle_optimum"] != "" for r in rows)
    for row in rows:
        num, _, den = row["ratio"].partition("/")
        assert int(num) >= int(den or 1) or row["ratio"] == "0"


def test_bench_random_exact_matches_oracle(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["bench", "--suite", "random", "--seed", "1",
                 "--out", str(out)]) == 0
    for row in read_rows(out):
        if row["algorithm"] == "exact":
            assert int(row["super_bp_count"]) == int(row["oracle_optimum"])


def test_bench_scale_suite_records_each_phase(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SCALE_SIZES", (5, 9))
    out = tmp_path / "scale.json"
    assert main(["bench", "--suite", "scale", "--out", str(out)]) == 0
    records = json.loads(out.read_text(encoding="utf-8"))["records"]
    assert [(r["family"], r["n"], r["algorithm"]) for r in records] == [
        ("two_sided_tie_market", 5, "gs"), ("two_sided_tie_market", 9, "gs"),
        ("bottom_tie_market", 5, "algo1"), ("bottom_tie_market", 9, "algo1"),
    ]
    for record in records:
        inst = getattr(generators, record["family"])(record["n"], random.Random(1))
        if record["algorithm"] == "gs":
            report = gale_shapley_completion(inst, seed=0)
        else:
            report = min_delete_approx(inst)
        text = dumps(report_to_dict(report)) + "\n"
        assert record["super_bp_count"] == report.super_bp_count
        assert record["report_sha256"] == hashlib.sha256(text.encode()).hexdigest()[:16]
        phases = [record[k] for k in ("parse_ms", "solve_ms", "serialize_ms")]
        assert min(phases) > 0 and record["certify_ms"] > 0
        for phase in cli.SCALE_PHASES:
            assert record[f"{phase}_min"] <= record[phase] <= record[f"{phase}_max"]
        # each phase's median is taken apart, so allow the sum some slack
        assert record["end_to_end_ms"] >= 0.5 * sum(phases)


def test_csv_uses_lf_line_endings(tmp_path):
    out = tmp_path / "paper.csv"
    assert main(["bench", "--suite", "paper", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw


# ---------------------------------------------------------------------------
# written bytes
# ---------------------------------------------------------------------------

def _solve_args(algo, make_inst, *extra):
    def args(tmp_path):
        ipath = tmp_path / "i.json"
        save_instance(make_inst(), ipath)
        return ["solve", "--algo", algo, "--input", str(ipath), *extra]
    return args


def _verify_args(tmp_path):
    rng = random.Random(3)
    ipath, mpath = tmp_path / "i.json", tmp_path / "m.json"
    save_instance(two_sided_tie_market(100, rng), ipath)
    save_matching(Matching(list(enumerate(rng.sample(range(100), 100)))), mpath)
    return ["verify", "--input", str(ipath), "--matching", str(mpath)]


def _verify_partial_args(tmp_path):
    """About ten agents per side left unmatched."""
    rng = random.Random(4)
    ipath, mpath = tmp_path / "i.json", tmp_path / "m.json"
    save_instance(two_sided_tie_market(100, rng), ipath)
    men, women = rng.sample(range(100), 90), rng.sample(range(100), 90)
    save_matching(Matching(list(zip(men, women))), mpath)
    return ["verify", "--input", str(ipath), "--matching", str(mpath)]


def _gen_vc_args(tmp_path):
    graph = tmp_path / "tri.txt"
    graph.write_text("3 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
    return ["gen", "--family", "vc", "--graph", str(graph), "--k0", "2",
            "--y", "4", "--z", "2"]


# case -> (arguments before -o, name of the file hashed, SHA-256 prefix).
# Digests taken from the writer built on json.dumps(indent=2,
# sort_keys=True); any change to the writer must reproduce them.
WRITTEN_CASES = {
    "solve-gs": (
        _solve_args("gs", lambda: two_sided_tie_market(100, random.Random(1)),
                    "--seed", "11"),
        "out.json", "94bad67cdbffb942"),
    "solve-algo1": (
        _solve_args("algo1", lambda: bottom_tie_market(100, random.Random(2))),
        "out.json", "de29eaba16ecce9b"),
    "solve-exact": (
        _solve_args("exact", lambda: gen_fig1(8, Fraction(1, 4)), "--kmax", "2"),
        "out.json", "aa6e5673353cde66"),
    "verify": (_verify_args, "out.json", "5a901eab9ef52a07"),
    "verify-partial": (_verify_partial_args, "out.json", "86c51649c70c1a1d"),
    "gen-vc-cert": (_gen_vc_args, "out.cert.json", "74cb7bf7f9d687b8"),
}


@pytest.mark.parametrize("case", sorted(WRITTEN_CASES))
def test_written_files_are_byte_identical(case, tmp_path, capsys):
    make_args, name, digest = WRITTEN_CASES[case]
    args = make_args(tmp_path)
    assert main([*args, "-o", str(tmp_path / "out.json")]) == 0
    raw = (tmp_path / name).read_bytes()
    assert hashlib.sha256(raw).hexdigest()[:16] == digest
    if args[0] != "gen":
        # print adds the newline that write_json adds to the file
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out == raw.decode("utf-8")


# bench arguments -> SHA-256 prefix of the CSV with its last column,
# runtime_ms, cut from every line.
BENCH_DIGESTS = {
    ("--suite", "paper"): "5e3081d5bd8b9f56",
    ("--suite", "random", "--seed", "5"): "5d456b9589b1cdd1",
}


@pytest.mark.parametrize("args", sorted(BENCH_DIGESTS), ids="-".join)
def test_bench_csv_is_byte_identical_but_for_runtime(args, tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", *args, "--out", str(out)]) == 0
    lines = out.read_bytes().split(b"\n")
    stable = b"\n".join(line.rpartition(b",")[0] for line in lines)
    assert hashlib.sha256(stable).hexdigest()[:16] == BENCH_DIGESTS[args]
