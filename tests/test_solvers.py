"""Solvers: completion-based matching, super-stability, exact search, and the
deletion pipeline with its vertex-cover step."""

import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import minimaxsm
from minimaxsm import solvers
from minimaxsm import (
    Instance,
    Matching,
    TierList,
    ValidationError,
    WorkingInstance,
    assemble_from_deletion,
    count_super_blocking_pairs,
    deletion_stages,
    exact_min_super_bp,
    find_exposed_rotation,
    gale_shapley_completion,
    is_super_stable,
    is_weakly_stable,
    min_delete_approx,
    min_vertex_cover_bipartite,
    propose_with,
    super_stable_solve,
    validate_one_sided_top_truncated,
)
from minimaxsm.oracles import (
    OracleBudget,
    max_internal_super_stable_size,
    min_delete,
    min_super_bp,
)
from minimaxsm.files import dumps, matching_to_dict, report_to_dict
from minimaxsm.solvers import (
    DegenerateInstanceError,
    PreconditionError,
    _demote,
    eliminate_rotation,
)
from minimaxsm.generators import gen_fig1, gen_fig4, gen_random

import dict_pipeline
from conftest import (
    bottom_tie_market,
    strict,
    tied_order,
    tiered,
    two_sided_tie_market,
)

BIG = OracleBudget(max_agents=8, max_completions=10**6, max_matchings=10**6)


# ---------------------------------------------------------------------------
# gale_shapley_completion
# ---------------------------------------------------------------------------

def test_gs_on_strict_two_by_two():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    report = gale_shapley_completion(inst)
    assert report.matching == Matching([(0, 0), (1, 1)])
    assert report.super_blocking_pairs == ()


def test_gs_always_weakly_stable(mixed_corpus):
    for idx, inst in enumerate(mixed_corpus):
        for seed in (None, idx, idx + 13):
            report = gale_shapley_completion(inst, seed=seed)
            assert report.obvious_blocking_pairs == ()
            assert is_weakly_stable(inst, report.matching)
            assert report.matching.is_perfect(inst.n)


def test_gs_deterministic_per_seed(mixed_corpus):
    inst = mixed_corpus[0]
    a = gale_shapley_completion(inst, seed=42)
    b = gale_shapley_completion(inst, seed=42)
    assert a == b


def test_gs_witness_is_tight(mixed_corpus):
    for inst in mixed_corpus[:10]:
        report = gale_shapley_completion(inst, seed=7)
        bps = report.witness_completion.blocking_pairs(report.matching)
        assert len(bps) == report.super_bp_count


# ---------------------------------------------------------------------------
# super_stable_solve
# ---------------------------------------------------------------------------

def test_super_stable_on_strict_is_man_optimal():
    # classic two-stable-matchings market: man-proposing picks the men's one
    inst = strict([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    assert super_stable_solve(inst) == Matching([(0, 0), (1, 1)])


def test_super_stable_none_on_fig1_16():
    assert super_stable_solve(gen_fig1(16, Fraction(1, 4))) is None


def test_super_stable_with_one_tied_man():
    # m1 ties both women; the others' strict first choices are symmetric
    inst = tiered(
        men=[[[0, 1]], [[1], [0]]],
        women=[[[0], [1]], [[1], [0]]],
    )
    _check_super_stable_solve(inst)


def _check_super_stable_solve(inst):
    got = super_stable_solve(inst)
    count, _ = min_super_bp(inst, BIG)
    assert (got is not None) == (count == 0)
    if got is not None:
        assert is_super_stable(inst, got)


def test_super_stable_matches_oracle(mixed_corpus):
    for inst in mixed_corpus:
        _check_super_stable_solve(inst)


def _man_optimal_super_stable(inst):
    """By brute force over permutations: the super-stable perfect matching
    that gives every man his best rank among all of them, or None when
    there is none.  Asserts that exactly one matching does that."""
    n, mr, wr = inst.n, inst.men_rank, inst.women_rank
    found = []
    for wife in itertools.permutations(range(n)):
        husband = [0] * n
        for m, w in enumerate(wife):
            husband[w] = m
        if not any(
            w != wife[m]
            and mr[m][w] <= mr[m][wife[m]]
            and wr[w][m] <= wr[w][husband[w]]
            for m in range(n)
            for w in range(n)
        ):
            found.append(wife)
    if not found:
        return None
    best = [min(mr[m][wife[m]] for wife in found) for m in range(n)]
    optimal = [
        wife for wife in found if all(mr[m][wife[m]] == best[m] for m in range(n))
    ]
    assert len(optimal) == 1
    return Matching(enumerate(optimal[0]))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_super_stable_solve_is_man_optimal(n):
    rng = random.Random(n)
    all_pairs = [(m, w) for m in range(n) for w in range(n)]
    solvable = 0
    for _ in range(150):
        inst = two_sided_tie_market(n, rng)
        demoted = _demote(inst, tuple(rng.sample(all_pairs, rng.randint(1, 2))))
        for market in (inst, demoted):
            expected = _man_optimal_super_stable(market)
            assert super_stable_solve(market) == expected
            solvable += expected is not None
    assert solvable > 0
    for _ in range(75):
        market = strict(
            [rng.sample(range(n), n) for _ in range(n)],
            [rng.sample(range(n), n) for _ in range(n)],
        )
        expected = _man_optimal_super_stable(market)
        assert super_stable_solve(market) == expected
        assert gale_shapley_completion(market).matching == expected


# ---------------------------------------------------------------------------
# exact_min_super_bp
# ---------------------------------------------------------------------------

def test_exact_returns_super_stable_directly():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    report = exact_min_super_bp(inst)
    assert report is not None
    assert report.super_bp_count == 0
    assert report.algorithm == "exact"


def test_exact_on_fig1_smallest_tied_size():
    # n=12 is the smallest size where this family keeps real ties
    report = exact_min_super_bp(gen_fig1(12, Fraction(1, 4)), k_max=2)
    assert report is not None
    assert report.super_bp_count == 1


def test_exact_rejects_negative_kmax():
    with pytest.raises(ValueError):
        exact_min_super_bp(strict([[0]], [[0]]), k_max=-1)


def test_exact_exhausted_returns_none():
    inst = gen_fig1(16, Fraction(1, 4))
    assert exact_min_super_bp(inst, k_max=0) is None


def test_exact_equals_oracle(mixed_corpus):
    for inst in mixed_corpus[:25]:
        report = exact_min_super_bp(inst)
        count, _ = min_super_bp(inst)
        assert report is not None and report.super_bp_count == count


# SHA-256 prefixes of the written exact report for each market of
# _exact_pin_corpus(): 38 have optimum 0, 31 optimum 1, 10 optimum 2 and one
# optimum 3, so the search demotes some pairs' rows more than once.
EXACT_REPORT_DIGESTS = [
    "d720e7ce44dfb101", "dca16daed40b50d1", "4af1ac27bc3eda22", "9049aafd0073a5a4",
    "8dff4a8c20e23455", "c7acdadd9d260a9d", "9a07e9cfa71532fc", "b03e26e14c09391d",
    "8aa66630badf68ca", "9dfd557b216a4f70", "e5da6b191e8fefd7", "d10195729050d728",
    "855a627436b90dc7", "5409e460c0a4da39", "8569d584c372ffd7", "c39b8e699eed8879",
    "9b7fd635769b76cc", "dc3c3560532a7e49", "79220e37067f894b", "155c6a6ea934c217",
    "65fe24c63d2daf27", "5067ceef9826a3e1", "07bca7dc1fd24eda", "b28b01152ede94b5",
    "54eaa7220a05907e", "e79e6afbe7d2a771", "636c06a2d8282c11", "146601f8f1f1046d",
    "b01500a0fb5ee2da", "0dc7744936ea202d", "cf20a971841ce159", "5dd81e3c3a706c05",
    "ca86109ed308b8de", "3b3a2bef92aa2036", "9a2aaf1639fd63df", "a2689134079861a4",
    "2094d8c68a320d84", "2a37a917cb9d33b5", "8cfc4f25238226af", "f75bde66c915bba0",
    "57ff0ee87b6a7039", "cea8d82953b437c0", "269d8d6330a20726", "8dcadf5a851c4e06",
    "244e96df774db050", "424569c0a27c5066", "ffe1a363fad3da09", "a00240dffbfdd251",
    "71c4d595e706ec73", "44cc6e83a7ee8331", "e152153d3ee43dc0", "1897a22f48b0ab86",
    "756eb9c073869ea4", "528565842d463ee2", "ca5cabb626e5e3c9", "16c3ec5d4658daff",
    "ae759de7e0ef813e", "ef5f9fe3bb7c7314", "736f854c691cff70", "327d099040d69af9",
    "39d9e8bf47b6450b", "6930b743848b387b", "661c013fe91be75b", "bcc95652ecf8a2fc",
    "75bafec16067fa87", "382b9d3282aaf50b", "77e4c008728324ac", "4eed1875d4a77e07",
    "d5d0bf4caf0c30a9", "409a277c9f255065", "e744b9d9ccad8852", "a37cc28a5121552e",
    "189601f41f027e00", "6fda327813c7fe07", "c9ba5c0c7e4f1857", "d577959f8054c359",
    "c3d6d47440e244af", "369b89770a2d9a70", "a3646ddf2c1c1b99", "9d49095aa729390a",
]


def _exact_pin_corpus():
    rng = random.Random(11)
    return [two_sided_tie_market(4 + i % 2, rng) for i in range(80)]


def test_exact_reports_are_byte_identical():
    got = [
        hashlib.sha256(dumps(report_to_dict(exact_min_super_bp(m))).encode())
        .hexdigest()[:16]
        for m in _exact_pin_corpus()
    ]
    assert got == EXACT_REPORT_DIGESTS


# SHA-256 prefixes of the written exact report for the first six markets of
# one Random(17) stream (n alternating 4 and 5) whose search tries at least
# 300 candidate sets: optima 3, 3, 4, 3, 3, 3 after 635, 514, 10585, 407,
# 1311 and 625 sets, so most sets tried demote two or more partners of
# one agent.
DEEP_EXACT_REPORT_DIGESTS = [
    "9e02c7022c6be4dc", "63d166ca02cd9443", "d4802a44e3e8c182",
    "5f47df967e1e5508", "11dd62996a7f4a2a", "b13e73fa64f1f54e",
]


def test_deep_exact_reports_are_byte_identical(monkeypatch):
    calls = 0

    def counted(inst):
        nonlocal calls
        calls += 1
        return super_stable_solve(inst)

    monkeypatch.setattr(minimaxsm.solvers, "super_stable_solve", counted)
    rng = random.Random(17)
    got, tried = [], []
    for i in range(200):  # the sixth comes at draw 174
        calls = 0
        report = exact_min_super_bp(two_sided_tie_market(4 + i % 2, rng))
        if calls >= 300:
            digest = hashlib.sha256(dumps(report_to_dict(report)).encode())
            got.append(digest.hexdigest()[:16])
            tried.append(calls)
            if len(got) == len(DEEP_EXACT_REPORT_DIGESTS):
                break
    assert tried == [635, 514, 10585, 407, 1311, 625]
    assert got == DEEP_EXACT_REPORT_DIGESTS


def test_demote_preserves_other_tiers():
    inst = tiered(
        men=[[[0, 1], [2]], [[0], [1], [2]], [[2], [1], [0]]],
        women=[[[0, 1, 2]], [[1], [0], [2]], [[2], [0], [1]]],
    )
    mod = _demote(inst, ((0, 0), (0, 2)))
    assert mod.men[0].tiers == ((1,), (0, 2))
    assert mod.women[0].tiers == ((1, 2), (0,))
    assert mod.women[2].tiers == ((2,), (1,), (0,))
    assert mod.men[1] == inst.men[1]



def test_demote_reuses_rows_correctly():
    """Rows kept in a shared dict across many calls equal a fresh rebuild;
    the dict holds one row per (side, agent, ascending drop set), at most
    2n(2^n - 1) of them."""

    def rebuilt(tl, drop):
        kept = [[x for x in tier if x not in drop] for tier in tl.tiers]
        return tuple(map(tuple, filter(None, [*kept, sorted(drop)])))

    rng = random.Random(8)
    repeated = multi = 0
    for n in range(2, 7):
        all_pairs = [(m, w) for m in range(n) for w in range(n)]
        for _ in range(4):
            inst = two_sided_tie_market(n, rng)
            single = {}
            for _ in range(150):
                pairs = tuple(rng.sample(all_pairs, rng.randint(1, min(5, n * n))))
                repeated += len({m for m, _ in pairs}) < len(pairs)
                mod = _demote(inst, pairs, single)
                for side, old, new in ((0, inst.men, mod.men), (1, inst.women, mod.women)):
                    for agent in range(n):
                        drop = {p[1 - side] for p in pairs if p[side] == agent}
                        tiers = rebuilt(old[agent], drop)
                        rank = [0] * n
                        for r, tier in enumerate(tiers):
                            for x in tier:
                                rank[x] = r
                        assert new[agent].tiers == tiers
                        assert new[agent].rank == tuple(rank)
                        if not drop:
                            assert new[agent] is old[agent]
            assert len(single) <= 2 * n * (2**n - 1)
            for (side, agent, drop), row in single.items():
                assert side in (0, 1) and 0 <= agent < n
                assert drop and list(drop) == sorted(set(drop))
                assert all(0 <= x < n for x in drop)
                old = (inst.men, inst.women)[side][agent]
                assert row.tiers == rebuilt(old, set(drop))
                multi += len(drop) > 1
    assert repeated > 0 and multi > 0


def test_demote_shares_untouched_rows():
    """A demoted market is a copy of its input with only the pairs' agents'
    rows replaced, and equals a market built from scratch."""
    rng = random.Random(9)
    for n in range(1, 6):
        all_pairs = [(m, w) for m in range(n) for w in range(n)]
        for _ in range(20):
            inst = two_sided_tie_market(n, rng)
            pairs = tuple(rng.sample(all_pairs, rng.randint(0, min(4, n * n))))
            mod = _demote(inst, pairs)
            touched = ({m for m, _ in pairs}, {w for _, w in pairs})
            for side, (old, new, old_rank, new_rank) in enumerate((
                (inst.men, mod.men, inst.men_rank, mod.men_rank),
                (inst.women, mod.women, inst.women_rank, mod.women_rank),
            )):
                for agent in range(n):
                    assert new_rank[agent] is new[agent].rank
                    if agent not in touched[side]:
                        assert new[agent] is old[agent]
                        assert new_rank[agent] is old_rank[agent]
            fresh = Instance(mod.men, mod.women)
            assert mod == fresh and (mod.n, mod.delta) == (fresh.n, fresh.delta)
            assert mod.men_rank == fresh.men_rank
            assert mod.women_rank == fresh.women_rank

    inst = two_sided_tie_market(3, rng)
    short = TierList([[0], [1]])
    with pytest.raises(ValidationError, match="woman 2: ranks 2 agents, not 3"):
        inst.with_rows({}, {1: short})
    with pytest.raises(ValidationError, match="man 3: ranks 2 agents, not 3"):
        inst.with_rows({2: short}, {})


# ---------------------------------------------------------------------------
# propose_with
# ---------------------------------------------------------------------------

def test_propose_with_reduces_to_deferred_acceptance():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    work = WorkingInstance(inst)
    propose_with(work, "men")
    # engagements equal deferred acceptance: w1 keeps m1 and drops m2,
    # while undominated entries survive
    assert list(work.men_lists[0]) == [0, 1]
    assert list(work.men_lists[1]) == [1]
    assert list(work.women_lists[0]) == [0]
    assert list(work.women_lists[1]) == [0, 1]


def test_propose_with_is_idempotent(top_truncated_corpus):
    for inst in top_truncated_corpus[:20]:
        work = WorkingInstance(inst)
        propose_with(work, "men")
        once = work.pair_set()
        propose_with(work, "men")
        assert work.pair_set() == once


def test_propose_with_requires_tie_free_proposers():
    inst = tiered(
        men=[[[0], [1]], [[0], [1]]],
        women=[[[0, 1]], [[0], [1]]],
    )
    work = WorkingInstance(inst)
    with pytest.raises(PreconditionError):
        propose_with(work, "women")


def test_propose_with_rejects_an_unknown_side():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    with pytest.raises(ValueError, match="unknown side 'couples'"):
        propose_with(WorkingInstance(inst), "couples")
    with pytest.raises(ValueError, match="unknown side 'couples'"):
        WorkingInstance(inst).side_is_strict("couples")


def test_propose_with_clears_womens_ties(top_truncated_corpus):
    for inst in top_truncated_corpus[:20]:
        work = WorkingInstance(inst)
        propose_with(work, "men")
        assert work.side_is_strict("women")


def test_propose_with_reports_degenerate_lists():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    work = WorkingInstance(inst)
    work.delete(0, 0)
    work.delete(0, 1)
    with pytest.raises(DegenerateInstanceError):
        propose_with(work, "men")


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def test_no_rotation_when_lists_are_singletons():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    work = WorkingInstance(inst)
    propose_with(work, "men")
    propose_with(work, "women")
    assert find_exposed_rotation(work) is None


def test_rotation_found_and_eliminated():
    # cyclic 2x2: men and women disagree, both full lists survive the passes
    inst = strict([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    work = WorkingInstance(inst)
    propose_with(work, "men")
    propose_with(work, "women")
    rotation = find_exposed_rotation(work)
    assert rotation == [(0, 0), (1, 1)]
    before = len(work.pair_set())
    from minimaxsm.solvers import eliminate_rotation

    eliminate_rotation(work, rotation)
    assert len(work.pair_set()) == before - len(rotation)
    propose_with(work, "men")
    propose_with(work, "women")
    assert find_exposed_rotation(work) is None


def test_rotation_walk_that_closes_on_no_rotation_raises():
    # Before any pass the lists are not GS-lists: from man 1 the walk goes to
    # his second woman, whose last man is man 1 again, but she is not his
    # first.  The check is a raise, so it holds under python -O.
    inst = strict([[0, 1], [0, 1]], [[0, 1], [1, 0]])
    with pytest.raises(DegenerateInstanceError, match="closed on no rotation"):
        find_exposed_rotation(WorkingInstance(inst))


def test_pipeline_raises_when_its_final_lists_are_not_a_perfect_matching(monkeypatch):
    inst = strict([[0]], [[0]])
    emptied = WorkingInstance(inst)
    emptied.delete(0, 0)
    monkeypatch.setattr(solvers, "deletion_stages", lambda inst: iter([("start", emptied)]))
    with pytest.raises(DegenerateInstanceError, match="not a perfect matching"):
        min_delete_approx(inst)


def test_delete_takes_a_mans_first_entry_only():
    inst = tiered(men=[[[0, 1], [2]]] * 3, women=[[[0], [1], [2]]] * 3)
    work = WorkingInstance(inst)
    with pytest.raises(ValueError, match="woman 3 is not first on man 1's list"):
        work.delete(0, 2)
    # woman 1 ties with woman 2 on man 1's list: a head step would drop both
    with pytest.raises(ValueError, match="man 1 ties woman 1 with another"):
        work.delete(0, 0)
    work = WorkingInstance(strict([[1, 0], [0, 1]], [[0, 1], [0, 1]]))
    work.delete(0, 1)
    assert work.men_lists == [[0], [0, 1]]
    assert work.women_lists == [[0, 1], [1]]


# ---------------------------------------------------------------------------
# vertex cover
# ---------------------------------------------------------------------------

def brute_force_cover_size(edges):
    men = sorted({m for m, _ in edges})
    women = sorted({w for _, w in edges})
    vertices = [("m", m) for m in men] + [("w", w) for w in women]
    for size in range(len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            chosen = set(subset)
            if all(
                ("m", m) in chosen or ("w", w) in chosen for m, w in edges
            ):
                return size
    return 0


def test_cover_of_empty_graph():
    assert min_vertex_cover_bipartite([]) == (set(), set())


def test_cover_of_single_edge():
    cover_men, cover_women = min_vertex_cover_bipartite([(3, 5)])
    assert len(cover_men) + len(cover_women) == 1


def test_cover_of_complete_2x3():
    edges = [(m, w) for m in range(2) for w in range(3)]
    cover_men, cover_women = min_vertex_cover_bipartite(edges)
    assert len(cover_men) + len(cover_women) == 2
    assert all(m in cover_men or w in cover_women for m, w in edges)


def test_cover_matches_brute_force():
    import random

    rng = random.Random(99)
    for _ in range(40):
        edges = {
            (rng.randrange(4), rng.randrange(4))
            for _ in range(rng.randrange(1, 9))
        }
        cover_men, cover_women = min_vertex_cover_bipartite(edges)
        assert all(m in cover_men or w in cover_women for m, w in edges)
        assert len(cover_men) + len(cover_women) == brute_force_cover_size(edges)


def test_cover_of_a_long_path():
    # each new man's first woman starts an alternating path through every
    # earlier man, deeper than Python's recursion limit
    edges = [(i, i) for i in range(1500)] + [(i + 1, i) for i in range(1500)]
    cover_men, cover_women = min_vertex_cover_bipartite(edges)
    assert all(m in cover_men or w in cover_women for m, w in edges)
    assert len(cover_men) + len(cover_women) == 1500


# ---------------------------------------------------------------------------
# deletion pipeline
# ---------------------------------------------------------------------------

def test_pipeline_requires_top_truncated():
    with pytest.raises(PreconditionError):
        min_delete_approx(gen_fig1(16, Fraction(1, 4)))


def test_pipeline_on_solvable_instance_deletes_nothing():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    report = min_delete_approx(inst)
    assert report.deleted_men == () and report.deleted_women == ()
    assert is_super_stable(inst, report.matching)


def test_pipeline_output_is_weakly_stable(top_truncated_corpus):
    for inst in top_truncated_corpus:
        report = min_delete_approx(inst)
        assert report.obvious_blocking_pairs == ()
        assert report.matching.is_perfect(inst.n)
        assert report.algorithm == "algo1"


def test_pipeline_two_approximation(top_truncated_corpus):
    for inst in top_truncated_corpus:
        report = min_delete_approx(inst)
        dm, dw = min_delete(inst)
        optimum = len(dm) + len(dw)
        deleted = len(report.deleted_men) + len(report.deleted_women)
        assert deleted <= 2 * optimum
        assert report.super_bp_count <= 2 * inst.n * optimum


def test_pipeline_deletion_set_covers_all_blocking_pairs(top_truncated_corpus):
    for inst in top_truncated_corpus[:25]:
        report = min_delete_approx(inst)
        dm = set(report.deleted_men)
        dw = set(report.deleted_women)
        for m, w in report.super_blocking_pairs:
            assert m in dm or w in dw


def test_pipeline_on_fig4_desk_size():
    inst, _ = gen_fig4(8, Fraction(1, 4))
    report = min_delete_approx(inst)
    dm, dw = min_delete(inst, BIG)
    assert len(report.deleted_men) + len(report.deleted_women) <= 2 * (
        len(dm) + len(dw)
    )


def test_pipeline_exits_with_consistent_singletons(top_truncated_corpus):
    inst = top_truncated_corpus[0]
    stages = [(stage, work.pair_set()) for stage, work in deletion_stages(inst)]
    assert stages[0][0] == "start"
    final_pairs = stages[-1][1]
    men_seen = [m for m, _ in final_pairs]
    women_seen = [w for _, w in final_pairs]
    assert sorted(men_seen) == list(range(inst.n))
    assert sorted(women_seen) == list(range(inst.n))


def _restarted_stages(inst):
    """The pipeline with every pass restarted from all agents: two full
    ``propose_with`` passes after each rotation."""
    if not validate_one_sided_top_truncated(inst):
        raise PreconditionError("not one-sided top-truncated")
    work = WorkingInstance(inst)
    yield "start", work
    while True:
        propose_with(work, "men")
        yield "propose-men", work
        propose_with(work, "women")
        yield "propose-women", work
        rotation = find_exposed_rotation(work)
        if rotation is None:
            return
        eliminate_rotation(work, rotation)
        yield "rotation", work


def _snapshots(stages):
    """Each stage's label and surviving pairs, ended by the type of any
    exception raised."""
    out = []
    try:
        for label, work in stages:
            out.append((label, work.pair_set()))
    except Exception as exc:
        out.append(type(exc))
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_deletion_stages_match_restarted_passes(n):
    for seed in range(400):
        inst = bottom_tie_market(n, random.Random(seed))
        assert _snapshots(deletion_stages(inst)) == _snapshots(
            _restarted_stages(inst)), seed


def test_deletion_stages_match_restarted_passes_top_truncated():
    for n in (3, 5, 8, 13, 21, 40):
        for seed in range(5):
            inst = gen_random(n, Fraction(1, 2), seed=seed, top_truncated=True)
            assert _snapshots(deletion_stages(inst)) == _snapshots(
                _restarted_stages(inst)), (n, seed)


def _full_snapshots(stages):
    """Each stage's label, surviving pairs, both sides' lists in order and
    whether each side is tie-free, ended by the type of any exception."""
    out = []
    try:
        for label, work in stages:
            out.append((label, work.pair_set(),
                        [list(x) for x in work.men_lists],
                        [list(x) for x in work.women_lists],
                        work.side_is_strict("men"), work.side_is_strict("women")))
    except Exception as exc:
        out.append(type(exc))
    return out


def _matches_dict_pipeline(inst):
    """The bounds-based pipeline against the dict-based one it replaced."""
    assert _full_snapshots(deletion_stages(inst)) == _full_snapshots(
        dict_pipeline.deletion_stages(inst))


@pytest.mark.parametrize("n", range(1, 9))
def test_deletion_stages_match_the_dict_pipeline(n):
    for seed in range(400):
        _matches_dict_pipeline(bottom_tie_market(n, random.Random(seed)))


def test_deletion_stages_match_the_dict_pipeline_top_truncated_and_fig4(
        top_truncated_corpus):
    markets = list(top_truncated_corpus)
    markets += [
        gen_random(n, Fraction(1, 2), seed=seed, top_truncated=True)
        for n in (2, 3, 4, 5, 8, 13, 21, 40) for seed in range(10)
    ]
    markets += [gen_fig4(n, Fraction(1, 4))[0] for n in (8, 16, 40)]
    for inst in markets:
        _matches_dict_pipeline(inst)


def _apply(op, work, api):
    """One step of a random call sequence on either implementation."""
    propose, find, eliminate = api
    if op in ("men", "women"):
        propose(work, op)
    elif op == "rotation":
        rotation = find(work)
        if rotation is not None:
            eliminate(work, rotation)
    else:
        lists = [list(x) for x in work.men_lists]
        m = op % work.n
        if lists[m]:
            work.delete(m, lists[m][0])


def test_working_lists_match_the_dict_ones_under_any_call_order():
    """Passes, rotations and head deletions in random order, on markets
    where the men are strict and the women tie anywhere or nowhere."""
    new_api = (propose_with, find_exposed_rotation, eliminate_rotation)
    old_api = (dict_pipeline.propose_with, dict_pipeline.find_exposed_rotation,
               dict_pipeline.eliminate_rotation)
    rng = random.Random(5)
    for trial in range(600):
        n = rng.randint(1, 6)
        if trial % 3 == 0:
            inst = bottom_tie_market(n, rng)
        else:
            men = [TierList.from_order(rng.sample(range(n), n)) for _ in range(n)]
            women = [tied_order(rng, rng.sample(range(n), n), 0.4 * (trial % 3 - 1))
                     for _ in range(n)]
            inst = Instance(men, women)
        ops = [rng.choice(["men", "women", "rotation", rng.randrange(n)])
               for _ in range(6)]
        new, old = WorkingInstance(inst), dict_pipeline.DictWorkingInstance(inst)
        for op in ops:
            outcomes = []
            for work, api in ((new, new_api), (old, old_api)):
                try:
                    _apply(op, work, api)
                    outcomes.append(_full_snapshots([("", work)]))
                except (PreconditionError, DegenerateInstanceError) as exc:
                    outcomes.append((type(exc), str(exc)))
                except AssertionError:
                    # the dict version checked a rotation's cycle with assert
                    outcomes.append((DegenerateInstanceError, "no rotation"))
            if outcomes[1] == (DegenerateInstanceError, "no rotation"):
                assert "closed on no rotation" in outcomes[0][1]
                break
            assert outcomes[0] == outcomes[1], (trial, ops, op)
            if isinstance(outcomes[0], tuple):
                break


def test_pipeline_ends_on_the_woman_optimal_matching_of_round_one():
    # After round one the lists are tie-free GS-lists (Gusfield & Irving
    # 1989, section 1.2): each man's last entry is the woman whose first
    # entry he is, and eliminating rotations moves the men down to it.
    markets = [
        bottom_tie_market(n, random.Random(seed))
        for n in range(1, 9) for seed in range(400)
    ]
    markets += [
        gen_random(n, Fraction(1, 2), seed=seed, top_truncated=True)
        for n in (2, 3, 4, 5, 8, 13, 21, 40) for seed in range(10)
    ]
    markets += [gen_fig4(n, Fraction(1, 4))[0] for n in (8, 16, 40)]
    for i, inst in enumerate(markets):
        stages = deletion_stages(inst)
        for label, work in stages:
            if label == "propose-women":
                break
        last = {(m, next(reversed(ws))) for m, ws in enumerate(work.men_lists)}
        assert last == {(next(iter(ms)), w) for w, ms in enumerate(work.women_lists)}, i
        for _, work in stages:
            pass
        assert work.pair_set() == last, i


def test_size_preservation_defect_is_still_present():
    """The per-pass invariant the pipeline is built around fails on long ties.

    Pinned counterexample: after the men's pass, the tie sweep deletes a pair
    used by every maximum internally-super-stable matching, and the man it
    re-matches picks up an internal blocking pair through a woman a tie
    conflict removed from his list earlier.  This regression test keeps the
    defect visible; if it starts passing, the xfailed acceptance clause
    should be revisited.
    """
    inst = gen_random(4, Fraction(1, 2), seed=2, top_truncated=True)
    sizes = [
        max_internal_super_stable_size(inst, work.pair_set())
        for _, work in deletion_stages(inst)
    ]
    assert sizes[0] == 3
    assert min(sizes) == 2


@pytest.mark.xfail(
    strict=True,
    reason="the deletion pipeline is not a 2-approximation end to end: here it "
    "deletes two agents although a super-stable matching exists",
)
def test_pipeline_two_approximation_counterexample():
    # The failure is common on bottom-tie markets with trailing ties of
    # random length: bottom_tie_market(n, random.Random(seed)) for seeds
    # 0-2999 fails 63 times at n=3, 111 at n=4 and 172 at n=5.
    # The pipeline ends on {(0,2),(1,1),(2,0)}, which (0,0) super-blocks.
    inst = tiered(
        men=[((1,), (0,), (2,)), ((2,), (1,), (0,)), ((0,), (2,), (1,))],
        women=[((1,), (0, 2)), ((1,), (0,), (2,)), ((2,), (0,), (1,))],
    )
    assert is_super_stable(inst, Matching([(0, 1), (1, 2), (2, 0)]))
    report = min_delete_approx(inst)
    dm, dw = min_delete(inst)
    deleted = len(report.deleted_men) + len(report.deleted_women)
    assert deleted <= 2 * (len(dm) + len(dw))


# ---------------------------------------------------------------------------
# assemble_from_deletion
# ---------------------------------------------------------------------------

def test_assemble_with_empty_deletion_returns_partial():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    partial = Matching([(0, 0), (1, 1)])
    assert assemble_from_deletion(inst, [], [], partial) == partial


def test_assemble_with_everyone_deleted():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    got = assemble_from_deletion(inst, [0, 1], [0, 1], Matching([]))
    assert got == Matching([(0, 0), (1, 1)])
    assert count_super_blocking_pairs(inst, got) <= inst.n * inst.n


def test_assemble_rejects_unbalanced_deletion():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    with pytest.raises(ValidationError):
        assemble_from_deletion(inst, [0], [], Matching([(1, 1)]))


def test_assemble_rejects_partial_touching_deleted():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    with pytest.raises(ValidationError):
        assemble_from_deletion(inst, [0], [0], Matching([(0, 1)]))


def test_assemble_respects_combination_bound():
    # deletion pipeline output on the bottom-tie family, reassembled
    inst, _ = gen_fig4(8, Fraction(1, 4))
    report = min_delete_approx(inst)
    dm, dw = set(report.deleted_men), set(report.deleted_women)
    partial = Matching(
        (m, w) for m, w in report.matching if m not in dm and w not in dw
    )
    beta = sum(
        1
        for m, w in report.super_blocking_pairs
        if m not in dm and w not in dw
    )
    full = assemble_from_deletion(inst, dm, dw, partial)
    n, half = inst.n, len(dm)
    bound = (n - half) * half + beta + half * n
    assert count_super_blocking_pairs(inst, full) <= bound


def test_super_stable_solve_deletes_the_whole_tail_on_a_tie():
    # Demoting the optimum's one super-blocking pair leaves a market with a
    # super-stable matching; rejecting only the proposer and the tied fiance
    # missed it, so the exact search reported 2 here.
    inst = tiered(
        men=[
            ((2, 3), (0,), (1,)),
            ((2, 3), (0, 1)),
            ((0, 1), (2,), (3,)),
            ((2, 3), (0, 1)),
        ],
        women=[
            ((3,), (0, 1), (2,)),
            ((0,), (1, 2, 3)),
            ((1, 2), (0, 3)),
            ((2,), (0, 1, 3)),
        ],
    )
    optimum, _ = min_super_bp(inst)
    assert exact_min_super_bp(inst).super_bp_count == optimum == 1


# ---------------------------------------------------------------------------
# reports at scale, pinned byte for byte
# ---------------------------------------------------------------------------

def _super_stable_market(n, rng):
    """A strict market tied only below each agent's partner in its
    man-optimal stable matching, which therefore stays super-stable."""
    men = [rng.sample(range(n), n) for _ in range(n)]
    women = [rng.sample(range(n), n) for _ in range(n)]
    stable = gale_shapley_completion(strict(men, women)).matching

    def tie_below(order, partner):
        cut = order.index(partner) + 1
        rest = tied_order(rng, order[cut:], 0.5) if cut < n else []
        return [[x] for x in order[:cut]] + rest

    return tiered(
        [tie_below(o, stable.woman_of(m)) for m, o in enumerate(men)],
        [tie_below(o, stable.man_of(w)) for w, o in enumerate(women)],
    )


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


SCALE_CASES = {
    "algo1-bottom-tie-1": lambda: report_to_dict(
        min_delete_approx(bottom_tie_market(100, random.Random(1)))),
    "algo1-bottom-tie-2": lambda: report_to_dict(
        min_delete_approx(bottom_tie_market(100, random.Random(2)))),
    "algo1-bottom-tie-3": lambda: report_to_dict(
        min_delete_approx(bottom_tie_market(100, random.Random(3)))),
    "algo1-fig4-40": lambda: report_to_dict(
        min_delete_approx(gen_fig4(40, Fraction(1, 4))[0])),
    "algo1-bottom-tie-200": lambda: report_to_dict(
        min_delete_approx(bottom_tie_market(200, random.Random(1)))),
    "algo1-fig4-200": lambda: report_to_dict(
        min_delete_approx(gen_fig4(200, Fraction(1, 4))[0])),
    "super-stable-found": lambda: matching_to_dict(
        super_stable_solve(_super_stable_market(100, random.Random(4)))),
}

# Taken from the nested-tier working lists that the dict-per-agent lists
# replaced (the two n=200 cases from the pipeline that restarted every
# proposal pass); any change to the working lists must reproduce them.
SCALE_DIGESTS = {
    "algo1-bottom-tie-1": "78e687a939e60305",
    "algo1-bottom-tie-2": "b905929543272afa",
    "algo1-bottom-tie-3": "b65d1b220298d6e3",
    "algo1-fig4-40": "beac2730f8f2c1f0",
    "algo1-bottom-tie-200": "acc9d70d76706c0d",
    "algo1-fig4-200": "e2f4b070bb222baf",
    "super-stable-found": "77751c6143bebfc7",
}


@pytest.mark.parametrize("case", sorted(SCALE_CASES))
def test_reports_are_byte_identical_at_scale(case):
    assert _digest(SCALE_CASES[case]()) == SCALE_DIGESTS[case]


def test_super_stable_solve_finds_none_at_scale():
    assert super_stable_solve(two_sided_tie_market(100, random.Random(5))) is None


# ---------------------------------------------------------------------------
# properties at n = 5-6
# ---------------------------------------------------------------------------

@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_super_stable_solve_matches_oracle_at_n5(seed):
    _check_super_stable_solve(two_sided_tie_market(5, random.Random(seed)))


@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_super_stable_solve_matches_oracle_at_n6(seed):
    _check_super_stable_solve(two_sided_tie_market(6, random.Random(seed)))


@given(st.sampled_from((5, 6)), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_pipeline_is_weakly_stable_and_covers_at_n5_6(n, seed):
    inst = bottom_tie_market(n, random.Random(seed))
    report = min_delete_approx(inst)
    assert is_weakly_stable(inst, report.matching)
    dm, dw = set(report.deleted_men), set(report.deleted_women)
    assert all(m in dm or w in dw for m, w in report.super_blocking_pairs)


def test_readme_example(capsys):
    """README's library example prints what its comments say."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    code = re.search(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)[1]
    expected = re.findall(r"^print\(.*# (>= )?(\d+)", code, re.M)
    exec(code, {})
    printed = [int(line) for line in capsys.readouterr().out.split()]
    assert len(printed) == len(expected) == 3
    for value, (at_least, bound) in zip(printed, expected):
        assert value >= int(bound) if at_least else value == int(bound)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

# A stand-in witness that ranks everyone in index order recounts other
# blocking pairs than the matching's super-blocking pairs.
BAD_WITNESS_RUN = """
import random
from minimaxsm import Completion, Matching, solvers
from conftest import two_sided_tie_market

rng = random.Random(5)
inst = two_sided_tie_market(30, rng)
matching = Matching(list(enumerate(rng.sample(range(30), 30))))
orders = [range(inst.n)] * inst.n
solvers.build_witness_completion = lambda *args: Completion(orders, orders)
solvers.SolveReport.build(inst, matching, "gs")
"""


def test_witness_recount_survives_python_optimize():
    """``python -O`` strips asserts; the recount must still refuse a witness."""
    src = Path(minimaxsm.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BAD_WITNESS_RUN],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    assert "RuntimeError: witness completion" in proc.stderr
