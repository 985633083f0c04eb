"""Core model: delta measure, blocking-pair predicates, witness completions."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minimaxsm import (
    Completion,
    Instance,
    Matching,
    TierList,
    ValidationError,
    build_witness_completion,
    compute_delta,
    count_super_blocking_pairs,
    is_super_stable,
    is_weakly_stable,
    obvious_blocking_pairs,
    restrict_instance,
    super_blocking_pairs,
    validate_one_sided_top_truncated,
)
from minimaxsm.core import approvals
from minimaxsm.files import instance_from_dict, instance_to_dict
from minimaxsm.generators import gen_fig1, gen_fig4, gen_random
from minimaxsm.oracles import max_bp_over_completions

from conftest import strict, tiered


def all_strict(n):
    order = list(range(n))
    return strict([order] * n, [order] * n)


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_delta_zero_iff_strict(n):
    assert compute_delta(all_strict(n)) == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_delta_single_two_tie(n):
    order = list(range(n))
    women = [TierList.from_order(order) for _ in range(n)]
    # one woman cannot compare her two best candidates
    women[0] = TierList(((0, 1),) + tuple((x,) for x in order[2:]))
    inst = Instance([TierList.from_order(order)] * n, women)
    expected = Fraction(1, 2 * n) * Fraction(1, n * (n - 1) // 2)
    assert compute_delta(inst) == expected


def test_delta_full_tie_n3():
    order = [0, 1, 2]
    women = [TierList.from_order(order) for _ in range(3)]
    women[1] = TierList(((0, 1, 2),))
    inst = Instance([TierList.from_order(order)] * 3, women)
    assert compute_delta(inst) == Fraction(1, 6)


def test_delta_bounds(mixed_corpus):
    for inst in mixed_corpus:
        assert 0 <= inst.delta <= 1
        assert (inst.delta == 0) == inst.is_strict


def test_delta_is_one_when_nothing_is_ranked():
    full = TierList((tuple(range(3)),))
    inst = Instance([full] * 3, [full] * 3)
    assert compute_delta(inst) == 1


# ---------------------------------------------------------------------------
# the row model
# ---------------------------------------------------------------------------

@st.composite
def _tiers(draw, n):
    """Tiers over 0..n-1 in a random order, each in a random inner order."""
    order = draw(st.permutations(range(n)))
    cuts = draw(st.lists(st.booleans(), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    tiers = [list(order[:1])]
    for x, cut in zip(order[1:], cuts):
        if cut:
            tiers.append([x])
        else:
            tiers[-1].append(x)
    return tiers if n else []


@st.composite
def _markets(draw):
    n = draw(st.integers(0, 6))
    return n, [draw(_tiers(n)) for _ in range(n)], [draw(_tiers(n)) for _ in range(n)]


@given(_markets(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_rows_match_tiers(market, rnd):
    n, men, women = market
    for tiers in men + women:
        tl = TierList(tiers)
        assert tl.tiers == tuple(tuple(sorted(t)) for t in tiers)
        tier_of = {x: i for i, t in enumerate(tiers) for x in t}
        assert list(tl.rank) == [tier_of[x] for x in range(n)]
        ranks = [tl.rank[x] for x in tl.order]
        assert ranks == sorted(ranks)
        for a, b in itertools.product(range(n), repeat=2):
            assert (tl.rank[a] == tl.rank[b]) == (tier_of[a] == tier_of[b])
        flat = [x for t in tiers for x in t]
        assert TierList.from_order(flat) == TierList(zip(flat))
        assert tl.is_strict == all(len(t) == 1 for t in tiers)
        assert tl.missing_pairs() == sum(len(t) * (len(t) - 1) // 2 for t in tiers)
        assert tl.count_linear_orders() == math.prod(
            math.factorial(len(t)) for t in tiers
        )
    inst = Instance(men, women)
    assert instance_from_dict(instance_to_dict(inst)) == inst
    # a completion: each tier in a random order
    m, w = ([[x for t in tl.tiers for x in rnd.sample(t, len(t))] for tl in side]
            for side in (inst.men, inst.women))
    comp = Completion(m, w)
    assert comp == Instance([zip(o) for o in m], [zip(o) for o in w])
    assert comp.refines(inst)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_tier_partition_error_names_agent():
    with pytest.raises(ValidationError, match="man 2"):
        Instance([[[0], [1]], [[0], [0]]], [[[0], [1]], [[0], [1]]])
    with pytest.raises(ValidationError, match="woman 1"):
        Instance([[[0], [1]], [[0], [1]]], [[[0]], [[0], [1]]])


def test_matching_rejects_double_use():
    with pytest.raises(ValidationError, match="matched twice"):
        Matching([(0, 0), (0, 1)])
    with pytest.raises(ValidationError, match="matched twice"):
        Matching([(0, 0), (1, 0)])


def test_matching_range_check():
    m = Matching([(0, 3)])
    with pytest.raises(ValidationError, match="absent agent"):
        m.validate_for(2)


# ---------------------------------------------------------------------------
# blocking-pair predicates
# ---------------------------------------------------------------------------

@pytest.fixture
def two_by_two():
    # both men rank w1 first, both women rank m1 first
    return strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])


def test_obvious_blocking_pair_basic(two_by_two):
    crossed = Matching([(0, 1), (1, 0)])
    assert (0, 0) in obvious_blocking_pairs(two_by_two, crossed)
    assert (0, 0) in super_blocking_pairs(two_by_two, crossed)
    assert not is_weakly_stable(two_by_two, crossed)


def test_top_tier_partner_never_blocks(two_by_two):
    good = Matching([(0, 0), (1, 1)])
    assert obvious_blocking_pairs(two_by_two, good) == []
    assert is_weakly_stable(two_by_two, good)
    assert is_super_stable(two_by_two, good)


def test_tie_is_not_obvious_but_is_super():
    # w1 ties both men; m2 strictly prefers w1 to his partner w2
    inst = tiered(
        men=[[[0], [1]], [[0], [1]]],
        women=[[[0, 1]], [[0], [1]]],
    )
    matching = Matching([(0, 0), (1, 1)])
    assert (1, 0) not in obvious_blocking_pairs(inst, matching)
    assert (1, 0) in super_blocking_pairs(inst, matching)


def test_matched_pair_never_blocks():
    # in the all-tied market every unmatched pair super-blocks, matched ones never
    full = TierList(((0, 1),))
    inst = Instance([full] * 2, [full] * 2)
    assert super_blocking_pairs(inst, Matching.identity(2)) == [(0, 1), (1, 0)]


def test_pair_index_out_of_range(two_by_two):
    with pytest.raises(ValidationError):
        super_blocking_pairs(two_by_two, Matching([(0, 5)]))


def test_unmatched_agents_prefer_anyone():
    inst = all_strict(2)
    empty = Matching([])
    assert (0, 0) in obvious_blocking_pairs(inst, empty)
    assert len(super_blocking_pairs(inst, empty)) == 4


def test_approvals_rule():
    ranks = [(0, 1, 1, 2)] * 3
    # tied-or-better than the partner, never the partner itself
    assert approvals(ranks, [1, 3, 0]) == [[0, 2], [0, 1, 2], []]
    # strictly better only
    assert approvals(ranks, [1, 3, 0], strict=True) == [[0], [0, 1, 2], []]
    # an unmatched agent approves everyone, strict or not
    for strict_flag in (False, True):
        assert approvals(ranks[:1], [None], strict_flag) == [[0, 1, 2, 3]]


def test_fig1_identity_unique_super_bp():
    inst = gen_fig1(8, Fraction(1, 4))
    assert super_blocking_pairs(inst, Matching.identity(8)) == [(1, 0)]


# ---------------------------------------------------------------------------
# monotonicity under refinement
# ---------------------------------------------------------------------------

def _refinements(tl: TierList):
    """All single-step refinements: pull one agent out of one tie."""
    for i, tier in enumerate(tl.tiers):
        if len(tier) < 2:
            continue
        for x in tier:
            rest = tuple(y for y in tier if y != x)
            yield TierList(tl.tiers[:i] + ((x,), rest) + tl.tiers[i + 1 :])
            yield TierList(tl.tiers[:i] + (rest, (x,)) + tl.tiers[i + 1 :])


def test_refinement_monotonicity(mixed_corpus):
    for idx, inst in enumerate(mixed_corpus[:25]):
        matching = Matching.identity(inst.n)
        base_super = count_super_blocking_pairs(inst, matching)
        base_obvious = len(obvious_blocking_pairs(inst, matching))
        for side, agent in (("men", idx % inst.n), ("women", (idx + 1) % inst.n)):
            tls = list(inst.men if side == "men" else inst.women)
            for refined_tl in _refinements(tls[agent]):
                tls2 = list(tls)
                tls2[agent] = refined_tl
                refined = (
                    Instance(tls2, inst.women)
                    if side == "men"
                    else Instance(inst.men, tls2)
                )
                assert count_super_blocking_pairs(refined, matching) <= base_super
                assert len(obvious_blocking_pairs(refined, matching)) >= base_obvious


# ---------------------------------------------------------------------------
# witness completion
# ---------------------------------------------------------------------------

def test_witness_on_super_stable_matching_has_no_blocks(two_by_two):
    matching = Matching([(0, 0), (1, 1)])
    witness = build_witness_completion(
        two_by_two, matching, super_blocking_pairs(two_by_two, matching)
    )
    assert witness.refines(two_by_two)
    assert witness.blocking_pairs(matching) == []


def test_witness_on_fig1_identity():
    inst = gen_fig1(8, Fraction(1, 4))
    matching = Matching.identity(8)
    witness = build_witness_completion(
        inst, matching, super_blocking_pairs(inst, matching)
    )
    assert witness.refines(inst)
    assert len(witness.blocking_pairs(matching)) == 1


@given(st.integers(0, 10_000), st.permutations(list(range(3))))
@settings(max_examples=60, deadline=None)
def test_witness_tightness_matches_brute_force(seed, perm):
    inst = gen_random(3, Fraction(1, 2), seed=seed)
    matching = Matching(enumerate(perm))
    witness = build_witness_completion(
        inst, matching, super_blocking_pairs(inst, matching)
    )
    assert witness.refines(inst)
    count = count_super_blocking_pairs(inst, matching)
    assert len(witness.blocking_pairs(matching)) == count
    assert max_bp_over_completions(inst, matching) == count


def test_witness_handles_partial_matchings():
    inst = gen_random(4, Fraction(1, 2), seed=77)
    matching = Matching([(0, 1), (2, 3)])
    witness = build_witness_completion(
        inst, matching, super_blocking_pairs(inst, matching)
    )
    assert witness.refines(inst)
    assert len(witness.blocking_pairs(matching)) == count_super_blocking_pairs(
        inst, matching
    )


# ---------------------------------------------------------------------------
# shape checks and restriction
# ---------------------------------------------------------------------------

def test_top_truncated_recognition():
    fig4, _ = gen_fig4(16, Fraction(1, 4))
    assert validate_one_sided_top_truncated(fig4)
    fig1 = gen_fig1(16, Fraction(1, 4))
    assert not validate_one_sided_top_truncated(fig1)  # ties sit at the top
    assert validate_one_sided_top_truncated(all_strict(4))


def test_restrict_instance_reindexes():
    inst = gen_random(4, Fraction(1, 4), seed=5)
    sub, men_ids, women_ids = restrict_instance(inst, [1, 3], [0, 2])
    assert sub.n == 2
    assert men_ids == (1, 3) and women_ids == (0, 2)
    # relative order of the kept women survives in each man's list
    for new_m, old_m in enumerate(men_ids):
        old_ranks = inst.men_rank[old_m]
        new_ranks = sub.men_rank[new_m]
        for a, b in itertools.combinations(range(2), 2):
            if old_ranks[women_ids[a]] < old_ranks[women_ids[b]]:
                assert new_ranks[a] < new_ranks[b]


def test_restrict_requires_balance():
    with pytest.raises(ValidationError):
        restrict_instance(all_strict(3), [0], [0, 1])


# ---------------------------------------------------------------------------
# completions
# ---------------------------------------------------------------------------

def test_completion_validates_permutations():
    with pytest.raises(ValidationError):
        Completion([(0, 0)], [(0, 1)])


def test_completion_refines_detects_violation():
    inst = tiered(men=[[[0], [1]], [[0, 1]]], women=[[[0], [1]], [[0], [1]]])
    good = Completion([(0, 1), (1, 0)], [(0, 1), (0, 1)])
    assert good.refines(inst)
    bad = Completion([(1, 0), (1, 0)], [(0, 1), (0, 1)])
    assert not bad.refines(inst)  # man 1's strict choice flipped


def test_completion_to_instance_round_trip():
    comp = Completion([(1, 0), (0, 1)], [(0, 1), (1, 0)])
    inst = Instance(comp.men, comp.women)
    assert inst.is_strict
    assert inst.men_rank[0][1] == 0
