"""Brute-force oracles: enumeration counts, budgets, and mutual consistency."""

import itertools
import random
from fractions import Fraction

import pytest

from minimaxsm import (
    Matching,
    TierList,
    Instance,
    ValidationError,
    count_super_blocking_pairs,
    enumerate_completions,
    max_bp_over_completions,
    min_delete,
    min_super_bp,
    obvious_blocking_pairs,
    super_blocking_pairs,
    super_stable_solve,
)
from minimaxsm.oracles import (
    BudgetExceededError,
    OracleBudget,
    count_completions,
    max_internal_super_stable_size,
)
from minimaxsm.cli import main
from minimaxsm.files import save_instance, save_matching
from minimaxsm.generators import gen_fig1, gen_random

from conftest import strict, tiered

BIG = OracleBudget(max_agents=8, max_completions=10**6, max_matchings=10**6)


def test_strict_instance_has_one_completion():
    inst = strict([[0, 1], [1, 0]], [[0, 1], [0, 1]])
    comps = list(enumerate_completions(inst))
    assert len(comps) == 1
    assert comps[0] == inst


def test_single_two_tie_has_two_completions():
    inst = tiered(men=[[[0, 1]], [[0], [1]]], women=[[[0], [1]], [[0], [1]]])
    assert count_completions(inst) == 2
    assert len(list(enumerate_completions(inst))) == 2


def test_two_full_ties_n3_give_36_completions():
    order = [[0], [1], [2]]
    men = [[[0, 1, 2]], order, order]
    women = [[[0, 1, 2]], order, order]
    inst = tiered(men=men, women=women)
    assert count_completions(inst) == 36
    comps = list(enumerate_completions(inst))
    assert len(comps) == 36
    assert len(set(comps)) == 36
    assert all(c.refines(inst) for c in comps)


def test_completion_budget_is_enforced():
    full = TierList((tuple(range(4)),))
    inst = Instance([full] * 4, [full] * 4)
    with pytest.raises(BudgetExceededError):
        list(enumerate_completions(inst, OracleBudget(max_completions=1000)))


def test_max_bp_checks_the_matching_before_the_budget():
    full = TierList((tuple(range(4)),))
    inst = Instance([full] * 4, [full] * 4)
    with pytest.raises(ValidationError, match="absent agent"):
        max_bp_over_completions(
            inst, Matching([(0, 7)]), OracleBudget(max_completions=1000)
        )


def test_max_bp_budget_refuses_the_all_tied_4x4_market(tmp_path, capsys):
    # 24^8 completions: the default budget refuses it before any is made
    full = TierList((tuple(range(4)),))
    inst = Instance([full] * 4, [full] * 4)
    assert count_completions(inst) == 24**8
    with pytest.raises(BudgetExceededError, match="budget"):
        max_bp_over_completions(inst, Matching.identity(4))
    ipath, mpath = tmp_path / "i.json", tmp_path / "m.json"
    save_instance(inst, ipath)
    save_matching(Matching.identity(4), mpath)
    argv = ["oracle", "--mode", "minimax", "--input", str(ipath), "--matching", str(mpath)]
    assert main(argv) == 4
    assert "budget" in capsys.readouterr().err


def test_agent_budget_is_enforced():
    inst = gen_random(6, Fraction(1, 8), seed=3)
    with pytest.raises(BudgetExceededError):
        min_super_bp(inst)
    with pytest.raises(BudgetExceededError):
        min_delete(inst)


def test_max_bp_zero_for_stable_matching_on_strict():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    assert max_bp_over_completions(inst, Matching([(0, 0), (1, 1)])) == 0


def test_max_bp_on_fig1_identity_is_one():
    inst = gen_fig1(8, Fraction(1, 4))
    assert max_bp_over_completions(inst, Matching.identity(8), BIG) == 1


def _as_good(tiers, x, partner) -> bool:
    """x sits in the partner's tier or an earlier one (or there is no partner)."""
    for tier in tiers:
        if x in tier:
            return True
        if partner in tier:
            return False
    raise AssertionError("x is missing from the tiers")


def _better(tiers, x, partner) -> bool:
    """x sits in a tier strictly before the partner's (or there is no partner)."""
    for tier in tiers:
        if partner in tier:
            return False
        if x in tier:
            return True
    raise AssertionError("x is missing from the tiers")


def _pairs_by_definition(men_tiers, women_tiers, matching, prefers):
    """Blocking pairs written out from tier-list membership alone: no rank
    tables and no scan from the package."""
    n = len(men_tiers)
    return [
        (m, w)
        for m in range(n)
        for w in range(n)
        if (m, w) not in matching
        and prefers(men_tiers[m], w, matching.woman_of(m))
        and prefers(women_tiers[w], m, matching.man_of(w))
    ]


def _some_matchings(n):
    # every perfect matching up to n=3, an evenly spaced quarter of them at n=4
    perms = list(itertools.permutations(range(n)))
    return [Matching(enumerate(p)) for p in perms[:: 1 if n <= 3 else 6]]


def test_max_bp_equals_super_bp_count(mixed_corpus):
    for inst in mixed_corpus[:12]:
        if count_completions(inst) > 4000:
            continue
        for perm in itertools.permutations(range(inst.n)):
            matching = Matching(enumerate(perm))
            assert max_bp_over_completions(inst, matching) == count_super_blocking_pairs(
                inst, matching
            )
    # the scans and the oracle share one rule, so check all three against an
    # independent count
    for idx, inst in enumerate(mixed_corpus):
        men = [tl.tiers for tl in inst.men]
        women = [tl.tiers for tl in inst.women]
        completions = []
        if idx < 12:
            completions = [
                ([tuple(zip(tl.order)) for tl in c.men],
                 [tuple(zip(tl.order)) for tl in c.women])
                for c in enumerate_completions(inst)
            ]
        for matching in _some_matchings(inst.n):
            sbps = _pairs_by_definition(men, women, matching, _as_good)
            assert super_blocking_pairs(inst, matching) == sbps
            assert obvious_blocking_pairs(inst, matching) == _pairs_by_definition(
                men, women, matching, _better
            )
            if completions:
                worst = max(
                    len(_pairs_by_definition(cm, cw, matching, _better))
                    for cm, cw in completions
                )
                assert max_bp_over_completions(inst, matching) == worst == len(sbps)


# Tier sizes per agent, n men then n women, dealt at random; the completion
# counts are 256, 6144, 18432 and 331776.
DESK_SHAPES = [
    (4, ((2, 1, 1),) * 4 + ((2, 2),) * 2 + ((1, 1, 1, 1),) * 2),
    (5, ((2, 2, 1),) * 3 + ((3, 1, 1),) + ((2, 1, 1, 1),) * 4 + ((1,) * 5,) * 2),
    (4, ((2, 2),) * 3 + ((3, 1),) * 2 + ((2, 1, 1),) * 3),
    (4, ((3, 1),) * 4 + ((2, 2),) * 4),
]


def _shaped_market(n, shapes, rng):
    dealt = list(shapes)
    rng.shuffle(dealt)
    rows = []
    for sizes in dealt:
        order = rng.sample(range(n), n)
        sizes = rng.sample(sizes, len(sizes))
        cuts = list(itertools.accumulate(sizes, initial=0))
        rows.append([order[a:b] for a, b in zip(cuts, cuts[1:])])
    return tiered(rows[:n], rows[n:])


def _masks_per_order(tl, partner, bit):
    """One mask per linear order of the row, duplicates kept: bit(x) is set
    for every x the agent ranks above its partner (everyone when single)."""
    masks = []
    for order in tl.linear_orders():
        cut = order.index(partner) if partner is not None else len(order)
        masks.append(sum(bit(x) for x in order[:cut]))
    return masks


def test_max_bp_matches_a_per_completion_reference():
    rng = random.Random(15)
    for n, shapes in DESK_SHAPES:
        for _ in range(10):
            inst = _shaped_market(n, shapes, rng)
            total = count_completions(inst)
            matchings = [Matching(enumerate(rng.sample(range(n), n)))
                         for _ in range(3)]
            # leave one or two agents of each side unmatched in two of them
            matchings[1] = Matching(matchings[1].pairs[1:])
            matchings[2] = Matching(rng.sample(matchings[2].pairs, n - 2))
            for matching in matchings:
                men = [
                    _masks_per_order(tl, matching.woman_of(m), lambda w, m=m: 1 << (m * n + w))
                    for m, tl in enumerate(inst.men)
                ]
                women = [
                    _masks_per_order(tl, matching.man_of(w), lambda m, w=w: 1 << (m * n + w))
                    for w, tl in enumerate(inst.women)
                ]
                men_sides = [sum(c) for c in itertools.product(*men)]
                women_sides = [sum(c) for c in itertools.product(*women)]
                assert len(men_sides) * len(women_sides) == total
                worst = max(
                    (a & b).bit_count() for a in men_sides for b in women_sides
                )
                if total <= 256:
                    assert worst == max(
                        len(c.blocking_pairs(matching))
                        for c in enumerate_completions(inst)
                    )
                assert max_bp_over_completions(inst, matching) == worst


def test_min_super_bp_zero_iff_super_stable(mixed_corpus):
    for inst in mixed_corpus:
        count, argmin = min_super_bp(inst)
        assert count == count_super_blocking_pairs(inst, argmin)
        assert (count == 0) == (super_stable_solve(inst) is not None)


def test_min_super_bp_on_fig1_variant():
    # at n=8 the block width is 2, every tie collapses to a singleton and the
    # strict market has a perfect stable matching: the optimum is 0 here
    # (the cascade family needs n >= 12 for real ties; see the exact-solver
    # tests), while the identity matching still has its one blocking pair
    inst = gen_fig1(8, Fraction(1, 4))
    assert inst.is_strict
    count, _ = min_super_bp(inst, BIG)
    assert count == 0
    assert count_super_blocking_pairs(inst, Matching.identity(8)) == 1


def test_min_super_bp_returns_lexicographically_least():
    # every matching of the all-tied 2x2 market has the same block count
    full = TierList(((0, 1),))
    inst = Instance([full] * 2, [full] * 2)
    count, argmin = min_super_bp(inst)
    assert count == 2
    assert argmin == Matching([(0, 0), (1, 1)])


def test_min_delete_empty_when_super_stable():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    assert min_delete(inst) == ((), ())


def test_min_delete_finds_single_pair_removal():
    # w1 ties everyone and every man loves her: deleting w1 plus one man
    # leaves a strict, solvable market
    inst = tiered(
        men=[[[0], [1], [2]], [[0], [1], [2]], [[0], [2], [1]]],
        women=[[[0, 1, 2]], [[0], [1], [2]], [[1], [2], [0]]],
    )
    assert super_stable_solve(inst) is None
    deleted_men, deleted_women = min_delete(inst)
    assert len(deleted_men) == 1 and len(deleted_women) == 1


def test_min_delete_half_bounds_min_super_bp(mixed_corpus):
    # a matching with b super-blocking pairs yields a deletion set of 2b agents
    for inst in mixed_corpus[:30]:
        count, _ = min_super_bp(inst)
        deleted_men, deleted_women = min_delete(inst)
        assert count >= (len(deleted_men) + len(deleted_women)) / 2


def test_internal_size_oracle_on_empty_and_full():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    assert max_internal_super_stable_size(inst, frozenset()) == 0
    all_pairs = frozenset((m, w) for m in range(2) for w in range(2))
    assert max_internal_super_stable_size(inst, all_pairs) == 2


def test_internal_size_oracle_respects_allowed_pairs():
    inst = strict([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    # only the crossed pairs are allowed; they block each other internally
    crossed = frozenset({(0, 1), (1, 0)})
    assert max_internal_super_stable_size(inst, crossed) == 1
