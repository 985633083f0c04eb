"""Exhaustive reference implementations for desk-scale verification.

Every solver in :mod:`minimaxsm.solvers` is cross-checked against these on
small instances.  Oracles refuse inputs that exceed their budget instead of
silently truncating; they are correctness anchors, never fallbacks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .core import (
    Completion,
    Instance,
    Matching,
    approvals,
    restrict_instance,
    super_blocking_pairs,
)


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the oracle budget allows."""


@dataclass(frozen=True)
class OracleBudget:
    max_agents: int = 5
    max_completions: int = 10**6
    max_matchings: int = 10**6


DEFAULT_BUDGET = OracleBudget()


def count_completions(inst: Instance) -> int:
    total = 1
    for tl in itertools.chain(inst.men, inst.women):
        total *= tl.count_linear_orders()
    return total


def _check_completion_budget(inst: Instance, budget: OracleBudget) -> int:
    total = count_completions(inst)
    if total > budget.max_completions:
        raise BudgetExceededError(
            f"{total} completions exceed the budget of {budget.max_completions}"
        )
    return total


def enumerate_completions(
    inst: Instance, budget: OracleBudget = DEFAULT_BUDGET
) -> Iterator[Completion]:
    """All completions, duplicate-free, tier permutations in lexicographic
    order (men first, then women, each ascending by agent index)."""
    _check_completion_budget(inst, budget)
    men_choices = [list(tl.linear_orders()) for tl in inst.men]
    women_choices = [list(tl.linear_orders()) for tl in inst.women]
    for men_orders in itertools.product(*men_choices):
        for women_orders in itertools.product(*women_choices):
            yield Completion(men_orders, women_orders)


def max_bp_over_completions(
    inst: Instance, matching: Matching, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Maximum number of blocking pairs over every completion of ``inst``.

    A completion's blocking pairs depend on it only through the set each
    agent approves: the agents it ranks above its partner.  So every linear
    order of every agent's row is enumerated, turned into that agent's
    approval bitmask (bit m*n + w set when the agent approves the pair
    (m, w)), and only the distinct masks are kept per agent.  Every
    combination of distinct masks is then evaluated: a side's mask is the
    union of its agents' masks, and the blocking pairs are the AND of the
    two sides'.  Completions with equal masks have equal counts, so the
    maximum is the one over every completion.  Masks contained in another
    of the same agent's are kept too: keeping only the largest would
    evaluate one completion, the witness, whose count this oracle checks.
    """
    matching.validate_for(inst.n)
    _check_completion_budget(inst, budget)
    n = inst.n
    wom_of = [matching.woman_of(m) for m in range(n)]
    man_of = [matching.man_of(w) for w in range(n)]

    def side_masks(side, partners, own_step: int, other_step: int) -> Iterator[int]:
        per_agent = []
        for a, (tl, partner) in enumerate(zip(side, partners)):
            # each linear order of a checked row is a permutation, and
            # sorting positions by agent inverts it into a rank row
            orders = [sorted(range(n), key=o.__getitem__) for o in tl.linear_orders()]
            per_agent.append({
                sum(1 << (a * own_step + b * other_step) for b in approved)
                for approved in approvals(orders, [partner] * len(orders))
            })
        # each agent owns its own bits, so adding the agents' masks unions them
        return map(sum, itertools.product(*per_agent))

    women_masks = list(side_masks(inst.women, man_of, 1, n))
    best = 0
    for men_mask in side_masks(inst.men, wom_of, n, 1):
        best = max(best, max(map(int.bit_count, map(men_mask.__and__, women_masks))))
    return best


def min_super_bp(
    inst: Instance, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[int, Matching]:
    """Minimum super-blocking-pair count over all perfect matchings, together
    with the lexicographically least matching attaining it."""
    n = inst.n
    if n > budget.max_agents:
        raise BudgetExceededError(
            f"n={n} exceeds the oracle budget of {budget.max_agents} agents per side"
        )
    if math.factorial(n) > budget.max_matchings:
        raise BudgetExceededError(
            f"{n}! matchings exceed the budget of {budget.max_matchings}"
        )
    best_count = n * n + 1
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n)):
        count = len(super_blocking_pairs(inst, Matching(enumerate(perm))))
        if count < best_count:
            best_count = count
            best_perm = perm
    assert best_perm is not None
    return best_count, Matching(enumerate(best_perm))


def min_delete(
    inst: Instance, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Smallest agent set whose removal leaves a perfect super-stable
    sub-market, as (deleted men, deleted women).

    Only balanced deletions are enumerated: the remaining matching must be
    perfect, which forces equally many deletions on both sides.  Subsets are
    tried in increasing size, lexicographically, so the reported optimum is
    deterministic.
    """
    from .solvers import super_stable_solve

    n = inst.n
    if n > budget.max_agents:
        raise BudgetExceededError(
            f"n={n} exceeds the oracle budget of {budget.max_agents} agents per side"
        )
    everyone = range(n)
    for half in range(n + 1):
        for del_men in itertools.combinations(everyone, half):
            keep_men = [m for m in everyone if m not in del_men]
            for del_women in itertools.combinations(everyone, half):
                keep_women = [w for w in everyone if w not in del_women]
                if not keep_men:
                    return del_men, del_women
                sub, _, _ = restrict_instance(inst, keep_men, keep_women)
                if super_stable_solve(sub) is not None:
                    return del_men, del_women
    raise AssertionError("total deletion always succeeds")


def max_internal_super_stable_size(
    inst: Instance, allowed_pairs: frozenset[tuple[int, int]] | set[tuple[int, int]]
) -> int:
    """Largest matching drawn from ``allowed_pairs`` that is super-stable on
    the sub-market of its own matched agents.

    Exhaustive search over all matchings inside ``allowed_pairs``; intended
    for desk-scale pipeline verification only.
    """
    n = inst.n
    options: list[list[int]] = [[] for _ in range(n)]
    for m, w in allowed_pairs:
        options[m].append(w)
    for opts in options:
        opts.sort()

    best = 0

    def has_internal_super_block() -> bool:
        matching = Matching((m, w) for m, w in enumerate(wom_of) if w is not None)
        return any(
            wom_of[m] is not None and man_of[w] is not None
            for m, w in super_blocking_pairs(inst, matching)
        )

    wom_of: list[int | None] = [None] * n
    man_of: list[int | None] = [None] * n

    def search(m: int, size: int) -> None:
        nonlocal best
        if m == n:
            if size > best and not has_internal_super_block():
                best = size
            return
        if size + (n - m) <= best:
            return
        for w in options[m]:
            if man_of[w] is None:
                wom_of[m] = w
                man_of[w] = m
                search(m + 1, size + 1)
                wom_of[m] = None
                man_of[w] = None
        search(m + 1, size)

    search(0, 0)
    return best
