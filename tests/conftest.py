"""Shared corpora and construction helpers.

All corpora are seeded and cached per session so acceptance runs stay
reproducible and fast.
"""

from fractions import Fraction

import pytest

from minimaxsm import Instance, TierList, gen_random, super_stable_solve
from minimaxsm.oracles import count_completions


def strict(men_orders, women_orders) -> Instance:
    """Instance from strict 0-based preference orders."""
    return Instance(
        tuple(TierList.from_order(o) for o in men_orders),
        tuple(TierList.from_order(o) for o in women_orders),
    )


def tiered(men, women) -> Instance:
    """Instance from raw 0-based tier lists."""
    return Instance(men, women)


def tied_order(rng, order, merge):
    """Tiers over ``order`` that tie each entry to the previous one with
    probability ``merge``."""
    tiers = [[order[0]]]
    for x in order[1:]:
        if rng.random() < merge:
            tiers[-1].append(x)
        else:
            tiers.append([x])
    return tiers


def bottom_tie_market(n, rng):
    """Strict men; each woman ties a trailing run of length 1 to n."""
    men = [[[x] for x in rng.sample(range(n), n)] for _ in range(n)]
    women = []
    for _ in range(n):
        order = rng.sample(range(n), n)
        cut = rng.randrange(n)
        women.append([[x] for x in order[:cut]] + [order[cut:]])
    return tiered(men, women)


def two_sided_tie_market(n, rng):
    """Ties on both sides: each entry joins the previous tier with
    probability 0.3."""
    return tiered(
        [tied_order(rng, rng.sample(range(n), n), 0.3) for _ in range(n)],
        [tied_order(rng, rng.sample(range(n), n), 0.3) for _ in range(n)],
    )


def small_random_corpus(
    count: int,
    seed0: int,
    delta=Fraction(1, 4),
    ns=(2, 3, 4),
    completion_cap: int | None = None,
    top_truncated: bool = False,
    without_super_stable: bool = False,
) -> list[Instance]:
    corpus: list[Instance] = []
    seed = seed0
    while len(corpus) < count:
        n = ns[len(corpus) % len(ns)]
        inst = gen_random(n, delta, seed=seed, top_truncated=top_truncated)
        seed += 1
        if completion_cap is not None and count_completions(inst) > completion_cap:
            continue
        if without_super_stable and super_stable_solve(inst) is not None:
            continue
        corpus.append(inst)
    return corpus


@pytest.fixture(scope="session")
def mixed_corpus():
    """General-purpose instances with ties, n in 2..4."""
    return small_random_corpus(60, seed0=50_000)


@pytest.fixture(scope="session")
def top_truncated_corpus():
    """One-sided bottom-tie instances, n in 2..4."""
    return small_random_corpus(
        60, seed0=60_000, delta=Fraction(1, 2), top_truncated=True
    )
