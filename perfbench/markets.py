"""Seeded market generation and blocking-pair scans owned by the benchmark.

Nothing here calls ``minimaxsm``: the random markets, the scans that check
reports and the desk-scale optimum all stay fixed while the program under
test changes.  Markets are lists of tier lists, 0-based, best tier first.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

Tiers = list[list[int]]


def random_tiers(n: int, rng: random.Random, tie_prob: float) -> Tiers:
    """A random order over 0..n-1 in which each neighbour joins the previous
    tier with probability ``tie_prob``."""
    order = list(range(n))
    rng.shuffle(order)
    tiers = [[order[0]]]
    for x in order[1:]:
        if rng.random() < tie_prob:
            tiers[-1].append(x)
        else:
            tiers.append([x])
    return tiers


def bottom_tie_tiers(n: int, rng: random.Random) -> Tiers:
    """A strict prefix followed by one trailing tie of random length."""
    order = list(range(n))
    rng.shuffle(order)
    cut = n - rng.randint(1, n)
    return [[x] for x in order[:cut]] + [order[cut:]]


def shaped_tiers(n: int, sizes: tuple[int, ...], rng: random.Random) -> Tiers:
    """A random order over 0..n-1 cut into tiers of the given sizes, taken in
    random order."""
    order = list(range(n))
    rng.shuffle(order)
    sizes = list(sizes)
    rng.shuffle(sizes)
    tiers, start = [], 0
    for size in sizes:
        tiers.append(order[start:start + size])
        start += size
    return tiers


def tiers_of(tier_lists) -> list[Tiers]:
    """Plain tier lists from ``minimaxsm.core.TierList`` objects."""
    return [[list(t) for t in tl.tiers] for tl in tier_lists]


def instance_doc(men: list[Tiers], women: list[Tiers]) -> dict:
    """The program's instance file format: 1-based agents, sorted tiers."""

    def side(lists: list[Tiers]) -> list:
        return [[sorted(x + 1 for x in tier) for tier in tiers] for tiers in lists]

    return {"n": len(men), "men": side(men), "women": side(women)}


def write_instance(path: Path, men: list[Tiers], women: list[Tiers]) -> None:
    path.write_text(json.dumps(instance_doc(men, women), sort_keys=True) + "\n",
                    encoding="utf-8")


def ranks(lists: list[Tiers]) -> list[list[int]]:
    """Tier index of every opposite-side agent, one row per agent."""
    n = len(lists)
    out = []
    for tiers in lists:
        row = [0] * n
        for r, tier in enumerate(tiers):
            for x in tier:
                row[x] = r
        out.append(row)
    return out


def blocking_pairs(mrank, wrank, wife, husband, strict: bool) -> list[tuple[int, int]]:
    """Pairs (m, w) not matched together where both weakly (``strict=False``:
    super-blocking) or both strictly (``strict=True``: obvious-blocking)
    prefer each other to their partners.  Under strict orders the two agree
    and give the classical blocking pairs.  The matching is perfect."""
    n = len(wife)
    out = []
    for m in range(n):
        mr = mrank[m]
        own = mr[wife[m]]
        for w in range(n):
            if w == wife[m]:
                continue
            a, b = mr[w], wrank[w][m]
            c = wrank[w][husband[w]]
            if (a < own and b < c) if strict else (a <= own and b <= c):
                out.append((m, w))
    return out


def min_super_bp(mrank, wrank) -> tuple[int, int]:
    """Fewest super-blocking pairs over all perfect matchings (n <= 5), and
    the number of candidate sets a subset search tries before it finds one.

    The search of the paper tries every j-subset of the n*n pairs, in
    increasing j and, within j, in ``itertools.combinations`` order over the
    pairs listed row by row; it stops at the first subset that is exactly
    the super-blocking set of an optimal matching.  That count depends only
    on the market, so it measures how deep the market sends such a search.
    """
    n = len(mrank)
    first = None
    for perm in itertools.permutations(range(n)):
        husband = [0] * n
        for m, w in enumerate(perm):
            husband[w] = m
        pairs = blocking_pairs(mrank, wrank, perm, husband, False)
        key = (len(pairs), _combination_rank([m * n + w for m, w in pairs], n * n))
        if first is None or key < first:
            first = key
    best, rank = first
    return best, sum(math.comb(n * n, j) for j in range(best)) + rank + 1


def _combination_rank(combo: list[int], universe: int) -> int:
    """Position of a sorted combination in ``itertools.combinations`` order."""
    rank, prev, k = 0, -1, len(combo)
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            rank += math.comb(universe - 1 - v, k - 1 - i)
        prev = c
    return rank


def completions(men: list[Tiers], women: list[Tiers]) -> int:
    """Number of completions: the product of tier-size factorials."""
    total = 1
    for tiers in itertools.chain(men, women):
        for tier in tiers:
            total *= math.factorial(len(tier))
    return total


def digest(paths) -> str:
    """Short SHA-256 over the named files' bytes, in the order given."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]
