"""Instance model and stability predicates for stable marriage with ties.

Agents submit preference orders that may leave some alternatives mutually
incomparable.  Incomparability is transitive, so every order is a sequence of
tiers: agents in the same tier are tied, agents in earlier tiers are strictly
preferred.  All indices are 0-based internally; the JSON file formats are
1-based (see :mod:`minimaxsm.files`).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence


class ValidationError(ValueError):
    """An instance, matching, or completion is structurally invalid."""


@dataclass(frozen=True, init=False)
class TierList:
    """One agent's preference order over the opposite side, held as the two
    rows of a ranking array (Gusfield & Irving, *The Stable Marriage
    Problem*, 1989, section 1.2): ``order`` lists the opposite side best
    first, ascending within a tier, and ``rank[x]`` is the tier index of
    agent ``x``.  Built from best-first tiers, which ``tiers`` gives back.
    """

    order: tuple[int, ...]
    rank: tuple[int, ...]

    def __init__(self, tiers: Iterable[Iterable[int]]):
        tiers = [list(t) for t in tiers]
        self._fill(list(itertools.chain.from_iterable(tiers)), list(map(len, tiers)))

    @classmethod
    def from_flat(cls, entries: Sequence[int], sizes: Sequence[int]) -> "TierList":
        """Row from its entries, best tier first and in any order within a
        tier, and the size of each tier."""
        tl = cls.__new__(cls)
        tl._fill(entries, sizes)
        return tl

    @classmethod
    def from_order(cls, order: Iterable[int]) -> "TierList":
        """Strict list: every tier a singleton, so rank is position."""
        order = tuple(order)
        return cls.from_flat(order, [1] * len(order))

    def _fill(self, entries: Sequence[int], sizes: Sequence[int]) -> None:
        """Store the row after checking that ``entries`` lists each of
        0..len(entries)-1 once (range first: rank[-1] exists) and that no
        tier is empty; ``sizes`` must add up to len(entries)."""
        n = len(entries)
        if 0 in sizes:
            raise ValidationError(f"tier {sizes.index(0) + 1} is empty")
        strict = len(sizes) == n
        tier_of = range(n) if strict else itertools.chain.from_iterable(
            map(itertools.repeat, range(len(sizes)), sizes))
        rank = [-1] * n
        for x, r in zip(entries, tier_of):
            if not 0 <= x < n or rank[x] >= 0:
                raise ValidationError(_first_fault(entries, sizes))
            rank[x] = r
        # a stable sort by tier leaves each tier ascending
        order = entries if strict else sorted(range(n), key=rank.__getitem__)
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "rank", tuple(rank))

    @property
    def tiers(self) -> tuple[tuple[int, ...], ...]:
        """The best-first tiers, each ascending."""
        if self.is_strict:
            return tuple(zip(self.order))
        return tuple(
            tuple(t) for _, t in itertools.groupby(self.order, self.rank.__getitem__)
        )

    @property
    def is_strict(self) -> bool:
        # tier indices rise by at most one per position, so only a row of
        # singletons ends on tier n - 1
        return not self.order or self.rank[self.order[-1]] == len(self.order) - 1

    def missing_pairs(self) -> int:
        """Pairwise comparisons the order leaves unspecified."""
        return sum(math.comb(k, 2) for k in Counter(self.rank).values())

    def linear_orders(self) -> Iterator[tuple[int, ...]]:
        """All linear extensions; tier permutations in lexicographic order."""
        perms = [itertools.permutations(t) for t in self.tiers]
        for combo in itertools.product(*perms):
            yield tuple(itertools.chain.from_iterable(combo))

    def count_linear_orders(self) -> int:
        return math.prod(map(math.factorial, Counter(self.rank).values()))


def _first_fault(entries: Sequence[int], sizes: Sequence[int]) -> str:
    """The first out-of-range or repeated index of a row whose tiers are
    each read in ascending order."""
    n, seen, start = len(entries), set(), 0
    for size in sizes:
        for x in sorted(entries[start:start + size]):
            if not 0 <= x < n:
                return f"index {x} is outside 0..{n - 1}"
            if x in seen:
                return f"index {x} is listed twice"
            seen.add(x)
        start += size
    raise AssertionError("the row has no fault")


def _rows(raw: Sequence, n: int, label: str) -> tuple[TierList, ...]:
    """One TierList over n agents per entry of ``raw`` (a TierList or its
    tiers); an error names the agent."""
    rows = []
    for i, row in enumerate(raw):
        try:
            tl = row if isinstance(row, TierList) else TierList(row)
            if len(tl.order) != n:
                raise ValidationError(f"ranks {len(tl.order)} agents, not {n}")
        except ValidationError as exc:
            raise ValidationError(f"{label} {i + 1}: {exc}") from None
        rows.append(tl)
    return tuple(rows)


def _replaced(
    rows: tuple[TierList, ...],
    ranks: tuple[tuple[int, ...], ...],
    new: Mapping[int, TierList],
    label: str,
) -> tuple[tuple[TierList, ...], tuple[tuple[int, ...], ...]]:
    """``rows`` and their rank rows with the entries of ``new`` swapped in,
    each checked to rank len(rows) agents; an error names the agent."""
    if not new:
        return rows, ranks
    n = len(rows)
    rows, ranks = list(rows), list(ranks)
    for i, tl in new.items():
        if len(tl.order) != n:
            raise ValidationError(
                f"{label} {i + 1}: ranks {len(tl.order)} agents, not {n}"
            )
        rows[i], ranks[i] = tl, tl.rank
    return tuple(rows), tuple(ranks)


class Instance:
    """A complete two-sided market: n men and n women with tier-list orders.

    Immutable after construction.  ``men_rank`` and ``women_rank`` gather
    the agents' rank rows, so the predicates below run in constant time per
    pair.
    """

    def __init__(self, men: Sequence, women: Sequence):
        men, women = tuple(men), tuple(women)
        if len(men) != len(women):
            raise ValidationError(
                f"side sizes differ: {len(men)} men, {len(women)} women"
            )
        n = len(men)
        self.men: tuple[TierList, ...] = _rows(men, n, "man")
        self.women: tuple[TierList, ...] = _rows(women, n, "woman")
        self.n = n
        self.men_rank: tuple[tuple[int, ...], ...] = tuple(tl.rank for tl in self.men)
        self.women_rank: tuple[tuple[int, ...], ...] = tuple(
            tl.rank for tl in self.women
        )
        self._delta: Fraction | None = None

    def with_rows(
        self, men: Mapping[int, TierList], women: Mapping[int, TierList]
    ) -> "Instance":
        """A copy with the rows of the agents in ``men`` and ``women`` (keyed
        by 0-based index) replaced.  Every other row and rank row is this
        instance's own object; only the new rows' lengths are checked, and
        an error names the agent."""
        out = Instance.__new__(Instance)
        out.n, out._delta = self.n, None
        out.men, out.men_rank = _replaced(self.men, self.men_rank, men, "man")
        out.women, out.women_rank = _replaced(
            self.women, self.women_rank, women, "woman"
        )
        return out

    @property
    def delta(self) -> Fraction:
        if self._delta is None:
            self._delta = compute_delta(self)
        return self._delta

    @property
    def is_strict(self) -> bool:
        return all(tl.is_strict for tl in self.men) and all(
            tl.is_strict for tl in self.women
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Instance)
            and self.men == other.men
            and self.women == other.women
        )

    def __hash__(self) -> int:
        return hash((self.men, self.women))

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, delta={self.delta})"


class Matching:
    """A set of disjoint man-woman pairs; agents may be left unmatched."""

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        norm = sorted({(int(m), int(w)) for m, w in pairs})
        m2w: dict[int, int] = {}
        w2m: dict[int, int] = {}
        for m, w in norm:
            if m < 0 or w < 0:
                raise ValidationError(f"negative agent index in pair ({m}, {w})")
            if m in m2w:
                raise ValidationError(f"man {m + 1} matched twice")
            if w in w2m:
                raise ValidationError(f"woman {w + 1} matched twice")
            m2w[m] = w
            w2m[w] = m
        self.pairs: tuple[tuple[int, int], ...] = tuple(norm)
        self._m2w = m2w
        self._w2m = w2m

    @classmethod
    def identity(cls, n: int) -> "Matching":
        return cls((i, i) for i in range(n))

    def woman_of(self, m: int) -> int | None:
        return self._m2w.get(m)

    def man_of(self, w: int) -> int | None:
        return self._w2m.get(w)

    def is_perfect(self, n: int) -> bool:
        if len(self.pairs) != n:
            return False
        self.validate_for(n)
        return True

    def validate_for(self, n: int) -> None:
        for m, w in self.pairs:
            if m >= n or w >= n:
                raise ValidationError(
                    f"pair ({m + 1}, {w + 1}) references an absent agent (n={n})"
                )

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self._m2w.get(pair[0]) == pair[1]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Matching({list(self.pairs)})"


def _strict_row(row: Iterable[int] | TierList) -> TierList:
    if not isinstance(row, TierList):
        return TierList.from_order(row)
    if not row.is_strict:
        raise ValidationError("a completion row must be strict")
    return row


class Completion(Instance):
    """A completion: one strict linear order per agent, held as an instance
    whose every tier is a singleton."""

    def __init__(self, men_orders: Iterable[Iterable[int] | TierList],
                 women_orders: Iterable[Iterable[int] | TierList]):
        """Each row is a linear order, or a strict ``TierList``, which is
        taken as it is."""
        super().__init__(
            [_strict_row(o) for o in men_orders],
            [_strict_row(o) for o in women_orders],
        )

    def refines(self, inst: Instance) -> bool:
        """True iff every strict comparison of ``inst`` is preserved."""
        if inst.n != self.n:
            return False
        for rows, ranks in ((self.men, inst.men_rank), (self.women, inst.women_rank)):
            for tl, rank in zip(rows, ranks):
                order = tl.order
                if any(rank[a] > rank[b] for a, b in zip(order, order[1:])):
                    return False
        return True

    def blocking_pairs(self, matching: Matching) -> list[tuple[int, int]]:
        """Classical blocking pairs under these strict orders.

        An unmatched agent prefers every partner to staying single.
        """
        return _blocking_pairs(self, matching, strict=False)


# ---------------------------------------------------------------------------
# Missing-information measure
# ---------------------------------------------------------------------------

def compute_delta(inst: Instance) -> Fraction:
    """Average fraction of pairwise comparisons the orders leave unspecified.

    Exact rational arithmetic; 0 iff every order is strict, and at most 1.
    """
    n = inst.n
    total_comparisons = math.comb(n, 2)
    if total_comparisons == 0:
        return Fraction(0)
    missing = sum(tl.missing_pairs() for tl in inst.men) + sum(
        tl.missing_pairs() for tl in inst.women
    )
    return Fraction(missing, 2 * n * total_comparisons)


# ---------------------------------------------------------------------------
# Blocking-pair predicates
#
# Conventions: a matched pair never blocks itself, and an unmatched agent
# strictly (hence also weakly) prefers every partner to staying single.
# ---------------------------------------------------------------------------

def _bars(
    ranks: Sequence[Sequence[int]], partners: Sequence[int | None], strict: bool
) -> list[int]:
    """For each agent, the worst rank it approves: its partner's, or one
    better with ``strict`` (ranks are integers); n when it is unmatched,
    since every rank is below n and anyone beats staying single."""
    return [
        len(row) if partner is None else row[partner] - 1 if strict else row[partner]
        for row, partner in zip(ranks, partners)
    ]


def approvals(
    ranks: Sequence[Sequence[int]],
    partners: Sequence[int | None],
    strict: bool = False,
    orders: Sequence[Sequence[int]] | None = None,
) -> list[list[int]]:
    """For each agent, the ascending list of opposite-side agents it prefers to
    its partner: tied or better, or only strictly better with ``strict``.
    This is the one comparison behind every blocking-pair scan.

    ``orders`` holds each agent's row best first (``TierList.order``) and is
    derived from ``ranks`` when not given.  The approved agents are a prefix
    of the order, cut with one bisect on rank.
    """
    if orders is None:
        orders = [sorted(range(len(row)), key=row.__getitem__) for row in ranks]
    out = []
    for order, row, partner, bar in zip(
        orders, ranks, partners, _bars(ranks, partners, strict)
    ):
        approved = list(order[:bisect.bisect_right(order, bar, key=row.__getitem__)])
        if partner is not None and not strict:
            approved.remove(partner)
        approved.sort()
        out.append(approved)
    return out


def _blocking_pairs(
    inst: Instance, matching: Matching, strict: bool
) -> list[tuple[int, int]]:
    """Pairs whose members approve each other, in (man, woman) row-major
    order: each man's approved women, each kept when she ranks him within
    her bar."""
    n = inst.n
    matching.validate_for(n)
    men = approvals(
        inst.men_rank, [matching.woman_of(m) for m in range(n)], strict,
        [tl.order for tl in inst.men],
    )
    bars = _bars(inst.women_rank, [matching.man_of(w) for w in range(n)], strict)
    women_rank = inst.women_rank
    return [
        (m, w) for m, ws in enumerate(men) for w in ws if women_rank[w][m] <= bars[w]
    ]


def obvious_blocking_pairs(inst: Instance, matching: Matching) -> list[tuple[int, int]]:
    """Both sides strictly prefer each other to their current partners."""
    return _blocking_pairs(inst, matching, strict=True)


def super_blocking_pairs(inst: Instance, matching: Matching) -> list[tuple[int, int]]:
    """Both sides strictly prefer or are incomparable between the other and
    their current partner."""
    return _blocking_pairs(inst, matching, strict=False)


def obvious_among(
    inst: Instance, matching: Matching, pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The pairs of ``pairs`` whose members both strictly prefer each other
    to their partners, in the given order.  Every obvious-blocking pair is
    super-blocking, so this filters the super-blocking pairs down to the
    obvious ones without a second scan."""
    n = inst.n
    men_bars = _bars(inst.men_rank, [matching.woman_of(m) for m in range(n)], True)
    women_bars = _bars(inst.women_rank, [matching.man_of(w) for w in range(n)], True)
    men_rank, women_rank = inst.men_rank, inst.women_rank
    return [
        (m, w) for m, w in pairs
        if men_rank[m][w] <= men_bars[m] and women_rank[w][m] <= women_bars[w]
    ]


def count_super_blocking_pairs(inst: Instance, matching: Matching) -> int:
    return len(super_blocking_pairs(inst, matching))


def is_weakly_stable(inst: Instance, matching: Matching) -> bool:
    return not obvious_blocking_pairs(inst, matching)


def is_super_stable(inst: Instance, matching: Matching) -> bool:
    return not super_blocking_pairs(inst, matching)


# ---------------------------------------------------------------------------
# Worst-case completion
# ---------------------------------------------------------------------------

def build_witness_completion(
    inst: Instance, matching: Matching, sbps: Iterable[tuple[int, int]]
) -> Completion:
    """A completion under which the matching blocks on exactly ``sbps``, its
    super-blocking pairs under ``inst``.

    For every super-blocking pair, any incomparability with the current
    partner is resolved in favour of the blocking agent; all remaining ties
    are broken by ascending index (the super-blocking partners of an agent
    come first within the partner's tier, then the other tier members, then
    the partner).  Any refinement rule would do: a completion can never block
    on pairs that are not super-blocking.
    """
    men_block: dict[int, set[int]] = {}
    women_block: dict[int, set[int]] = {}
    for m, w in sbps:
        men_block.setdefault(m, set()).add(w)
        women_block.setdefault(w, set()).add(m)

    def complete(
        tl: TierList, partner: int | None, blockers: set[int]
    ) -> tuple[int, ...] | TierList:
        if tl.is_strict:
            return tl  # its only completion
        order = tl.order
        if partner is None:
            return order
        # the partner's tier is the run of order that shares its rank
        rank_of, r = tl.rank.__getitem__, tl.rank[partner]
        lo = bisect.bisect_left(order, r, key=rank_of)
        hi = bisect.bisect_right(order, r, key=rank_of, lo=lo)
        tier = order[lo:hi]
        return (
            order[:lo]
            + tuple(x for x in tier if x in blockers)
            + tuple(x for x in tier if x not in blockers and x != partner)
            + (partner,)
            + order[hi:]
        )

    men_orders = tuple(
        complete(inst.men[m], matching.woman_of(m), men_block.get(m, set()))
        for m in range(inst.n)
    )
    women_orders = tuple(
        complete(inst.women[w], matching.man_of(w), women_block.get(w, set()))
        for w in range(inst.n)
    )
    return Completion(men_orders, women_orders)


# ---------------------------------------------------------------------------
# Preference-shape checks and restrictions
# ---------------------------------------------------------------------------

def validate_one_sided_top_truncated(inst: Instance) -> bool:
    """True iff men are strict and each woman ranks a strict prefix followed
    by at most one trailing tier of mutually incomparable men."""
    if not all(tl.is_strict for tl in inst.men):
        return False
    for tl in inst.women:
        # tier indices rise by at most one per position, so every tier
        # before the last is a singleton iff the last tier starts at the
        # position equal to its index
        if tl.order:
            last = tl.rank[tl.order[-1]]
            if tl.rank[tl.order[last]] != last:
                return False
    return True


def restrict_instance(
    inst: Instance, keep_men: Iterable[int], keep_women: Iterable[int]
) -> tuple[Instance, tuple[int, ...], tuple[int, ...]]:
    """Sub-market on the given agents, reindexed contiguously.

    Returns the restricted instance plus the original indices of its men and
    women (position = new index).
    """
    men_ids = tuple(sorted(set(keep_men)))
    women_ids = tuple(sorted(set(keep_women)))
    if len(men_ids) != len(women_ids):
        raise ValidationError("restriction must keep equally many men and women")
    wmap = {old: new for new, old in enumerate(women_ids)}
    mmap = {old: new for new, old in enumerate(men_ids)}

    def cut(tl: TierList, keep: dict[int, int]) -> TierList:
        kept = [x for x in tl.order if x in keep]
        return TierList(
            [keep[x] for x in t] for _, t in itertools.groupby(kept, tl.rank.__getitem__)
        )

    men = tuple(cut(inst.men[m], wmap) for m in men_ids)
    women = tuple(cut(inst.women[w], mmap) for w in women_ids)
    return Instance(men, women), men_ids, women_ids
