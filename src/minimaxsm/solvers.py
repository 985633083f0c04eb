"""Constructive algorithms: weakly-stable matching via completion, super-stable
matching existence, bounded exact search for the minimum super-blocking-pair
matching, and the deletion pipeline for one-sided bottom-tie preferences.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .core import (
    Completion,
    Instance,
    Matching,
    TierList,
    ValidationError,
    build_witness_completion,
    obvious_among,
    obvious_blocking_pairs,  # noqa: F401  (perfbench's tracer wraps this name here)
    super_blocking_pairs,
    validate_one_sided_top_truncated,
)


class PreconditionError(ValueError):
    """The input violates a solver precondition."""


class DegenerateInstanceError(RuntimeError):
    """A working preference list emptied mid-run; the pipeline cannot continue."""


@dataclass(frozen=True)
class SolveReport:
    """A matching together with its quality certificate.

    The witness completion realises every super-blocking pair as a classical
    blocking pair, so its blocking-pair count equals the super-blocking-pair
    count: no completion can do worse.
    """

    algorithm: str
    matching: Matching
    super_blocking_pairs: tuple[tuple[int, int], ...]
    obvious_blocking_pairs: tuple[tuple[int, int], ...]
    witness_completion: Completion
    deleted_men: tuple[int, ...] | None = None
    deleted_women: tuple[int, ...] | None = None

    @classmethod
    def build(cls, inst: Instance, matching: Matching, algorithm: str) -> "SolveReport":
        """Certify ``matching``: the one super-blocking scan feeds the witness
        and the obvious-blocking pairs, which are the super-blocking pairs
        both of whose members strictly approve, and the witness's blocking
        pairs must recount exactly the super-blocking pairs."""
        sbps = super_blocking_pairs(inst, matching)
        witness = build_witness_completion(inst, matching, sbps)
        recount = witness.blocking_pairs(matching)
        if recount != sbps:
            raise RuntimeError(
                f"witness completion blocks on {len(recount)} pairs, not on the "
                f"{len(sbps)} super-blocking pairs it certifies"
            )
        return cls(
            algorithm=algorithm,
            matching=matching,
            super_blocking_pairs=tuple(sbps),
            obvious_blocking_pairs=tuple(obvious_among(inst, matching, sbps)),
            witness_completion=witness,
        )

    @property
    def super_bp_count(self) -> int:
        return len(self.super_blocking_pairs)


# ---------------------------------------------------------------------------
# Weakly-stable matching from an arbitrary completion
# ---------------------------------------------------------------------------

def _complete_orders(
    tl: TierList, rng: random.Random | None
) -> Sequence[int] | TierList:
    if tl.is_strict:
        return tl
    if rng is None:
        return tl.order
    out: list[int] = []
    for tier in tl.tiers:
        # shuffle draws no random number for one element, so skipping
        # singletons leaves the seeded stream as it was
        if len(tier) > 1:
            tier = list(tier)
            rng.shuffle(tier)
        out += tier
    return out


def _man_proposals(inst: Instance) -> list[int | None] | None:
    """Men propose, and deletions are implicit: each woman's fiance, or None
    once a man's list empties.

    Woman w keeps only the men whose rank on her list is below ``bar[w]``;
    each man walks his order and skips the women whose bar has passed him.
    A free man proposes to every woman left in his head tier and may hold
    several engagements at once.  A woman whose fiance ties the proposer
    loses both and the whole tail of her list (Irving, "Stable marriage and
    indifference", Discrete Appl. Math. 48, 1994); otherwise she holds the
    proposer and drops every man she ranks below him.  Every deletion
    removes a pair that no super-stable matching can contain.  On strict
    lists nobody ties, and this is deferred acceptance.  A man is freed only
    once his whole head tier has dropped him, so he resumes past it.
    """
    n = inst.n
    wrank = inst.women_rank
    bar = [n] * n
    nxt = [0] * n
    fiance: list[int | None] = [None] * n
    eng_count = [0] * n
    free = deque(range(n))
    while free:
        m = free.popleft()
        order, rank = inst.men[m].order, inst.men_rank[m]
        i = nxt[m]
        while i < n and wrank[order[i]][m] >= bar[order[i]]:
            i += 1
        if i == n:
            return None
        head = rank[order[i]]
        while i < n and rank[order[i]] == head:
            w = order[i]
            i += 1
            r, p = wrank[w][m], fiance[w]
            if r >= bar[w]:
                continue
            # A woman who cannot rank m against her fiance loses the whole
            # tail of her list from m's tier down: any of those men as her
            # partner is super-blocked by m or by the fiance.  Either way
            # the cut takes the fiance.
            tied = p is not None and wrank[w][p] == r
            bar[w] = r if tied else r + 1
            if p is not None:
                eng_count[p] -= 1
                if not eng_count[p]:
                    free.append(p)
            fiance[w] = None if tied else m
            if not tied:
                eng_count[m] += 1
        nxt[m] = i
        if not eng_count[m]:
            free.append(m)
    return fiance


def gale_shapley_completion(inst: Instance, seed: int | None = None) -> SolveReport:
    """Fill in the missing comparisons, then run deferred acceptance.

    With ``seed=None`` ties are broken by ascending index; otherwise each tier
    is shuffled with a seeded RNG.  The result is evaluated against the
    original instance; it is weakly stable by construction.
    """
    rng = random.Random(seed) if seed is not None else None
    completion = Completion(
        [_complete_orders(tl, rng) for tl in inst.men],
        [_complete_orders(tl, rng) for tl in inst.women],
    )
    fiance = _man_proposals(completion)
    return SolveReport.build(inst, Matching(zip(fiance, range(inst.n))), "gs")


# ---------------------------------------------------------------------------
# Super-stable matching
# ---------------------------------------------------------------------------

def super_stable_solve(inst: Instance) -> Matching | None:
    """Find a super-stable matching, or return None when none exists.

    Irving's algorithm: the proposal loop above, run on the tied lists.  An
    emptied list proves non-existence.  Once no man is free, each man holds
    exactly one engagement (each woman holds at most one, so n men with at
    least one average out to one each) and that matching is returned after
    a final stability check; a failed check likewise proves non-existence.
    """
    fiance = _man_proposals(inst)
    if fiance is None:
        return None
    matching = Matching(zip(fiance, range(inst.n)))
    if super_blocking_pairs(inst, matching):
        return None
    return matching


# ---------------------------------------------------------------------------
# Exact bounded search
# ---------------------------------------------------------------------------

def _demote(
    inst: Instance,
    pairs: tuple[tuple[int, int], ...],
    rows: dict[tuple[int, int, tuple[int, ...]], TierList] | None = None,
) -> Instance:
    """Push each pair's two agents to the bottom of each other's list; the
    pairs must be distinct.

    An agent demoting several partners keeps them as one incomparable bottom
    tier; the surviving tier structure is otherwise preserved.  Only the
    pairs' agents get new rows; every other row and rank row is shared with
    ``inst``.  Each new row is kept in ``rows`` under (side, agent, ascending
    partners dropped), so calls on the same ``inst`` that pass the same dict
    build it once: at most 2n(2^n - 1) rows, one per side, agent and
    non-empty drop set.
    """
    if rows is None:
        rows = {}
    men, women = {}, {}
    for m, w in sorted(pairs):  # so each agent's partners come out ascending
        men.setdefault(m, []).append(w)
        women.setdefault(w, []).append(m)
    # each agent's drop list is replaced by its demoted row
    for side, drops, old in ((0, men, inst.men), (1, women, inst.women)):
        for agent, drop in drops.items():
            key = (side, agent, tuple(drop))
            row = rows.get(key)
            if row is None:
                tl = old[agent]
                kept = [x for x in tl.order if x not in drop]
                groups = itertools.groupby(kept, tl.rank.__getitem__)
                tiers = [list(t) for _, t in groups]
                row = rows[key] = TierList([*tiers, drop])
            drops[agent] = row
    return inst.with_rows(men, women)


def exact_min_super_bp(inst: Instance, k_max: int | None = None) -> SolveReport | None:
    """Optimal minimum-super-blocking-pair matching by bounded subset search.

    For j = 0, 1, ... try every j-subset of man-woman pairs as the candidate
    blocking set: demote its pairs and test the modified instance for
    super-stability.  The first success is optimal because all smaller sizes
    failed, and the returned matching has at most j super-blocking pairs on
    the original instance.  Returns None when ``k_max`` is exhausted.

    Each candidate market shares every untouched row with ``inst``, and each
    demoted row is built once per search: one dict holds them all, at most
    2n(2^n - 1) rows.
    """
    n = inst.n
    if k_max is None:
        k_max = n * n
    if k_max < 0:
        raise ValidationError(f"k_max must be nonnegative, got {k_max}")
    all_pairs = [(m, w) for m in range(n) for w in range(n)]
    rows: dict[tuple[int, int, tuple[int, ...]], TierList] = {}
    for j in range(min(k_max, n * n) + 1):
        for subset in itertools.combinations(all_pairs, j):
            candidate = super_stable_solve(_demote(inst, subset, rows))
            if candidate is not None:
                return SolveReport.build(inst, candidate, "exact")
    return None


# ---------------------------------------------------------------------------
# Working lists as bounds over the instance's rows
# ---------------------------------------------------------------------------

def _side(side: str) -> int:
    if side == "men":
        return 0
    if side == "women":
        return 1
    raise ValueError(f"unknown side {side!r}")


class _Side:
    """One side of a working instance: the rows, and per agent the bounds
    and cursors that ``WorkingInstance`` describes.  The cursor readers take
    the other side, whose bounds decide the rest of each pair."""

    __slots__ = ("order", "rank", "strict", "lo", "hi", "kept",
                 "head", "second", "tail", "clamped", "moved")

    def __init__(self, rows: Sequence[TierList], n: int):
        self.order = tuple(tl.order for tl in rows)
        self.rank = tuple(tl.rank for tl in rows)
        self.strict = tuple(tl.is_strict for tl in rows)
        self.lo, self.hi, self.kept = [0] * n, [n] * n, [-1] * n
        self.head, self.second, self.tail = [0] * n, [1] * n, [n - 1] * n
        self.clamped = [n] * n
        self.moved: list[int] = []

    def holds(self, a: int, b: int) -> bool:
        """Whether ``a``'s own bounds still admit ``b``."""
        x, hi = self.rank[a][b], self.hi[a]
        return self.lo[a] <= x and (x < hi or x == hi and b == self.kept[a])

    def scan(self, a: int, other: "_Side", i: int, stop: int, step: int = 1) -> int:
        """The first position from ``i`` to ``stop`` (``step`` 1 or -1) on
        ``a``'s row whose entry is alive, or ``stop + step`` if none is."""
        order, rank, lo, hi, kept = (
            self.order[a], self.rank[a], self.lo[a], self.hi[a], self.kept[a])
        other_rank, other_lo, other_hi, other_kept = (
            other.rank, other.lo, other.hi, other.kept)
        end = stop + step
        while i != end:
            # the entry's own bounds fail far more often than a's
            b = order[i]
            y, bar = other_rank[b][a], other_hi[b]
            if y <= bar and (y < bar or a == other_kept[b]) and other_lo[b] <= y:
                x = rank[b]
                if lo <= x and (x < hi or x == hi and b == kept):
                    return i
            i += step
        return i

    def clamp(self, a: int) -> int:
        """``a``'s tail cursor, pulled in to its bar.  Where rank is position
        the proposal loop moves it with the bar; elsewhere it is pulled in
        here, once per bar."""
        if not self.strict[a]:
            bar = self.hi[a] + (self.kept[a] >= 0)
            if bar != self.clamped[a]:
                self.clamped[a] = bar
                end = bisect_left(self.order[a], bar, key=self.rank[a].__getitem__)
                if end <= self.tail[a]:
                    self.tail[a] = end - 1
        return self.tail[a]

    def first(self, a: int, other: "_Side") -> int | None:
        tail, i = self.clamp(a), self.head[a]
        if i <= tail:
            i = self.head[a] = self.scan(a, other, i, tail)
        return self.order[a][i] if i <= tail else None

    def top_two(self, a: int, other: "_Side") -> tuple[int | None, int | None]:
        """``a``'s first and second entries, each None when missing."""
        first = self.first(a, other)
        if first is None:
            return None, None
        tail, j = self.tail[a], self.second[a]
        if j <= self.head[a]:
            j = self.head[a] + 1
        if j <= tail:
            j = self.second[a] = self.scan(a, other, j, tail)
        return first, (self.order[a][j] if j <= tail else None)

    def last(self, a: int, other: "_Side") -> int | None:
        tail, head = self.clamp(a), self.head[a]
        if tail >= head:
            tail = self.tail[a] = self.scan(a, other, tail, head, -1)
        return self.order[a][tail] if tail >= head else None

    def entries(self, a: int, other: "_Side") -> list[int]:
        """``a``'s list, best first."""
        first = self.first(a, other)
        if first is None:
            return []
        return [first] + [b for b in self.order[a][self.head[a] + 1:self.tail[a] + 1]
                          if self.holds(a, b) and other.holds(b, a)]


class WorkingInstance:
    """The pipeline's working lists, held as monotone bounds over the
    instance's own rows; no list is stored.

    ``sides[0]`` is the men and ``sides[1]`` the women.  Agent ``a``'s list
    is its row's ``order`` less what was dropped, and every drop is a bound
    on ``a``'s ranks that never moves back:

    - ``lo[a]``, a head bound: entries ranked better than ``lo`` are gone (a
      proposer rejected on a tie, or a rotation's pair);
    - ``hi[a]``, a tail bar: entries ranked ``hi`` or worse are gone (an
      acceptor cutting below a new fiance);
    - ``kept[a]``: the one entry of rank ``hi`` that round one's tie sweep
      kept, or -1.

    A pair is alive when both agents' bounds admit it.  ``head``, ``second``
    and ``tail`` are cursors into ``order``: every entry before ``head``,
    strictly between ``head`` and ``second``, or after ``tail`` is dead, so
    the cursors only move inward and reading an agent's first, second or
    last entry costs O(n) over the whole pipeline.  ``men_lists``,
    ``women_lists`` and ``pair_set()`` are built from the bounds when read.

    ``engaged[side]`` holds that side's engagements from its last proposal
    pass: each proposer's acceptor and each acceptor's proposer, or None.
    Each side's ``moved`` logs its agents whose bounds moved, and
    ``logged[side]`` holds both logs' lengths when that side's last pass
    ended.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        n = self.n = inst.n
        self.sides = (_Side(inst.men, n), _Side(inst.women, n))
        self.engaged: dict[str, tuple[list[int | None], list[int | None]]] = {
            side: ([None] * n, [None] * n) for side in ("men", "women")
        }
        self.logged = {"men": (0, 0), "women": (0, 0)}
        # find_exposed_rotation's scan for its start: every man below
        # ``start`` had one entry, ``singles`` maps each such entry to its
        # men, and ``scanned`` holds both logs' lengths at the last scan
        self.start = 0
        self.singles: dict[int, list[int]] = {}
        self.scanned = (0, 0)

    def alive(self, s: int, a: int, b: int) -> bool:
        """Whether ``a`` of side ``s`` and ``b`` still hold each other."""
        return self.sides[s].holds(a, b) and self.sides[1 - s].holds(b, a)

    @property
    def men_lists(self) -> list[list[int]]:
        men, women = self.sides
        return [men.entries(m, women) for m in range(self.n)]

    @property
    def women_lists(self) -> list[list[int]]:
        men, women = self.sides
        return [women.entries(w, men) for w in range(self.n)]

    def delete(self, man: int, woman: int) -> None:
        """Drop ``woman`` from the head of ``man``'s list: she must be his
        first entry, and no other entry may tie with her."""
        men, women = self.sides
        if men.first(man, women) != woman:
            raise ValueError(f"woman {woman + 1} is not first on man {man + 1}'s list")
        rank = men.rank[man]
        if not men.strict[man]:
            _, nxt = men.top_two(man, women)
            if nxt is not None and rank[nxt] == rank[woman]:
                raise ValueError(f"man {man + 1} ties woman {woman + 1} with another")
        men.lo[man] = rank[woman] + 1
        # the entries up to the second cursor are dead too
        men.head[man] = max(men.head[man] + 1, men.second[man])
        men.moved.append(man)

    def side_is_strict(self, side: str) -> bool:
        s = _side(side)
        return all(strict or self._tie_free(s, a)
                   for a, strict in enumerate(self.sides[s].strict))

    def _tie_free(self, s: int, a: int) -> bool:
        # ranks are tier indices and no tier is empty, so the tiers in
        # [lo, hi) are all singletons when that many entries hold them;
        # kept is alone at rank hi
        me = self.sides[s]
        order, rank, lo = me.order[a], me.rank[a], me.lo[a]
        hi = min(me.hi[a], rank[order[-1]] + 1)
        if hi <= lo or (bisect_left(order, hi, key=rank.__getitem__)
                        - bisect_left(order, lo, key=rank.__getitem__) == hi - lo):
            return True
        ranks = [rank[b] for b in me.entries(a, self.sides[1 - s])]
        return len(set(ranks)) == len(ranks)

    def pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (m, w) for m, entries in enumerate(self.men_lists) for w in entries
        )


# ---------------------------------------------------------------------------
# Deletion pipeline for one-sided bottom ties
# ---------------------------------------------------------------------------

def _proposals(work: WorkingInstance, side: str, free: Iterable[int]) -> None:
    """The proposal loop of ``propose_with`` for the agents in ``free``,
    from the engagements in ``work.engaged[side]``."""
    s = _side(side)
    me, other = work.sides[s], work.sides[1 - s]
    orders, ranks, los, his, kepts, head, second, tail = (
        me.order, me.rank, me.lo, me.hi, me.kept, me.head, me.second, me.tail)
    acceptor_rank, alo, ahi, akept = other.rank, other.lo, other.hi, other.kept
    aorder, astrict, atail, clamped = other.order, other.strict, other.tail, other.clamped
    fiancee, fiance = work.engaged[side]
    free = deque(free)
    while free:
        a = free.popleft()
        order, rank, lo, hi, kept = orders[a], ranks[a], los[a], his[a], kepts[a]
        # a's first entry: the first that both a and the acceptor still hold
        i, end = head[a], tail[a]
        while i <= end:
            b = order[i]
            y, bar = acceptor_rank[b][a], ahi[b]
            if y <= bar and (y < bar or a == akept[b]) and alo[b] <= y:
                x = rank[b]
                if lo <= x and (x < hi or x == hi and b == kept):
                    break
            i += 1
        head[a] = i
        if i > end:
            raise DegenerateInstanceError(
                f"proposing agent {a + 1} on the {side} side ran out of candidates"
            )
        p = fiance[b]
        if p is not None and acceptor_rank[b][p] == y:
            # a tie: a drops b, a pointer step past it (a's list is tie-free)
            los[a] = x + 1
            head[a] = max(i + 1, second[a])
            me.moved.append(a)
            free.append(a)
            continue
        # a is alive on b's list, so a is better than the fiance
        if p is not None:
            fiancee[p] = None
            free.append(p)
        fiance[b] = a
        fiancee[a] = b
        # b drops every entry it ranks below a: its bar moves up to a
        if a != akept[b]:
            ahi[b] = y + 1
            akept[b] = -1
            other.moved.append(b)
            # While every tier up to y is a singleton, rank is position
            # there and b's tail cursor moves now; else clamp bisects for it.
            if astrict[b] or acceptor_rank[b][aorder[b][y + 1]] == y + 1:
                clamped[b] = y + 1
                if y < atail[b]:
                    atail[b] = y
    work.logged[side] = (len(work.sides[0].moved), len(work.sides[1].moved))


def _resume_proposals(work: WorkingInstance, side: str) -> None:
    """The proposal loop of ``propose_with``, resumed from the engagements
    ``work.engaged[side]`` left by a pass on the same lists that ended
    normally, so every agent of ``side`` was engaged.

    Only agents whose engagement pair has been deleted since propose.
    Deletion only shrinks lists, so a surviving engagement still has nothing
    worse than the fiance on the acceptor's list.  A pair dies only when a
    bound of one of its agents moves, so only the agents the sides' ``moved``
    logs name since that pass are rechecked.
    """
    s = _side(side)
    fiancee, fiance = work.engaged[side]
    since = work.logged[side]
    free = set()
    for a in set(work.sides[s].moved[since[s]:]):
        b = fiancee[a]
        if b is not None and not work.alive(s, a, b):
            fiancee[a] = fiance[b] = None
            free.add(a)
    for b in set(work.sides[1 - s].moved[since[1 - s]:]):
        a = fiance[b]
        if a is not None and not work.alive(s, a, b):
            fiancee[a] = fiance[b] = None
            free.add(a)
    _proposals(work, side, sorted(free))


def propose_with(work: WorkingInstance, side: str) -> WorkingInstance:
    """One proposal-and-deletion pass from the given side, in place.

    A free agent proposes to the first entry of its list.  An acceptor
    holding a fiance it cannot rank against the proposer rejects the proposer
    (deleting that pair); otherwise it accepts and deletes every strictly
    worse entry.  A final one-pass sweep removes, for each man, any remaining
    men his first woman ties with him, which clears all surviving ties.  The
    pass starts from no engagements and leaves its own in ``work.engaged``.

    The proposing side must be tie-free: men always are for one-sided
    bottom-tie inputs, and women are once the men's pass has run.
    """
    if not work.side_is_strict(side):
        raise PreconditionError(f"{side} still have ties; cannot propose")
    work.engaged[side] = ([None] * work.n, [None] * work.n)
    _proposals(work, side, range(work.n))
    # Tie sweep: a woman's surviving tie can only contain her fiance's
    # tier-mates.  After a men's pass each man's first woman is his fiancee,
    # whose bar sits just below him, so the sweep lowers her bar onto his
    # tier and keeps him; after a women's pass there are no ties to sweep.
    men, women = work.sides
    for m in range(work.n):
        w = men.first(m, women)
        if w is None:
            raise DegenerateInstanceError(f"man {m + 1} ran out of candidates")
        rank = women.rank[w]
        tier = rank[m]
        if women.kept[w] < 0 and tier == women.hi[w] - 1:
            women.hi[w], women.kept[w] = tier, m
            women.moved.append(w)
            # nothing after m on her row is left
            order = women.order[w]
            end = order.index(m, bisect_left(order, tier, key=rank.__getitem__))
            women.tail[w] = min(women.tail[w], end)
    return work


def find_exposed_rotation(work: WorkingInstance) -> list[tuple[int, int]] | None:
    """Locate an exposed rotation in a tie-free working instance.

    Starting from the lowest-index man with at least two entries, repeatedly
    step to the second woman on the current man's list and then to the last
    man on her list; the walk closes into a cycle (m_i, w_i) where w_i is
    first and w_{i+1} second on m_i's list.  Returns None iff every list is a
    singleton.
    """
    # A man below work.start keeps his one entry until its pair dies, which
    # moves a bound of his or of his woman's; the logs name both.
    men, women = work.sides
    suspects = {m for m in men.moved[work.scanned[0]:] if m < work.start}
    for w in set(women.moved[work.scanned[1]:]):
        suspects.update(work.singles.get(w, ()))
    for m in sorted(suspects):
        if men.first(m, women) is None:
            raise DegenerateInstanceError(f"man {m + 1} ran out of candidates")
    start = None
    for m in range(work.start, work.n):
        first, second = men.top_two(m, women)
        if first is None:
            raise DegenerateInstanceError(f"man {m + 1} ran out of candidates")
        if second is not None:
            start = m
            break
        work.singles.setdefault(first, []).append(m)
        work.start = m + 1
    work.scanned = (len(men.moved), len(women.moved))
    if start is None:
        return None

    top: dict[int, tuple[int | None, int | None]] = {}
    walk: list[int] = []
    m = start
    while m not in top:
        walk.append(m)
        first, second = top[m] = men.top_two(m, women)
        if second is None:
            raise DegenerateInstanceError(
                f"man {m + 1} has a singleton list inside a rotation walk"
            )
        # m is on the second woman's list, so it is not empty
        m = women.last(second, men)
    cycle = walk[walk.index(m):]
    rotation = [(mi, top[mi][0]) for mi in cycle]
    for mi, (_, succ) in zip(cycle, rotation[1:] + rotation[:1]):
        if top[mi][1] != succ:
            raise DegenerateInstanceError(
                f"man {mi + 1}'s second woman is not first on the next man's "
                "list: the walk closed on no rotation"
            )
    return rotation


def eliminate_rotation(work: WorkingInstance, rotation: list[tuple[int, int]]) -> None:
    for m, w in rotation:
        work.delete(m, w)


def min_vertex_cover_bipartite(
    edges: Iterable[tuple[int, int]],
) -> tuple[set[int], set[int]]:
    """Minimum vertex cover of a man-woman graph via maximum matching.

    Augmenting paths are explored in ascending index order, and the cover is
    read off the alternating-reachability set of the resulting matching, so
    the output is deterministic.  Returns (men in cover, women in cover).
    """
    edge_list = sorted(set(edges))
    adj: dict[int, list[int]] = {}
    for m, w in edge_list:
        adj.setdefault(m, []).append(w)
    men = sorted(adj)
    match_w: dict[int, int] = {}
    match_m: dict[int, int] = {}

    def augment(root: int) -> None:
        # Depth-first search for an augmenting path with an explicit stack:
        # path[i] is the woman stack[i]'s man is trying, and her fiance is
        # stack[i + 1].  Each man tries his women in ascending order.
        visited: set[int] = set()
        stack = [(root, iter(adj[root]))]
        path: list[int] = []
        while stack:
            m, options = stack[-1]
            w = next((x for x in options if x not in visited), None)
            if w is None:
                stack.pop()
                del path[-1:]
                continue
            visited.add(w)
            path.append(w)
            if w not in match_w:
                for (m2, _), w2 in zip(stack, path):
                    match_w[w2] = m2
                    match_m[m2] = w2
                return
            stack.append((match_w[w], iter(adj[match_w[w]])))

    for m in men:
        augment(m)

    reach_men = {m for m in men if m not in match_m}
    reach_women: set[int] = set()
    frontier = list(reach_men)
    while frontier:
        m = frontier.pop()
        for w in adj[m]:
            if w in reach_women:
                continue
            if match_m.get(m) == w:
                continue
            reach_women.add(w)
            m2 = match_w.get(w)
            if m2 is not None and m2 not in reach_men:
                reach_men.add(m2)
                frontier.append(m2)
    cover_men = set(men) - reach_men
    cover_women = set(reach_women)
    return cover_men, cover_women


def deletion_stages(inst: Instance) -> Iterator[tuple[str, WorkingInstance]]:
    """The deletion pipeline's steps on one-sided bottom-tie instances.

    Yields a stage label ("start", "propose-men", "propose-women" or
    "rotation") and the working lists after every step: a men's pass and a
    women's pass, then one exposed rotation eliminated before the next two
    passes, until no rotation remains.  Round one is two ``propose_with``
    passes; after that each side's passes resume its engagements
    (``work.engaged``) from its previous pass, so their total cost is the
    bounds they move.  Later steps change the yielded working instance in
    place; read its lists at each stage.  The precondition is checked on
    the first ``next``.
    """
    if not validate_one_sided_top_truncated(inst):
        raise PreconditionError(
            "input must have strict men, and each woman may tie only her last tier"
        )
    work = WorkingInstance(inst)
    yield "start", work
    step = propose_with
    while True:
        step(work, "men")
        yield "propose-men", work
        step(work, "women")
        yield "propose-women", work
        rotation = find_exposed_rotation(work)
        if rotation is None:
            return
        eliminate_rotation(work, rotation)
        yield "rotation", work
        # The first men's pass leaves every list tie-free, so from here on
        # a sweep deletes nothing and a check cannot fail; only the
        # rotation's men, whose engagements it deleted, propose again.
        step = _resume_proposals


def min_delete_approx(inst: Instance) -> SolveReport:
    """Deletion pipeline for one-sided bottom-tie instances.

    Alternating proposal passes and rotation eliminations shrink the lists.
    They are meant to preserve the size of the largest internally
    super-stable matching the lists contain, but a tie of length three or
    more can break that (``test_size_preservation_defect_is_still_present``).
    When no rotation remains every list is a singleton and those singletons
    form a weakly stable matching.  The returned deletion set is a minimum
    vertex cover of the matching's super-blocking-pair graph, expanded by
    the matched partners.  The paper claims it is at most twice the optimal
    deletion set; this implementation fails that on the n=3 market of
    ``test_pipeline_two_approximation_counterexample``.
    """
    for _, work in deletion_stages(inst):
        pass
    # A pair lives on both agents' lists, so singleton men's lists that form
    # a perfect matching leave every woman's list holding just her partner.
    matching = Matching(work.pair_set())
    if not matching.is_perfect(inst.n):
        raise DegenerateInstanceError("the final lists are not a perfect matching")

    report = SolveReport.build(inst, matching, "algo1")
    cover_men, cover_women = min_vertex_cover_bipartite(report.super_blocking_pairs)
    deleted_men = cover_men | {matching.man_of(w) for w in cover_women}
    deleted_women = cover_women | {matching.woman_of(m) for m in cover_men}
    return replace(report, deleted_men=tuple(sorted(deleted_men)),
                   deleted_women=tuple(sorted(deleted_women)))


def assemble_from_deletion(
    inst: Instance,
    deleted_men: Iterable[int],
    deleted_women: Iterable[int],
    partial: Matching,
) -> Matching:
    """Extend a matching on the surviving agents to a perfect matching by
    pairing the deleted men and women in index order."""
    dm = sorted(set(deleted_men))
    dw = sorted(set(deleted_women))
    if len(dm) != len(dw):
        raise ValidationError("deletion set must be balanced across sides")
    partial.validate_for(inst.n)
    for m, w in partial:
        if m in dm or w in dw:
            raise ValidationError("partial matching touches a deleted agent")
    surviving_men = set(range(inst.n)) - set(dm)
    surviving_women = set(range(inst.n)) - set(dw)
    if {m for m, _ in partial} != surviving_men or {
        w for _, w in partial
    } != surviving_women:
        raise ValidationError("partial matching must cover exactly the survivors")
    return Matching(list(partial) + list(zip(dm, dw)))
