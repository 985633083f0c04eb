"""Constructive algorithms: weakly-stable matching via completion, super-stable
matching existence, bounded exact search for the minimum super-blocking-pair
matching, and the deletion pipeline for one-sided bottom-tie preferences.
"""

from __future__ import annotations

import itertools
import random
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
    obvious_blocking_pairs,
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
        """Certify ``matching``: the one super-blocking scan feeds the witness,
        and the witness's blocking pairs must recount exactly those pairs."""
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
            obvious_blocking_pairs=tuple(obvious_blocking_pairs(inst, matching)),
            witness_completion=witness,
        )

    @property
    def super_bp_count(self) -> int:
        return len(self.super_blocking_pairs)


# ---------------------------------------------------------------------------
# Weakly-stable matching from an arbitrary completion
# ---------------------------------------------------------------------------

def _complete_orders(tl: TierList, rng: random.Random | None) -> Sequence[int]:
    if rng is None or tl.is_strict:
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
# Working lists with symmetric deletion
# ---------------------------------------------------------------------------

class WorkingInstance:
    """Each agent's surviving entries, best first, as one insertion-ordered
    dict, with delete(man, woman) on both sides at once.  Ranks are read from
    the originating instance, which deletion never changes.  ``engaged[side]``
    holds that side's engagements from its last proposal pass: each
    proposer's acceptor and each acceptor's proposer, or None."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.n = inst.n
        self.men_lists: list[dict[int, None]] = [
            dict.fromkeys(tl.order) for tl in inst.men
        ]
        self.women_lists: list[dict[int, None]] = [
            dict.fromkeys(tl.order) for tl in inst.women
        ]
        self.engaged: dict[str, tuple[list[int | None], list[int | None]]] = {
            side: ([None] * self.n, [None] * self.n) for side in ("men", "women")
        }

    def delete(self, man: int, woman: int) -> None:
        del self.men_lists[man][woman]
        del self.women_lists[woman][man]

    def side_is_strict(self, side: str) -> bool:
        lists, ranks, *_ = _sides(self, side)
        return all(
            len({rank[x] for x in entries}) == len(entries)
            for entries, rank in zip(lists, ranks)
        )

    def pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (m, w) for m, entries in enumerate(self.men_lists) for w in entries
        )


def _sides(work: WorkingInstance, side: str):
    """The lists and rank rows of ``side``, then those of the other side, and
    a delete that takes an agent of ``side`` first."""
    inst = work.inst
    if side == "men":
        return (work.men_lists, inst.men_rank, work.women_lists, inst.women_rank,
                work.delete)
    if side == "women":
        return (work.women_lists, inst.women_rank, work.men_lists, inst.men_rank,
                lambda w, m: work.delete(m, w))
    raise ValueError(f"unknown side {side!r}")


# ---------------------------------------------------------------------------
# Deletion pipeline for one-sided bottom ties
# ---------------------------------------------------------------------------

def _resume_proposals(work: WorkingInstance, side: str) -> None:
    """The proposal loop of ``propose_with``, resumed from the engagements
    ``work.engaged[side]`` of an earlier pass on the same lists.

    Only agents with no engagement, or whose engagement pair has been deleted
    since, propose.  Deletion only shrinks lists, so a surviving engagement
    still has nothing worse than the fiance on the acceptor's list.
    """
    lists, _, acceptor_lists, acceptor_rank, delete = _sides(work, side)
    fiancee, fiance = work.engaged[side]
    for a, b in enumerate(fiancee):
        if b is not None and b not in lists[a]:
            fiancee[a] = fiance[b] = None
    free = deque(a for a, b in enumerate(fiancee) if b is None)
    while free:
        a = free.popleft()
        if not lists[a]:
            raise DegenerateInstanceError(
                f"proposing agent {a + 1} on the {side} side ran out of candidates"
            )
        b = next(iter(lists[a]))
        rank = acceptor_rank[b]
        p = fiance[b]
        if p is not None and rank[p] == rank[a]:
            delete(a, b)
            free.append(a)
            continue
        assert p is None or rank[a] < rank[p]
        if p is not None:
            fiancee[p] = None
            free.append(p)
        fiance[b] = a
        fiancee[a] = b
        # b drops every entry it ranks below a, reading its list from the end
        bar = rank[a]
        tail = reversed(acceptor_lists[b])
        for x in list(itertools.takewhile(lambda x: rank[x] > bar, tail)):
            delete(x, b)


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
    _resume_proposals(work, side)
    # Tie sweep: a woman's surviving tie can only contain her fiance's
    # tier-mates; one pass removes them all.
    for m in range(work.n):
        if not work.men_lists[m]:
            raise DegenerateInstanceError(f"man {m + 1} ran out of candidates")
        w = next(iter(work.men_lists[m]))
        wr = work.inst.women_rank[w]
        tied = [m2 for m2 in work.women_lists[w] if m2 != m and wr[m2] == wr[m]]
        for m2 in tied:
            work.delete(m2, w)
    return work


def find_exposed_rotation(work: WorkingInstance) -> list[tuple[int, int]] | None:
    """Locate an exposed rotation in a tie-free working instance.

    Starting from the lowest-index man with at least two entries, repeatedly
    step to the second woman on the current man's list and then to the last
    man on her list; the walk closes into a cycle (m_i, w_i) where w_i is
    first and w_{i+1} second on m_i's list.  Returns None iff every list is a
    singleton.
    """
    start = None
    for m, entries in enumerate(work.men_lists):
        if not entries:
            raise DegenerateInstanceError(f"man {m + 1} ran out of candidates")
        if len(entries) >= 2:
            start = m
            break
    if start is None:
        return None

    seen: dict[int, int] = {}
    walk: list[int] = []
    m = start
    while m not in seen:
        seen[m] = len(walk)
        walk.append(m)
        entries = work.men_lists[m]
        if len(entries) < 2:
            raise DegenerateInstanceError(
                f"man {m + 1} has a singleton list inside a rotation walk"
            )
        _, second = itertools.islice(entries, 2)
        # m is on the second woman's list, so it is not empty
        m = next(reversed(work.women_lists[second]))
    rotation = [(mi, next(iter(work.men_lists[mi]))) for mi in walk[seen[m]:]]
    for idx, (mi, _) in enumerate(rotation):
        _, succ_w = itertools.islice(work.men_lists[mi], 2)
        assert succ_w == rotation[(idx + 1) % len(rotation)][1]
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
    deletions.  Later steps change the yielded lists in place.  The
    precondition is checked on the first ``next``.
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
    # Deletion is symmetric, so singleton men's lists that form a perfect
    # matching leave every woman's list holding just her partner.
    matching = Matching(work.pair_set())
    assert matching.is_perfect(inst.n)

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
