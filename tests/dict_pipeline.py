"""The deletion pipeline on explicit lists: each agent's surviving entries in
one insertion-ordered dict, and every removed pair deleted from both dicts.

This is the pipeline as it was before deletions became bounds over the
instance's rows.  It is kept, test-only, as the reference that
``deletion_stages`` must match stage by stage.
"""

import itertools
from collections import deque

from minimaxsm import validate_one_sided_top_truncated
from minimaxsm.solvers import DegenerateInstanceError, PreconditionError


class DictWorkingInstance:
    """Each agent's surviving entries, best first, as one insertion-ordered
    dict, with delete(man, woman) on both sides at once.  ``engaged[side]``
    holds that side's engagements from its last proposal pass."""

    def __init__(self, inst):
        self.inst = inst
        self.n = inst.n
        self.men_lists = [dict.fromkeys(tl.order) for tl in inst.men]
        self.women_lists = [dict.fromkeys(tl.order) for tl in inst.women]
        self.engaged = {
            side: ([None] * self.n, [None] * self.n) for side in ("men", "women")
        }

    def delete(self, man, woman):
        del self.men_lists[man][woman]
        del self.women_lists[woman][man]

    def side_is_strict(self, side):
        lists, rows, *_ = _sides(self, side)
        return all(
            tl.is_strict or len({tl.rank[x] for x in entries}) == len(entries)
            for entries, tl in zip(lists, rows)
        )

    def pair_set(self):
        return frozenset(
            (m, w) for m, entries in enumerate(self.men_lists) for w in entries
        )


def _sides(work, side):
    inst = work.inst
    if side == "men":
        return (work.men_lists, inst.men, work.women_lists, inst.women_rank,
                work.delete)
    if side == "women":
        return (work.women_lists, inst.women, work.men_lists, inst.men_rank,
                lambda w, m: work.delete(m, w))
    raise ValueError(f"unknown side {side!r}")


def resume_proposals(work, side):
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
        bar = rank[a]
        tail = reversed(acceptor_lists[b])
        for x in list(itertools.takewhile(lambda x: rank[x] > bar, tail)):
            delete(x, b)


def propose_with(work, side):
    if not work.side_is_strict(side):
        raise PreconditionError(f"{side} still have ties; cannot propose")
    work.engaged[side] = ([None] * work.n, [None] * work.n)
    resume_proposals(work, side)
    for m in range(work.n):
        if not work.men_lists[m]:
            raise DegenerateInstanceError(f"man {m + 1} ran out of candidates")
        w = next(iter(work.men_lists[m]))
        wr = work.inst.women_rank[w]
        tied = [m2 for m2 in work.women_lists[w] if m2 != m and wr[m2] == wr[m]]
        for m2 in tied:
            work.delete(m2, w)
    return work


def find_exposed_rotation(work):
    start = None
    for m, entries in enumerate(work.men_lists):
        if not entries:
            raise DegenerateInstanceError(f"man {m + 1} ran out of candidates")
        if len(entries) >= 2:
            start = m
            break
    if start is None:
        return None
    seen = {}
    walk = []
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
        m = next(reversed(work.women_lists[second]))
    rotation = [(mi, next(iter(work.men_lists[mi]))) for mi in walk[seen[m]:]]
    for idx, (mi, _) in enumerate(rotation):
        _, succ_w = itertools.islice(work.men_lists[mi], 2)
        assert succ_w == rotation[(idx + 1) % len(rotation)][1]
    return rotation


def eliminate_rotation(work, rotation):
    for m, w in rotation:
        work.delete(m, w)


def deletion_stages(inst):
    """The same stages, labels and order as ``minimaxsm.deletion_stages``."""
    if not validate_one_sided_top_truncated(inst):
        raise PreconditionError(
            "input must have strict men, and each woman may tie only her last tier"
        )
    work = DictWorkingInstance(inst)
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
        step = resume_proposals
