"""Deterministic instance families with adversarial structure, plus a seeded
random generator with a missing-information budget.

Every generator self-checks the structural claims its family is built to
exhibit before returning.  Where the source construction admits two readings
of a block index, the default follows the reading under which the claims
hold; ``figure_verbatim=True`` reproduces the literal table instead and
does not assert the claims that reading may fail (the ``vc`` certificate
still reports them).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .core import (
    Instance,
    Matching,
    TierList,
    ValidationError,
    approvals,
    compute_delta,
    is_weakly_stable,
    super_blocking_pairs,
    validate_one_sided_top_truncated,
)


class GeneratorError(ValueError):
    """Generator parameters violate the family's constraints."""


class _ListBuilder:
    """Assemble one agent's tier list from 1-based index groups.

    Entries are deduplicated first-mention-wins, so overlapping set
    expressions are safe; ``rest()`` appends whatever is missing in ascending
    order as strict singletons.
    """

    def __init__(self, n: int):
        self.n = n
        self.seen: set[int] = set()
        self.tiers: list[tuple[int, ...]] = []

    def one(self, x: int) -> "_ListBuilder":
        if x not in self.seen:
            self.seen.add(x)
            self.tiers.append((x - 1,))
        return self

    def strict(self, xs) -> "_ListBuilder":
        for x in sorted(set(xs)):
            self.one(x)
        return self

    def tie(self, xs) -> "_ListBuilder":
        fresh = tuple(x - 1 for x in sorted(set(xs)) if x not in self.seen)
        if fresh:
            self.seen.update(x + 1 for x in fresh)
            self.tiers.append(fresh)
        return self

    def rest(self) -> "_ListBuilder":
        return self.strict(x for x in range(1, self.n + 1) if x not in self.seen)

    def build(self) -> TierList:
        assert len(self.seen) == self.n, "list does not cover the opposite side"
        return TierList(tuple(self.tiers))


# ---------------------------------------------------------------------------
# Tie-block cascade families (top ties and bottom ties)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TieBlockParams:
    """Shared parameters of the two block-cascade families.

    The second half of each side is split into z blocks of y agents;
    y = n*sqrt(delta)/2 and z = n/(2y) must be integers (non-integral
    parameters are rejected rather than approximated).
    """

    n: int
    delta: Fraction
    y: int
    z: int

    @classmethod
    def derive(cls, n: int, delta: Fraction) -> "TieBlockParams":
        delta = Fraction(delta)
        if n < 4 or n % 2:
            raise GeneratorError("n must be even and at least 4")
        if not Fraction(16, n * n) <= delta <= Fraction(1, 4):
            raise GeneratorError(
                f"delta must lie in [16/n^2, 1/4]; got {delta} for n={n}"
            )
        y_sq = Fraction(n * n, 4) * delta
        root = isqrt(y_sq.numerator)
        if y_sq.denominator != 1 or root * root != y_sq.numerator:
            raise GeneratorError(
                f"n*sqrt(delta)/2 is not an integer for n={n}, delta={delta}"
            )
        y = root
        if n % (2 * y):
            raise GeneratorError(f"n/(2y) is not an integer for n={n}, y={y}")
        return cls(n=n, delta=delta, y=y, z=n // (2 * y))

    @property
    def bounds(self) -> list[int]:
        """b_0..b_z: 1-based block boundaries in the second half."""
        return [self.n // 2 + j * self.y + 1 for j in range(self.z + 1)]

    @property
    def blocks(self) -> list[tuple[int, ...]]:
        b = self.bounds
        return [tuple(range(b[i], b[i + 1])) for i in range(self.z)]

    def block_of(self, member: int) -> tuple[int, ...]:
        for block in self.blocks:
            if member in block:
                return block
        raise KeyError(member)


def gen_fig1(n: int, delta: Fraction, figure_verbatim: bool = False) -> Instance:
    """Family with top-position ties on the women's side.

    Any matching without an obvious blocking pair must marry each second-half
    block internally, and the block women's top ties then force a cascade of
    super-blocking pairs, while the identity matching has exactly one.  The
    default resolves each block woman's tie within her own block; the
    verbatim variant copies the first block's sets into every row.
    """
    p = TieBlockParams.derive(n, delta)
    half = n // 2
    F = range(1, half + 1)
    S = range(half + 1, n + 1)

    men: list[TierList] = []
    for i in range(1, n + 1):
        b = _ListBuilder(n)
        if i == 1:
            b.one(1)
            for block in p.blocks:
                b.strict(block)
            b.strict(x for x in F if x != 1)
        elif i == 2:
            b.one(1).one(2).rest()
        elif i <= half:
            b.one(2).one(i).strict(x for x in F if x not in (2, i)).strict(S)
        else:
            block = p.block_of(i)
            b.one(1).one(i).strict(x for x in block if x != i)
            b.strict(x for x in S if x not in block).strict(x for x in F if x != 1)
        men.append(b.build())

    women: list[TierList] = []
    for i in range(1, n + 1):
        b = _ListBuilder(n)
        if i == 1:
            b.one(2).one(1).rest()
        elif i == 2:
            b.one(2).strict(range(2, n + 1)).one(1)
        elif i <= half:
            b.one(1).one(i).rest()
        else:
            block = p.blocks[0] if figure_verbatim else p.block_of(i)
            b.tie(x for x in block if x != i)
            b.strict(x for x in S if x not in block)
            b.one(1).one(i).strict(x for x in F if x != 1)
        women.append(b.build())

    inst = Instance(men, women)
    assert compute_delta(inst) <= delta
    if not figure_verbatim:
        assert super_blocking_pairs(inst, Matching.identity(n)) == [(1, 0)]
    return inst


def gen_fig4(
    n: int, delta: Fraction, figure_verbatim: bool = False
) -> tuple[Instance, Matching]:
    """Bottom-tie sibling of :func:`gen_fig1`, together with a weakly stable
    matching that rotates every block and so racks up super-blocking pairs on
    the block women's trailing ties.

    Ties appear only at the bottom of women's lists, so the instance is
    one-sided top-truncated; the identity matching again has exactly one
    super-blocking pair.
    """
    p = TieBlockParams.derive(n, delta)
    half = n // 2
    F = range(1, half + 1)
    S = range(half + 1, n + 1)

    men: list[TierList] = []
    for i in range(1, n + 1):
        b = _ListBuilder(n)
        if i == 1:
            b.one(1).strict(x for x in F if x != 1)
            for block in p.blocks:
                b.strict(block)
        elif i == 2:
            b.one(1).one(2).rest()
        elif i <= half:
            b.one(2).one(i).strict(x for x in F if x not in (2, i)).strict(S)
        else:
            block = p.block_of(i)
            b.one(1).strict(x for x in block if x != i).one(i)
            b.strict(x for x in S if x not in block).strict(x for x in F if x != 1)
        men.append(b.build())

    women: list[TierList] = []
    for i in range(1, n + 1):
        b = _ListBuilder(n)
        if i == 1 or i == 2:
            b.one(2).one(1).rest()
        elif i <= half:
            b.one(1).one(i).rest()
        else:
            block = p.blocks[0] if figure_verbatim else p.block_of(i)
            b.strict(x for x in S if x not in block)
            b.one(1).one(i).strict(x for x in F if x != 1)
            b.tie(x for x in block if x != i)
        women.append(b.build())

    inst = Instance(men, women)

    pairs = [(1, 2), (2, 1)] + [(i, i) for i in range(3, half + 1)]
    bounds = p.bounds
    for j in range(p.z):
        lo, hi = bounds[j], bounds[j + 1] - 1
        pairs.extend((k, k + 1) for k in range(lo, hi))
        pairs.append((hi, lo))
    rotated = Matching((m - 1, w - 1) for m, w in pairs)

    assert compute_delta(inst) <= delta
    assert validate_one_sided_top_truncated(inst)
    if not figure_verbatim:
        assert super_blocking_pairs(inst, Matching.identity(n)) == [(1, 0)]
        assert is_weakly_stable(inst, rotated)
    return inst, rotated


# ---------------------------------------------------------------------------
# One-sided bottom-tie family with a single contested woman
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContestedTieParams:
    n: int
    delta: Fraction
    y: int

    @classmethod
    def derive(cls, n: int, delta: Fraction) -> "ContestedTieParams":
        delta = Fraction(delta)
        if n < 4:
            raise GeneratorError("n must be at least 4")
        if delta > Fraction(1, 2 * n):
            raise GeneratorError(f"delta must be at most 1/(2n); got {delta}")
        if delta <= 0:
            raise GeneratorError("delta must be positive")
        # floor(2 * n^(3/2) * sqrt(delta)) = floor(sqrt(4 n^3 p/q)), exactly.
        num = 4 * n**3 * delta.numerator
        y = isqrt(num * delta.denominator) // delta.denominator
        y = min(y, n)
        if y >= n:
            raise GeneratorError(f"derived tie length y={y} is degenerate for n={n}")
        if y < 2:
            raise GeneratorError(f"derived tie length y={y} is below 2")
        if n - y < 2:
            raise GeneratorError(f"n-y={n - y} leaves no room for the strict chain")
        return cls(n=n, delta=delta, y=y)


def gen_fig3(n: int, delta: Fraction) -> Instance:
    """One contested woman with a bottom tie over the last y men.

    A chain of mutual first choices pins the rest of every weakly stable
    matching, so the contested woman's tie yields y-2 super-blocking pairs,
    while a matching that breaks the chain once achieves a single one.
    """
    p = ContestedTieParams.derive(n, delta)
    y = p.y

    men: list[TierList] = []
    for i in range(1, n + 1):
        b = _ListBuilder(n)
        if i == 1:
            b.one(2).one(1).rest()
        elif i <= n - y - 1:
            b.one(i + 1).one(1).one(i).rest()
        elif i == n - y:
            b.one(n - y + 1).rest()
        elif i == n - y + 1:
            b.one(n - y + 2).one(1).one(n - y + 1).rest()
        elif i == n - y + 2:
            b.one(n - y + 2).one(1).one(2).rest()
        else:
            b.one(n - y + 2).one(1).one(i).rest()
        men.append(b.build())

    women: list[TierList] = []
    for i in range(1, n + 1):
        b = _ListBuilder(n)
        if i == 1:
            b.strict(range(1, n - y + 1)).tie(range(n - y + 1, n + 1))
        elif i == 2:
            b.one(1).rest()
        elif i <= n - y + 1:
            b.one(i - 1).rest()
        elif i == n - y + 2:
            b.one(n - y + 1).one(n - y + 2).rest()
        else:
            b.one(i).rest()
        women.append(b.build())

    inst = Instance(men, women)
    assert validate_one_sided_top_truncated(inst)
    assert super_blocking_pairs(inst, fig3_opt_matching(n, delta)) == [(0, 1)]
    return inst


def fig3_opt_matching(n: int, delta: Fraction) -> Matching:
    """The one-super-blocking-pair matching for the contested-tie family."""
    y = ContestedTieParams.derive(n, delta).y
    pairs = [(1, 1)]
    pairs += [(i, i + 1) for i in range(2, n - y + 2)]
    pairs += [(n - y + 2, 2)]
    pairs += [(j, j) for j in range(n - y + 3, n + 1)]
    return Matching((m - 1, w - 1) for m, w in pairs)


# ---------------------------------------------------------------------------
# Vertex-cover reduction gadget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UndirectedGraph:
    k: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        norm = []
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise GeneratorError(f"self-loop at vertex {a + 1}")
            lo, hi = min(a, b), max(a, b)
            if not (0 <= lo and hi < self.k):
                raise GeneratorError(f"edge ({a + 1}, {b + 1}) out of range")
            if (lo, hi) in seen:
                raise GeneratorError(f"duplicate edge ({lo + 1}, {hi + 1})")
            seen.add((lo, hi))
            norm.append((lo, hi))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @classmethod
    def from_text(cls, text: str) -> "UndirectedGraph":
        """Parse 'k m' header plus m lines of 1-based 'i j' edges."""
        lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
        if not lines:
            raise GeneratorError("empty graph file")
        try:
            k, m = map(int, lines[0].split())
            edges = []
            for ln in lines[1 : m + 1]:
                a, b = map(int, ln.split())
                edges.append((a - 1, b - 1))
        except ValueError as exc:
            raise GeneratorError(f"malformed graph file: {exc}") from exc
        if len(edges) != m:
            raise GeneratorError(f"expected {m} edges, found {len(edges)}")
        return cls(k=k, edges=tuple(edges))

    def is_vertex_cover(self, vertices) -> bool:
        cover = set(vertices)
        return all(a in cover or b in cover for a, b in self.edges)


@dataclass(frozen=True)
class EdgeBlock:
    """Global agent indices of one edge gadget and its two canonical S-T
    matchings (the first matches every gadget man to his top choice's
    alternative, the second to the other)."""

    edge: tuple[int, int]
    s_men: tuple[int, ...]
    t_women: tuple[int, ...]
    p_men: tuple[int, ...]
    v_women: tuple[int, ...]
    red_pairs: tuple[tuple[int, int], ...]
    blue_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ReductionCertificate:
    graph: UndirectedGraph
    k0: int
    y: int
    z: int
    n: int
    figure_verbatim: bool
    blocks: tuple[EdgeBlock, ...]
    man_names: tuple[str, ...]
    woman_names: tuple[str, ...]


def gen_vc_reduction(
    graph: UndirectedGraph, k0: int, y: int, z: int, figure_verbatim: bool = False
) -> tuple[Instance, ReductionCertificate]:
    """Market whose cheap matchings encode vertex covers of ``graph``.

    Each edge becomes a gadget of 2*z*y agents per side whose only bad-pair-
    free configurations are two canonical matchings, one per endpoint; a
    matching can afford a gadget's canonical choice only when the matching of
    the hub women covers that endpoint.  ``y`` and ``z`` are desk-scale knobs
    (z even, both at least 2); the construction needs k + 2yz|E| agents per
    side.
    """
    if y < 2:
        raise GeneratorError("y must be at least 2")
    if z < 2 or z % 2:
        raise GeneratorError("z must be even and at least 2")
    if not 1 <= k0 <= graph.k:
        raise GeneratorError(f"k0 must lie in 1..{graph.k}")
    k = graph.k
    E = len(graph.edges)
    zy = z * y
    half = zy // 2
    n = k + 2 * zy * E

    def s_man(e: int, pos: int) -> int:
        return k + e * zy + pos

    def p_man(e: int, pos: int) -> int:
        return k + E * zy + e * zy + pos

    t_woman = s_man
    v_woman = p_man

    def red_of(e: int, pos: int) -> int:
        if pos < half:
            return t_woman(e, pos)
        q = pos - half
        return t_woman(e, half + (q + 1) % half)

    def blue_of(e: int, pos: int) -> int:
        if pos < half:
            if pos == 0:
                return t_woman(e, half)
            return t_woman(e, (pos + 1) % half)
        if pos == half:
            return t_woman(e, 1)
        return t_woman(e, pos)

    def special_of(e: int, pos: int) -> int:
        if pos == 0:
            return s_man(e, half - 1) if figure_verbatim else s_man(e, 0)
        if pos == 1:
            return s_man(e, half)
        if pos == half:
            return s_man(e, 0)
        return s_man(e, pos - 1)

    def sub_block_women(e: int, pos: int) -> list[int]:
        c = pos // y
        return [v_woman(e, c * y + t) for t in range(y)]

    def sub_block_men(e: int, pos: int) -> list[int]:
        c = pos // y
        return [s_man(e, c * y + t) for t in range(y)]

    first_edge_of: dict[int, int] = {}
    for e, (i, j) in enumerate(graph.edges):
        first_edge_of.setdefault(i, e)
        first_edge_of.setdefault(j, e)

    men: list[TierList] = [None] * n  # type: ignore[list-item]
    women: list[TierList] = [None] * n  # type: ignore[list-item]

    # Hub agents.
    for a in range(k):
        b = _ListBuilder(n)
        b.tie(range(1, k + 1))
        if a in first_edge_of:
            b.tie(x + 1 for x in sub_block_women(first_edge_of[a], 0))
        men[a] = b.rest().build()

        b = _ListBuilder(n)
        b.tie(range(1, k0 + 1))
        b.tie(range(k + 1, k + E * zy + 1))
        b.tie(range(k0 + 1, k + 1))
        women[a] = b.rest().build()

    # Gadget agents.
    for e, (i, j) in enumerate(graph.edges):
        for pos in range(zy):
            red, blue = red_of(e, pos), blue_of(e, pos)
            hub = i if pos < half else j
            b = _ListBuilder(n)
            if pos < half:
                b.one(red + 1).one(hub + 1).one(blue + 1)
            else:
                b.one(blue + 1).one(hub + 1).one(red + 1)
            b.tie(x + 1 for x in sub_block_women(e, pos))
            men[s_man(e, pos)] = b.rest().build()

            b = _ListBuilder(n)
            b.one(v_woman(e, pos) + 1)
            men[p_man(e, pos)] = b.rest().build()

            b = _ListBuilder(n)
            b.tie(range(1, k + 1))
            b.one(special_of(e, pos) + 1)
            b.tie(x + 1 for x in sub_block_men(e, pos))
            women[t_woman(e, pos)] = b.rest().build()

            b = _ListBuilder(n)
            b.tie(range(1, k + 1))
            b.tie(x + 1 for x in sub_block_men(e, pos))
            b.one(p_man(e, pos) + 1)
            women[v_woman(e, pos)] = b.rest().build()

    inst = Instance(men, women)

    blocks = []
    for e, (i, j) in enumerate(graph.edges):
        blocks.append(
            EdgeBlock(
                edge=(i, j),
                s_men=tuple(s_man(e, pos) for pos in range(zy)),
                t_women=tuple(t_woman(e, pos) for pos in range(zy)),
                p_men=tuple(p_man(e, pos) for pos in range(zy)),
                v_women=tuple(v_woman(e, pos) for pos in range(zy)),
                red_pairs=tuple((s_man(e, pos), red_of(e, pos)) for pos in range(zy)),
                blue_pairs=tuple((s_man(e, pos), blue_of(e, pos)) for pos in range(zy)),
            )
        )

    def pos_name(e: int, pos: int, kind: str) -> str:
        i, j = graph.edges[e]
        return f"{kind}[{i + 1},{j + 1}]({pos // y + 1},{pos % y + 1})"

    man_names = [f"m{a + 1}" for a in range(k)]
    woman_names = [f"w{a + 1}" for a in range(k)]
    for e in range(E):
        man_names += [pos_name(e, pos, "s") for pos in range(zy)]
        woman_names += [pos_name(e, pos, "t") for pos in range(zy)]
    for e in range(E):
        man_names += [pos_name(e, pos, "p") for pos in range(zy)]
        woman_names += [pos_name(e, pos, "v") for pos in range(zy)]

    cert = ReductionCertificate(
        graph=graph,
        k0=k0,
        y=y,
        z=z,
        n=n,
        figure_verbatim=figure_verbatim,
        blocks=tuple(blocks),
        man_names=tuple(man_names),
        woman_names=tuple(woman_names),
    )

    # the dilution argument needs gadget agents; an edgeless graph has none
    assert E == 0 or compute_delta(inst) <= Fraction(1, z * z)
    if not figure_verbatim:
        for check in verify_block_claims(inst, cert):
            assert check["ok"], check
    return inst, cert


def block_intra_super_bps(
    inst: Instance, block: EdgeBlock, pairs
) -> list[tuple[int, int]]:
    """Super-blocking pairs of a canonical gadget matching, restricted to the
    gadget's own men and women."""
    pairs = sorted(pairs)
    men = approvals([inst.men_rank[m] for m, _ in pairs], [w for _, w in pairs])
    women = approvals([inst.women_rank[w] for _, w in pairs], [m for m, _ in pairs])
    approved_by = {w: set(a) for (_, w), a in zip(pairs, women)}
    return [
        (m, w)
        for (m, _), ws in zip(pairs, men)
        for w in ws
        if m in approved_by.get(w, ())
    ]


def verify_block_claims(inst: Instance, cert: ReductionCertificate) -> list[dict]:
    """Per-gadget check that each canonical matching has exactly one internal
    super-blocking pair; failures are reported, never repaired."""
    out = []
    for block in cert.blocks:
        red = block_intra_super_bps(inst, block, block.red_pairs)
        blue = block_intra_super_bps(inst, block, block.blue_pairs)
        out.append(
            {
                "edge": [block.edge[0] + 1, block.edge[1] + 1],
                "red_super_bps": [[m + 1, w + 1] for m, w in red],
                "blue_super_bps": [[m + 1, w + 1] for m, w in blue],
                "ok": len(red) == 1 and len(blue) == 1,
            }
        )
    return out


def count_good_block_matchings(inst: Instance, block: EdgeBlock) -> int:
    """Exhaustively count bad-pair-free perfect matchings between a gadget's
    men and women.  Factorial in the gadget size; desk scale only."""
    men = block.s_men
    women = block.t_women
    top3 = {m: {t[0] for t in inst.men[m].tiers[:3]} for m in men}
    count = 0
    for perm in itertools.permutations(women):
        if all(w in top3[m] for m, w in zip(men, perm)):
            count += 1
    return count


def is_bad_pair(inst: Instance, cert: ReductionCertificate, man: int, woman: int) -> bool:
    """A hub man away from the hub women, or a gadget man below his top
    three choices."""
    k = cert.graph.k
    if man < k:
        return woman >= k
    zy = cert.z * cert.y
    if man < k + len(cert.graph.edges) * zy:
        top3 = {t[0] for t in inst.men[man].tiers[:3]}
        return woman not in top3
    return False


def matching_has_bad_pair(
    inst: Instance, cert: ReductionCertificate, matching: Matching
) -> bool:
    return any(is_bad_pair(inst, cert, m, w) for m, w in matching)


def build_yes_matching(
    inst: Instance, cert: ReductionCertificate, cover
) -> Matching:
    """The designated cheap matching for a vertex cover of the source graph.

    Cover women marry the first hub group, the rest marry the second; every
    gadget picks the canonical matching of its covered endpoint; the padding
    agents marry their mutual first choices.
    """
    cover = sorted(set(cover))
    if not cert.graph.is_vertex_cover(cover):
        raise ValidationError("the given vertex set does not cover every edge")
    if len(cover) > cert.k0:
        raise ValidationError(f"cover has {len(cover)} vertices; k0={cert.k0}")
    padded = set(cover)
    for v in range(cert.graph.k):
        if len(padded) == cert.k0:
            break
        padded.add(v)
    assert len(padded) == cert.k0

    pairs: list[tuple[int, int]] = []
    group1 = iter(range(cert.k0))
    group2 = iter(range(cert.k0, cert.graph.k))
    for v in range(cert.graph.k):
        pairs.append((next(group1) if v in padded else next(group2), v))
    for block in cert.blocks:
        chosen = block.blue_pairs if block.edge[0] in padded else block.red_pairs
        pairs.extend(chosen)
        pairs.extend(zip(block.p_men, block.v_women))
    return Matching(pairs)


# ---------------------------------------------------------------------------
# Seeded random instances under a missing-information budget
# ---------------------------------------------------------------------------

def gen_random(
    n: int,
    delta_budget: Fraction,
    seed: int,
    top_truncated: bool = False,
) -> Instance:
    """Random instance whose missing information stays within the budget.

    Strict random orders are drawn first; adjacent tiers are then merged at
    random while the merge cost (in pairwise comparisons) fits the remaining
    budget.  With ``top_truncated=True`` men stay strict and women only merge
    at the bottom of their lists.  Deterministic for a fixed seed.
    """
    delta_budget = Fraction(delta_budget)
    if n < 0:
        raise GeneratorError(f"n must be nonnegative, got {n}")
    if not 0 <= delta_budget <= 1:
        raise GeneratorError("delta budget must lie in [0, 1]")
    rng = random.Random(seed)
    men = [_random_strict(n, rng) for _ in range(n)]
    women = [_random_strict(n, rng) for _ in range(n)]
    remaining = int(delta_budget * 2 * n * math.comb(n, 2))

    for _ in range(8 * n):
        if remaining <= 0:
            break
        side = women if top_truncated else rng.choice((men, women))
        tiers = side[rng.randrange(n)]
        if len(tiers) < 2:
            continue
        pos = len(tiers) - 2 if top_truncated else rng.randrange(len(tiers) - 1)
        cost = len(tiers[pos]) * len(tiers[pos + 1])
        if cost > remaining:
            continue
        tiers[pos : pos + 2] = [tiers[pos] + tiers[pos + 1]]
        remaining -= cost

    inst = Instance(
        tuple(TierList(t) for t in men),
        tuple(TierList(t) for t in women),
    )
    assert compute_delta(inst) <= delta_budget
    if top_truncated:
        assert validate_one_sided_top_truncated(inst)
    return inst


def _random_strict(n: int, rng: random.Random) -> list[list[int]]:
    order = list(range(n))
    rng.shuffle(order)
    return [[x] for x in order]
