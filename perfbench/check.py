"""Independent checks of the reports the program writes.

Each check returns a list of problems; an empty list means the report is
correct.  The scans come from :mod:`markets`, never from ``minimaxsm.core``.
"""

from __future__ import annotations

from markets import Tiers, blocking_pairs, ranks


def _pairs(raw) -> list[tuple[int, int]]:
    return sorted((m - 1, w - 1) for m, w in raw)


def check_solve(men: list[Tiers], women: list[Tiers], doc: dict, algo: str,
                optimum: int | None = None) -> list[str]:
    """Check a ``solve`` report against the market it was asked about.

    The matching must be perfect; the reported super- and obvious-blocking
    pairs must equal this module's own scan; the witness completion must
    refine the market and have exactly as many classical blocking pairs as
    the report has super-blocking pairs.  ``gs`` and ``algo1`` matchings
    must be weakly stable, ``algo1`` deletion sets must cover every
    super-blocking pair, and an ``exact`` count must equal ``optimum``.
    """
    n = len(men)
    try:
        pairs = _pairs(doc["matching"]["pairs"])
        reported_super = _pairs(doc["super_blocking_pairs"])
        reported_obvious = _pairs(doc["obvious_blocking_pairs"])
        witness = doc["witness_completion"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
    wife = [-1] * n
    husband = [-1] * n
    for m, w in pairs:
        if not (0 <= m < n and 0 <= w < n) or wife[m] >= 0 or husband[w] >= 0:
            return [f"matching is not a matching on {n} agents"]
        wife[m], husband[w] = w, m
    if len(pairs) != n:
        return [f"matching has {len(pairs)} pairs, not {n}"]

    problems = []
    mrank, wrank = ranks(men), ranks(women)
    super_bps = blocking_pairs(mrank, wrank, wife, husband, strict=False)
    obvious = blocking_pairs(mrank, wrank, wife, husband, strict=True)
    if reported_super != super_bps:
        problems.append(f"super-blocking pairs: reported {len(reported_super)}, "
                        f"scan finds {len(super_bps)}")
    if reported_obvious != obvious:
        problems.append(f"obvious-blocking pairs: reported {len(reported_obvious)}, "
                        f"scan finds {len(obvious)}")

    try:
        orders = [[[[x - 1 for x in tier] for tier in agent] for agent in witness[side]]
                  for side in ("men", "women")]
    except (KeyError, TypeError) as exc:
        return problems + [f"malformed witness: {exc!r}"]
    if not _refines(orders[0], mrank) or not _refines(orders[1], wrank):
        problems.append("witness completion does not refine the market")
    else:
        witness_bps = blocking_pairs(ranks(orders[0]), ranks(orders[1]), wife,
                                     husband, strict=True)
        if len(witness_bps) != len(reported_super):
            problems.append(f"witness has {len(witness_bps)} blocking pairs, "
                            f"report claims {len(reported_super)}")

    if algo in ("gs", "algo1") and obvious:
        problems.append(f"{algo} matching is not weakly stable")
    if algo == "algo1":
        deleted = doc.get("deleted_agents") or {}
        dmen = {m - 1 for m in deleted.get("men", ())}
        dwomen = {w - 1 for w in deleted.get("women", ())}
        uncovered = [p for p in super_bps if p[0] not in dmen and p[1] not in dwomen]
        if uncovered:
            problems.append(f"deletion set misses {len(uncovered)} super-blocking pairs")
    if optimum is not None and len(reported_super) != optimum:
        problems.append(f"exact count {len(reported_super)} is not the optimum {optimum}")
    return problems


def _refines(orders, market_ranks) -> bool:
    """Each order is a strict permutation keeping every strict comparison."""
    n = len(market_ranks)
    if len(orders) != n:
        return False
    for tiers, rank in zip(orders, market_ranks):
        if any(len(t) != 1 for t in tiers):
            return False
        order = [t[0] for t in tiers]
        if sorted(order) != list(range(n)):
            return False
        if any(rank[a] > rank[b] for a, b in zip(order, order[1:])):
            return False
    return True


def check_oracle(doc: dict, exact_count: int) -> list[str]:
    """The minimax oracle value must equal the exact super-BP count."""
    value = doc.get("max_blocking_pairs") if isinstance(doc, dict) else None
    if value != exact_count:
        return [f"minimax oracle says {value}, exact solve says {exact_count}"]
    return []
