"""JSON file formats.  Instances, matchings, and reports use 1-based agent
indices on disk; everything in memory is 0-based."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from .core import Instance, Matching, TierList, ValidationError
from .generators import ReductionCertificate
from .solvers import SolveReport

REPORT_SCHEMA = 1


def instance_to_dict(inst: Instance) -> dict:
    """Also writes witness completions, whose rows are strict."""

    def side(tls) -> list:
        return [[[x + 1] for x in tl.order] if tl.is_strict
                else [[x + 1 for x in tier] for tier in tl.tiers] for tl in tls]

    return {"n": inst.n, "men": side(inst.men), "women": side(inst.women)}


def _integer(value) -> int:
    """A JSON integer; a boolean, a float or a string is not one."""
    if type(value) is not int:
        raise ValidationError(f"expected an integer, got {json.dumps(value)}")
    return value


def _row(tiers) -> TierList:
    """One agent's 1-based tiers as a checked row.  The entries are
    type-checked together; only when that fails are they walked one by one,
    to name the first bad entry (a ``TypeError`` for a tier that is not a
    list, a ``ValidationError`` for an entry that is not an integer)."""
    try:
        flat = list(itertools.chain.from_iterable(tiers))
        typed = set(map(type, flat)) <= {int}
    except TypeError:
        typed = False
    if not typed:
        for tier in tiers:
            for x in tier:
                _integer(x)
        raise AssertionError("a bad entry was not found")
    return TierList.from_flat([x - 1 for x in flat], list(map(len, tiers)))


def instance_from_dict(doc: dict) -> Instance:
    try:
        n = _integer(doc["n"])
        raw_men = doc["men"]
        raw_women = doc["women"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"instance document missing field: {exc}") from exc

    def side(raw, label: str, agent: str) -> list[TierList]:
        if not isinstance(raw, list) or len(raw) != n:
            raise ValidationError(f"expected a list of {n} {label}")
        out = []
        for i, tiers in enumerate(raw):
            try:
                out.append(_row(tiers))
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"{agent} {i + 1}: malformed tiers ({exc})"
                ) from exc
        return out

    return Instance(side(raw_men, "men", "man"), side(raw_women, "women", "woman"))


def matching_to_dict(matching: Matching) -> dict:
    return {"pairs": [[m + 1, w + 1] for m, w in matching.pairs]}


def matching_from_dict(doc: dict) -> Matching:
    try:
        pairs = [(_integer(m) - 1, _integer(w) - 1) for m, w in doc["pairs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matching document: {exc}") from exc
    return Matching(pairs)


def report_to_dict(report: SolveReport) -> dict:
    deleted = None
    if report.deleted_men is not None or report.deleted_women is not None:
        deleted = {
            "men": [m + 1 for m in (report.deleted_men or ())],
            "women": [w + 1 for w in (report.deleted_women or ())],
        }
    return {
        "schema": REPORT_SCHEMA,
        "algorithm": report.algorithm,
        "matching": matching_to_dict(report.matching),
        "super_blocking_pairs": [[m + 1, w + 1] for m, w in report.super_blocking_pairs],
        "obvious_blocking_pairs": [
            [m + 1, w + 1] for m, w in report.obvious_blocking_pairs
        ],
        "deleted_agents": deleted,
        "witness_completion": instance_to_dict(report.witness_completion),
    }


def certificate_to_dict(cert: ReductionCertificate, checks: list[dict]) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "graph": {
            "k": cert.graph.k,
            "edges": [[a + 1, b + 1] for a, b in cert.graph.edges],
        },
        "k0": cert.k0,
        "y": cert.y,
        "z": cert.z,
        "n": cert.n,
        "figure_verbatim": cert.figure_verbatim,
        "man_names": list(cert.man_names),
        "woman_names": list(cert.woman_names),
        "blocks": [
            {
                "edge": [block.edge[0] + 1, block.edge[1] + 1],
                "s_men": [m + 1 for m in block.s_men],
                "t_women": [w + 1 for w in block.t_women],
                "p_men": [m + 1 for m in block.p_men],
                "v_women": [w + 1 for w in block.v_women],
                "matching_1": [[m + 1, w + 1] for m, w in block.red_pairs],
                "matching_2": [[m + 1, w + 1] for m, w in block.blue_pairs],
                "check": check,
            }
            for block, check in zip(cert.blocks, checks)
        ],
    }


def dumps(doc) -> str:
    """The standard library's indent-2, sorted-key JSON text of ``doc``,
    byte for byte, for documents with ``str`` keys whose values are dicts,
    lists, tuples, ints, strs, bools, None or floats.

    ``json.dumps`` uses its C encoder only without indentation, so the
    indented form runs the pure Python one, one chunk per token.  Here each
    container is one ``str.join``; scalars and keys still go through
    ``json.dumps``.  A list of ints, or of one-int lists (the singleton
    tiers of completions), is joined in one step."""
    return _dump(doc, "\n")


def _dump(value, nl: str) -> str:
    """``value`` rendered with ``nl`` (a newline and the current indent)
    before each of its closing brackets."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + "  "
        body = ("," + inner).join([
            json.dumps(k) + ": " + _dump(v, inner) for k, v in sorted(value.items())
        ])
        return f"{{{inner}{body}{nl}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        if all(type(x) is int for x in value):
            body = ("," + inner).join(map(str, value))
        elif all(type(x) is list and len(x) == 1 and type(x[0]) is int for x in value):
            deeper = inner + "  "
            sep = inner + "]," + inner + "[" + deeper
            tiers = sep.join([str(x[0]) for x in value])
            body = f"[{deeper}{tiers}{inner}]"
        else:
            body = ("," + inner).join([_dump(x, inner) for x in value])
        return f"[{inner}{body}{nl}]"
    return json.dumps(value)


def write_json(path: str | Path, doc: dict) -> None:
    Path(path).write_text(dumps(doc) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
        # literal past the interpreter's digit limit; RecursionError deep nesting
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(read_json(path))


def save_instance(inst: Instance, path: str | Path) -> None:
    write_json(path, instance_to_dict(inst))


def load_matching(path: str | Path) -> Matching:
    return matching_from_dict(read_json(path))


def save_matching(matching: Matching, path: str | Path) -> None:
    write_json(path, matching_to_dict(matching))
