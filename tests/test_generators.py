"""Instance families: parameter validation, structural claims, certificates."""

import random
from fractions import Fraction

import pytest

from minimaxsm import (
    Matching,
    ValidationError,
    compute_delta,
    count_super_blocking_pairs,
    gale_shapley_completion,
    is_weakly_stable,
    super_blocking_pairs,
    validate_one_sided_top_truncated,
)
from minimaxsm.generators import (
    ContestedTieParams,
    GeneratorError,
    TieBlockParams,
    UndirectedGraph,
    build_yes_matching,
    count_good_block_matchings,
    fig3_opt_matching,
    gen_fig1,
    gen_fig3,
    gen_fig4,
    gen_random,
    gen_vc_reduction,
    is_bad_pair,
    matching_has_bad_pair,
    verify_block_claims,
)

Q = Fraction(1, 4)


# ---------------------------------------------------------------------------
# top-tie cascade family
# ---------------------------------------------------------------------------

def test_tie_block_parameters():
    p8 = TieBlockParams.derive(8, Q)
    assert (p8.y, p8.z) == (2, 2)
    assert p8.blocks == [(5, 6), (7, 8)]
    p16 = TieBlockParams.derive(16, Q)
    assert (p16.y, p16.z) == (4, 2)
    assert p16.bounds == [9, 13, 17]


def test_fig1_rejects_non_integral_parameters():
    with pytest.raises(GeneratorError):
        gen_fig1(8, Fraction(1, 8))  # y irrational
    with pytest.raises(GeneratorError):
        gen_fig1(10, Q)  # z = 10/(2*... not integral for y derived
    with pytest.raises(GeneratorError):
        gen_fig1(16, Fraction(1, 5))


def test_fig1_rejects_delta_out_of_range():
    with pytest.raises(GeneratorError, match="16/n"):
        gen_fig1(16, Fraction(1, 32))
    with pytest.raises(GeneratorError):
        gen_fig1(16, Fraction(1, 2))


def test_fig1_identity_blocking_pair():
    for n in (8, 12, 16):
        inst = gen_fig1(n, Q)
        assert super_blocking_pairs(inst, Matching.identity(n)) == [(1, 0)]
        assert compute_delta(inst) <= Q


def test_fig1_modes_differ_only_in_tied_blocks():
    default = gen_fig1(16, Q)
    verbatim = gen_fig1(16, Q, figure_verbatim=True)
    assert default.men == verbatim.men
    assert default != verbatim
    # the second block's women tie over their own block only in default mode
    p = TieBlockParams.derive(16, Q)
    woman = p.blocks[1][0] - 1
    assert default.women[woman].tiers[0] == tuple(
        x - 1 for x in p.blocks[1] if x - 1 != woman
    )
    assert verbatim.women[woman].tiers[0] == tuple(x - 1 for x in p.blocks[0])


def test_fig1_gs_cascade_smoke():
    inst = gen_fig1(16, Q)
    for seed in range(25):
        report = gale_shapley_completion(inst, seed=seed)
        assert report.super_bp_count >= 6


# ---------------------------------------------------------------------------
# contested-tie family
# ---------------------------------------------------------------------------

def test_fig3_parameters():
    assert ContestedTieParams.derive(16, Fraction(1, 256)).y == 8
    with pytest.raises(GeneratorError):
        ContestedTieParams.derive(16, Fraction(1, 16))  # above 1/(2n)
    with pytest.raises(GeneratorError):
        ContestedTieParams.derive(16, Fraction(1, 100_000))  # y below 2


def test_fig3_shape_and_opt():
    inst = gen_fig3(16, Fraction(1, 256))
    assert validate_one_sided_top_truncated(inst)
    opt = fig3_opt_matching(16, Fraction(1, 256))
    assert super_blocking_pairs(inst, opt) == [(0, 1)]


def test_fig3_weakly_stable_matchings_are_forced():
    inst = gen_fig3(16, Fraction(1, 256))
    y = ContestedTieParams.derive(16, Fraction(1, 256)).y
    n = 16
    for seed in range(25):
        report = gale_shapley_completion(inst, seed=seed)
        # the mutual-first-choice chain pins m_i to w_{i+1}
        for i in range(n - y + 1):
            assert report.matching.woman_of(i) == i + 1
        at_w1 = [p for p in report.super_blocking_pairs if p[1] == 0]
        assert len(at_w1) >= y - 2


# ---------------------------------------------------------------------------
# bottom-tie cascade family
# ---------------------------------------------------------------------------

def test_fig4_structure_and_matching():
    inst, rotated = gen_fig4(16, Q)
    assert validate_one_sided_top_truncated(inst)
    assert compute_delta(inst) <= Q
    assert super_blocking_pairs(inst, Matching.identity(16)) == [(1, 0)]
    assert is_weakly_stable(inst, rotated)
    p = TieBlockParams.derive(16, Q)
    per_block_floor = p.z * (p.y - 2) * (p.y - 1) // 2
    assert count_super_blocking_pairs(inst, rotated) >= per_block_floor


def test_fig4_rejects_bad_parameters():
    with pytest.raises(GeneratorError):
        gen_fig4(8, Fraction(1, 8))


# ---------------------------------------------------------------------------
# vertex-cover gadget
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def triangle_reduction():
    graph = UndirectedGraph(k=3, edges=((0, 1), (0, 2), (1, 2)))
    return gen_vc_reduction(graph, k0=2, y=4, z=2)


def test_vc_agent_count(triangle_reduction):
    inst, cert = triangle_reduction
    assert inst.n == 3 + 2 * 4 * 2 * 3 == 51
    assert cert.n == 51
    assert len(cert.man_names) == len(cert.woman_names) == 51


def test_vc_missing_information_is_small(triangle_reduction):
    inst, cert = triangle_reduction
    assert compute_delta(inst) <= Fraction(1, cert.z**2)


def test_vc_block_claims_hold(triangle_reduction):
    inst, cert = triangle_reduction
    for check in verify_block_claims(inst, cert):
        assert check["ok"]
        assert len(check["red_super_bps"]) == 1
        assert len(check["blue_super_bps"]) == 1


def test_vc_verbatim_mode_flags_blocks():
    graph = UndirectedGraph(k=2, edges=((0, 1),))
    inst, cert = gen_vc_reduction(graph, k0=1, y=2, z=2, figure_verbatim=True)
    checks = verify_block_claims(inst, cert)
    # the literal table leaves the second canonical matching block-free
    assert any(not c["ok"] for c in checks)
    assert all(len(c["blue_super_bps"]) == 0 for c in checks)


def test_vc_canonical_matchings_are_the_only_good_ones():
    # exhaustive for y <= 3, z = 2
    for y in (2, 3):
        graph = UndirectedGraph(k=2, edges=((0, 1),))
        inst, cert = gen_vc_reduction(graph, k0=1, y=y, z=2)
        for block in cert.blocks:
            assert count_good_block_matchings(inst, block) == 2


def test_vc_parameter_validation():
    graph = UndirectedGraph(k=3, edges=((0, 1),))
    with pytest.raises(GeneratorError):
        gen_vc_reduction(graph, k0=2, y=4, z=3)  # odd z
    with pytest.raises(GeneratorError):
        gen_vc_reduction(graph, k0=2, y=1, z=2)
    with pytest.raises(GeneratorError):
        gen_vc_reduction(graph, k0=0, y=4, z=2)


def test_graph_parsing_and_validation():
    graph = UndirectedGraph.from_text("3 2\n1 2\n2 3\n")
    assert graph.k == 3
    assert graph.edges == ((0, 1), (1, 2))
    assert graph.is_vertex_cover([1])
    assert not graph.is_vertex_cover([0])
    with pytest.raises(GeneratorError):
        UndirectedGraph.from_text("3 1\n1 4\n")
    with pytest.raises(GeneratorError):
        UndirectedGraph.from_text("")
    with pytest.raises(GeneratorError):
        UndirectedGraph(k=2, edges=((0, 0),))


def test_yes_matching_for_triangle(triangle_reduction):
    inst, cert = triangle_reduction
    yes = build_yes_matching(inst, cert, cover=(0, 1))
    assert yes.is_perfect(inst.n)
    assert not matching_has_bad_pair(inst, cert, yes)
    count = count_super_blocking_pairs(inst, yes)
    assert count <= 2 * cert.graph.k**2
    # hub pairs contribute k0(k0-1) + (k-k0)(k-1), each gadget exactly one
    assert count == 2 * 1 + 1 * 2 + 3


def test_yes_matching_rejects_non_cover(triangle_reduction):
    inst, cert = triangle_reduction
    with pytest.raises(ValidationError):
        build_yes_matching(inst, cert, cover=(2,))


def test_yes_matching_on_edgeless_graph():
    graph = UndirectedGraph(k=3, edges=())
    inst, cert = gen_vc_reduction(graph, k0=1, y=2, z=2)
    assert inst.n == 3
    yes = build_yes_matching(inst, cert, cover=())
    assert count_super_blocking_pairs(inst, yes) <= cert.graph.k**2


def test_yes_matching_single_edge_uses_covered_endpoint():
    graph = UndirectedGraph(k=2, edges=((0, 1),))
    inst, cert = gen_vc_reduction(graph, k0=1, y=2, z=2)
    yes = build_yes_matching(inst, cert, cover=(0,))
    block = cert.blocks[0]
    for pair in block.blue_pairs:
        assert pair in yes


def test_bad_pairs_force_many_blocking_pairs(triangle_reduction):
    inst, cert = triangle_reduction
    rng = random.Random(11)
    women = list(range(inst.n))
    hits = 0
    while hits < 50:
        rng.shuffle(women)
        matching = Matching(enumerate(women))
        if not matching_has_bad_pair(inst, cert, matching):
            continue
        hits += 1
        assert count_super_blocking_pairs(inst, matching) >= cert.y - 1


def test_bad_pair_predicate(triangle_reduction):
    inst, cert = triangle_reduction
    # hub man married outside the hub women
    assert is_bad_pair(inst, cert, 0, cert.graph.k)
    assert not is_bad_pair(inst, cert, 0, 0)
    s0 = cert.blocks[0].s_men[0]
    red0 = cert.blocks[0].red_pairs[0][1]
    assert not is_bad_pair(inst, cert, s0, red0)
    assert is_bad_pair(inst, cert, s0, cert.blocks[0].t_women[5])


# ---------------------------------------------------------------------------
# seeded random generator
# ---------------------------------------------------------------------------

def test_random_zero_budget_is_strict():
    inst = gen_random(5, Fraction(0), seed=4)
    assert inst.is_strict


def test_random_is_deterministic():
    a = gen_random(5, Q, seed=123)
    b = gen_random(5, Q, seed=123)
    assert a == b
    assert a != gen_random(5, Q, seed=124)


def test_random_respects_budget():
    for seed in range(40):
        inst = gen_random(4, Q, seed=seed)
        assert compute_delta(inst) <= Q


def test_random_top_truncated_shape():
    for seed in range(40):
        inst = gen_random(4, Fraction(1, 2), seed=seed, top_truncated=True)
        assert validate_one_sided_top_truncated(inst)
        assert all(tl.is_strict for tl in inst.men)
