import dataclasses
import json
import math
import random
from collections import Counter

import pytest

from conftest import class_t_sigma, dense_table, diagonal_sigma, scalar_matrix, sigma_table
from reference_constructions import compatibility_holds, verify_hom_M2
from test_quadratic import random_presentation

from nqh.errors import (
    BoundExceeded,
    CompatibilityFailed,
    DegenerateP11,
    DimensionMismatch,
    NotRepresentableInK,
    RelationViolated,
    WrongP,
)
from nqh import algebra as algebra_module, deform
from nqh.exactlin import (
    I,
    ONE,
    Scalar,
    TensorElement,
    ZERO,
    add_scaled,
    nullspace,
    words_of_length,
)
from nqh.algebra import GradedLinMap, radical, strongly_graded_check
from nqh.quadratic import (
    QuadraticPresentation,
    check_central,
    hilbert_profile,
    koszul_dual,
)
from nqh.deform import (
    CaseKind,
    DoubleOreData,
    b_presentation,
    build_Bshriek_clifford,
    build_clifford,
    central_lift_in_b,
    centrality_check_minus,
    centrality_check_plus,
    clifford_theta,
    dualize_hom,
    normalize_p11,
    p12_classify,
    validate_double_ore,
)
from nqh.rewrite import RewriteSystem, extract_algebra

MINUS_ONE = Scalar(-1)


def test_clifford_theta_values(km1, z_lift):
    values, _ = clifford_theta(koszul_dual(km1), z_lift)
    # dual relation basis: (x1*)^2, x1*x2* - x2*x1*, (x2*)^2 in RREF order
    assert sorted(v.text() for v in values) == ["0", "1", "1"]


def test_clifford_theta_zero_lift(km1):
    values, _ = clifford_theta(koszul_dual(km1), TensorElement())
    assert all(v == ZERO for v in values)


def test_clifford_theta_partial_deformation(km1):
    values, _ = clifford_theta(koszul_dual(km1), TensorElement({(1, 1): ONE}))
    assert sorted(v.text() for v in values) == ["0", "0", "1"]


def test_build_clifford_dimension_and_structure(clifford_km1):
    algebra = clifford_km1.algebra
    assert algebra.dim == 4
    assert radical(algebra).dim == 0
    assert strongly_graded_check(algebra)
    for i in range(4):
        for j in range(4):
            assert algebra.table[i][j] == algebra.table[j][i]


def test_build_clifford_one_variable():
    line = QuadraticPresentation(["x"], [])
    deformation = build_clifford(line, TensorElement({(0, 0): ONE}))
    algebra = deformation.algebra
    assert algebra.dim == 2
    assert radical(algebra).dim == 0
    assert algebra.mul({1: ONE}, {1: ONE}) == {0: ONE}


def test_build_clifford_nilpotent_output(km1):
    deformation = build_clifford(km1, TensorElement({(1, 1): ONE}))
    algebra = deformation.algebra
    assert algebra.dim == 4
    assert radical(algebra).dim == 2
    first = algebra.words.index((0,))
    assert algebra.mul({first: ONE}, {first: ONE}) == {}


def _anticommuting(g):
    """x_a x_b + x_b x_a for a < b: its dual k[x]/(x_a^2) has dims C(g, n)."""
    return QuadraticPresentation(
        [f"x{a + 1}" for a in range(g)],
        [TensorElement({(a, b): ONE, (b, a): ONE})
         for a in range(g) for b in range(a + 1, g)])


def test_top_degree_raises_past_its_bound(km1, monkeypatch):
    """The scan reports every dimension up to the top degree, also when the
    total equals the budget, and raises BoundExceeded once the total passes
    the budget instead of returning a short answer."""
    dual = koszul_dual(_anticommuting(3))
    assert hilbert_profile(dual, 4) == [1, 3, 3, 1, 0]
    assert deform.dual_dims(dual) == [1, 3, 3, 1]
    monkeypatch.setattr(deform, "DIM_BUDGET", 8)
    assert deform.dual_dims(dual) == [1, 3, 3, 1]
    monkeypatch.setattr(deform, "DIM_BUDGET", 7)
    with pytest.raises(BoundExceeded,
                       match="sum to 8 by degree 3, past the dimension budget 7$"):
        deform.dual_dims(dual)
    monkeypatch.setattr(deform, "DIM_BUDGET", 3)
    with pytest.raises(BoundExceeded,
                       match="sum to 4 by degree 2, past the dimension budget 3$"):
        deform.dual_dims(koszul_dual(km1))


def test_ten_letter_skew_dual_fills_the_budget():
    """B's dual over an 8-generator base has 10 letters: the scan reaches
    the top degree 10 with total 1024, the budget itself."""
    dims = deform.dual_dims(koszul_dual(_anticommuting(10)))
    assert dims == [math.comb(10, n) for n in range(11)]
    assert sum(dims) == deform.DIM_BUDGET == 1024


def test_build_clifford_rejects_noncentral(km1):
    with pytest.raises(CompatibilityFailed):
        build_clifford(km1, TensorElement({(0, 1): ONE}))


def _compatibility_inputs():
    """(name, presentation, lift) for the differential test of
    ``check_central`` against the compatibility condition: every pair that
    ``check_central`` meets in the six registry scenarios, the base and B
    of the skew3 inputs of seeds 1 to 4 with their lifts, and the bases of
    the presentations inputs of seeds 1 to 3."""
    from nqh.formats import parse_double_ore, parse_presentation
    from nqh.scenarios import REGISTRY, run_scenario
    from perfbench.workloads import generate

    out = []
    real = deform.check_central

    def record(presentation, lift):
        out.append((f"registry:{len(out)}", presentation, lift))
        return real(presentation, lift)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deform, "check_central", record)
        for scenario_id in sorted(REGISTRY):
            assert run_scenario(scenario_id).ok
    assert out
    for seed in (1, 2, 3, 4):
        for name, blob in sorted(generate("skew3", seed).items()):
            data, central = parse_double_ore(json.loads(blob))
            out.append((f"skew3:{seed}:{name}", data.base, central))
            out.append((f"skew3:{seed}:{name}:B", b_presentation(data),
                        central_lift_in_b(data, central)))
    for seed in (1, 2, 3):
        base = json.loads(generate("presentations", seed)["base.json"])
        out.append((f"presentations:{seed}", *parse_presentation(base)))
    return out


def _central_lifts(presentation):
    """The lifts z in V (x) V with z x_k - x_k z in I_3 for every k, as
    the kernel of the linear map from the degree-2 words to A_3^g."""
    g = presentation.ngens
    rows = {}
    for idx, word in enumerate(words_of_length(g, 2)):
        z = TensorElement.monomial(word)
        for k in range(g):
            gen = TensorElement.monomial((k,))
            residue = presentation.reduce_mod_ideal(z.concat(gen) - gen.concat(z), 3)
            for pos, c in residue.items():
                rows.setdefault((k, pos), {})[idx] = c
    return nullspace(list(rows.values()), g * g)


def test_check_central_decides_the_compatibility_condition():
    """``build_clifford`` checks only ``check_central``: on every input it
    agrees with the compatibility condition on V* R^perp  intersect
    R^perp V* that it replaced (the proof is in its docstring).  The
    inputs are the registry, skew3 and presentations bases with their
    lifts and with each lift plus a mixed word, and seeded random 2- and
    3-letter presentations with a central lift drawn from the kernel of
    the commutator map and a random lift."""
    cases = []
    for name, pres, lift in _compatibility_inputs():
        cases.append((name, pres, lift))
        cases.append((f"{name}+x1x2", pres, lift + TensorElement.monomial((0, 1))))
    for seed in range(60):
        rng = random.Random(f"compatibility:{seed}")
        pres = random_presentation(rng)
        g = pres.ngens
        central = {}
        for row in _central_lifts(pres).basis:
            add_scaled(central, row, Scalar(rng.choice((-1, 1, 2))))
        cases.append((f"random:{seed}:central",
                      pres, TensorElement.from_coordinates(central, g, 2)))
        cases.append((f"random:{seed}:random", pres, TensorElement(
            {(rng.randrange(g), rng.randrange(g)): Scalar(rng.choice((-1, 1, 3)))
             for _ in range(3)})))
    verdicts = set()
    for name, pres, lift in cases:
        verdict = check_central(pres, lift)
        assert compatibility_holds(koszul_dual(pres), lift) == verdict, name
        verdicts.add((name.split(":")[0], verdict))
    assert verdicts == {(kind, verdict) for kind in
                        ("registry", "skew3", "presentations", "random")
                        for verdict in (True, False)}


def test_validate_class_z(double_ore_class_z):
    report, phi = validate_double_ore(double_ore_class_z)
    assert report.ok
    assert phi is not None


def test_validate_diagonal_commuting_involutions(km1):
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[-1, 0], [0, -1]])
    data = DoubleOreData(km1, ONE, ZERO, sigma)
    report, _ = validate_double_ore(data)
    assert report.ok


def test_validate_rejects_zero_p12(km1):
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    data = DoubleOreData(km1, ZERO, ZERO, sigma)
    report, _ = validate_double_ore(data)
    assert not report.ok


def test_validate_rejects_incompatible_p11(km1):
    # a nonzero p11 forces extra composition conditions; the class with
    # nonzero off-diagonal entries fails them
    data = DoubleOreData(km1, MINUS_ONE, Scalar(2), class_t_sigma())
    report, _ = validate_double_ore(data)
    assert not report.ok


def test_p12_classify(km1):
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert p12_classify(DoubleOreData(km1, ONE, ZERO, sigma)) == CaseKind.PLUS
    third = Scalar(1, 0, 0, 0, 3)
    assert p12_classify(
        DoubleOreData(km1, MINUS_ONE, third, sigma)) == CaseKind.MINUS
    assert p12_classify(
        DoubleOreData(km1, Scalar(2), ZERO, sigma)) == CaseKind.INVALID
    assert p12_classify(
        DoubleOreData(km1, ONE, ONE, sigma)) == CaseKind.INVALID


def test_centrality_plus(double_ore_class_z, z_lift, km1):
    assert centrality_check_plus(double_ore_class_z, z_lift)
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[-1, 0], [0, -1]])
    assert centrality_check_plus(DoubleOreData(km1, ONE, ZERO, sigma), z_lift)
    # perturbing one entry breaks the conditions
    h = Scalar(0, 0, 1, 0, 2)
    bad = sigma_table(
        ((scalar_matrix([[h, 0], [0, h]]), scalar_matrix([[0, h], [h, 0]])),
         (scalar_matrix([[0, h], [h, 0]]), scalar_matrix([[-h, 0], [0, h]]))))
    assert not centrality_check_plus(DoubleOreData(km1, ONE, ZERO, bad), z_lift)
    with pytest.raises(WrongP):
        centrality_check_plus(
            DoubleOreData(km1, MINUS_ONE, ZERO, sigma), z_lift)


def test_centrality_minus(double_ore_class_t, double_ore_class_r, z_lift, km1):
    assert centrality_check_minus(double_ore_class_t, z_lift)
    assert centrality_check_minus(double_ore_class_r, z_lift)
    perturbed = dense_table(class_t_sigma())
    h = Scalar(1, 0, 0, 0, 2)
    perturbed[1][1] = scalar_matrix([[h, -h], [-h, -h]])
    assert not centrality_check_minus(
        DoubleOreData(km1, MINUS_ONE, ZERO, sigma_table(perturbed)), z_lift)


def test_centrality_matches_commutator_route(double_ore_class_z,
                                             double_ore_class_t, z_lift):
    for data in (double_ore_class_z, double_ore_class_t):
        assert check_central(b_presentation(data),
                             central_lift_in_b(data, z_lift))


def test_commutator_route_rejects_broken_sigma(km1, z_lift):
    h = Scalar(0, 0, 1, 0, 2)
    bad = sigma_table(
        ((scalar_matrix([[h, 0], [0, h]]), scalar_matrix([[0, h], [h, 0]])),
         (scalar_matrix([[0, h], [h, 0]]), scalar_matrix([[-h, 0], [0, h]]))))
    data = DoubleOreData(km1, ONE, ZERO, bad)
    assert not check_central(b_presentation(data),
                             central_lift_in_b(data, z_lift))


def test_dualize_diagonal_identity(km1, z_lift, clifford_km1):
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    data = DoubleOreData(km1, ONE, ZERO, sigma)
    hom = dualize_hom(data, clifford_km1)
    assert verify_hom_M2(hom)
    ident = GradedLinMap.identity(clifford_km1.algebra)
    assert hom.entries[0][0] == ident
    assert hom.entries[0][1].is_zero()
    assert hom.entries[1][1] == ident


def test_dualize_class_z_has_t_inverse(double_ore_class_z, clifford_km1):
    from nqh.algebra import t_inverse_table

    hom = dualize_hom(double_ore_class_z, clifford_km1)
    assert verify_hom_M2(hom)
    assert t_inverse_table(hom) is not None


def test_dualize_class_t_satisfies_sign_identity(double_ore_class_t,
                                                 clifford_km1):
    hom = dualize_hom(double_ore_class_t, clifford_km1)
    s11, s21 = hom.entry(1, 1), hom.entry(2, 1)
    total = s11.compose(s21) + s21.compose(s11)
    assert total.is_zero()


def test_dualize_rejects_a_rule_corrupted_after_extraction(
        double_ore_class_z, double_ore_class_t, double_ore_class_r,
        clifford_km1):
    """A rule of E's completed system with 1 added to its right-hand side,
    after E's table was extracted, leaves that table and so every basis
    pair of sigma^! unchanged: verify_hom_M2 still passes.  The evaluation
    of E's rules is what rejects it, with the rule's index past the
    deformed relations."""
    system = clifford_km1.system
    order = [rule.lhs for rule in system.rule_list()]
    for data in (double_ore_class_z, double_ore_class_t, double_ore_class_r):
        assert verify_hom_M2(dualize_hom(data, clifford_km1))
        for lhs in order:
            rules = dict(system.rules)
            rules[lhs] = rules[lhs] + TensorElement.unit()
            corrupted = dataclasses.replace(clifford_km1, system=RewriteSystem(
                rules, system.alphabet, system.confluent_up_to))
            with pytest.raises(RelationViolated) as info:
                dualize_hom(data, corrupted)
            assert info.value.index == (len(clifford_km1.relations)
                                        + order.index(lhs))


def test_dualize_requires_fixed_central(km1, z_lift, clifford_km1):
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[1, 0], [0, 2]])
    data = DoubleOreData(km1, ONE, ZERO, sigma)
    with pytest.raises(WrongP):
        dualize_hom(data, clifford_km1)


def test_b_extension_dimensions(double_ore_class_z, double_ore_class_t,
                                double_ore_class_r, z_lift):
    for data in (double_ore_class_z, double_ore_class_t, double_ore_class_r):
        result = build_Bshriek_clifford(
            data, z_lift, build_clifford(data.base, z_lift))
        assert result.algebra is None and len(result.words) == 16
        assert hilbert_profile(result.presentation, 4) == [1, 4, 6, 4, 1]
        assert strongly_graded_check(extract_algebra(result.system, result.words))


def test_block_word_outside_the_block_is_a_dimension_mismatch(
        double_ore_class_z, z_lift):
    """A block word that is no normal word of the expected block is a
    failed check, not a bare ValueError from a list lookup."""
    base = build_clifford(double_ore_class_z.base, z_lift)
    big = build_Bshriek_clifford(double_ore_class_z, z_lift, base)
    base_words = [w for w in big.words if all(a >= 2 for a in w)]
    deform._block_words(base_words, base.algebra.words, 2)
    # (x1, x1) is not a normal word of E: x1^2 reduces to a scalar
    assert (0, 0) not in base.algebra.words
    wrong = base_words[:-1] + [(2, 2)]
    with pytest.raises(DimensionMismatch, match="block words"):
        deform._block_words(wrong, base.algebra.words, 2)


def test_normalize_p11_identity_case(double_ore_class_t):
    assert normalize_p11(double_ore_class_t) is double_ore_class_t


def test_normalize_p11_square_case(km1, z_lift):
    sigma = diagonal_sigma([[-1, 0], [0, -1]], [[-1, 0], [0, -1]])
    data = DoubleOreData(km1, MINUS_ONE, Scalar(2), sigma)
    report, _ = validate_double_ore(data)
    assert report.ok
    normalized = normalize_p11(data)
    assert not normalized.p11
    report, _ = validate_double_ore(normalized)
    assert report.ok
    assert centrality_check_minus(normalized, z_lift)


def test_normalize_p11_degenerate(km1):
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    for value in (Scalar(2) * I, Scalar(-2) * I):
        data = DoubleOreData(km1, MINUS_ONE, value, sigma)
        with pytest.raises(DegenerateP11):
            normalize_p11(data)


def test_normalize_p11_not_representable(km1):
    sigma = diagonal_sigma([[-1, 0], [0, -1]], [[-1, 0], [0, -1]])
    data = DoubleOreData(km1, MINUS_ONE, Scalar(4), sigma)
    with pytest.raises(NotRepresentableInK):
        normalize_p11(data)


def test_normalize_p11_wrong_case(double_ore_class_z):
    with pytest.raises(WrongP):
        normalize_p11(double_ore_class_z)


def test_dual_relation_space_matches_block_assembly(double_ore_class_r,
                                                    z_lift):
    # the assembly check inside the builder raises on any mismatch, so a
    # successful build certifies the three-block dual relation space
    result = build_Bshriek_clifford(
        double_ore_class_r, z_lift,
        build_clifford(double_ore_class_r.base, z_lift))
    assert len(result.words) == 16


def _clifford_inputs():
    """(name, presentation, lift) of the presentations base of seed 1 and of
    the plus and minus bases of skew3 seed 1."""
    from nqh.formats import parse_double_ore, parse_presentation
    from perfbench.workloads import generate

    base = json.loads(generate("presentations", 1)["base.json"])
    out = [("presentations:1", *parse_presentation(base))]
    for name, blob in sorted(generate("skew3", 1).items()):
        data, central = parse_double_ore(json.loads(blob))
        out.append((f"skew3:1:{name}", data.base, central))
    return out


def test_build_clifford_derives_each_longer_row_once(monkeypatch):
    """The row of each normal word a u' of length >= 2 is derived once, by
    the letter rule, entry v as apply_row(row of a, entry v of the row of
    u'); the rule certificate derives none of them again.  Each input has
    a letter that squares to 1, so strongly_graded_check never runs."""
    calls, scans = [], []
    real = algebra_module.apply_row

    def counted(row, vec):
        calls.append((row, vec))
        return real(row, vec)

    monkeypatch.setattr(algebra_module, "apply_row", counted)
    monkeypatch.setattr(deform, "strongly_graded_check", scans.append)
    for name, presentation, lift in _clifford_inputs():
        calls.clear()
        E = build_clifford(presentation, lift).algebra
        made = Counter((id(row), id(vec)) for row, vec in calls)
        index = {w: i for i, w in enumerate(E.words)}
        derived = [made[id(E.row(index[w[:1]])), id(vec)]
                   for w in E.words if len(w) > 1 for vec in E.row(index[w[1:]])]
        assert len(derived) > E.dim and set(derived) == {1}, name
    assert scans == []


def test_the_letter_square_witness_gives_the_rank_verdict(base_deformations):
    """On every base deformation some letter squares to a nonzero scalar,
    and strongly_graded_check agrees that E is strongly graded (proof in
    ``build_clifford``)."""
    for name, E, _ in base_deformations:
        k = deform.unit_square_letter(E)
        assert k is not None and len(E.words[k]) == 1, name
        assert strongly_graded_check(E), name


def test_strong_grading_without_a_letter_witness_runs_the_rank_check(monkeypatch):
    """x1 x2 = x2 x1 deformed at z = x1 x2 + x2 x1 squares no letter to a
    nonzero scalar (x1*^2 = x2*^2 = 0) yet is strongly graded, and at z = 0
    is not: both verdicts come from strongly_graded_check."""
    commuting = QuadraticPresentation(
        ["x1", "x2"], [TensorElement({(0, 1): ONE, (1, 0): MINUS_ONE})])
    verdicts = []

    def scan(algebra):
        verdicts.append(strongly_graded_check(algebra))
        return verdicts[-1]

    monkeypatch.setattr(deform, "strongly_graded_check", scan)
    E = build_clifford(commuting, TensorElement({(0, 1): ONE, (1, 0): ONE})).algebra
    assert deform.unit_square_letter(E) is None and verdicts == [True]
    with pytest.raises(DimensionMismatch,
                       match="^deformation is not strongly Z2-graded$"):
        build_clifford(commuting, TensorElement())
    assert verdicts == [True, False]
