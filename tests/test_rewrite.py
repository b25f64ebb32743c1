import random

import pytest

from conftest import ref_extract_algebra, table_entries
from reference_constructions import DegreeExceedsConfluence, normal_form

from nqh.errors import (
    DimensionMismatch,
    InfiniteDimensional,
    NotConfluent,
    NotOrientable,
)
from nqh.exactlin import ONE, Scalar, TensorElement
from nqh.quadratic import koszul_dual
from nqh.rewrite import (
    RewriteRule,
    complete,
    extract_algebra,
    normal_words,
    orient,
)


def unit():
    return TensorElement.unit()


def km1_dual_rules(km1, z_lift):
    from nqh.exactlin import pairing

    dual = koszul_dual(km1)
    relations = []
    for row in dual.relations.basis:
        f = TensorElement.from_coordinates(row, 2, 2)
        relations.append(f - unit().scale(pairing(f, z_lift)))
    return orient(relations, dual.generators)


def test_orient_single_rule():
    system = orient([TensorElement({(0, 0): ONE}) - unit()], ["x"])
    assert system.rules == {(0, 0): unit()}


def test_orient_inconsistent_pair():
    with pytest.raises(NotOrientable):
        orient([TensorElement({(0, 1): ONE}) - unit(),
                TensorElement({(0, 1): ONE})], ["x", "y"])


def test_orient_deformed_dual(km1, z_lift):
    system = km1_dual_rules(km1, z_lift)
    assert system.rules[(0, 0)] == unit()
    assert system.rules[(1, 1)] == unit()
    assert system.rules[(1, 0)] == TensorElement({(0, 1): ONE})


def test_rules_descend():
    with pytest.raises(NotOrientable):
        RewriteRule((0,), TensorElement({(0, 0): ONE}))


def test_complete_keeps_confluent_system(km1, z_lift):
    system = complete(km1_dual_rules(km1, z_lift), 6)
    assert set(system.rules) == {(0, 0), (1, 1), (1, 0)}
    assert system.confluent_up_to == 6


def test_complete_single_generator():
    system = complete(orient([TensorElement({(0, 0): ONE}) - unit()], ["x"]), 6)
    assert set(system.rules) == {(0, 0)}


def test_complete_b_extension_has_sixteen_normal_words(double_ore_class_z,
                                                       z_lift):
    from nqh.deform import build_Bshriek_clifford, build_clifford

    data = build_Bshriek_clifford(
        double_ore_class_z, z_lift,
        build_clifford(double_ore_class_z.base, z_lift))
    words = normal_words(data.system, 16)
    assert len(words) == 16
    with pytest.raises(DimensionMismatch, match="^more than 15 normal words$"):
        normal_words(data.system, 15)
    with pytest.raises(DimensionMismatch, match="^16 normal words, expected 17$"):
        normal_words(data.system, 17)


def test_normal_form_examples(km1, z_lift):
    single = complete(orient([TensorElement({(0, 0): ONE}) - unit()], ["x"]), 6)
    assert normal_form(single, TensorElement({(0, 0, 0): ONE})) == (
        TensorElement({(0,): ONE}))
    assert normal_form(single, TensorElement()) == TensorElement()
    system = complete(km1_dual_rules(km1, z_lift), 6)
    assert normal_form(system, TensorElement({(1, 0, 1): ONE})) == (
        TensorElement({(0,): ONE}))


def test_normal_form_degree_guard(km1, z_lift):
    system = complete(km1_dual_rules(km1, z_lift), 6)
    with pytest.raises(DegreeExceedsConfluence):
        normal_form(system, TensorElement({(0,) * 7: ONE}))


def test_normal_form_idempotent_on_random_elements(km1, z_lift):
    system = complete(km1_dual_rules(km1, z_lift), 8)
    rng = random.Random(11)
    pool = [ONE, -ONE, Scalar(2), Scalar(1, 1), Scalar(0, 0, 1)]
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
            terms[word] = rng.choice(pool)
        element = TensorElement(terms)
        once = normal_form(system, element)
        assert normal_form(system, once) == once


def test_normal_form_respects_ideal(km1, z_lift):
    system = complete(km1_dual_rules(km1, z_lift), 8)
    rng = random.Random(13)
    rules = list(system.rules.items())
    for _ in range(50):
        lhs, rhs = rules[rng.randrange(len(rules))]
        left = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        right = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
        one_way = normal_form(system, TensorElement({left + lhs + right: ONE}))
        other = normal_form(
            system,
            TensorElement.monomial(left).concat(rhs).concat(
                TensorElement.monomial(right)))
        assert one_way == other


def test_extract_two_dimensional_quotient():
    system = complete(orient([TensorElement({(0, 0): ONE}) - unit()], ["x"]), 6)
    algebra = extract_algebra(system, normal_words(system, 2))
    assert algebra.dim == 2
    assert algebra.labels == ("1", "x")
    assert algebra.table[1][1] == {0: ONE}


def test_extract_deformed_dual_is_commutative(clifford_km1):
    algebra = clifford_km1.algebra
    assert algebra.dim == 4
    for i in range(4):
        for j in range(4):
            assert algebra.table[i][j] == algebra.table[j][i]


def nilpotent_relations():
    """The dual of the skew plane deformed only at the second generator
    square: normal words 1, y1*, y2*, y1* y2*."""
    return orient([
        TensorElement({(0, 0): ONE}),
        TensorElement({(1, 1): ONE}) - unit(),
        TensorElement({(0, 1): ONE}) - TensorElement({(1, 0): ONE}),
    ], ["y1*", "y2*"])


def test_extract_nilpotent_case():
    system = complete(nilpotent_relations(), 6)
    algebra = extract_algebra(system, normal_words(system, 4))
    assert algebra.dim == 4
    square = algebra.mul({1: ONE}, {1: ONE})
    assert square == {}


def test_extract_algebra_matches_the_rewriting_reference(base_deformations):
    """The table built from the letter rows is the one that rewrote all
    dim^2 products, entry for entry and in dict order, on every base
    deformation; the mixing block and the big deformation are compared in
    test_knorrer."""
    for name, E, system in base_deformations:
        ref = ref_extract_algebra(system, E.words)
        for algebra in (E, extract_algebra(system, E.words)):
            assert table_entries(algebra) == table_entries(ref), name
            assert (algebra.labels, algebra.degrees, algebra.unit, algebra.words) == (
                ref.labels, ref.degrees, ref.unit, ref.words), name


def test_extract_algebra_rejects_products_past_the_confluence_bound():
    """Completion to degree 3 does not cover the degree-4 product of the
    longest normal word with itself."""
    system = complete(nilpotent_relations(), 3)
    words = normal_words(system, 4)
    assert max(map(len, words)) == 2
    for extract in (extract_algebra, ref_extract_algebra):
        with pytest.raises(NotConfluent, match="^products of normal words exceed "
                           "the confluence bound$"):
            extract(system, words)


def test_extract_algebra_rejects_a_basis_that_lacks_a_normal_word():
    system = complete(nilpotent_relations(), 6)
    words = normal_words(system, 4)
    assert words[-1] == (0, 1)
    for extract in (extract_algebra, ref_extract_algebra):
        with pytest.raises(NotConfluent,
                           match="^normal form left the normal-word basis$"):
            extract(system, words[:-1])


def test_extract_requires_finiteness():
    system = complete(orient(
        [TensorElement({(1, 0): ONE}) - TensorElement({(0, 1): ONE})],
        ["x", "y"]), 4)
    with pytest.raises(InfiniteDimensional):
        normal_words(system, 100)
    # the enumeration stops once it passes the expected dimension
    with pytest.raises(DimensionMismatch, match="^more than 4 normal words$"):
        normal_words(system, 4)


def test_pbw_dimension_matches_homogeneous_dual(km1, z_lift, clifford_km1):
    dual = koszul_dual(km1)
    total = sum(dual.component_dim(n) for n in range(4))
    assert clifford_km1.algebra.dim == total


def test_oracle_outputs_verify(clifford_km1):
    from nqh.algebra import verify_algebra

    assert verify_algebra(clifford_km1.algebra).ok


def test_dump_rule_order_is_deterministic(km1, z_lift):
    system = complete(km1_dual_rules(km1, z_lift), 6)
    listed = [rule.lhs for rule in system.rule_list()]
    assert listed == sorted(listed, key=lambda w: (len(w), w))
