import random

import pytest

from nqh.errors import BoundExceeded, DegreeMismatch
from nqh.exactlin import (
    ONE,
    Scalar,
    SparseEliminator,
    TensorElement,
    ZERO,
    word_index,
    words_of_length,
)
from nqh.quadratic import (
    QuadraticPresentation,
    check_central,
    hilbert_profile,
    koszul_dual,
)

ORACLE_MAX_DEGREE = 5


def tensor_power_ideal(presentation, n):
    """Test oracle: an eliminator spanning sum_i V^i (x) R (x) V^(n-2-i)
    inside all of V^(x)n (g^n columns), the route the package does not use.
    Only meant for small n."""
    assert n <= ORACLE_MAX_DEGREE
    g = presentation.ngens
    elim = SparseEliminator()
    for row in presentation.relations.basis:
        rel = list(row.items())
        for i in range(n - 1):
            right_count = g ** (n - 2 - i)
            for left in range(g ** i):
                for right in range(right_count):
                    elim.add({(left * g * g + idx) * right_count + right: c
                              for idx, c in rel})
    return elim


def word_row(element, g):
    return {word_index(w, g): c for w, c in element.terms.items()}


def oracle_reduce(elim, basis_words, element, g):
    """Coordinates of a tensor in the oracle's non-pivot word basis."""
    residue = elim.reduce(word_row(element, g))
    position = {word_index(w, g): k for k, w in enumerate(basis_words)}
    vec = [ZERO] * len(basis_words)
    for col, coeff in residue.items():
        vec[position[col]] = coeff
    return vec


def skew_presentation(seed, g=3):
    """Relations x_i x_j + q_ij x_j x_i with seeded q_ij = +-1."""
    rng = random.Random(seed)
    relations = []
    for i in range(g):
        for j in range(i + 1, g):
            q = rng.choice((1, -1))
            relations.append(TensorElement({(i, j): ONE, (j, i): Scalar(q)}))
    return QuadraticPresentation([f"x{k + 1}" for k in range(g)], relations)


def random_tensor(rng, g, n, nterms=4):
    terms = {}
    for _ in range(nterms):
        word = tuple(rng.randrange(g) for _ in range(n))
        terms[word] = Scalar(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(2))
    return TensorElement(terms)


@pytest.fixture
def commutative_plane():
    return QuadraticPresentation(
        ["x1", "x2"],
        [TensorElement({(0, 1): ONE}) - TensorElement({(1, 0): ONE})])


@pytest.fixture
def free_two():
    return QuadraticPresentation(["a", "b"], [])


def test_skew_plane_dims_match_monomial_count(km1):
    # the skew plane has the monomial basis x1^a x2^b, so dim A_n = n + 1
    for n in range(8):
        assert km1.component_dim(n) == n + 1


def test_degree_zero_is_one_dimensional(km1, free_two):
    assert km1.component_dim(0) == 1
    assert free_two.component_dim(0) == 1


def test_free_algebra_profile(free_two):
    assert hilbert_profile(free_two, 2) == [1, 2, 4]


def test_dual_profile(km1):
    dual = koszul_dual(km1)
    assert hilbert_profile(dual, 3) == [1, 2, 1, 0]


def test_profile_bound(km1):
    with pytest.raises(BoundExceeded):
        hilbert_profile(km1, 9)


def test_quotient_dimension_consistency(km1):
    g = km1.ngens
    for n in range(2, ORACLE_MAX_DEGREE + 1):
        ideal_rank = tensor_power_ideal(km1, n).rank
        assert km1.component_dim(n) + ideal_rank == g ** n


def _differential_inputs():
    km1 = QuadraticPresentation(
        ["x1", "x2"], [TensorElement({(0, 1): ONE, (1, 0): ONE})])
    plane = QuadraticPresentation(
        ["x1", "x2"], [TensorElement({(0, 1): ONE, (1, 0): Scalar(-1)})])
    inputs = [("km1", km1), ("km1-dual", koszul_dual(km1)),
              ("free", QuadraticPresentation(["a", "b"], [])),
              ("plane", plane)]
    for seed in range(4):
        skew = skew_presentation(seed)
        inputs.append((f"skew3-{seed}", skew))
        inputs.append((f"skew3-{seed}-dual", koszul_dual(skew)))
    return [pytest.param(name, pres, id=name) for name, pres in inputs]


@pytest.mark.parametrize("name,pres", _differential_inputs())
def test_components_match_tensor_power_oracle(name, pres):
    g = pres.ngens
    rng = random.Random(name)
    for n in range(ORACLE_MAX_DEGREE + 1):
        elim = tensor_power_ideal(pres, n)
        expected_words = [w for i, w in enumerate(words_of_length(g, n))
                          if i not in elim.pivots]
        assert pres.component_dim(n) == g ** n - elim.rank
        assert pres.component_basis_words(n) == expected_words
        for _ in range(6):
            element = random_tensor(rng, g, n)
            coords = pres.reduce_mod_ideal(element, n)
            vec = [coords.get(k, ZERO) for k in range(len(expected_words))]
            assert vec == oracle_reduce(elim, expected_words, element, g)
            assert pres.in_ideal(element, n) == elim.contains(word_row(element, g))
            # subtracting the normal form leaves an element of the ideal
            normal = TensorElement(dict(zip(expected_words, vec)))
            assert pres.in_ideal(element - normal, n)
            assert elim.contains(word_row(element - normal, g))


def test_koszul_dual_relations(km1):
    from nqh.exactlin import Subspace

    dual = koszul_dual(km1)
    expected = Subspace.from_rows([
        TensorElement({(0, 0): ONE}).coordinates(2, 2),
        TensorElement({(1, 1): ONE}).coordinates(2, 2),
        (TensorElement({(0, 1): ONE})
         - TensorElement({(1, 0): ONE})).coordinates(2, 2),
    ], 4)
    assert dual.relations == expected
    assert dual.generators == ("x1*", "x2*")


def test_free_algebra_dual_is_full(free_two):
    dual = koszul_dual(free_two)
    assert dual.relations.dim == 4
    assert hilbert_profile(dual, 3) == [1, 2, 0, 0]


def test_double_dual_recovers_relations(km1, free_two, commutative_plane):
    for pres in (km1, free_two, commutative_plane):
        double = koszul_dual(koszul_dual(pres))
        assert double.relations == pres.relations


def test_central_diagonal_lift(km1, z_lift):
    assert check_central(km1, z_lift)


def test_squares_are_central_in_the_skew_plane(km1):
    # x1^2 x2 = x1(-x2 x1) = x2 x1^2, so both generator squares are central
    assert check_central(km1, TensorElement({(0, 0): ONE}))
    assert check_central(km1, TensorElement({(1, 1): ONE}))


def test_mixed_word_is_not_central(km1):
    assert not check_central(km1, TensorElement({(0, 1): ONE}))


def test_everything_central_in_commutative_plane(commutative_plane):
    for word in ((0, 0), (0, 1), (1, 1)):
        assert check_central(commutative_plane, TensorElement({word: ONE}))


def test_check_central_rejects_wrong_degree(km1):
    with pytest.raises(DegreeMismatch):
        check_central(km1, TensorElement({(0, 1, 1): ONE}))


def test_component_basis_words_and_reduction(km1):
    words = km1.component_basis_words(2)
    assert len(words) == 3
    # the eliminator pivots on the deglex-smallest word of the relation,
    # so x1 x2 reduces to -x2 x1
    vec = km1.reduce_mod_ideal(TensorElement({(0, 1): ONE}), 2)
    by_word = {words[k]: c for k, c in vec.items()}
    assert by_word[(1, 0)] == Scalar(-1)


def test_b_extension_profile_and_freeness(double_ore_class_z):
    from nqh.deform import b_presentation, j_presentation
    from nqh.quadratic import koszul_dual as dual_of

    bpres = b_presentation(double_ore_class_z)
    assert hilbert_profile(bpres, 3) == [1, 4, 10, 20]
    bdual = dual_of(bpres)
    profile = hilbert_profile(bdual, 5)
    assert profile == [1, 4, 6, 4, 1, 0]
    # free-module structure: the dual dims are the convolution of the parts
    adual = dual_of(double_ore_class_z.base)
    jdual = dual_of(j_presentation(double_ore_class_z.p12,
                                   double_ore_class_z.p11))
    for n in range(5):
        convolution = sum(
            adual.component_dim(k) * jdual.component_dim(n - k)
            for k in range(n + 1))
        assert profile[n] == convolution


def test_unique_generator_names():
    from nqh.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        QuadraticPresentation(["x", "x"], [])
