import json
import random

import pytest
from hypothesis import given, strategies as st

from nqh import quadratic

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


def test_a_component_past_the_budget_is_refused(monkeypatch):
    """The budget bounds the candidate words g dim A_{n-1} of a component,
    checked before any of them is built: a budget of 27 admits the free
    algebra on three generators up to degree 3, not degree 4."""
    free = QuadraticPresentation(["x", "y", "z"], [])
    monkeypatch.setattr(quadratic, "COMPONENT_BUDGET", 27)
    assert hilbert_profile(free, 3) == [1, 3, 9, 27]
    with pytest.raises(BoundExceeded, match="^degree 4 has 81 candidate words"):
        free.component_dim(4)
    assert free.component_dim(3) == 27


def test_quotient_dimension_consistency(km1):
    g = km1.ngens
    for n in range(2, ORACLE_MAX_DEGREE + 1):
        ideal_rank = tensor_power_ideal(km1, n).rank
        assert km1.component_dim(n) + ideal_rank == g ** n


def _not_pbw():
    """K<x,y>/(x^2 + y^2), dims 1, 2, ..., 7 through degree 6, and
    K<x,y>/(x^2 + yx): the lead x^2 overlaps itself in x^3, and neither
    relation set is a Groebner basis."""
    return [("x2+y2", QuadraticPresentation(
                ["x", "y"], [TensorElement({(0, 0): ONE, (1, 1): ONE})])),
            ("x2+yx", QuadraticPresentation(
                ["x", "y"], [TensorElement({(0, 0): ONE, (1, 0): ONE})]))]


def _differential_inputs():
    km1 = QuadraticPresentation(
        ["x1", "x2"], [TensorElement({(0, 1): ONE, (1, 0): ONE})])
    plane = QuadraticPresentation(
        ["x1", "x2"], [TensorElement({(0, 1): ONE, (1, 0): Scalar(-1)})])
    inputs = [("km1", km1), ("km1-dual", koszul_dual(km1)),
              ("free", QuadraticPresentation(["a", "b"], [])),
              ("plane", plane)]
    for name, pres in _not_pbw():
        inputs += [(name, pres), (f"{name}-dual", koszul_dual(pres))]
    for seed in range(4):
        skew = skew_presentation(seed)
        inputs.append((f"skew3-{seed}", skew))
        inputs.append((f"skew3-{seed}-dual", koszul_dual(skew)))
    return [pytest.param(name, pres, id=name) for name, pres in inputs]


def assert_matches_tensor_power_oracle(pres, rng):
    g = pres.ngens
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


@pytest.mark.parametrize("name,pres", _differential_inputs())
def test_components_match_tensor_power_oracle(name, pres):
    assert_matches_tensor_power_oracle(pres, random.Random(name))


def random_presentation(rng):
    """2 or 3 letters and fewer than g^2 random relations of 1 to 3 terms."""
    g = rng.choice((2, 3))
    relations = [random_tensor(rng, g, 2, rng.randrange(1, 4))
                 for _ in range(rng.randrange(g * g))]
    return QuadraticPresentation([f"x{k}" for k in range(g)], relations)


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_random_presentations_match_tensor_power_oracle(seed):
    """Random 2- and 3-letter presentations, PBW or not, through degree 5."""
    rng = random.Random(seed)
    assert_matches_tensor_power_oracle(random_presentation(rng), rng)


class SkipsOverlapsUnconditionally(QuadraticPresentation):
    """A mutant that skips the overlap rows from degree 4 on whether or
    not degree 3 certified the presentation PBW."""

    __slots__ = ()
    _pbw = property(lambda self: len(self._components) > 3,
                    lambda self, value: None)


def test_the_skip_waits_for_the_pbw_certificate():
    """Skipping overlap rows without the degree-3 certificate gives wrong
    dimensions on a presentation that is not PBW, which the oracle sees."""
    for name, pres in _not_pbw():
        mutant = SkipsOverlapsUnconditionally(pres.generators, pres.relations)
        oracle = [pres.ngens ** n - tensor_power_ideal(pres, n).rank
                  for n in range(ORACLE_MAX_DEGREE + 1)]
        assert hilbert_profile(pres, ORACLE_MAX_DEGREE) == oracle, name
        assert hilbert_profile(mutant, ORACLE_MAX_DEGREE) != oracle, name
    x2y2 = _not_pbw()[0][1]
    assert hilbert_profile(x2y2, 6) == [1, 2, 3, 4, 5, 6, 7]
    mutant = SkipsOverlapsUnconditionally(x2y2.generators, x2y2.relations)
    assert hilbert_profile(mutant, 6) == [1, 2, 3, 4, 6, 10, 16]


class CountingEliminator(SparseEliminator):
    """Counts its rows, and records itself in ``formed`` when it is made."""

    __slots__ = ("rows",)
    formed = None

    def __init__(self):
        super().__init__()
        self.rows = 0
        self.formed.append(self)

    def add(self, row):
        self.rows += 1
        return super().add(row)


def rows_formed(run):
    """The rows of each eliminator formed while run() runs, in order."""
    CountingEliminator.formed.clear()
    run()
    return [elim.rows for elim in CountingEliminator.formed]


def big_double_ore(g):
    from nqh.formats import parse_double_ore
    from perfbench.workloads import skew_double_ore

    return parse_double_ore(skew_double_ore(random.Random(f"big:{g}"), g, 1))[0]


def presentations_base():
    from nqh.formats import parse_presentation
    from perfbench.workloads import generate

    return parse_presentation(json.loads(generate("presentations", 1)["base.json"]))[0]


def test_a_pbw_presentation_forms_only_its_plain_rows(monkeypatch):
    """The 5-generator skew base of the presentations workload (seed 1) is
    PBW: degree 3 forms all 5 * 10 rows, and degrees 4 to 6 read their words
    off the relation leads with no row formed.  Reading the eliminators then
    forms only the plain rows, 105, 224 and 420 of the 150, 350 and 700 rows
    of A_{n-2} (x) R.  Its dual forms every row up to degree 3 and none
    above until asked; so does the dual of big:6's B in dual_dims."""
    from nqh.deform import dual_dims

    monkeypatch.setattr(quadratic, "SparseEliminator", CountingEliminator)
    monkeypatch.setattr(CountingEliminator, "formed", [])
    base = presentations_base()
    assert rows_formed(lambda: hilbert_profile(base, 6)) == [0, 0, 10, 50]
    assert hilbert_profile(base, 6) == [1, 5, 15, 35, 70, 126, 210]
    assert rows_formed(lambda: [base._component(n).elim for n in range(2, 7)]) == [
        105, 224, 420]
    assert [base._component(n).elim.rows for n in range(2, 7)] == [10, 50, 105, 224, 420]
    dual = koszul_dual(base)
    assert rows_formed(lambda: hilbert_profile(dual, 6)) == [0, 0, 15, 75]
    assert hilbert_profile(dual, 6) == [1, 5, 10, 10, 5, 1, 0]
    assert rows_formed(lambda: [dual._component(n).elim for n in range(2, 7)]) == [
        45, 24, 5]
    assert [dual._component(n).elim.rows for n in range(2, 7)] == [15, 75, 45, 24, 5]
    for name, pres in _not_pbw():
        pres = QuadraticPresentation(pres.generators, pres.relations)
        assert rows_formed(lambda: hilbert_profile(pres, 6)) == [0, 0, 1, 2, 3, 4, 5], name
    b_dual = big_double_ore(6).b_dual
    assert rows_formed(lambda: dual_dims(b_dual)) == [0, 0, 36, 288]


class FormsEveryRow(QuadraticPresentation):
    """A reference that never takes the PBW certificate: every degree forms
    every row of A_{n-2} (x) R and reads its words off the pivots."""

    __slots__ = ()
    _pbw = property(lambda self: False, lambda self, value: None)


def _certified(pres):
    """Whether degree 3 certifies the presentation PBW."""
    pres.component_dim(3)
    return pres._pbw


def _enumeration_inputs():
    """The PBW-certified presentations of the differential inputs, the
    presentations workload's base (seed 1) and its dual, and big:4's B and
    B^!."""
    inputs = [(param.id, param.values[1]) for param in _differential_inputs()]
    base = presentations_base()
    data = big_double_ore(4)
    inputs += [("presentations:1", base), ("presentations:1-dual", koszul_dual(base)),
               ("big:4-B", data.b), ("big:4-B-dual", data.b_dual)]
    return [pytest.param(name, pres, id=name) for name, pres in inputs
            if _certified(pres)]


@pytest.mark.parametrize("name,pres", _enumeration_inputs())
def test_lead_enumeration_matches_every_row(name, pres):
    """From degree 4 to DEGREE_BOUND the words read off the leads are the
    words that forming every row leaves, and normal forms and ideal
    membership agree with that reference on seeded random tensors."""
    rng = random.Random(name)
    g = pres.ngens
    pres = QuadraticPresentation(pres.generators, pres.relations)
    reference = FormsEveryRow(pres.generators, pres.relations)
    for n in range(4, quadratic.DEGREE_BOUND + 1):
        words = pres.component_basis_words(n)
        assert words == reference.component_basis_words(n), n
        for _ in range(3):
            element = random_tensor(rng, g, n)
            coords = pres.reduce_mod_ideal(element, n)
            assert coords == reference.reduce_mod_ideal(element, n), n
            normal = TensorElement({words[k]: c for k, c in coords.items()})
            for tensor in (element, element - normal):
                assert pres.in_ideal(tensor, n) == reference.in_ideal(tensor, n), n
            assert pres.in_ideal(element - normal, n)
    assert pres._pbw and not reference._pbw


def test_every_accessor_rejects_a_negative_degree(km1):
    """A negative degree raises, even once higher degrees are built."""
    assert km1.component_dim(3) == 4
    element = TensorElement({(0,): ONE})
    for read in (km1.component_dim, km1.component_basis_words,
                 lambda n: km1.reduce_mod_ideal(element, n),
                 lambda n: km1.in_ideal(element, n)):
        with pytest.raises(DegreeMismatch, match="negative degree"):
            read(-1)


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
