import dataclasses
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import recording_output
from reference_constructions import (
    certify_by_iso,
    is_stacked_inverse,
    ref_vec_eq,
    restrict,
    stacked_inverse,
    transpose,
    verify_hom_M2,
    verify_module,
)

from perfbench.workloads import generate

from nqh import algebra as algebra_module, deform, knorrer, scenarios, twist
from nqh.errors import DimensionMismatch, RelationViolated, ZeroScale
from nqh.exactlin import (
    HALF,
    I,
    ONE,
    Scalar,
    SparseEliminator,
    Subspace,
    TensorElement,
    ZERO,
    add_scaled,
)
from nqh.algebra import (
    GradedAlgebra,
    GradedLinMap,
    MatrixHom,
    RightModule,
    corner_embedding,
    extend_on_generators,
    full_idempotent_check,
    generating_set,
    hom_dim,
    is_absolutely_simple,
    is_nilpotent_element,
    radical,
    spin,
    strongly_graded_check,
    t_inverse_table,
    vec_sub,
    verify_algebra,
    verify_decomposition,
    verify_iso,
    xi_automorphism,
)
from nqh.formats import parse_double_ore
from nqh.rewrite import RewriteSystem, extract_algebra
from nqh.scenarios import run_scenario


def matrix_algebra_2x2():
    """M_2(K) on the elementary matrices E11, E12, E21, E22."""
    # index (r, c) -> 2 * r + c
    table = [[{} for _ in range(4)] for _ in range(4)]
    for r in range(2):
        for c in range(2):
            for rp in range(2):
                for cp in range(2):
                    product = {}
                    if c == rp:
                        product[2 * r + cp] = ONE
                    table[2 * r + c][2 * rp + cp] = product
    unit = {0: ONE, 3: ONE}
    degrees = [(0,), (1,), (1,), (0,)]
    return GradedAlgebra(["E11", "E12", "E21", "E22"], table, unit, degrees)


def group_algebra_z2():
    table = [[{0: ONE}, {1: ONE}], [{1: ONE}, {0: ONE}]]
    return GradedAlgebra(["1", "g"], table, {0: ONE}, [(0,), (1,)])


def dual_numbers():
    table = [[{0: ONE}, {1: ONE}], [{1: ONE}, {}]]
    return GradedAlgebra(["1", "t"], table, {0: ONE}, [(0,), (1,)])


def test_verify_matrix_algebra():
    assert verify_algebra(matrix_algebra_2x2()).ok


def test_verify_detects_perturbed_constant():
    algebra = matrix_algebra_2x2()
    table = [[dict(cell) for cell in row] for row in algebra.table]
    table[0][0] = {0: Scalar(2)}
    bad = GradedAlgebra(algebra.labels, table, algebra.unit, algebra.degrees)
    report = verify_algebra(bad)
    assert not report.ok
    failure = report.first_failure()
    assert "(0,0" in failure.detail or "basis 0" in failure.detail


def test_oracle_outputs_pass_verification(clifford_km1):
    assert verify_algebra(clifford_km1.algebra).ok


def test_radical_examples(clifford_km1):
    assert radical(dual_numbers()).dim == 1
    assert radical(group_algebra_z2()).dim == 0
    assert radical(matrix_algebra_2x2()).dim == 0
    assert radical(clifford_km1.algebra).dim == 0


def test_radical_is_nilpotent_ideal():
    algebra = dual_numbers()
    rad = radical(algebra)
    for vec in rad.basis:
        assert is_nilpotent_element(algebra, vec)
        for j in range(algebra.dim):
            assert rad.contains(algebra.mul(algebra.basis_vec(j), vec))
            assert rad.contains(algebra.mul(vec, algebra.basis_vec(j)))


def test_nilpotency():
    algebra = dual_numbers()
    assert is_nilpotent_element(algebra, {1: ONE})
    assert not is_nilpotent_element(algebra, dict(algebra.unit))


def test_strong_grading():
    assert strongly_graded_check(group_algebra_z2())
    assert not strongly_graded_check(dual_numbers())


def test_xi_automorphism(clifford_km1):
    algebra = clifford_km1.algebra
    assert xi_automorphism(algebra, ONE) == GradedLinMap.identity(algebra)
    xi = xi_automorphism(algebra, Scalar(-1))
    assert verify_iso(xi, generating_set(xi.source))
    assert xi.compose(xi) == GradedLinMap.identity(algebra)
    odd = algebra.component_indices((1,))[0]
    assert xi.cols[odd] == {odd: Scalar(-1)}
    with pytest.raises(ZeroScale):
        xi_automorphism(algebra, ZERO)


def test_matrix_hom_verification(clifford_km1):
    algebra = clifford_km1.algebra
    ident = GradedLinMap.identity(algebra)
    zero = GradedLinMap.zero(algebra)
    xi = xi_automorphism(algebra, Scalar(-1))
    diagonal = MatrixHom([[ident, zero], [zero, ident]])
    assert verify_hom_M2(diagonal)
    mixed = MatrixHom([[ident, zero], [zero, xi]])
    assert verify_hom_M2(mixed)
    swapped = MatrixHom([[zero, ident], [zero, xi]])
    assert not verify_hom_M2(swapped)


def test_t_inverse_of_triangular_table(clifford_km1):
    algebra = clifford_km1.algebra
    ident = GradedLinMap.identity(algebra)
    zero = GradedLinMap.zero(algebra)
    xi = xi_automorphism(algebra, Scalar(-1))
    table = MatrixHom([[ident, xi], [zero, xi]])
    psi = t_inverse_table(table)
    assert psi is not None
    # both defining identity families hold
    for i in range(2):
        for j in range(2):
            acc = GradedLinMap.zero(algebra)
            for k in range(2):
                acc = acc + psi.entries[k][i].compose(table.entries[k][j])
            expect = ident if i == j else GradedLinMap.zero(algebra)
            assert acc == expect
            acc = GradedLinMap.zero(algebra)
            for k in range(2):
                acc = acc + table.entries[j][k].compose(psi.entries[i][k])
            assert acc == expect
    # a table with a zero row has no t-inverse
    nilpotent_row = MatrixHom([[zero, zero], [ident, ident]])
    assert t_inverse_table(nilpotent_row) is None


def ref_t_inverse_table(theta):
    """t_inverse_table as it was: a dense round trip.  The transposed dense
    entry matrices go through ``stacked_inverse``, the solution transposes
    back, and ``is_stacked_inverse`` checks both families densely."""
    E = theta.algebra
    n = E.dim
    mats = [[[[entry.cols[c].get(r, ZERO) for c in range(n)] for r in range(n)]
             for entry in row] for row in theta.entries]
    solved = stacked_inverse([[transpose(m) for m in row] for row in mats])
    if solved is None:
        return None
    solved = [[transpose(m) for m in row] for row in solved]
    if not is_stacked_inverse(solved, mats):
        return None
    return MatrixHom([[GradedLinMap(E, E, [{r: c for r, c in enumerate(col) if c}
                                           for col in transpose(m)])
                       for m in row] for row in solved])


def _columns(table):
    """Each entry's columns with their keys in stored order, or None."""
    if table is None:
        return None
    return [[[list(col.items()) for col in entry.cols] for entry in row]
            for row in table.entries]


def test_t_inverse_table_matches_the_dense_route():
    """Every theta table of the five registry pipelines and of the skew3
    inputs of seeds 1 to 4, plus and minus, each with one coefficient
    bumped by 1, and each with its second row replaced by its first, which
    is singular: the sparse solve gives the columns, in the same key order,
    that the dense route gives, or None where it does."""
    tables = []
    with pytest.MonkeyPatch.context() as patch:
        _capture(patch, "t_inverse_table", tables, (twist,))
        for scenario_id in PIPELINE_SCENARIOS:
            assert run_scenario(scenario_id).ok
        for seed in range(1, 5):
            for name, blob in sorted(generate("skew3", seed).items()):
                data, central = parse_double_ore(json.loads(blob))
                run = (knorrer.run_plus_case if name == "plus.json"
                       else knorrer.run_minus_case)
                assert run(data, central).checks.ok
    rng = random.Random("t-inverse-mutants")
    outcomes = []
    for theta in tables:
        E = theta.algebra
        entries = [list(row) for row in theta.entries]
        i, j, b = rng.randrange(2), rng.randrange(2), rng.randrange(E.dim)
        cols = list(entries[i][j].cols)
        cols[b] = _bumped(cols[b], rng.randrange(E.dim))
        entries[i][j] = GradedLinMap(E, E, cols)
        singular = MatrixHom([theta.entries[0], theta.entries[0]])
        for table in (theta, MatrixHom(entries), singular):
            new = t_inverse_table(table)
            assert _columns(new) == _columns(ref_t_inverse_table(table))
            outcomes.append(new is not None)
    assert len(tables) == 20
    assert outcomes[0::3] == [True] * 20 and outcomes[2::3] == [False] * 20


def test_extend_on_generators(clifford_km1):
    algebra = clifford_km1.algebra
    images = [algebra.basis_vec(algebra.words.index((0,))),
              algebra.basis_vec(algebra.words.index((1,)))]
    image = extend_on_generators(clifford_km1.relations, algebra, images)
    identity = GradedLinMap(algebra, algebra, [
        image(TensorElement.monomial(w)) for w in algebra.words])
    assert identity == GradedLinMap.identity(algebra)
    assert verify_iso(identity, generating_set(identity.source))
    # sending both generators to the same image kills no relation here?
    # the first generator square maps to the second generator square: fine;
    # but swapping one sign breaks the mixed relation
    bad = [algebra.basis_vec(algebra.words.index((0,))),
           {algebra.words.index((0,)): ONE, algebra.words.index((1,)): ONE}]
    with pytest.raises(RelationViolated):
        extend_on_generators(clifford_km1.relations, algebra, bad)


def test_verify_iso_rejects_non_multiplicative(clifford_km1):
    algebra = clifford_km1.algebra
    cols = [algebra.basis_vec(i) for i in range(algebra.dim)]
    cols[algebra.words.index((0,))] = {1: Scalar(2)}
    stretched = GradedLinMap(algebra, algebra, cols)
    assert not verify_iso(stretched, generating_set(stretched.source))
    # doubling the normal words with an odd count of letter a commutes with
    # right multiplication by the other generator, so only a pair through
    # a itself shows that the map is not multiplicative
    for a in range(2):
        cols = [{i: Scalar(2) if algebra.words[i].count(a) % 2 else ONE}
                for i in range(algebra.dim)]
        assert not verify_iso(GradedLinMap(algebra, algebra, cols), generating_set(algebra))


# ---------------------------------------------------------------------------
# modules


def test_regular_module_verifies(clifford_km1):
    regular = RightModule.regular(clifford_km1.algebra)
    assert verify_module(regular)


def test_spin_examples():
    algebra = group_algebra_z2()
    regular = RightModule.regular(algebra)
    gens = generating_set(algebra)
    assert spin(regular, [{}], gens).dim == 0
    assert spin(regular, [{0: ONE}], gens).dim == 2


def test_burnside_criterion():
    algebra = group_algebra_z2()
    regular = RightModule.regular(algebra)
    assert not is_absolutely_simple(regular)
    plus = RightModule(algebra, 1, [[{0: ONE}], [{0: ONE}]])
    minus = RightModule(algebra, 1, [[{0: ONE}], [{0: -ONE}]])
    assert is_absolutely_simple(plus)
    assert verify_module(plus) and verify_module(minus)
    zero_action = RightModule(dual_numbers(), 1, [[{0: ONE}], [{}]])
    assert is_absolutely_simple(zero_action)


def test_hom_dim_and_decomposition():
    algebra = group_algebra_z2()
    regular = RightModule.regular(algebra)
    plus = RightModule(algebra, 1, [[{0: ONE}], [{0: ONE}]])
    minus = RightModule(algebra, 1, [[{0: ONE}], [{0: -ONE}]])
    gens = generating_set(algebra)
    assert hom_dim(plus, plus, gens) == 1
    assert hom_dim(plus, minus, gens) == 0
    assert hom_dim(plus, regular, gens) == 1
    assert verify_decomposition(algebra, [plus, minus], [1, 1])
    assert not verify_decomposition(algebra, [plus, minus], [1, 2])
    assert not verify_decomposition(dual_numbers(), [plus], [2])


def test_matrix_algebra_decomposition():
    algebra = matrix_algebra_2x2()
    regular = RightModule.regular(algebra)
    gens = generating_set(algebra)
    row = spin(regular, [{0: ONE}], gens)
    assert row.dim == 2
    simple = RightModule.from_invariant_subspace(algebra, row)
    assert verify_module(simple)
    assert is_absolutely_simple(simple)
    assert hom_dim(simple, regular, gens) == 2
    assert verify_decomposition(algebra, [simple], [2])
    # E11 E12 = E12 leaves the column span(E11, E21), and
    # (E11 + E12) E21 = E11 leaves span(E11 + E12)
    for rows in ([{0: ONE}, {2: ONE}], [{0: ONE, 1: ONE}]):
        with pytest.raises(DimensionMismatch,
                           match="^subspace is not action invariant$"):
            RightModule.from_invariant_subspace(
                algebra, Subspace.from_rows(rows, 4))


def test_module_verify_rejects_a_left_action():
    algebra = matrix_algebra_2x2()
    assert verify_module(RightModule.regular(algebra))
    # e_r . e_j = e_j e_r is a left action, not a right one, on M_2
    left = RightModule(algebra, 4, [[algebra.table[j][r] for r in range(4)]
                                    for j in range(4)])
    assert not verify_module(left)


def upper_triangular_2x2():
    """The upper triangular 2x2 matrices on E11, E12, E22, all even."""
    table = [[{} for _ in range(3)] for _ in range(3)]
    for (a, b), c in {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}.items():
        table[a][b] = {c: ONE}
    return GradedAlgebra(["E11", "E12", "E22"], table, {0: ONE, 2: ONE},
                         [(0,)] * 3)


def test_full_idempotent(monkeypatch):
    algebra = matrix_algebra_2x2()
    gens = generating_set(algebra)
    assert full_idempotent_check(algebra, dict(algebra.unit), gens)
    assert not full_idempotent_check(algebra, {}, gens)
    assert full_idempotent_check(algebra, {0: ONE}, gens)  # E11 is full in M_2
    split = group_algebra_z2()
    idem = {0: HALF, 1: HALF}
    assert not full_idempotent_check(split, idem, generating_set(split))
    # E11 in the upper triangular matrices generates span{E11, E12}: the
    # unit never enters the span, so the check forms every product of the
    # closure, two per generator on each of its two vectors, and says no
    triangular = upper_triangular_2x2()
    assert verify_algebra(triangular).ok
    e = {0: ONE}
    gens = generating_set(triangular)
    assert gens == [0, 1]
    elim = SparseEliminator()
    assert len(list(algebra_module.ideal_closure(triangular, elim, [e], gens))) == 2
    assert Subspace.from_eliminator(elim, 3) == Subspace.from_rows(
        [{0: ONE}, {1: ONE}], 3)
    products = []
    real = GradedAlgebra.mul
    monkeypatch.setattr(GradedAlgebra, "mul",
                        lambda self, u, v: products.append(1) or real(self, u, v))
    assert not full_idempotent_check(triangular, e, gens)
    # e e, then 2 sides x 2 generators x 2 closure vectors
    assert len(products) == 1 + 2 * 2 * 2


def _rank2(algebra):
    return algebra.regrade([(0,) + d for d in algebra.degrees], 2)


@pytest.mark.parametrize("site", [
    "total_degree_regrade", "forget_first_regrade", "xi_automorphism",
    "strongly_graded_check", "skew_group_data", "zhang_twist"])
def test_a_wrong_group_rank_raises(site):
    """Each guard on the grading group raises DimensionMismatch, which
    ``python -O`` keeps, where an assert would vanish."""
    z2 = group_algebra_z2()
    z2sq = _rank2(z2)
    calls = {
        "total_degree_regrade": (z2.total_degree_regrade, "Z2^2"),
        "forget_first_regrade": (z2.forget_first_regrade, "Z2^2"),
        "xi_automorphism": (lambda: xi_automorphism(z2sq, Scalar(-1)), "Z2^1"),
        "strongly_graded_check": (lambda: strongly_graded_check(z2sq), "Z2^1"),
        "skew_group_data": (lambda: twist._skew_group_data(
            z2sq, GradedLinMap.identity(z2sq)), "Z2^1"),
        "zhang_twist": (lambda: twist.zhang_twist(twist.SemiTrivialData(
            z2sq, (), (), (), ())), "Z2^1"),
    }
    call, wanted = calls[site]
    with pytest.raises(DimensionMismatch, match=f"needs a {re.escape(wanted)} grading"):
        call()


def test_a_module_with_misshapen_rows_is_refused():
    """One row per module basis vector, each supported on that basis."""
    algebra = group_algebra_z2()
    with pytest.raises(DimensionMismatch, match="^one action row per module"):
        RightModule(algebra, 2, [[{0: ONE}, {1: ONE}], [{1: ONE}]])
    with pytest.raises(DimensionMismatch, match="^an action row leaves"):
        RightModule(algebra, 1, [[{0: ONE}], [{1: ONE}]])
    with pytest.raises(DimensionMismatch, match="^an action row leaves"):
        RightModule(algebra, 1, [[{0: ONE}], [{-1: ONE}]])
    assert RightModule(algebra, 1, [[{0: ONE}], [{0: -ONE}]]).dim == 1


def test_corner_examples():
    algebra = matrix_algebra_2x2()
    at_unit = corner_embedding(algebra, dict(algebra.unit))
    assert at_unit.dim == algebra.dim
    assert verify_algebra(restrict(algebra, at_unit, algebra.unit)).ok
    small = corner_embedding(algebra, {0: ONE})
    assert small.dim == 1 and small.basis[0] == {0: ONE}
    assert verify_algebra(restrict(algebra, small, {0: ONE})).ok


def test_corner_requires_idempotent():
    from nqh.errors import NotIdempotent

    algebra = matrix_algebra_2x2()
    with pytest.raises(NotIdempotent):
        corner_embedding(algebra, {1: ONE})


def test_serialization_is_deterministic(clifford_km1):
    """The base deformation read directly: dim 4 over Z2, basis 0 labelled
    ``1`` in degree 0, the unit e_0, and e_1 e_1 = e_0."""
    algebra = clifford_km1.algebra
    assert (algebra.dim, algebra.group_rank) == (4, 1)
    assert (algebra.labels[0], algebra.degrees[0]) == ("1", (0,))
    assert algebra.unit == {0: ONE}
    assert algebra.table[1][1] == {0: ONE}  # the first dual generator squares to 1


def test_corner_unit_and_rank_property():
    algebra = matrix_algebra_2x2()
    e = {0: ONE}
    corner = corner_embedding(algebra, e)
    # the span of a -> e a e, on which e is a two-sided unit
    images = [algebra.mul(algebra.mul(e, algebra.basis_vec(i)), e)
              for i in range(algebra.dim)]
    assert corner == Subspace.from_rows(images, algebra.dim)
    assert all(algebra.mul(e, v) == v and algebra.mul(v, e) == v
               for v in corner.basis)


def test_restrict_rejects_what_is_not_a_subalgebra():
    m2 = matrix_algebra_2x2()
    # E21 E12 = E22 leaves span(E11, E12, E21)
    not_closed = Subspace.from_rows([{0: ONE}, {1: ONE}, {2: ONE}], 4)
    with pytest.raises(DimensionMismatch, match="a product lies outside"):
        restrict(m2, not_closed, {0: ONE})
    # 1 + g mixes the degrees 0 and 1
    mixed = Subspace.from_rows([{0: ONE, 1: ONE}], 2)
    with pytest.raises(DimensionMismatch, match="not homogeneous"):
        restrict(group_algebra_z2(), mixed, {0: ONE, 1: ONE})
    corner_space = Subspace.from_rows([{0: ONE}], 4)
    assert restrict(m2, corner_space, {0: ONE}).dim == 1
    with pytest.raises(DimensionMismatch, match="the unit lies outside"):
        restrict(m2, corner_space, m2.unit)


# ---------------------------------------------------------------------------
# verify_algebra against the triple loop through mul


def reference_verify_algebra(algebra):
    """The triple loop through ``mul`` on one-hot basis vectors, compared by
    a ``vec_sub``-based equality: the form verify_algebra had before it
    summed table rows directly."""
    def same(a, b):
        return vec_sub(a, b) == {}

    items = []
    dim = algebra.dim
    detail = ""
    for i in range(dim):
        b = algebra.basis_vec(i)
        if not same(algebra.mul(algebra.unit, b), b) or not same(
                algebra.mul(b, algebra.unit), b):
            detail = f"unit axiom fails at basis {i}"
            break
    items.append(("unit", not detail, detail))
    detail = ""
    for i in range(dim):
        for j in range(dim):
            target = tuple((a + b) % 2 for a, b in
                           zip(algebra.degrees[i], algebra.degrees[j]))
            bad = [k for k in algebra.table[i][j] if algebra.degrees[k] != target]
            if bad:
                detail = f"product ({i},{j}) hits degree of basis {bad[0]}"
                break
        if detail:
            break
    items.append(("grading", not detail, detail))
    detail = ""
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = algebra.mul(algebra.table[i][j], algebra.basis_vec(k))
                rhs = algebra.mul(algebra.basis_vec(i), algebra.table[j][k])
                if not same(lhs, rhs):
                    detail = f"associativity fails at ({i},{j},{k})"
                    break
            if detail:
                break
        if detail:
            break
    items.append(("associativity", not detail, detail))
    return items


PIPELINE_SCENARIOS = ("ex-4.10", "ex-4.9-1", "ex-4.9-2", "ex-5.9", "prop-5.10")


def _capture_certified(patch, algebras, maps=None):
    """Record in ``algebras`` every algebra that the pipelines certify: the
    argument of each verify_algebra call, each twisted algebra that
    _twisted_algebra builds, whose certificate twist computes without
    verify_algebra, the source of each verify_iso call onto a subspace,
    which certifies the Zhang twists and the plus case's Lambda, and each
    build_semitrivial output, which the minus case certifies through its
    ring and involution and the plus case through Lambda.
    With ``maps``, record there the argument of each verify_iso call of
    nqh.twist, and each map onto a subspace read onto its image
    (``_onto_image``)."""
    _capture(patch, "verify_algebra", algebras, (deform, knorrer))
    for module, name in ((knorrer, "build_semitrivial"), (twist, "_twisted_algebra")):
        patch.setattr(module, name, recording_output(getattr(module, name), algebras))
    real = algebra_module.verify_iso

    def transport(linmap, gens, image):
        algebras.append(linmap.source)
        if maps is not None:
            maps.append(_onto_image(linmap, image))
        return real(linmap, gens, image)

    patch.setattr(knorrer, "verify_iso", transport)
    if maps is not None:
        _capture(patch, "verify_iso", maps, (twist,))


def _onto_image(linmap, image):
    """``linmap`` onto the algebra that restricting its target to
    ``image`` gives, with f(1) as its unit: for a map that verify_iso
    accepts onto ``image``, the map it checked before it took a subspace."""
    restricted = restrict(linmap.target, image, linmap.apply(linmap.source.unit))
    return GradedLinMap(linmap.source, restricted,
                        [image.coords(col) for col in linmap.cols])


def _whole(algebra):
    """The span of every basis vector of ``algebra``."""
    return Subspace.from_rows([{i: ONE} for i in range(algebra.dim)], algebra.dim)


@pytest.fixture(scope="module")
def pipeline_algebras():
    """Every algebra that the five registry pipelines certify."""
    captured = []
    with pytest.MonkeyPatch.context() as patch:
        _capture_certified(patch, captured)
        for scenario_id in PIPELINE_SCENARIOS:
            assert run_scenario(scenario_id).ok
    return captured


def _bumped(vec, key):
    """``vec`` with the coefficient at ``key`` increased by 1."""
    out = dict(vec)
    out[key] = out.get(key, ZERO) + ONE
    if not out[key]:
        del out[key]
    return out


def _mutant(algebra, kind, rng):
    """``algebra`` with one unit coefficient or one structure constant
    bumped by 1: at a stored key (``"stored"``) or at any (i, j, k)."""
    table = [list(row) for row in algebra.table]
    unit = algebra.unit
    dim = algebra.dim
    if kind == "unit":
        unit = _bumped(unit, rng.randrange(dim))
    else:
        if kind == "stored":
            i, j, k = rng.choice([(i, j, k) for i in range(dim) for j in range(dim)
                                  for k in sorted(table[i][j])])
        else:
            i, j, k = rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)
        table[i][j] = _bumped(table[i][j], k)
    return GradedAlgebra(algebra.labels, table, unit, algebra.degrees,
                         algebra.group_rank)


def _items(report):
    return [(item.name, item.passed, item.detail) for item in report.items]


def test_verify_algebra_matches_the_reference_on_pipeline_algebras(
        pipeline_algebras):
    # 20 distinct algebras; each pipeline builds its base deformation once,
    # and ex-4.10 reads its own off the pipeline's result; the 2 Zhang
    # tables and the 3 plus-case Lambdas are certified by certify_by_iso,
    # the 5 extensions are recorded from build_semitrivial, and neither the
    # 5 oracles nor the mixing blocks get a table
    assert len(pipeline_algebras) == 20
    for algebra in pipeline_algebras:
        items = _items(verify_algebra(algebra))
        assert items == reference_verify_algebra(algebra)
        assert all(passed for _, passed, _ in items)


def test_verify_algebra_matches_the_reference_on_mutants(pipeline_algebras):
    rng = random.Random("verify-algebra-mutants")
    kinds = ("unit", "stored", "any")
    failed = {"unit": 0, "grading": 0, "associativity": 0}
    count = 0
    for n, algebra in enumerate(pipeline_algebras):
        for kind in (kinds[n % 3], kinds[(n + 1) % 3]):
            mutant = _mutant(algebra, kind, rng)
            items = _items(verify_algebra(mutant))
            assert items == reference_verify_algebra(mutant), (n, kind)
            for name, passed, _ in items:
                failed[name] += not passed
            count += 1
    assert count >= 40
    assert all(failed.values()), failed


def _with(algebra, table=None, words=None):
    """``algebra`` with its table or its words replaced."""
    return GradedAlgebra(algebra.labels, algebra.table if table is None else table,
                         algebra.unit, algebra.degrees, algebra.group_rank,
                         words=algebra.words if words is None else words)


def _row_bumped(algebra, word, rng):
    """``algebra`` with one constant bumped by 1 in the row of ``word``, in
    a column other than 1's, so the unit item still passes."""
    table = [list(row) for row in algebra.table]
    i, j = algebra.words.index(word), rng.randrange(1, algebra.dim)
    table[i][j] = _bumped(table[i][j], rng.randrange(algebra.dim))
    return _with(algebra, table)


def _rule_bumped(system, lhs, word):
    """A copy of ``system`` with the coefficient of ``word`` in the
    right-hand side of the rule for ``lhs`` bumped by 1."""
    rules = dict(system.rules)
    rules[lhs] = TensorElement(_bumped(rules[lhs].terms, word))
    return RewriteSystem(rules, system.alphabet, system.confluent_up_to)


def _certificate_items(algebra, system):
    """The rule certificate's report and verify_algebra's, item for item."""
    return verify_algebra(algebra, system).items, verify_algebra(algebra).items


def test_rule_certificate_reports_as_verify_algebra(base_deformations):
    """On every base deformation the report from the completed rules is
    verify_algebra's, item for item, and associativity is decided with
    neither generating_set nor the full scan."""
    expected = [verify_algebra(E).items for _, E, _ in base_deformations]
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("generating_set", "_associativity_failure"):
            patch.setattr(algebra_module, name,
                          lambda *args, name=name: calls.append(name))
        got = [verify_algebra(E, system).items for _, E, system in base_deformations]
    assert got == expected and calls == []
    assert len(got) == 17 and all(item.passed for items in got for item in items)


def test_rule_certificate_mutants_report_as_verify_algebra(base_deformations):
    """Mutants of the base deformations up to dim 16 get verify_algebra's
    report from the rule certificate: a constant bumped in a letter row or
    in the row of a longer word, a right-hand side bumped in a copy of the
    rules with the table kept or extracted from that copy, a word dropped
    from ``words`` or two of them swapped.  The tables that keep E's pass."""
    failed = Counter()
    for name, E, system in base_deformations:
        if E.dim > 16:
            continue
        rng = random.Random(f"rule-certificate:{name}")
        words = E.words
        mutants = []
        for kind, length in (("letter-row", 1), ("built-row", 2)):
            rows = [w for w in words if len(w) == length]
            mutants += [(kind, _row_bumped(E, rng.choice(rows), rng), system)
                        for _ in range(3)]
        for _ in range(3):
            lhs = rng.choice(sorted(system.rules))
            word = rng.choice(sorted(system.rules[lhs].terms) + [()])
            bumped = _rule_bumped(system, lhs, word)
            mutants += [("rule", E, bumped),
                        ("rule-extracted", extract_algebra(bumped, words), bumped)]
        dropped = list(words)
        del dropped[rng.randrange(len(words))]
        swapped = list(words)
        i, j = rng.sample(range(len(words)), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        mutants += [("dropped", _with(E, words=dropped), system),
                    ("swapped", _with(E, words=swapped), system)]
        for kind, algebra, rules in mutants:
            got, expected = _certificate_items(algebra, rules)
            assert got == expected, (name, kind)
            failed[kind] += not all(item.passed for item in expected)
    assert +failed == {"letter-row": 36, "built-row": 36, "rule-extracted": 18}


def test_only_a_letter_rule_table_on_its_own_words_skips_check_c(base_deformations):
    """Every base deformation's table is formed by the letter rule on its
    words, and so is its regrading's; a copy as a list of rows, or the same
    table under its words with two swapped, is not, and gets Light's test."""
    rng = random.Random("letter-rule-words")
    for name, E, _ in base_deformations:
        swapped = list(E.words)
        i, j = rng.sample(range(1, E.dim), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert E.by_letter_rule and E.regrade(E.degrees, 1).by_letter_rule, name
        assert not _with(E, table=list(E.table)).by_letter_rule, name
        assert not _with(E, words=swapped).by_letter_rule, name


def test_rule_extracted_mutants_of_the_dim32_bases_report_as_the_full_scan(
        base_deformations):
    """The tables extracted from a copy of the rules of each presentations
    base (dim 32) with one right-hand side bumped are formed by the letter
    rule, so the rule certificate decides them; each
    gets verify_algebra's report, item for item.  The 5 that pass bump
    x_i x_i -> 1 to 2: the Clifford algebra of another form."""
    failed = Counter()
    for name, E, system in base_deformations:
        if not name.startswith("presentations:"):
            continue
        rng = random.Random(f"rule-certificate:{name}")
        for _ in range(3):
            lhs = rng.choice(sorted(system.rules))
            word = rng.choice(sorted(system.rules[lhs].terms) + [()])
            bumped = _rule_bumped(system, lhs, word)
            algebra = extract_algebra(bumped, E.words)
            assert algebra.dim == 32 and algebra.by_letter_rule, name
            got, expected = _certificate_items(algebra, bumped)
            assert got == expected and list(algebra.table) != list(E.table), name
            failed[name] += not all(item.passed for item in expected)
    assert failed == {"presentations:1": 1, "presentations:2": 2, "presentations:3": 1}


def _stopped_by_one_check(check, base_deformations):
    """(table, rules) that pass the unit item and every check of the rule
    certificate but ``check``, and are not associative; for (c), a list
    table, which gets Light's test.  (a) The free
    algebra on x, y, with no rules, cut to the words 1, x, y with xx = y
    and yx = x: (xx)x = x but x(xx) = 0.  (c) skew3 seed 1's plus base with
    one constant bumped in the row of x1* x2* x3*, which no rule reads.
    (d) That base's table extracted from a copy of its rules with
    x2* x1* -> -x1* x2* bumped to x2* x1* -> 0: the normal words and the
    letter-row build stay, and the overlap x2* x1* x1* no longer
    resolves."""
    if check == "a":
        e = [{i: ONE} for i in range(3)]
        return (GradedAlgebra(["1", "x", "y"], [e, [e[1], e[2], {}], [e[2], e[1], {}]],
                              e[0], [(0,), (1,), (1,)], words=[(), (0,), (1,)]),
                RewriteSystem({}, ("x", "y"), 3))
    (E, system), = [(E, system) for name, E, system in base_deformations
                    if name == "skew3:1:plus.json"]
    if check == "c":
        return _row_bumped(E, (0, 1, 2), random.Random("rule-certificate:c")), system
    commuting = next(lhs for lhs in sorted(system.rules) if lhs[0] != lhs[1])
    word, = system.rules[commuting].terms
    return extract_algebra(_rule_bumped(system, commuting, word), E.words), system


@pytest.mark.parametrize("check", ["a", "c", "d"])
def test_each_rule_check_stops_a_table_that_the_others_pass(check,
                                                            base_deformations):
    """The full scan names the failure of each ``_stopped_by_one_check``
    table, as verify_algebra does."""
    algebra, system = _stopped_by_one_check(check, base_deformations)
    got, expected = _certificate_items(algebra, system)
    assert got == expected
    assert expected[0].passed and not expected[-1].passed
    assert expected[-1].detail.startswith("associativity fails at")


def test_verify_algebra_needs_every_generator():
    """K[Z2 x Z2] on 1, a, b, ab (index = bit pattern) with the signs of
    b ab and ab b flipped: a lies in the middle nucleus and b does not, so
    only triples with b in the middle find the failure."""
    table = [[{i ^ j: ONE} for j in range(4)] for i in range(4)]
    table[2][3] = table[3][2] = {1: Scalar(-1)}
    algebra = GradedAlgebra(["1", "a", "b", "ab"], table, {0: ONE},
                            [(0, 0), (1, 0), (0, 1), (1, 1)], group_rank=2)
    assert generating_set(algebra) == [1, 2]
    items = _items(verify_algebra(algebra))
    assert items == reference_verify_algebra(algebra)
    assert items[2][:2] == ("associativity", False)
    # with e_b as a false unit the closure misses b, so a failed unit item
    # must send the check over every middle
    no_unit = GradedAlgebra(algebra.labels, table, {2: ONE}, algebra.degrees, 2)
    assert generating_set(no_unit) == [0, 1]
    items = _items(verify_algebra(no_unit))
    assert items == reference_verify_algebra(no_unit)
    assert [passed for _, passed, _ in items] == [False, True, False]


def _generated_subalgebra(algebra, gens):
    """The span of the right products 1 g_1 ... g_k of the vectors ``gens``."""
    elim = SparseEliminator()
    elim.add(algebra.unit)
    work = [algebra.unit]
    while work:
        vec = work.pop()
        for g in gens:
            image = algebra.mul(vec, g)
            if elim.add(image):
                work.append(image)
    return Subspace.from_eliminator(elim, algebra.dim)


@given(st.data())
def test_restrict_coordinates_recombine_to_each_product(pipeline_algebras, data):
    algebra = data.draw(st.sampled_from(pipeline_algebras))
    gens = []
    for _ in range(data.draw(st.integers(0, 2))):
        degree = data.draw(st.sampled_from(sorted(set(algebra.degrees))))
        indices = [i for i in range(algebra.dim) if algebra.degrees[i] == degree]
        picked = data.draw(st.lists(st.sampled_from(indices), min_size=1,
                                    max_size=3, unique=True))
        gens.append({i: data.draw(st.sampled_from([ONE, -ONE, HALF, I]))
                     for i in picked})
    space = _generated_subalgebra(algebra, gens)
    restricted = restrict(algebra, space, algebra.unit)

    def recombine(coords):
        out = {}
        for k, c in coords.items():
            add_scaled(out, space.basis[k], c)
        return out

    assert restricted.dim == space.dim
    assert recombine(restricted.unit) == algebra.unit
    for k, u in enumerate(space.basis):
        assert restricted.degrees[k] == algebra.element_degree(u)
        for l, v in enumerate(space.basis):
            assert recombine(restricted.table[k][l]) == algebra.mul(u, v)
    assert verify_algebra(restricted).ok


def ref_restrict(algebra, space, unit):
    """restrict as it was on every span: each product's coordinates read
    through ``reduce_with_coords``."""
    degrees = [algebra.element_degree(row) for row in space.basis]

    def coords(vec, what):
        found, rem = space.reduce_with_coords(vec)
        if rem:
            raise DimensionMismatch(f"{what} lies outside the subspace")
        return found

    table = [[coords(algebra.mul(u, v), "a product") for v in space.basis]
             for u in space.basis]
    return GradedAlgebra([f"s{k}" for k in range(space.dim)], table,
                         coords(unit, "the unit"), degrees, algebra.group_rank)


def test_restrict_to_basis_vectors_matches_the_reduction(pipeline_algebras):
    """On the span of each pipeline algebra's degree-0 basis vectors,
    where Subspace.coords reads each coordinate with no reduction, restrict
    gives the tables, key order, unit, degrees and labels that reading each
    product through reduce_with_coords gives.  The span of the other basis
    vectors, which holds no unit, raises the same DimensionMismatch both
    ways."""
    for algebra in pipeline_algebras:
        zero = tuple([0] * algebra.group_rank)
        odd = [i for i in range(algebra.dim) if algebra.degrees[i] != zero]
        even = Subspace.from_rows(
            [{i: ONE} for i in algebra.component_indices(zero)], algebra.dim)
        new = restrict(algebra, even, algebra.unit)
        old = ref_restrict(algebra, even, algebra.unit)
        assert ([[list(v.items()) for v in row] for row in new.table]
                == [[list(v.items()) for v in row] for row in old.table])
        assert (list(new.unit.items()), new.degrees, new.labels) == (
            list(old.unit.items()), old.degrees, old.labels)
        span = Subspace.from_rows([{i: ONE} for i in odd], algebra.dim)
        messages = []
        for build in (restrict, ref_restrict):
            with pytest.raises(DimensionMismatch, match="lies outside") as exc:
                build(algebra, span, algebra.unit)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


def _capture(patch, name, sink, modules):
    """Patch ``name`` in ``modules`` to record its first argument in
    ``sink``, unless ``sink`` already holds that object."""
    real = getattr(algebra_module, name)

    def capture(arg, *rest):
        if not any(seen is arg for seen in sink):
            sink.append(arg)
        return real(arg, *rest)

    for module in modules:
        patch.setattr(module, name, capture)


@pytest.fixture(scope="module")
def skew3_certified():
    """(algebras, maps) that the knorrer pipelines certify, and the maps
    they check, on the skew3 benchmark inputs of seed 7."""
    algebras, maps = [], []
    with pytest.MonkeyPatch.context() as patch:
        _capture_certified(patch, algebras, maps)
        for name, blob in sorted(generate("skew3", 7).items()):
            data, central = parse_double_ore(json.loads(blob))
            run = knorrer.run_plus_case if name == "plus.json" else knorrer.run_minus_case
            assert run(data, central).checks.ok
    return algebras, maps


def _held_vectors(obj, found, seen):
    """Append to ``found`` every sparse vector that ``obj`` reaches through
    dataclass fields, tuples, lists and map tables: each product of a
    GradedAlgebra read through ``row`` and its unit, the columns of a
    GradedLinMap, the rows of a Subspace and the terms of a TensorElement."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    parts = ()
    if isinstance(obj, GradedAlgebra):
        found.append(obj.unit)
        found.extend(prod for i in range(obj.dim) for prod in obj.row(i))
    elif isinstance(obj, GradedLinMap):
        found.extend(obj.cols)
        parts = (obj.source, obj.target)
    elif isinstance(obj, Subspace):
        found.extend(obj.basis)
    elif isinstance(obj, TensorElement):
        found.append(obj.terms)
    elif isinstance(obj, MatrixHom):
        parts = obj.entries
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        parts = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (list, tuple)):
        parts = obj
    for part in parts:
        _held_vectors(part, found, seen)


def test_no_vector_stores_a_zero_so_eq_is_vector_equality(pipeline_algebras):
    """The registry algebras and everything a skew3:1 plus and minus run
    holds store no zero coefficient, so on them ``==`` gives the verdict of
    equality over the union of keys: checked on sampled pairs, most of them
    with one support, where the two verdicts could differ."""
    found, seen = [], set()
    _held_vectors(pipeline_algebras, found, seen)
    for name, blob in sorted(generate("skew3", 1).items()):
        data, central = parse_double_ore(json.loads(blob))
        run = knorrer.run_plus_case if name == "plus.json" else knorrer.run_minus_case
        _held_vectors(run(data, central), found, seen)
    assert len(found) > 5000
    assert all(v for vec in found for v in vec.values())
    rng = random.Random("one-vector-equality")
    by_support = {}
    for vec in found:
        by_support.setdefault(frozenset(vec), []).append(vec)
    groups = [group for group in by_support.values() if len(group) > 1]
    pairs = [rng.sample(rng.choice(groups), 2) for _ in range(3000)]
    pairs += [rng.sample(found, 2) for _ in range(1000)]
    verdicts = Counter(a == b for a, b in pairs)
    assert all((a == b) == ref_vec_eq(a, b) for a, b in pairs)
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_verify_algebra_matches_the_reference_on_skew3_mutants(skew3_certified):
    algebras, _ = skew3_certified
    rng = random.Random("verify-algebra-skew3-mutants")
    kinds = ("unit", "stored", "any")
    failed = {"unit": 0, "grading": 0, "associativity": 0}
    # each run builds its base deformation once; both extensions are
    # recorded from build_semitrivial, and the plus case's Lambda from
    # certify_by_iso; neither the oracles nor the mixing blocks get a table
    assert len(algebras) == 8
    for n, algebra in enumerate(algebras):
        items = _items(verify_algebra(algebra))
        assert items == reference_verify_algebra(algebra)
        assert all(passed for _, passed, _ in items)
        for kind in (kinds[n % 3], kinds[(n + 1) % 3]):
            mutant = _mutant(algebra, kind, rng)
            items = _items(verify_algebra(mutant))
            assert items == reference_verify_algebra(mutant), (n, kind)
            for name, passed, _ in items:
                failed[name] += not passed
    assert all(failed.values()), failed


# ---------------------------------------------------------------------------
# verify_iso against the loop over all basis pairs


def reference_verify_iso(linmap):
    """The check verify_iso made before it went through a generating set:
    multiplicativity on every basis pair.  Returns the first failing part,
    or "iso" when the map passes."""
    source, target = linmap.source, linmap.target
    if not source.dim == target.dim == linmap.rank():
        return "bijective"
    if linmap.apply(source.unit) != target.unit:
        return "unit"
    for i in range(source.dim):
        if any(target.degrees[k] != source.degrees[i] for k in linmap.cols[i]):
            return "degree"
    for i in range(source.dim):
        for j in range(source.dim):
            if (linmap.apply(source.table[i][j])
                    != target.mul(linmap.cols[i], linmap.cols[j])):
                return "multiplicative"
    return "iso"


@pytest.fixture(scope="module")
def registry_isos():
    """Every map that the five registry pipelines hand to verify_iso or
    certify_by_iso."""
    maps = []
    with pytest.MonkeyPatch.context() as patch:
        _capture_certified(patch, [], maps)
        # the scenarios check their base identifications by verify_iso
        _capture(patch, "verify_iso", maps, (scenarios,))
        for scenario_id in PIPELINE_SCENARIOS:
            assert run_scenario(scenario_id).ok
    return maps


def _column_mutant(linmap, rng):
    """``linmap`` with one coefficient bumped by 1, in a column outside the
    source unit's support and at a target index of that column's degree,
    so that most mutants reach the multiplicativity check."""
    source, target = linmap.source, linmap.target
    i = rng.choice([i for i in range(source.dim) if i not in source.unit])
    k = rng.choice([k for k in range(target.dim)
                    if target.degrees[k] == source.degrees[i]])
    cols = list(linmap.cols)
    cols[i] = _bumped(cols[i], k)
    return GradedLinMap(source, target, cols)


def test_verify_iso_matches_the_reference_on_pipeline_maps(registry_isos,
                                                           skew3_certified):
    # each minus run checks its involution once, where it checked it twice;
    # the oracles are certified without a map on their basis pairs
    assert len(registry_isos) == 9 and len(skew3_certified[1]) == 3
    maps = registry_isos + skew3_certified[1]
    rng = random.Random("verify-iso-mutants")
    verdicts = {}
    for n, linmap in enumerate(maps):
        assert verify_iso(linmap, generating_set(linmap.source)) and reference_verify_iso(linmap) == "iso"
        assert certify_by_iso(linmap, _whole(linmap.target))
        for _ in range(10):
            mutant = _column_mutant(linmap, rng)
            verdict = reference_verify_iso(mutant)
            assert verify_iso(mutant, generating_set(mutant.source)) == (verdict == "iso"), (n, verdict)
            assert certify_by_iso(mutant, _whole(mutant.target)) == (
                verdict == "iso"), (n, verdict)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
    assert verdicts.get("multiplicative", 0) >= 5 * len(maps), verdicts


def test_certify_by_iso_checks_the_pairs_a_generating_set_skips():
    """K[Z2 x Z2] on 1, a, b, ab (index = bit pattern) with the sign of
    e_ab e_ab flipped, mapped by the identity onto the true group algebra.
    The source is not associative, ((a b)(a b) = -1 but a (b (a b)) = 1),
    so verify_iso's precondition fails, and its pairs through S = [a, b]
    never meet (ab, ab): only the check on every pair rejects the map."""
    degrees = [(0, 0), (1, 0), (0, 1), (1, 1)]
    group = GradedAlgebra(["1", "a", "b", "ab"],
                          [[{i ^ j: ONE} for j in range(4)] for i in range(4)],
                          {0: ONE}, degrees, group_rank=2)
    table = [list(row) for row in group.table]
    table[3][3] = {0: Scalar(-1)}
    flipped = GradedAlgebra(group.labels, table, {0: ONE}, degrees, group_rank=2)
    assert verify_algebra(group).ok and not verify_algebra(flipped).ok
    assert generating_set(flipped) == [1, 2]
    identity = GradedLinMap(flipped, group, [{i: ONE} for i in range(4)])
    assert verify_iso(identity, generating_set(identity.source))
    assert reference_verify_iso(identity) == "multiplicative"
    assert not certify_by_iso(identity, _whole(group))


def test_certify_by_iso_checks_image_unit_and_degrees():
    """What a multiplicative injection leaves open.  K -> M_2, 1 -> E11,
    maps onto span(E11), the corner at E11, and is rejected onto span(E22),
    which has the same dimension.  The identity of K x K, from a copy whose
    unit names the idempotent e_0 alone, is multiplicative on every pair,
    but e_0 is no unit of the image.  The identity of K[Z2], from a copy
    that grades 1 odd and g even, which is no grading, moves degrees."""
    m2 = matrix_algebra_2x2()
    field = GradedAlgebra(["1"], [[{0: ONE}]], {0: ONE}, [(0,)])
    to_e11 = GradedLinMap(field, m2, [{0: ONE}])
    assert certify_by_iso(to_e11, corner_embedding(m2, {0: ONE}))
    assert not certify_by_iso(to_e11, corner_embedding(m2, {3: ONE}))
    table = [[{0: ONE}, {}], [{}, {1: ONE}]]
    product = GradedAlgebra(["e0", "e1"], table, {0: ONE, 1: ONE}, [(0,), (0,)])
    wrong_unit = GradedAlgebra(["e0", "e1"], table, {0: ONE}, [(0,), (0,)])
    assert certify_by_iso(GradedLinMap(product, product, [{0: ONE}, {1: ONE}]),
                          _whole(product))
    assert not certify_by_iso(GradedLinMap(wrong_unit, product, [{0: ONE}, {1: ONE}]),
                              _whole(product))
    group = group_algebra_z2()
    flipped = group.regrade([(1,), (0,)], 1)
    assert not verify_algebra(flipped).ok
    assert not certify_by_iso(GradedLinMap(flipped, group, [{0: ONE}, {1: ONE}]),
                              _whole(group))


class ProductsOnDemand(GradedAlgebra):
    """An algebra that keeps its products in a dict keyed by (i, j) and
    forms each row only when asked.  Reading ``table`` raises, so any
    consumer that reads the stored table, not ``row`` or ``mul``, fails."""

    __slots__ = ("products",)

    def _refuse(self):
        raise AssertionError("the structure table was read")

    def _keep(self, table):
        self.products = {(i, j): prod for i, row in enumerate(table)
                         for j, prod in enumerate(row)}

    table = property(_refuse, _keep)

    def row(self, i):
        return [self.products[i, j] for j in range(self.dim)]


def _verdicts(algebra, system, other):
    """What each product consumer says of ``algebra``, and of the identity
    maps between it and ``other``, an algebra on the same basis."""
    maps = [GradedLinMap(algebra, other, [{i: ONE} for i in range(algebra.dim)]),
            GradedLinMap(other, algebra, [{i: ONE} for i in range(algebra.dim)])]
    return (_items(verify_algebra(algebra)), _items(verify_algebra(algebra, system)),
            generating_set(algebra), radical(algebra).basis,
            strongly_graded_check(algebra), RightModule.regular(algebra).action,
            [verify_iso(m, generating_set(m.source)) for m in maps],
            [certify_by_iso(m, _whole(m.target)) for m in maps])


def test_every_consumer_reads_products_through_row_and_mul(base_deformations):
    """An algebra that stores its products another way gets the verdicts of
    its table-backed twin from every consumer: verify_algebra with and
    without the rules, generating_set, radical, strongly_graded_check,
    RightModule.regular, verify_iso and certify_by_iso.  On the registry
    and skew3 base deformations, and on a copy of each with one constant
    bumped in a letter row, compared against the deformation itself."""
    rng = random.Random("products-on-demand")
    failed = Counter()
    compared = 0
    for name, E, system in base_deformations:
        if name.startswith(("big:", "presentations:")):
            continue
        letters = [w for w in E.words if len(w) == 1]
        for algebra in (E, _row_bumped(E, rng.choice(letters), rng)):
            on_demand = ProductsOnDemand(algebra.labels, algebra.table, algebra.unit,
                                         algebra.degrees, algebra.group_rank,
                                         words=algebra.words)
            verdicts = _verdicts(algebra, system, E)
            assert _verdicts(on_demand, system, E) == verdicts, name
            failed[algebra is E] += not verdicts[0][2][1]
            compared += 1
    assert compared == 2 * 10 and failed == {True: 0, False: 10}, (compared, failed)
