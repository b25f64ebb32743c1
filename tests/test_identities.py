"""Differential tests of the double Ore identities, of sigma on degree 2
and of the twisting-system checks against the forms they replaced.

The references below are the earlier, separately written checks, kept here
only as test oracles: the dense g^2 x g^2 lift of sigma to V (x) V with its
column-wise descent to the degree-2 component, the relation and z checks
through that lift, sigma^! on degree-1 duals as an explicit transpose, the
composition and centrality conditions written out on dense sigma tables,
the double Ore validation with sigma's dense stacked inverse,
the sign-separated identities of the dualized table in each case, the
E x E and M_2(E) exchange loops that the certificate of the twisted
algebra replaced, and the theta-phi exchange loop.  Every differential
runs on the tables of the registry pipelines and of seeded skew bases, and
on one-coefficient mutants of each.
"""

import dataclasses
import itertools
import json
import random
from collections import Counter

import pytest

from conftest import dense_table, sigma_table, table_entries
from perfbench.workloads import generate, skew_double_ore
from reference_constructions import (
    identity_matrix,
    idempotent_basis,
    is_stacked_inverse,
    matrix_add,
    ref_basis_identities,
    ref_grading_failure,
    ref_twisted_algebra,
    ref_verify_twisting_suite,
    stacked_inverse,
    trivial_system,
)
from test_algebra import _bumped, reference_verify_algebra

from nqh import algebra as algebra_module, deform, twist
from nqh.algebra import (
    GradedAlgebra,
    GradedLinMap,
    MatrixHom,
    Report,
    _algebra_report,
    _associativity_failure,
    generating_set,
    is_t_inverse,
    t_inverse_table,
    verify_algebra,
    xi_automorphism,
)
from nqh.deform import (
    DoubleOreData,
    _composition_conditions,
    build_clifford,
    centrality_check_minus,
    centrality_check_plus,
    centrality_identities,
    composition_identities,
    dual_table_identities,
    dualize_hom,
    normalize_p11,
    validate_double_ore,
)
from nqh.exactlin import (
    ONE,
    ZERO,
    Scalar,
    TensorElement,
    add_scaled,
    matrix_mul,
    word_index,
)
from nqh.formats import parse_double_ore
from nqh.knorrer import _thetas
from nqh.scenarios import (
    EX_4_9_1,
    EX_4_9_2,
    EX_4_10,
    EX_5_9,
    KM1_PRESENTATION,
    PROP_5_1,
    PROP_5_10,
)
from nqh.twist import (
    BlockLayout,
    GradedBasisM2,
    TwistingSystemM2,
    _unit_value_invertible,
    standard_basis_m2,
    verify_twisting_M2,
    verify_twisting_prod,
    verify_twisting_suite,
)

MINUS_ONE = Scalar(-1)
REGISTRY_DOCS = (EX_4_10, EX_4_9_1, EX_4_9_2, EX_5_9, PROP_5_10)
POOL = (ONE, MINUS_ONE, Scalar(2), Scalar(1, 0, 0, 0, 2), Scalar(0, 0, 1))


# ---------------------------------------------------------------------------
# test-only references


def _ref_scale(matrix, coeff):
    return [[coeff * x for x in row] for row in matrix]


def ref_composition_holds_on(t, p12, p11):
    comp = matrix_mul
    lhs1 = matrix_add(comp(t[1][0], t[0][0]),
                      _ref_scale(comp(t[1][1], t[0][0]), p11))
    rhs1 = matrix_add(
        matrix_add(_ref_scale(comp(t[0][0], t[1][0]), p12),
                   _ref_scale(comp(t[0][1], t[1][0]), p12 * p11)),
        matrix_add(_ref_scale(comp(t[0][0], t[0][0]), p11),
                   _ref_scale(comp(t[0][1], t[0][0]), p11 * p11)),
    )
    if lhs1 != rhs1:
        return False
    lhs2 = comp(t[1][1], t[0][1])
    rhs2 = matrix_add(_ref_scale(comp(t[0][1], t[1][1]), p12),
                      _ref_scale(comp(t[0][1], t[0][1]), p11))
    if lhs2 != rhs2:
        return False
    lhs3 = matrix_add(_ref_scale(comp(t[1][1], t[0][0]), p12),
                      comp(t[1][0], t[0][1]))
    rhs3 = matrix_add(
        matrix_add(_ref_scale(comp(t[0][1], t[1][0]), p12 * p12),
                   _ref_scale(comp(t[0][0], t[1][1]), p12)),
        matrix_add(_ref_scale(comp(t[0][1], t[0][0]), p11 * p12),
                   _ref_scale(comp(t[0][0], t[0][1]), p11)),
    )
    return lhs3 == rhs3


def _ref_mixed_plus(s, mul, add):
    total = add(add(mul(s[0][0], s[0][1]), mul(s[1][0], s[1][1])),
                add(mul(s[0][1], s[0][0]), mul(s[1][1], s[1][0])))
    return all(not x for row in total for x in row)


def _ref_mixed_minus(s, mul, add):
    lhs = add(mul(s[0][0], s[0][1]), mul(s[1][0], s[1][1]))
    rhs = add(mul(s[0][1], s[0][0]), mul(s[1][1], s[1][0]))
    return lhs == rhs


def ref_centrality_holds_on(table, size, mixed_condition):
    ident = identity_matrix(size)
    if matrix_add(matrix_mul(table[0][0], table[0][0]),
                  matrix_mul(table[1][0], table[1][0])) != ident:
        return False
    if matrix_add(matrix_mul(table[0][1], table[0][1]),
                  matrix_mul(table[1][1], table[1][1])) != ident:
        return False
    return mixed_condition(table, matrix_mul, matrix_add)


def ref_lift_degree2(sigma, g):
    """Entry (i,j) of sigma on V (x) V via the matrix product rule, as a
    g^2 x g^2 matrix."""
    out = [[None] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            mat = [[ZERO] * (g * g) for _ in range(g * g)]
            for k in range(2):
                a = sigma[i][k]
                b = sigma[k][j]
                for c1 in range(g):
                    for r1 in range(g):
                        if not a[r1][c1]:
                            continue
                        for c2 in range(g):
                            for r2 in range(g):
                                if b[r2][c2]:
                                    mat[r1 * g + r2][c1 * g + c2] = (
                                        mat[r1 * g + r2][c1 * g + c2]
                                        + a[r1][c1] * b[r2][c2])
            out[i][j] = mat
    return out


def ref_matrix_on_component(presentation, big, n):
    """Descend a degree-n word-space matrix to the component basis."""
    words = presentation.component_basis_words(n)
    g = presentation.ngens
    cols = []
    for w in words:
        col = word_index(w, g)
        image = {r: row[col] for r, row in enumerate(big) if row[col]}
        tensor = TensorElement.from_coordinates(image, g, n)
        cols.append(presentation.reduce_mod_ideal(tensor, n))
    return [[cols[j].get(i, ZERO) for j in range(len(words))]
            for i in range(len(words))]


def ref_apply_lifted(mat, vec):
    """The sparse image of a sparse vector under a dense matrix."""
    image = {}
    for r, mrow in enumerate(mat):
        acc = sum((mrow[c] * v for c, v in vec.items()), start=ZERO)
        if acc:
            image[r] = acc
    return image


def ref_on_degree2(presentation, table):
    lifted = ref_lift_degree2(table, presentation.ngens)
    return [[ref_matrix_on_component(presentation, lifted[i][j], 2)
             for j in range(2)] for i in range(2)]


def ref_sigma_preserves_relations(presentation, sigma):
    g = presentation.ngens
    lifted = ref_lift_degree2(sigma, g)
    for row in presentation.relations.basis:
        for i in range(2):
            for j in range(2):
                if presentation.relations.reduce(ref_apply_lifted(lifted[i][j], row)):
                    return False
    return True


def ref_sigma_fixes_z(data, lift):
    """sigma(z) = diag(z, z) modulo relations, via the degree-2 lift."""
    g = data.ngens
    lifted = ref_lift_degree2(dense_table(data.sigma), g)
    zvec = lift.coordinates(g, 2)
    for i in range(2):
        for j in range(2):
            image = ref_apply_lifted(lifted[i][j], zvec)
            if i == j:
                add_scaled(image, zvec, MINUS_ONE)
            if not data.base.relations.contains(image):
                return False
    return True


def ref_dual_sigma_entry_on_generators(data):
    """sigma^! on degree-1 duals: the transpose of each sigma entry."""
    g = data.ngens
    sigma = dense_table(data.sigma)
    out = [[None] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            m = sigma[i][j]
            out[i][j] = [[m[c][r] for c in range(g)] for r in range(g)]
    return out


def ref_composition_conditions(data):
    sigma = dense_table(data.sigma)
    if not ref_composition_holds_on(sigma, data.p12, data.p11):
        return False
    return ref_composition_holds_on(ref_on_degree2(data.base, sigma),
                                    data.p12, data.p11)


def ref_centrality_conditions(data, lift, mixed_condition):
    sigma = dense_table(data.sigma)
    if not ref_centrality_holds_on(sigma, data.ngens, mixed_condition):
        return False
    if not ref_centrality_holds_on(ref_on_degree2(data.base, sigma),
                                   data.base.component_dim(2), mixed_condition):
        return False
    return ref_sigma_fixes_z(data, lift)


def ref_cor42_identities(sd, E):
    s = sd.entries
    ident = GradedLinMap.identity(E)
    ok = True
    ok &= (s[0][0].compose(s[0][0]) + s[1][0].compose(s[1][0])) == ident
    ok &= (s[0][1].compose(s[0][1]) + s[1][1].compose(s[1][1])) == ident
    total = (s[0][1].compose(s[0][0]) + s[1][1].compose(s[1][0])
             + s[0][0].compose(s[0][1]) + s[1][0].compose(s[1][1]))
    ok &= total.is_zero()
    ok &= s[0][0].compose(s[1][0]) == s[1][0].compose(s[0][0])
    ok &= s[0][1].compose(s[1][1]) == s[1][1].compose(s[0][1])
    ok &= (s[1][1].compose(s[0][0]) - s[0][1].compose(s[1][0])) == (
        s[0][0].compose(s[1][1]) - s[1][0].compose(s[0][1]))
    return ok


def ref_cor54_identities(sd, E):
    s = sd.entries
    ident = GradedLinMap.identity(E)
    ok = True
    ok &= (s[0][0].compose(s[0][0]) + s[1][0].compose(s[1][0])) == ident
    ok &= (s[0][1].compose(s[0][1]) + s[1][1].compose(s[1][1])) == ident
    ok &= (s[0][1].compose(s[0][0]) + s[1][1].compose(s[1][0])) == (
        s[0][0].compose(s[0][1]) + s[1][0].compose(s[1][1]))
    ok &= (s[0][0].compose(s[1][0]) + s[1][0].compose(s[0][0])).is_zero()
    ok &= (s[0][1].compose(s[1][1]) + s[1][1].compose(s[0][1])).is_zero()
    ok &= (s[1][1].compose(s[0][0]) + s[0][1].compose(s[1][0])) == (
        s[0][0].compose(s[1][1]) + s[1][0].compose(s[0][1]))
    return ok


def epsilon_basis():
    """The basis (1, 1), (1, -1) of k x k, as diag(1, 1) and diag(1, -1)."""
    return GradedBasisM2({(0, 1): ((ONE, ZERO), (ZERO, ONE)),
                          (0, 2): ((ONE, ZERO), (ZERO, MINUS_ONE))})


def ref_verify_twisting_prod(system):
    report = Report()
    E = system.algebra
    theta = system.theta[0]
    inv = t_inverse_table(theta)
    report.add("theta-t-invertible", inv is not None)
    if inv is None:
        return report
    system.t_inverses = (inv,)
    report.add("theta-unit-invertible", _unit_value_invertible(theta))
    ok = True
    detail = ""
    for x in range(E.dim):
        bx = E.basis_vec(x)
        pre = [[theta.entry(s, j).apply(bx) for j in (1, 2)] for s in (1, 2)]
        for y in range(E.dim):
            by = E.basis_vec(y)
            for j in (1, 2):
                for jp in (1, 2):
                    for p in (1, 2):
                        lhs = {}
                        for s in (1, 2):
                            for u in (1, 2):
                                coeff = system.basis.lval(0, 0, p, s, u)
                                if not coeff:
                                    continue
                                inner = E.mul(pre[s - 1][j - 1], by)
                                add_scaled(lhs, theta.entry(u, jp).apply(inner), coeff)
                        rhs = {}
                        for t in (1, 2):
                            for u in (1, 2):
                                coeff = system.basis.lval(0, 0, t, j, u)
                                if not coeff:
                                    continue
                                term = E.mul(theta.entry(p, t).apply(bx),
                                             theta.entry(u, jp).apply(by))
                                add_scaled(rhs, term, coeff)
                        if lhs != rhs:
                            ok = False
                            if not detail:
                                detail = f"fails at j={j} j'={jp} p={p} x={x} y={y}"
    report.add("product-exchange-identity", ok, detail)
    return report


def ref_verify_twisting_M2(system):
    """verify_twisting_M2 as a loop: the exchange identity on every pair of
    basis vectors, the first failure in (i', i'', x, y, j', j'', p) order."""
    report = Report()
    E = system.algebra
    basis = system.basis
    theta = system.theta
    report.add("basis-identities", ref_basis_identities(basis).ok)
    inverses = [t_inverse_table(table) for table in theta]
    for i in (0, 1):
        report.add(f"theta{i}-t-invertible", inverses[i] is not None)
    if any(inv is None for inv in inverses):
        return report
    report.add("theta1-unit-invertible", _unit_value_invertible(theta[1]))
    report.add("theta0-unit-invertible", _unit_value_invertible(theta[0]))
    detail = ""
    for ip, ipp, x, y in itertools.product((0, 1), (0, 1), range(E.dim),
                                           range(E.dim)):
        for jp, jpp, p in itertools.product((1, 2), repeat=3):
            lhs = {}
            rhs = {}
            for s in (1, 2):
                for u in (1, 2):
                    inner = E.mul(theta[ip].entry(s, jp).apply({x: ONE}), {y: ONE})
                    add_scaled(lhs, theta[ipp].entry(u, jpp).apply(inner),
                               basis.lval(ip, ipp, p, s, u))
                    outer = theta[(ip + ipp) % 2].entry(p, s).apply({x: ONE})
                    add_scaled(rhs, E.mul(outer, theta[ipp].entry(u, jpp).apply({y: ONE})),
                               basis.lval(ip, ipp, s, jp, u))
            if lhs != rhs:
                detail = (f"first failure at i'={ip} i''={ipp} j'={jp} j''={jpp}"
                          f" p={p} x={x} y={y}")
                break
        if detail:
            break
    report.add("exchange-identity", not detail, detail)
    return report


def ref_theta_phi_exchange(system):
    """The l-weighted exchange law between theta and the tables phi in
    ``system.t_inverses``, on every pair of basis vectors."""
    E = system.algebra
    basis = system.basis
    phis = system.t_inverses
    ok = True
    for i in (0, 1):
        for ip in (0, 1):
            th_ip = system.theta[ip]
            th_sum = system.theta[(i + ip) % 2]
            phi_i = phis[i]
            phi_ip = phis[ip]
            for x in range(E.dim):
                bx = E.basis_vec(x)
                phi_bx = [[phi_i.entry(q, j).apply(bx) for j in (1, 2)]
                          for q in (1, 2)]
                sum_phi = [[[[th_sum.entry(p, t).apply(phi_bx[q][j])
                              for j in range(2)] for q in range(2)]
                            for t in (1, 2)] for p in (1, 2)]
                for y in range(E.dim):
                    by = E.basis_vec(y)
                    phi_by = [[phi_ip.entry(r, j).apply(by) for j in (1, 2)]
                              for r in (1, 2)]
                    lhs_app = [[[th_ip.entry(u, j + 1).apply(
                                     E.mul(bx, phi_by[r][j]))
                                 for j in range(2)] for u in (1, 2)]
                               for r in range(2)]
                    rhs_app = [[[[E.mul(sum_phi[p][t][q][j], by)
                                  for j in range(2)] for q in range(2)]
                                for t in range(2)] for p in range(2)]
                    for p in (1, 2):
                        for q in (1, 2):
                            for r in (1, 2):
                                lhs = {}
                                for u in (1, 2):
                                    coeff = basis.lval(i, ip, p, q, u)
                                    if not coeff:
                                        continue
                                    for j in range(2):
                                        add_scaled(lhs, lhs_app[r - 1][u - 1][j], coeff)
                                rhs = {}
                                for t in (1, 2):
                                    for j in (1, 2):
                                        add_scaled(
                                            rhs, rhs_app[p - 1][t - 1][q - 1][j - 1],
                                            basis.lval(i, ip, t, j, r))
                                if lhs != rhs:
                                    ok = False
    return ok


# ---------------------------------------------------------------------------
# inputs and mutants


def _denormalized(data, p11):
    """Data with mixing pair (-1, p11) that normalize_p11 sends back to the
    p11 = 0 ``data``: the inverse of its change of variables, for p11 with
    1 + p11^2 / 4 = c^2 and c = 5/4 when p11 = 3/2."""
    h = p11 * Scalar(1, 0, 0, 0, 2)
    c = Scalar(5, 0, 0, 0, 4)
    n = dense_table(data.sigma)
    s01 = _ref_scale(n[0][1], c.inverse())
    s00 = matrix_add(n[0][0], _ref_scale(s01, -h))
    s11 = matrix_add(n[1][1], _ref_scale(s01, h))
    s10 = matrix_add(matrix_add(_ref_scale(n[1][0], c), _ref_scale(s11, -h)),
                     matrix_add(_ref_scale(s00, h), _ref_scale(s01, h * h)))
    return DoubleOreData(data.base, data.p12, p11,
                         sigma_table(((s00, s01), (s10, s11))))


def _transposed(data):
    sigma = [[[list(col) for col in zip(*m)] for m in row]
             for row in dense_table(data.sigma)]
    return dataclasses.replace(data, sigma=sigma_table(sigma))


def _sigma_mutant(data, rng):
    i, j = rng.randrange(2), rng.randrange(2)
    r, c = rng.randrange(data.ngens), rng.randrange(data.ngens)
    sigma = dense_table(data.sigma)
    sigma[i][j][r][c] = sigma[i][j][r][c] + rng.choice(POOL)
    return dataclasses.replace(data, sigma=sigma_table(sigma))


def _table_mutant(hom, rng):
    i, j = rng.randrange(2), rng.randrange(2)
    entry = hom.entries[i][j]
    dim = entry.source.dim
    col, key = rng.randrange(dim), rng.randrange(dim)
    cols = [dict(c) for c in entry.cols]
    value = cols[col].get(key, ZERO) + rng.choice(POOL)
    if value:
        cols[col][key] = value
    else:
        cols[col].pop(key, None)
    entries = [list(row) for row in hom.entries]
    entries[i][j] = GradedLinMap(entry.source, entry.target, cols)
    return MatrixHom(entries)


@pytest.fixture(scope="module")
def pipeline_inputs():
    """(data, lift, base deformation, sigma^!) of the registry's five
    pipeline inputs and of skew3 seeds 1-3, plus and minus."""
    docs = list(REGISTRY_DOCS)
    for seed in (1, 2, 3):
        docs.extend(json.loads(blob)
                    for _, blob in sorted(generate("skew3", seed).items()))
    out = []
    for doc in docs:
        data, lift = parse_double_ore(doc)
        base = build_clifford(data.base, lift)
        out.append((data, lift, base, dualize_hom(data, base)))
    return out


# ---------------------------------------------------------------------------
# sigma on V and on the degree-2 component


def _sigma_tables(pipeline_inputs):
    """Every seeded sigma, its entrywise transpose, its p11 = 3/2 preimage
    in the minus case, and eight one-coefficient mutants of each."""
    rng = random.Random("sigma-identity-mutants")
    tables = []
    for data, lift, _, _ in pipeline_inputs:
        family = [data, _transposed(data)]
        if data.p12 == MINUS_ONE:
            family.append(_denormalized(data, Scalar(3, 0, 0, 0, 2)))
        for member in family:
            tables.append((member, lift))
            tables.extend((_sigma_mutant(member, rng), lift) for _ in range(8))
    return tables


def test_sigma_on_degree2_matches_the_reference(pipeline_inputs):
    """_on_degree2 of sigma and of its Def-1.1 inverse phi, relation
    preservation and z-fixing agree with the dense lift on every table."""
    preserved = []
    fixed = []
    inverses = 0
    for data, lift in _sigma_tables(pipeline_inputs):
        base = data.base
        sigma = dense_table(data.sigma)
        assert dense_table(data.sigma_on_degree2) == ref_on_degree2(base, sigma)
        tables = [sigma]
        phi = stacked_inverse(sigma)
        if phi is not None:
            inverses += 1
            tables.append(phi)
            assert (dense_table(deform._on_degree2(data, sigma_table(phi)))
                    == ref_on_degree2(base, phi))
        for table in tables:
            verdict = deform._sigma_preserves_relations(base, sigma_table(table))
            assert verdict == ref_sigma_preserves_relations(base, table)
            preserved.append(verdict)
        verdict = deform._sigma_fixes_z(data, lift)
        assert verdict == ref_sigma_fixes_z(data, lift)
        fixed.append(verdict)
    assert inverses >= 200
    assert preserved.count(True) >= 100 and preserved.count(False) >= 300
    assert fixed.count(True) >= 50 and fixed.count(False) >= 150


def test_dualize_hom_maps_generators_by_the_transpose(pipeline_inputs):
    for data, _, base, sd in pipeline_inputs:
        E = base.algebra
        transposed = ref_dual_sigma_entry_on_generators(data)
        for a in range(data.ngens):
            x = E.words.index((a,))
            for i in range(2):
                for j in range(2):
                    want = {E.words.index((b,)): transposed[i][j][b][a]
                            for b in range(data.ngens) if transposed[i][j][b][a]}
                    assert sd.entries[i][j].cols[x] == want


def test_composition_identities_match_the_reference_on_sigma(pipeline_inputs):
    tables = _sigma_tables(pipeline_inputs)
    verdicts = []
    for data, _ in tables:
        verdict = _composition_conditions(data)
        assert verdict == ref_composition_conditions(data)
        for p12, p11 in ((data.p12, data.p11), (ONE, ZERO), (MINUS_ONE, ZERO),
                         (MINUS_ONE, Scalar(3, 0, 0, 0, 2))):
            assert (composition_identities(data.sigma, p12, p11)
                    == ref_composition_holds_on(dense_table(data.sigma), p12, p11))
        verdicts.append(verdict)
    assert len(tables) >= 200
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_composition_identities_see_the_order_of_composition():
    """With (p12, p11) = (1, 1), sigma_12 = 0 and sigma_22 = 1 the
    identities reduce to sigma_21 sigma_11 - sigma_11 sigma_21 =
    sigma_11^2 - sigma_11, which this table satisfies and its entrywise
    transpose, the same identities in the opposite composition order, does
    not."""
    def matrix(rows):
        return [[Scalar(x) for x in row] for row in rows]

    table = ((matrix([[1, 1], [0, 1]]), matrix([[0, 0], [0, 0]])),
             (matrix([[1, 0], [0, 0]]), matrix([[1, 0], [0, 1]])))
    transposed = tuple(tuple([list(c) for c in zip(*m)] for m in row)
                       for row in table)
    for t, expected in ((table, True), (transposed, False)):
        assert composition_identities(sigma_table(t), ONE, ONE) is expected
        assert ref_composition_holds_on(t, ONE, ONE) is expected


def test_denormalized_tables_are_valid_double_ore_data(pipeline_inputs):
    """The p11 != 0 preimages pass every double Ore condition, so the
    differential above also sees accepted tables with p11 terms."""
    minus = [data for data, _, _, _ in pipeline_inputs if data.p12 == MINUS_ONE]
    assert len(minus) >= 4
    for data in minus:
        report, _ = validate_double_ore(_denormalized(data, Scalar(3, 0, 0, 0, 2)))
        assert report.ok


def test_centrality_identities_match_the_reference_on_sigma(pipeline_inputs):
    verdicts = []
    for data, lift in _sigma_tables(pipeline_inputs):
        if data.p11:
            continue
        for p12, check, mixed in ((ONE, centrality_check_plus, _ref_mixed_plus),
                                  (MINUS_ONE, centrality_check_minus,
                                   _ref_mixed_minus)):
            case_data = dataclasses.replace(data, p12=p12)
            verdict = check(case_data, lift)
            assert verdict == ref_centrality_conditions(case_data, lift, mixed)
            verdicts.append(verdict)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 300


def ref_validate_double_ore(data):
    """validate_double_ore as it was on dense sigma tables, with the
    Def-1.1 inverse from ``stacked_inverse`` checked by
    ``is_stacked_inverse`` on V and on the degree-2 component."""
    sigma, base = dense_table(data.sigma), data.base
    report = Report()
    report.add("p12-nonzero", bool(data.p12), "" if data.p12 else "p12 must be nonzero")
    shape = all(len(m) == data.ngens and all(len(row) == data.ngens for row in m)
                for pair in sigma for m in pair)
    report.add("sigma-shape", shape)
    if not (data.p12 and shape):
        return report, None
    report.add("sigma-preserves-relations",
               ref_sigma_preserves_relations(base, sigma))
    report.add("composition-conditions", ref_composition_conditions(data))
    phi = stacked_inverse(sigma)
    if phi is not None and not (
            is_stacked_inverse(sigma, phi)
            and ref_sigma_preserves_relations(base, phi)
            and is_stacked_inverse(ref_on_degree2(base, sigma),
                                   ref_on_degree2(base, phi))):
        phi = None
    report.add("sigma-invertible", phi is not None)
    return report, phi


def _singular(data):
    """The table whose second row repeats its first, so that sigma_1k and
    sigma_2k agree for each k and the stacked matrix is singular."""
    first = dense_table(data.sigma)[0]
    return dataclasses.replace(data, sigma=sigma_table([first, first]))


def test_the_sparse_sigma_route_matches_the_dense_one(
        double_ore_class_z, double_ore_class_t, double_ore_class_r):
    """On the registry's tables, the class-Z, T and R fixtures, skew3 seeds
    1-7, big:4 and big:5, and a p11 = 2 minus datum before and after
    normalize_p11, and on a one-coefficient mutant and a singular variant of
    each: validate_double_ore gives the dense route's items, and phi is the
    dense phi on V and on the degree-2 component.  Where phi exists, it and
    sigma pass is_t_inverse as they pass is_stacked_inverse, and a
    one-coefficient mutant of phi fails both.  The dense route also checks
    phi on the relations and on the degree-2 component, which
    ``invert_sigma`` proves implied once sigma-preserves-relations passes:
    so only the sigma-invertible item of a table that fails
    sigma-preserves-relations may differ, and never the first failure."""
    docs = [EX_4_10, EX_4_9_1, EX_4_9_2, EX_5_9, PROP_5_1, PROP_5_10]
    for seed in range(1, 8):
        docs.extend(json.loads(blob)
                    for _, blob in sorted(generate("skew3", seed).items()))
    docs += [skew_double_ore(random.Random(f"big:{g}"), g, p12)
             for g in (4, 5) for p12 in (1, -1)]
    negated = {"x1": {"x1": "-1"}, "x2": {"x2": "-1"}}
    p11_two, _ = parse_double_ore({**KM1_PRESENTATION, "p12": "-1", "p11": "2",
                                   "sigma": {"11": negated, "12": {}, "21": {},
                                             "22": negated}})
    inputs = [parse_double_ore(doc)[0] for doc in docs]
    inputs += [double_ore_class_z, double_ore_class_t, double_ore_class_r,
               p11_two, normalize_p11(p11_two)]
    rng = random.Random("sparse-sigma-route")
    verdicts = Counter()
    moved = 0
    for data in [member for data in inputs
                 for member in (data, _sigma_mutant(data, rng), _singular(data))]:
        report, phi = validate_double_ore(data)
        ref_report, ref_phi = ref_validate_double_ore(data)
        items, ref_items = _items(report), _items(ref_report)
        assert report.first_failure() == ref_report.first_failure()
        verdicts[report.ok] += 1
        if items != ref_items:
            assert ref_items[2] == ("sigma-preserves-relations", False, "")
            assert items[:4] == ref_items[:4] and ref_phi is None
            moved += 1
            continue
        assert (phi is None) == (ref_phi is None)
        if phi is None:
            continue
        assert dense_table(phi) == ref_phi
        assert (dense_table(deform._on_degree2(data, phi))
                == ref_on_degree2(data.base, ref_phi))
        sigma = dense_table(data.sigma)
        for table, expected in ((phi, True), (_table_mutant(phi, rng), False)):
            assert is_t_inverse(table, data.sigma) is expected
            assert is_stacked_inverse(sigma, dense_table(table)) is expected
    assert verdicts[True] >= 30 and verdicts[False] >= 50
    # 20 mutants fail sigma-preserves-relations and have a phi that the
    # dense route rejected on the relations or on the degree-2 component
    assert moved == 20


# ---------------------------------------------------------------------------
# the dualized table sigma^! over E


def test_dual_table_identities_match_the_reference(pipeline_inputs):
    rng = random.Random("dual-identity-mutants")
    verdicts = {ONE: [], MINUS_ONE: []}
    for data, _, base, sd in pipeline_inputs:
        E = base.algebra
        for table in [sd] + [_table_mutant(sd, rng) for _ in range(20)]:
            for p12, reference in ((ONE, ref_cor42_identities),
                                   (MINUS_ONE, ref_cor54_identities)):
                verdict = (composition_identities(table, p12, ZERO)
                           and centrality_identities(table, p12))
                assert verdict == reference(table, E)
                verdicts[p12].append(verdict)
            case_reference = (ref_cor42_identities if data.p12 == ONE
                              else ref_cor54_identities)
            assert dual_table_identities(data, table) == case_reference(table, E)
    for found in verdicts.values():
        assert found.count(True) >= 30 and found.count(False) >= 150


# ---------------------------------------------------------------------------
# the E x E exchange loop


def _items(report):
    return [(item.name, item.passed, item.detail) for item in report.items]


def _certificate_items(system):
    """The items of the twisted algebra's certificate, asserted equal to
    those of verify_algebra and of its reference on the same table."""
    items = _items(system.certificate)
    assert items == _items(verify_algebra(system.twisted))
    assert items == reference_verify_algebra(system.twisted)
    return items


def test_one_theta_helper_gives_the_tables_of_both_cases(pipeline_inputs):
    """``_thetas`` gives theta^(0) with the same first row and zero entry
    (2, 1) in both cases, entry (2, 2) s22 s11 - s12 s21 for p12 = 1 and
    s22 s11 + s12 s21 for p12 = -1, and theta^(1) = (s_ij xi) only for
    p12 = 1: the tables of the two former per-case helpers."""
    for data, _, base, sd in pipeline_inputs:
        E, s = base.algebra, sd.entries
        (minus,) = _thetas(sd, E, MINUS_ONE)
        theta0, theta1 = _thetas(sd, E, ONE)
        first = (GradedLinMap.identity(E),
                 s[0][1].compose(s[0][0]) + s[1][1].compose(s[1][0]))
        assert minus.entries[0] == theta0.entries[0] == first
        assert minus.entry(2, 1) == theta0.entry(2, 1) == GradedLinMap.zero(E)
        assert minus.entry(2, 2) == s[1][1].compose(s[0][0]) + s[0][1].compose(s[1][0])
        assert theta0.entry(2, 2) == s[1][1].compose(s[0][0]) - s[0][1].compose(s[1][0])
        xi = xi_automorphism(E, MINUS_ONE)
        assert theta1.entries == tuple(tuple(s[i][j].compose(xi) for j in range(2))
                                       for i in range(2))


def test_product_exchange_loop_matches_the_reference(pipeline_inputs):
    rng = random.Random("product-exchange-mutants")
    basis = epsilon_basis()
    rejected = accepted = 0
    associative = Counter()
    for data, _, base, sd in pipeline_inputs:
        if data.p12 != MINUS_ONE:
            continue
        E = base.algebra
        (theta,) = _thetas(sd, E, MINUS_ONE)
        for table in [theta] + [_table_mutant(theta, rng) for _ in range(12)]:
            system = TwistingSystemM2(E, (table,), basis)
            items = _items(verify_twisting_prod(system))
            assert items == _items(ref_verify_twisting_prod(
                TwistingSystemM2(E, (table,), basis)))
            if len(items) == 3:
                rejected += not items[2][1]
                accepted += items[2][1]
                associative[_certificate_items(system)[2][1]] += 1
    assert accepted >= 5 and rejected >= 30
    assert associative[True] >= 5 and associative[False] >= 30


# ---------------------------------------------------------------------------
# the M_2(E) exchange identity and the theta-phi law through the certificate


@pytest.fixture(scope="module")
def m2_tables(pipeline_inputs):
    """(E, (theta0, theta1)) of the plus-case construction on the registry
    inputs and skew3 seeds 1-4, plus and minus; on a minus input the
    construction need not give a twisting system."""
    inputs = list(pipeline_inputs)
    for _, blob in sorted(generate("skew3", 4).items()):
        data, lift = parse_double_ore(json.loads(blob))
        base = build_clifford(data.base, lift)
        inputs.append((data, lift, base, dualize_hom(data, base)))
    return [(base.algebra, _thetas(sd, base.algebra, ONE))
            for _, _, base, sd in inputs]


def _table_mutants(tables, rng, count):
    out = []
    for _ in range(count):
        k = rng.randrange(len(tables))
        mutant = list(tables)
        mutant[k] = _table_mutant(tables[k], rng)
        out.append(tuple(mutant))
    return out


def test_m2_exchange_certificate_matches_the_loop(m2_tables):
    rng = random.Random("m2-exchange-mutants")
    basis = standard_basis_m2()
    verdicts = []
    associative = Counter()
    for E, tables in m2_tables:
        for theta in [tables] + _table_mutants(tables, rng, 4):
            system = TwistingSystemM2(E, theta, basis)
            items = _items(verify_twisting_M2(system))
            assert items == _items(ref_verify_twisting_M2(
                TwistingSystemM2(E, theta, basis)))
            if len(items) == 6:
                verdicts.append(items[5][1])
                associative[_certificate_items(system)[2][1]] += 1
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 40
    assert associative[True] >= 10 and associative[False] >= 40


def test_twisted_tables_match_the_per_block_loop(pipeline_inputs):
    """_twisted_algebra, whose rule forms each cell when it is read, from
    products theta^(i')_{sj'}(e_b) e_b' shared between the left blocks,
    gives the cells and unit of the loop that formed every product again
    for each left block, entry for entry and in key order, with every cell
    read: on the registry, skew3 seeds 1-7 and
    big:4, plus and minus, through the case's own construction, on
    M_2(E) over the standard basis or on E x E over the epsilon basis and
    the idempotent one (a test fake, ``idempotent_basis``), and on a
    one-coefficient mutant of each theta."""
    inputs = [(data, base, sd) for data, _, base, sd in pipeline_inputs]
    docs = [json.loads(blob) for seed in range(4, 8)
            for _, blob in sorted(generate("skew3", seed).items())]
    docs += [skew_double_ore(random.Random("big:4"), 4, p12) for p12 in (1, -1)]
    for doc in docs:
        data, lift = parse_double_ore(doc)
        base = build_clifford(data.base, lift)
        inputs.append((data, base, dualize_hom(data, base)))
    rng = random.Random("twisted-table-mutants")
    compared = Counter()
    for data, base, sd in inputs:
        E = base.algebra
        if data.p12 == ONE:
            tables = _thetas(sd, E, ONE)
            cases = [(tables, standard_basis_m2())]
        else:
            tables = _thetas(sd, E, MINUS_ONE)
            cases = [(tables, epsilon_basis()), (tables, idempotent_basis())]
        cases += [(_table_mutants(theta, rng, 1)[0], basis) for theta, basis in cases]
        for theta, basis in cases:
            system = TwistingSystemM2(E, theta, basis)
            system.t_inverses = tuple(map(t_inverse_table, theta))
            if None in system.t_inverses:
                continue
            new, ref = twist._twisted_algebra(system), ref_twisted_algebra(system)
            assert table_entries(new) == table_entries(ref)
            assert new.unit == ref.unit
            assert (new.labels, new.degrees) == (ref.labels, ref.degrees)
            compared[len(basis.halves), theta is tables] += 1
    assert compared[2, True] == 11 and compared[1, True] == 20
    assert compared[2, False] >= 10 and compared[1, False] >= 18


def _degree_breaking_mutant(tables, rng):
    """``tables`` with one column of one entry given one more key, a basis
    vector of a degree other than the column's."""
    k, i, j = rng.randrange(len(tables)), rng.randrange(2), rng.randrange(2)
    entry = tables[k].entries[i][j]
    E = entry.source
    b = rng.randrange(E.dim)
    cols = [dict(col) for col in entry.cols]
    cols[b][rng.choice([c for c in range(E.dim) if E.degrees[c] != E.degrees[b]])] = ONE
    entries = [list(row) for row in tables[k].entries]
    entries[i][j] = GradedLinMap(E, E, cols)
    return tables[:k] + (MatrixHom(entries),) + tables[k + 1:]


def test_the_grading_item_read_off_theta_is_the_scans(pipeline_inputs, monkeypatch):
    """The twisted algebra's grading item is read off theta's columns and
    the products held when it runs, and the full scan runs only when that
    check fails.  On each pipeline input's twisting system, as built and
    with three mutants whose theta sends one basis vector off its degree,
    the item's verdict and detail are those of the key-by-key scan of every
    cell (``ref_grading_failure``), and only the mutants are scanned."""
    scans = []
    real = algebra_module._grading_failure

    def recording(algebra, cells=None):
        scans.append(cells is None)
        return real(algebra, cells)

    monkeypatch.setattr(algebra_module, "_grading_failure", recording)
    rng = random.Random("theta-degree-mutants")
    verdicts = Counter()
    for data, _, base, sd in pipeline_inputs:
        E = base.algebra
        plus = data.p12 == ONE
        tables = _thetas(sd, E, data.p12)
        basis = standard_basis_m2() if plus else epsilon_basis()
        inverses = tuple(map(t_inverse_table, tables))
        for n in range(4):
            theta = _degree_breaking_mutant(tables, rng) if n else tables
            system = TwistingSystemM2(E, theta, basis)
            system.t_inverses = inverses
            twisted = twist._twisted_algebra(system)
            scans.clear()
            item = _algebra_report(twisted, generating_set(twisted), theta=theta).items[1]
            failure = ref_grading_failure(twisted)
            assert (item.name, item.passed) == ("grading", failure is None)
            assert item.detail == ("" if failure is None else
                                   "product ({},{}) hits degree of basis {}"
                                   .format(*failure))
            assert any(scans) == bool(n), (n, scans)
            verdicts[bool(n), item.passed] += 1
    assert verdicts == {(False, True): 11, (True, False): 33}, verdicts


def _restricted_scan(system, first_pairs=(1, 2), last_halves=(0, 1)):
    """``twist._certify_exchange``'s restricted Light's test on the
    system's twisted algebra, or a weaker one with fewer first factors
    I(0)_j or last factors I(i'')_j'' 1."""
    E, twisted = system.algebra, system.twisted
    layout = BlockLayout(E, system.basis)
    firsts = [layout.index(0, j, b) for j in first_pairs for b in range(E.dim)]
    lasts = [layout.index(i, j, k) for i in layout.halves if i in last_halves
             for j in (1, 2) for k in E.unit]
    return _associativity_failure(twisted, generating_set(twisted),
                                  firsts, lasts)


def test_each_part_of_the_restricted_certificate_is_needed(m2_tables):
    """Three twisted algebras that are not associative, each passing a
    restricted test that drops one part.

    - E's certificate, the precondition of the restricted test.  Bump one
      structure constant of a registry E so that E fails only its
      associativity item.  The trivial system's twisted table, plain
      M_2(E), passes every restricted triple, since (x y) 1 = x (y 1) holds
      in E: its certificate passes, and only the full verify_algebra of the
      table finds it not associative.

    The other two fail their certificate as verify_algebra does.

    - The I(1) half of the last factors.  theta^(0) = id and
      theta^(1) = diag(f, f) with f linear, fixing 1 and not
      multiplicative: the exchange identity holds at i'' = 0 and fails at
      i'' = 1, where it reads f(x y) = f(x) f(y).
    - The first factors I(0)_2.  Over k x k, the idempotent basis
      diag(1, 0), diag(0, 1), a test fake, with gamma = (1, 1); its l passes
      its identities, but contracting with gamma needs both j.  With
      theta = [[id, 0], [h, id - h]] and h = 2 times the projection onto a
      basis vector other than 1, the twisted product is unital, and the
      triples with first factor I(0)_1 see only the exchange identity at
      p = 1, which holds.
    """
    E, _ = m2_tables[0]

    def bumped(a, b, k):
        table = [list(row) for row in E.table]
        table[a][b] = _bumped(table[a][b], k)
        return GradedAlgebra(E.labels, table, E.unit, E.degrees, E.group_rank)

    mutants = (bumped(a, b, k) for a, b in itertools.product(range(E.dim), repeat=2)
               for k in sorted(E.table[a][b]))
    bad = next(mutant for mutant in mutants if [
        item.passed for item in verify_algebra(mutant).items] == [True, True, False])
    (unit,) = E.unit
    top = E.dim - 1
    assert unit != top and E.table[top][top]
    f = GradedLinMap(E, E, [{b: Scalar(2) if b == top else ONE}
                            for b in range(E.dim)])
    h = GradedLinMap(E, E, [{b: Scalar(2)} if b == top else {} for b in range(E.dim)])
    ident, zero = GradedLinMap.identity(E), GradedLinMap.zero(E)
    idempotent = idempotent_basis()
    assert ref_basis_identities(idempotent).ok
    unchecked = trivial_system(bad, standard_basis_m2())
    verify_twisting_M2(unchecked)
    assert _restricted_scan(unchecked) is None
    assert _items(unchecked.certificate)[2][:2] == ("associativity", True)
    full = reference_verify_algebra(unchecked.twisted)
    assert _items(verify_algebra(unchecked.twisted)) == full
    assert full[2][:2] == ("associativity", False)
    witnesses = (
        (TwistingSystemM2(E, (MatrixHom([[ident, zero], [zero, ident]]),
                              MatrixHom([[f, zero], [zero, f]])),
                          standard_basis_m2()), {"last_halves": (0,)}),
        (TwistingSystemM2(E, (MatrixHom([[ident, zero], [h, ident - h]]),), idempotent),
         {"first_pairs": (1,)}),
    )
    for system, weaker in witnesses:
        verify = verify_twisting_M2 if system.basis.halves == (0, 1) else verify_twisting_prod
        verify(system)
        assert _restricted_scan(system, **weaker) is None
        items = _certificate_items(system)
        assert items[2][:2] == ("associativity", False)
        assert items[2][2].startswith("associativity fails at ")


def test_theta_phi_exchange_matches_the_loop(m2_tables):
    """The suite's theta-phi-exchange item agrees with the loop on verified
    systems, accepted or not: the paper's tables and four one-coefficient
    mutants of each."""
    rng = random.Random("theta-phi-mutants")
    basis = standard_basis_m2()
    verdicts = []
    for E, tables in m2_tables:
        for theta in [tables] + _table_mutants(tables, rng, 4):
            system = TwistingSystemM2(E, theta, basis)
            verify_twisting_M2(system)
            if system.t_inverses is None:
                continue
            items = {item.name: item.passed
                     for item in verify_twisting_suite(system).items}
            assert items["theta-phi-exchange"] == ref_theta_phi_exchange(system)
            verdicts.append(items["theta-phi-exchange"])
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 50


def test_the_suite_reads_its_gamma_items_off_the_certificate(m2_tables):
    """The suite reads its gamma items off the exchange verdict and the
    twisted algebra's unit item; ``ref_verify_twisting_suite`` derives
    them by the loops that this replaced.  On each m2_tables system and on
    12 one-coefficient theta mutants of each: the verdicts are equal, no
    item passes where the loop's fails, and on an accepted system the items
    are equal."""
    rng = random.Random("gamma-read-off-mutants")
    basis = standard_basis_m2()
    counts = Counter()
    for E, tables in m2_tables:
        for theta in [tables] + _table_mutants(tables, rng, 12):
            system = TwistingSystemM2(E, theta, basis)
            accepted = verify_twisting_M2(system).ok
            if system.t_inverses is None:
                counts["no t-inverse"] += 1
                continue
            items = _items(verify_twisting_suite(system))
            ref = _items(ref_verify_twisting_suite(system))
            assert [name for name, _, _ in items] == [name for name, _, _ in ref]
            assert all(theirs or not ours
                       for (_, ours, _), (_, theirs, _) in zip(items, ref))
            ok = all(passed for _, passed, _ in items)
            assert ok == all(passed for _, passed, _ in ref)
            if accepted:
                assert items == ref
            counts["verified", accepted, ok] += 1
    # 13 systems and 156 theta mutants, of which 2 have no t-inverse
    assert counts == {"no t-inverse": 2, ("verified", True, True): 12,
                      ("verified", False, False): 155}, counts


def test_the_suite_forms_no_product(m2_tables, monkeypatch):
    """On every accepted m2_tables system the suite passes without
    multiplying in any algebra: its items are read off checks already
    made."""
    basis = standard_basis_m2()
    systems = [TwistingSystemM2(E, tables, basis) for E, tables in m2_tables]
    systems = [system for system in systems if verify_twisting_M2(system).ok]
    calls = []
    for name in ("mul", "row"):
        real = getattr(GradedAlgebra, name)
        monkeypatch.setattr(GradedAlgebra, name,
                            lambda self, *args, real=real: calls.append(self)
                            or real(self, *args))
    assert len(systems) >= 10
    for system in systems:
        assert verify_twisting_suite(system).ok
    assert calls == []
