import dataclasses
import hashlib
import json
import random
import re
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import (
    diagonal_sigma,
    recording_output,
    ref_extract_algebra,
    table_entries,
)
from reference_constructions import (
    certify_by_iso,
    normal_form,
    plain_m2,
    ref_certify_by_iso,
    ref_certify_onto,
    ref_degree0_radical_dim,
    ref_full_idempotent_check,
    ref_grading_failure,
    ref_lemma46_pairs,
    ref_radical_dims,
    ref_zhang_twist,
    verify_hom_M2,
    verify_module,
)
from test_cli import _twist_doc

from perfbench.workloads import encode, generate, skew_double_ore, write_inputs

from nqh import algebra as algebra_module, deform, knorrer, scenarios, twist
from nqh.cli import main
from nqh.formats import parse_double_ore

from nqh.errors import DimensionMismatch, NqhError, RelationViolated, WrongP
from nqh.exactlin import HALF, I, ONE, Scalar, Subspace, TensorElement, ZERO
from nqh.algebra import (
    GradedAlgebra,
    GradedLinMap,
    MatrixHom,
    Report,
    RightModule,
    add_degrees,
    corner_embedding,
    full_idempotent_check,
    generating_set,
    hom_dim,
    is_absolutely_simple,
    is_nilpotent_element,
    radical,
    restrict,
    spin,
    strongly_graded_check,
    vec_add,
    vec_scale,
    vec_sub,
    verify_algebra,
    verify_decomposition,
    verify_iso,
    xi_automorphism,
)
from nqh.deform import CaseKind, DoubleOreData, p12_classify
from nqh.knorrer import (
    prop51_scenario,
    run_minus_case,
    run_plus_case,
    singularity_report,
)
from nqh.rewrite import RewriteSystem, extract_algebra
from nqh.scenarios import (
    EX_4_9_1,
    EX_4_9_2,
    EX_4_10,
    EX_5_9,
    PROP_5_10,
    run_scenario,
)
from nqh.twist import (
    BlockLayout,
    SemiTrivialData,
    build_semitrivial,
    semitrivial_mu,
    standard_basis_m2,
)

MINUS_ONE = Scalar(-1)


@pytest.fixture(scope="module")
def plus_class_z(double_ore_class_z, z_lift):
    return run_plus_case(double_ore_class_z, z_lift)


@pytest.fixture(scope="module")
def minus_class_t(double_ore_class_t, z_lift):
    return run_minus_case(double_ore_class_t, z_lift)


@pytest.fixture(scope="module")
def minus_class_r(double_ore_class_r, z_lift):
    return run_minus_case(double_ore_class_r, z_lift)


def pair_tools(result):
    E = result.base.algebra
    index = {lbl: k for k, lbl in enumerate(E.labels)}
    return index, BlockLayout(E, result.theta_prod.basis).pair


def test_wrong_case_is_rejected(double_ore_class_z, double_ore_class_t, z_lift):
    with pytest.raises(WrongP):
        run_minus_case(double_ore_class_z, z_lift)
    with pytest.raises(WrongP):
        run_plus_case(double_ore_class_t, z_lift)


def test_plus_class_z_all_checks(plus_class_z):
    assert plus_class_z.checks.ok
    names = {item.name for item in plus_class_z.checks.items}
    assert "oracle-isomorphism" in names
    assert "full-idempotent" in names
    assert "projection-identity-suite" in names
    assert "corner-matches-semitrivial" in names


def test_plus_class_z_dimensions(plus_class_z):
    assert len(plus_class_z.oracle.words) == 16
    assert plus_class_z.twisted.dim == 16
    assert plus_class_z.base.algebra.dim == 4
    assert plus_class_z.S.dim == 2 and plus_class_z.M.dim == 2
    assert plus_class_z.Lambda.dim == 4


def test_plus_class_z_extension_structure(plus_class_z):
    lam = plus_class_z.Lambda
    assert all(degree == (0,) for degree in lam.degrees)
    assert radical(lam).dim == 0
    for i in range(lam.dim):
        for j in range(lam.dim):
            assert lam.table[i][j] == lam.table[j][i]


def test_plus_class_z_projection_values(plus_class_z):
    """The quarter projections act as the sign split, and the pairing map
    doubles as half the printed generator images."""
    E = plus_class_z.base.algebra
    even = E.component_indices((0,))
    odd = E.component_indices((1,))
    for k in even:
        assert plus_class_z.xi1.apply(E.basis_vec(k)) == E.basis_vec(k)
        assert not plus_class_z.xi2.apply(E.basis_vec(k))
    for k in odd:
        assert plus_class_z.xi2.apply(E.basis_vec(k)) == E.basis_vec(k)
        assert not plus_class_z.xi1.apply(E.basis_vec(k))
    index = {lbl: k for k, lbl in enumerate(E.labels)}
    h = Scalar(0, 0, 1, 0, 2)
    image = plus_class_z.phi2.apply(E.basis_vec(index["x1*"]))
    expected = {index["x1*"]: -h, index["x2*"]: I * h}
    assert image == expected
    printed = vec_scale(expected, Scalar(2))
    assert image != printed  # the printed images carry a spare 2


def test_plus_diagonal_identity_case(km1, z_lift):
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    result = run_plus_case(DoubleOreData(km1, ONE, ZERO, sigma), z_lift)
    assert result.checks.ok
    assert result.M.dim == 0
    E = result.base.algebra
    cols = result.S.basis
    iso = GradedLinMap(result.Lambda, E, cols)
    assert verify_iso(iso, generating_set(iso.source))
    report = singularity_report(result)
    assert report.isolated


def test_plus_sign_and_identity_case(km1, z_lift):
    sigma = diagonal_sigma([[-1, 0], [0, -1]], [[1, 0], [0, 1]])
    result = run_plus_case(DoubleOreData(km1, ONE, ZERO, sigma), z_lift)
    assert result.checks.ok
    lam = result.Lambda
    assert all(degree == (0,) for degree in lam.degrees)
    assert lam.dim == 4
    E = result.base.algebra
    lam_first = result.Lambda_bigraded.regrade(
        [(d[0],) for d in result.Lambda_bigraded.degrees], 1)
    cols = result.S.basis + result.M.basis
    iso = GradedLinMap(lam_first, E, cols)
    assert verify_iso(iso, generating_set(iso.source))


def test_a_non_homogeneous_eigenspace_basis_is_rejected(
        double_ore_class_z, z_lift, monkeypatch):
    """An eigenspace of xi2 whose basis mixes degrees stops the plus case
    before any product is read in it."""
    real = knorrer._eigenspace
    calls = []

    def eigenspace(E, linmap):
        calls.append(linmap)
        if len(calls) == 1:
            return real(E, linmap)
        mixed = {E.words.index(()): ONE, E.words.index((0,)): ONE}
        return Subspace.from_rows([mixed], E.dim)

    monkeypatch.setattr(knorrer, "_eigenspace", eigenspace)
    with pytest.raises(knorrer.PipelineError,
                       match="^eigenspace basis is not homogeneous$"):
        run_plus_case(double_ore_class_z, z_lift)
    assert len(calls) == 2


def ref_lambda_big(E, S, M, phi1, phi2):
    """Lambda_big = S x M of the plus case as run_plus_case built it, with
    one reduce_with_coords and remainder flag per product of the left
    action phi1(s).m, the right action m.s and the pairing phi2(m).m';
    None when a product leaves M or S."""
    s_rows = S.basis
    m_rows = list(M.basis)
    m_degs = [E.element_degree(row) for row in m_rows]
    left = []
    right = []
    psi_ok = True
    for s_vec in s_rows:
        phi1_s = phi1.apply(s_vec)
        lcols = []
        rcols = []
        for m_vec in m_rows:
            coords, rem = M.reduce_with_coords(E.mul(phi1_s, m_vec))
            if rem:
                psi_ok = False
            lcols.append(coords)
            coords, rem = M.reduce_with_coords(E.mul(m_vec, s_vec))
            if rem:
                psi_ok = False
            rcols.append(coords)
        left.append(tuple(lcols))
        right.append(tuple(rcols))
    psi = []
    for arow in m_rows:
        row_entries = []
        phi2_a = phi2.apply(arow)
        for brow in m_rows:
            coords, rem = S.reduce_with_coords(E.mul(phi2_a, brow))
            if rem:
                psi_ok = False
                coords = {}
            row_entries.append(coords)
        psi.append(tuple(row_entries))
    if not psi_ok:
        return None
    shifted = [((d[0] + 1) % 2,) for d in m_degs]
    return build_semitrivial(SemiTrivialData(
        restrict(E, S, E.unit), tuple(shifted), tuple(left), tuple(right),
        tuple(psi)))


def _plus_inputs():
    """(name, data, central) of the registry's plus pipelines and of the
    skew3 plus inputs of seeds 1 to 4."""
    found = [(name, *parse_double_ore(getattr(scenarios, const)))
             for name, const in (("ex-4.10", "EX_4_10"), ("ex-4.9-1", "EX_4_9_1"),
                                 ("ex-4.9-2", "EX_4_9_2"))]
    for seed in range(1, 5):
        blob = generate("skew3", seed)["plus.json"]
        found.append((f"skew3:{seed}", *parse_double_ore(json.loads(blob))))
    return found


def _lambda_both_ways(data, central, mutate):
    """(reference, pipeline) Lambda_big of one plus run, each None when its
    closure check rejects, with ``mutate(phi1, phi2, S, M)`` applied to the
    projections once the projection suite has read them."""
    seen = {}
    real_suite = knorrer._lemma46_suite
    real_build = knorrer.build_semitrivial

    def suite(xi1, xi2, phi1, phi2, theta0, theta1, E):
        report = real_suite(xi1, xi2, phi1, phi2, theta0, theta1, E)
        S, M = knorrer._eigenspace(E, xi1), knorrer._eigenspace(E, xi2)
        mutate(phi1, phi2, S, M)
        seen["inputs"] = E, S, M, phi1, phi2
        return report

    def build(st_data):
        seen["built"] = real_build(st_data)
        return seen["built"]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knorrer, "_lemma46_suite", suite)
        patch.setattr(knorrer, "build_semitrivial", build)
        try:
            run_plus_case(data, central)
        except NqhError as exc:
            if "built" not in seen:
                assert str(exc) == "the eigenspace bimodule or pairing is not closed"
    return ref_lambda_big(*seen["inputs"]), seen.get("built")


def _bump_a_projection(kind, seed):
    """A ``mutate`` that adds 1 to one coefficient of phi1 or phi2, drawn
    from ``seed`` among the columns that the construction reads: those in
    the support of S's basis for phi1, of M's for phi2; with no such column
    the map is kept."""

    def mutate(phi1, phi2, S, M):
        phi, rows = (phi1, S.basis) if kind == "phi1" else (phi2, M.basis)
        support = sorted({c for row in rows for c in row})
        if not support:
            return
        r = random.Random(seed)
        col = phi.cols[r.choice(support)]
        bumped = _bump(col, r.randrange(len(phi.cols)))
        col.clear()
        col.update(bumped)

    return mutate


def _algebra_items(algebra):
    return ([[list(v.items()) for v in row] for row in algebra.table],
            list(algebra.unit.items()), algebra.degrees)


def test_lambda_is_built_as_by_the_reduction_loops():
    """On the registry's plus pipelines and the skew3 plus inputs of seeds 1
    to 4, run_plus_case builds the table of Lambda_big that the loops of
    reduce_with_coords calls and remainder flags built, key order included.
    With one coefficient of phi1 or phi2 bumped, both reject or both accept
    the bimodule and pairing, and agree on the table when they accept."""
    verdicts = Counter()
    for name, data, central in _plus_inputs():
        old, new = _lambda_both_ways(data, central, lambda *args: None)
        assert old is not None and new is not None, name
        assert _algebra_items(new) == _algebra_items(old), name
        for kind in ("phi1", "phi2"):
            for n in range(4):
                old, new = _lambda_both_ways(
                    data, central,
                    _bump_a_projection(kind, f"lambda-mutant:{name}:{kind}:{n}"))
                assert (old is None) == (new is None), (name, kind, n)
                if new is not None:
                    assert _algebra_items(new) == _algebra_items(old), (name, kind, n)
                verdicts[kind, new is None] += 1
    # ex-4.9-1 has M = 0, so its phi2 mutants change nothing
    assert verdicts == {("phi1", True): 8, ("phi1", False): 20,
                        ("phi2", True): 15, ("phi2", False): 13}, verdicts


def test_minus_class_t_all_checks(minus_class_t):
    assert minus_class_t.checks.ok
    assert len(minus_class_t.oracle.words) == 16
    assert minus_class_t.semitrivial.dim == 16
    assert minus_class_t.Gamma.dim == 8
    assert minus_class_t.zhang.dim == 8


def spun_modules(result):
    """The submodules of the Zhang twist's regular module that ex-5.9 spins
    from its five printed seed lists."""
    NG = result.zhang
    index, pair = pair_tools(result)
    one_v = {index["1"]: ONE}
    w_v = {index["x1*x2*"]: ONE}
    u_v = {index["x1*"]: ONE}
    v_v = {index["x2*"]: ONE}
    regular = RightModule.regular(NG)

    seeds = [
        [pair(vec_sub(one_v, w_v), {}), pair(vec_sub(u_v, v_v), {})],
        [pair(vec_add(vec_scale(vec_add(one_v, w_v), I),
                      vec_add(u_v, v_v)), {})],
        [pair(vec_sub(vec_scale(vec_add(one_v, w_v), I),
                      vec_add(u_v, v_v)), {})],
        [pair({}, vec_add(vec_add(one_v, w_v), vec_add(u_v, v_v)))],
        [pair({}, vec_sub(vec_add(one_v, w_v), vec_add(u_v, v_v)))],
    ]
    gens = generating_set(NG)
    return [RightModule.from_invariant_subspace(NG, spin(regular, seed_list, gens))
            for seed_list in seeds]


def test_minus_class_t_decomposition(minus_class_t):
    NG = minus_class_t.zhang
    assert radical(NG).dim == 0
    regular = RightModule.regular(NG)
    modules = spun_modules(minus_class_t)
    assert [m.dim for m in modules] == [2, 1, 1, 1, 1]
    assert all(verify_module(m) for m in modules)
    assert all(is_absolutely_simple(m) for m in modules)
    gens = generating_set(NG)
    assert hom_dim(modules[1], modules[2], gens) == 0
    assert hom_dim(modules[0], regular, gens) == 2
    assert verify_decomposition(NG, modules, [2, 1, 1, 1, 1])
    report = singularity_report(minus_class_t,
                                blocks=["M2(k)", "k", "k", "k", "k"])
    assert report.isolated
    assert "D^b(k)^{×5}" in report.text()
    assert "blocks: M2(k),k,k,k,k" in report.text()


def ref_verify_decomposition(algebra, simples, multiplicities):
    """verify_decomposition as it was while it computed the radical first
    and wrote intertwiner equations for every basis element."""
    if radical(algebra).dim != 0:
        return False
    if len(simples) != len(multiplicities):
        return False
    regular = RightModule.regular(algebra)
    everything = range(algebra.dim)
    total = 0
    for s, m in zip(simples, multiplicities):
        if not is_absolutely_simple(s):
            return False
        if hom_dim(s, regular, everything) != m:
            return False
        total += m * s.dim
    for a in range(len(simples)):
        for b in range(len(simples)):
            if a != b and hom_dim(simples[a], simples[b], everything) != 0:
                return False
    return total == algebra.dim


def _decomposition_variants(simples, multiplicities):
    """(name, simples, multiplicities): the listed decomposition, and the
    same with one module dropped, one multiplicity doubled, one module
    listed twice, or module j replaced by module k of the same dimension,
    multiplicities unchanged, so that the total dimension still matches."""
    yield "as listed", simples, multiplicities
    for k in range(len(simples)):
        yield (f"drop {k}", simples[:k] + simples[k + 1:],
               multiplicities[:k] + multiplicities[k + 1:])
        yield (f"double {k}", simples,
               multiplicities[:k] + [2 * multiplicities[k]]
               + multiplicities[k + 1:])
        yield (f"repeat {k}", simples + [simples[k]],
               multiplicities + [multiplicities[k]])
        for j in range(len(simples)):
            if j != k and simples[j].dim == simples[k].dim:
                yield (f"swap {j} {k}",
                       simples[:j] + [simples[k]] + simples[j + 1:],
                       multiplicities)


def test_verify_decomposition_needs_no_radical(monkeypatch):
    """verify_decomposition, which no longer computes the radical, gives the
    verdict of the reference that does: on ex-4.10's four characters and
    ex-5.9's five spun modules, as the scenarios list them, on each with a
    module dropped, a multiplicity doubled, a module repeated or a module
    swapped for another of its dimension, and on the
    spun modules of prop-5.10's Zhang twist, whose radical has dimension 4,
    each with its multiplicity in the regular module."""
    recorded = {}
    real = scenarios.verify_decomposition
    for scenario_id in ("ex-4.10", "ex-5.9"):
        def record(*args, name=scenario_id):
            recorded[name] = args
            return real(*args)

        monkeypatch.setattr(scenarios, "verify_decomposition", record)
        assert run_scenario(scenario_id).ok
    twist_10 = run_minus_case(*parse_double_ore(PROP_5_10))
    NG = twist_10.zhang
    assert radical(NG).dim == 4
    regular = RightModule.regular(NG)
    spun = spun_modules(twist_10)
    recorded["prop-5.10"] = (NG, spun, [hom_dim(m, regular, range(NG.dim))
                                        for m in spun])
    assert [len(args[1]) for args in recorded.values()] == [4, 5, 5]
    verdicts = Counter()
    for name, (algebra, simples, multiplicities) in recorded.items():
        for variant, *args in _decomposition_variants(list(simples),
                                                       list(multiplicities)):
            new = verify_decomposition(algebra, *args)
            assert new == ref_verify_decomposition(algebra, *args), (
                name, variant)
            verdicts[name, variant == "as listed", new] += 1
    # 12, 15 and 15 drops, doubles and repeats; 12, 12 and 20 swaps
    assert verdicts == {("ex-4.10", True, True): 1,
                        ("ex-4.10", False, False): 24,
                        ("ex-5.9", True, True): 1,
                        ("ex-5.9", False, False): 27,
                        ("prop-5.10", True, False): 1,
                        ("prop-5.10", False, False): 35}, verdicts


def test_verify_decomposition_checks_each_pair_of_equal_dimension_once(
        monkeypatch):
    """verify_decomposition computes Hom between two listed simples once per
    unordered pair of equal dimension (Schur; proof in its docstring): 6
    calls on ex-5.9's five modules, of dimensions 2, 1, 1, 1, 1, where each
    ordered pair took 20.  A list that names one simple twice, first or
    last, or that swaps in for one simple a copy of another of the same
    dimension, a module equal to it but not the same object, still fails,
    as under the reference that checks every ordered pair."""
    recorded = []
    real = scenarios.verify_decomposition
    monkeypatch.setattr(scenarios, "verify_decomposition",
                        lambda *args: recorded.append(args) or real(*args))
    assert run_scenario("ex-5.9").ok
    (algebra, simples, multiplicities), = recorded
    simples, multiplicities = list(simples), list(multiplicities)
    assert [s.dim for s in simples] == [2, 1, 1, 1, 1]
    pairs = []
    real_hom = algebra_module.hom_dim

    def counting(m, n, gens):
        if n in simples:
            pairs.append((m, n))
        return real_hom(m, n, gens)

    monkeypatch.setattr(algebra_module, "hom_dim", counting)
    assert verify_decomposition(algebra, simples, multiplicities)
    assert len(pairs) == 6 and len(set(map(frozenset, pairs))) == 6
    variants = []
    for k, (s, m) in enumerate(zip(simples, multiplicities)):
        variants += [([s] + simples, [m] + multiplicities),
                     (simples + [s], multiplicities + [m])]
        copy = RightModule(algebra, s.dim, s.action)
        variants += [(simples[:j] + [copy] + simples[j + 1:], multiplicities)
                     for j in range(len(simples)) if j != k and simples[j].dim == s.dim]
    assert len(variants) == 2 * 5 + 4 * 3
    for args in variants:
        assert not verify_decomposition(algebra, *args)
        assert not ref_verify_decomposition(algebra, *args)


def test_scenarios_read_radicals_off_the_singularity_report(monkeypatch):
    """ex-4.10 reads the corner extension's radical, and ex-5.9 and
    prop-5.10 the Zhang twist's, off the singularity report, which computes
    them: the Zhang twist is certified isomorphic to the degree-0 part, whose
    radical the report reads off J(Gamma).  The trace-form radicals each
    scenario computes, counted where every module binds ``radical``: one
    per plus run (the corner extension, off which the big radical is read)
    and one per minus run (Gamma); ex-4.10 adds its base algebra's, and
    prop-5.1 computes its witness's once, in ``prop51_scenario``, which
    returns it."""
    calls = Counter()
    real = algebra_module.radical

    def counting(algebra):
        calls[scenario_id] += 1
        return real(algebra)

    for module in (algebra_module, knorrer, scenarios):
        monkeypatch.setattr(module, "radical", counting)
    for scenario_id in scenarios.REGISTRY:
        assert run_scenario(scenario_id).ok, scenario_id
    assert calls == {"ex-4.9-1": 1, "ex-4.9-2": 1, "ex-4.10": 2, "ex-5.9": 1,
                     "prop-5.1": 1, "prop-5.10": 1}, calls


def test_minus_class_r_products_and_radical(minus_class_r):
    NG = minus_class_r.zhang
    index, pair = pair_tools(minus_class_r)
    one_v = {index["1"]: ONE}
    w_v = {index["x1*x2*"]: ONE}
    u_v = {index["x1*"]: ONE}
    v_v = {index["x2*"]: ONE}
    star = NG.mul
    assert star(pair(v_v, {}), pair(u_v, {})) == pair({index["1"]: MINUS_ONE}, {})
    assert star(pair(v_v, {}), pair(one_v, {})) == pair(u_v, {})
    assert star(pair(w_v, {}), pair({}, one_v)) == pair(vec_sub(w_v, one_v), {})
    # oracle-certified corrections of two misprinted row entries
    assert star(pair(u_v, {}), pair(u_v, {})) == pair({index["1"]: MINUS_ONE}, {})
    assert star(pair(u_v, {}), pair(v_v, {})) == pair({index["x1*x2*"]: MINUS_ONE}, {})
    witness = pair(vec_sub(one_v, w_v), {})
    assert not star(witness, witness)
    assert is_nilpotent_element(NG, witness)
    assert radical(NG).dim == 4
    report = singularity_report(minus_class_r)
    assert not report.isolated
    assert "isolated singularity: no" in report.text()


def test_minus_radical_is_nilpotent_ideal(minus_class_r):
    NG = minus_class_r.zhang
    rad = radical(NG)
    for vec in rad.basis:
        assert is_nilpotent_element(NG, vec)


def test_minus_diagonal_involutions_factor(km1, z_lift):
    sigma = diagonal_sigma([[-1, 0], [0, -1]], [[-1, 0], [0, -1]])
    result = run_minus_case(DoubleOreData(km1, MINUS_ONE, ZERO, sigma), z_lift)
    assert result.checks.ok
    E = result.base.algebra
    NG = result.zhang
    index, pair = pair_tools(result)
    # componentwise products in pair coordinates: two commuting copies
    for b in range(E.dim):
        for bp in range(E.dim):
            left = pair({b: ONE}, {})
            right = pair({bp: ONE}, {})
            assert NG.mul(left, right) == pair(E.table[b][bp], {})
            left = pair({}, {b: ONE})
            right = pair({}, {bp: ONE})
            assert NG.mul(left, right) == pair({}, E.table[b][bp])
            assert not NG.mul(pair({b: ONE}, {}), pair({}, {bp: ONE}))


def test_minus_normalized_entry_point(km1, z_lift):
    sigma = diagonal_sigma([[-1, 0], [0, -1]], [[-1, 0], [0, -1]])
    data = DoubleOreData(km1, MINUS_ONE, Scalar(2), sigma)
    result = run_minus_case(data, z_lift)
    assert result.checks.ok
    assert any(item.name == "p11-normalized" for item in result.checks.items)


def test_prop51_scenario(km1, z_lift):
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    data = DoubleOreData(km1, MINUS_ONE, Scalar(2) * I, sigma)
    lines, rad = prop51_scenario(data, z_lift)
    assert any("z + y2^2" in line for line in lines)
    assert any("isolated singularity: no" in line for line in lines)
    assert rad == 2
    with pytest.raises(WrongP):
        prop51_scenario(DoubleOreData(km1, MINUS_ONE, ONE, sigma), z_lift)


def test_regrading_preserves_constants(plus_class_z):
    bigraded = plus_class_z.twisted_bigraded
    total = plus_class_z.twisted
    assert bigraded.table is total.table
    assert bigraded.unit == total.unit
    for bidegree, flat in zip(bigraded.degrees, total.degrees):
        assert ((bidegree[0] + bidegree[1]) % 2,) == flat


def test_singularity_report_shapes(plus_class_z, minus_class_t):
    plus_report = singularity_report(plus_class_z)
    assert plus_report.big_radical_dim == 0
    assert plus_report.isolated
    assert "blocks: k,k,k,k ×2 components" in plus_report.text()
    assert "D^b(mod k)^{×8}" in plus_report.text()
    minus_report = singularity_report(minus_class_t)
    assert minus_report.isolated


# sha256 of `nqh --json knorrer` on the skew3 inputs of seed 7, recorded
# before the two pipelines shared their prologue: 3-generator reports must
# stay byte-identical, check items and their order included.
SKEW3_SEED7_DIGESTS = {
    "plus": "2b1275a683579dfe583d8e446085935b6f6342573b01c640320e331baff67b79",
    "minus": "b11231c3fb6ac9416ed242fb0d2882594e89a165cea7fb58aaca8150300139cc",
}


@pytest.mark.parametrize("case", sorted(SKEW3_SEED7_DIGESTS))
def test_skew3_report_bytes_match_recorded_digest(capsys, tmp_path, case):
    write_inputs(generate("skew3", 7), tmp_path)
    assert main(["--json", "knorrer", str(tmp_path / f"{case}.json")]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == SKEW3_SEED7_DIGESTS[case])


# sha256 of `nqh --json knorrer` on the 4-generator input drawn from
# random.Random("big:4"), recorded while the big deformation still had a
# structure table: a 64-dimensional run keeps its bytes.
BIG4_DIGESTS = {
    "plus": "8becef3385b8f881813cdd96c6c05dee681fbe0eb492f7dc51832dcc88b6c026",
    "minus": "0ce815d73f0bfedcaf6f3ab5c49099f9724eecf4a1e28ef52f6450a63a562a15",
}


@pytest.mark.parametrize("case", sorted(BIG4_DIGESTS))
def test_big4_report_bytes_match_recorded_digest(capsys, tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_bytes(encode(skew_double_ore(
        random.Random("big:4"), 4, 1 if case == "plus" else -1)))
    assert main(["--json", "knorrer", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BIG4_DIGESTS[case]


def test_each_run_builds_each_dual_and_deformation_once(monkeypatch):
    """One run builds three Koszul duals (base, B, mixing block J), runs
    check_central twice (in B, then inside the base's build_clifford) and
    certifies one deformation by build_clifford: J is completed from its
    presentation, with no table and no certificate of its own.  Nothing is
    kept across runs, so a second run on data parsed afresh makes the same
    calls as the first."""
    counts = Counter()

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for module in (deform, knorrer):
        for name in ("koszul_dual", "check_central", "build_clifford"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    for name, blob in sorted(generate("skew3", 7).items()):
        run = run_plus_case if name == "plus.json" else run_minus_case
        for _ in range(2):
            counts.clear()
            assert run(*parse_double_ore(json.loads(blob))).checks.ok
            assert counts == {"koszul_dual": 3, "check_central": 2,
                              "build_clifford": 1}, name


def test_each_run_descends_sigma_once_and_never_its_inverse(monkeypatch,
                                                            tmp_path, capsys):
    """One knorrer run maps sigma to the degree-2 component once: its table
    is cached on the data and read by every check.  phi is never mapped
    there, since sigma-preserves-relations implies its degree-2 checks
    (proof in ``deform.invert_sigma``)."""
    calls = []
    real = deform._on_degree2

    def counting(data, table):
        calls.append(table)
        return real(data, table)

    monkeypatch.setattr(deform, "_on_degree2", counting)
    write_inputs(generate("skew3", 7), tmp_path)
    for case in ("plus", "minus"):
        calls.clear()
        assert main(["--json", "knorrer", str(tmp_path / f"{case}.json")]) == 0
        assert len(calls) == 1, case
    capsys.readouterr()


def test_each_run_builds_and_certifies_each_twisted_table_once(monkeypatch):
    """One run builds its twisted table once, and its rule forms at most
    4 |halves| dim E^2 products of E over the whole run, even with every
    cell read (the per-block loop formed up to 8 |halves|^2 dim E^2), and
    it certifies the table once, on at most
    2 dim E |S| 2|halves| triples with S = generating_set of the twisted
    algebra: the first factors in the I(0) half, the last factors
    I(i'')_j'' 1.  The exchange identity is read off that certificate, so
    the basis-pair loop never runs on an accepted system.  E reaches
    verify_algebra once, in deform: twist takes E's certificate as a
    precondition and binds no verify_algebra.  No Zhang table reaches
    verify_algebra, since certify_by_iso certifies it, and a minus run
    checks its involution once."""
    counts = Counter()
    built = []
    reports = []
    elsewhere = []
    isos = []
    scans = []
    products = []

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in ("_exchange_failure", "build_twisted_M2", "build_twisted_prod"):
        monkeypatch.setattr(twist, name, counting(name, getattr(twist, name)))

    def recording(sink, real):
        def wrapper(arg, *rest, **options):
            sink.append(arg)
            return real(arg, *rest, **options)
        return wrapper

    real_mul = GradedAlgebra.mul

    def counting_mul(algebra, u, v):
        # the rule's products are formed by code defined in _twisted_algebra
        if "_twisted_algebra" in sys._getframe(1).f_code.co_qualname:
            products.append(algebra)
        return real_mul(algebra, u, v)

    monkeypatch.setattr(GradedAlgebra, "mul", counting_mul)
    monkeypatch.setattr(twist, "_twisted_algebra",
                        recording_output(twist._twisted_algebra, built))
    monkeypatch.setattr(twist, "_algebra_report",
                        recording(reports, twist._algebra_report))
    assert not hasattr(twist, "verify_algebra")
    for module in (deform, knorrer):
        monkeypatch.setattr(module, "verify_algebra",
                            recording(elsewhere, module.verify_algebra))
    monkeypatch.setattr(twist, "verify_iso", recording(isos, twist.verify_iso))
    real_scan = algebra_module._associativity_failure

    def scanning(algebra, middles, firsts=None, lasts=None):
        # a passing scan evaluates every triple it is given
        everything = range(algebra.dim)
        scans.append((algebra, len(everything if firsts is None else firsts)
                       * len(middles) * len(everything if lasts is None else lasts)))
        return real_scan(algebra, middles, firsts, lasts)

    monkeypatch.setattr(algebra_module, "_associativity_failure", scanning)
    for name, blob in sorted(generate("skew3", 7).items()):
        data, central = parse_double_ore(json.loads(blob))
        plus = name == "plus.json"
        for sink in (counts, built, reports, elsewhere, isos, scans, products):
            sink.clear()
        result = (run_plus_case if plus else run_minus_case)(data, central)
        assert result.checks.ok
        builder = "build_twisted_M2" if plus else "build_twisted_prod"
        assert counts == {builder: 1}, name
        twisted = result.twisted_bigraded if plus else result.Gamma
        assert len(built) == 1 and built[0] is twisted, name
        assert len(reports) == 1 and reports[0] is twisted, name
        E = result.base.algebra
        assert [a for a in elsewhere if a is E] == [E], name
        halves = 2 if plus else 1
        assert products and all(a is E for a in products), name
        assert len(products) <= 4 * halves * E.dim ** 2, name
        table_entries(twisted)      # every cell, each product still formed once
        assert len(products) <= 4 * halves * E.dim ** 2, name
        triples = [n for algebra, n in scans if algebra is twisted]
        assert len(triples) == 1, name
        assert triples[0] <= 2 * E.dim * len(generating_set(twisted)) * 2 * halves, name
        assert plus or not [a for a in elsewhere if a is result.zhang], name
        if not plus:
            assert [m for m in isos if m is result.mu] == [result.mu]


def test_a_plus_run_forms_a_fraction_of_the_twisted_cells():
    """The twisted M_2(E) forms a cell only when a check reads it: a plus
    run forms at most half of its 1,024 cells on skew3 seed 1 (472) and at
    most a fifth of its 16,384 on big:5 (2,788), where a stored table held
    every one."""
    docs = [(json.loads(generate("skew3", 1)["plus.json"]), 0.5),
            (skew_double_ore(random.Random("big:5"), 5, 1), 0.2)]
    for doc, share in docs:
        twisted = run_plus_case(*parse_double_ore(doc)).twisted_bigraded
        formed = sum(len(row.keys()) for row in twisted.table.values())
        assert 0 < formed <= share * twisted.dim ** 2, (formed, twisted.dim)


def test_every_twisted_certificate_rests_on_a_certified_algebra(
        monkeypatch, tmp_path, capsys, clifford_km1):
    """_certify_exchange takes E's certificate as a precondition.  On each
    command that reaches it, every E it sees has already passed
    deform.verify_algebra in the same run: reproduce all, knorrer on skew3
    seed 7 in both cases, and verify-twist on the identity twist file."""
    passed = []
    reached = []
    real_verify = deform.verify_algebra
    real_certify = twist._certify_exchange

    def verifying(algebra, *rest):
        report = real_verify(algebra, *rest)
        if report.ok:
            passed.append(algebra)
        return report

    def certifying(system, *rest):
        reached.append(any(a is system.algebra for a in passed))
        return real_certify(system, *rest)

    monkeypatch.setattr(deform, "verify_algebra", verifying)
    monkeypatch.setattr(twist, "_certify_exchange", certifying)
    write_inputs(generate("skew3", 7), tmp_path)
    twist_file = tmp_path / "twist.json"
    twist_file.write_text(json.dumps(_twist_doc(clifford_km1.algebra.labels)))
    for argv in (["reproduce", "all"],
                 ["knorrer", str(tmp_path / "plus.json")],
                 ["knorrer", str(tmp_path / "minus.json")],
                 ["verify-twist", str(twist_file)]):
        passed.clear()
        reached.clear()
        assert main(argv) == 0, argv
        assert reached and all(reached), (argv, reached)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the big deformation certified from its presentation, against the table


def test_the_big_deformation_is_certified_without_a_table(monkeypatch):
    """On a passing run the big deformation never reaches extract_algebra,
    verify_algebra or verify_iso, and not one of its normal forms is
    computed, where a table needs (4 dim E)^2: the oracle step certifies
    both of its blocks.  Nor does the mixing block J reach extract_algebra
    or verify_algebra.  E's completed rules certify sigma^!, so
    verify_hom_M2 never runs.  Nor does either semi-trivial extension reach
    verify_algebra: in the minus case Gamma's certificate and the checks of
    mu certify it, in the plus case verify_iso of the corner map.
    Each run certifies E exactly once, in deform, which the twisted
    certificate takes as its precondition, and its twisted algebra exactly
    once."""
    extracted = []
    certified = []
    transported = []
    forms = Counter()

    def recording(sink, real):
        def wrapper(*args):
            sink.append(args[0])
            return real(*args)
        return wrapper

    real_nf_word = RewriteSystem._nf_word

    def counting_nf_word(system, word):
        forms[id(system)] += 1
        return real_nf_word(system, word)

    monkeypatch.setattr(deform, "extract_algebra",
                        recording(extracted, deform.extract_algebra))
    for module in (deform, knorrer):
        monkeypatch.setattr(module, "verify_algebra",
                            recording(certified, module.verify_algebra))
    # twist certifies the twisted algebra it builds without verify_algebra
    monkeypatch.setattr(twist, "_twisted_algebra",
                        recording_output(twist._twisted_algebra, certified))
    monkeypatch.setattr(knorrer, "verify_iso",
                        recording(transported, knorrer.verify_iso))
    monkeypatch.setattr(RewriteSystem, "_nf_word", counting_nf_word)
    # the check of sigma^! on every basis pair is a test reference only
    assert not [module for module in (algebra_module, deform, knorrer, twist)
                if hasattr(module, "verify_hom_M2")]
    for name, blob in sorted(generate("skew3", 7).items()):
        data, central = parse_double_ore(json.loads(blob))
        plus = name == "plus.json"
        for sink in (extracted, certified, transported):
            sink.clear()
        forms.clear()
        result = (run_plus_case if plus else run_minus_case)(data, central)
        assert result.checks.ok
        oracle, E = result.oracle, result.base.algebra
        assert oracle.algebra is None and len(oracle.words) == 4 * E.dim
        mixing = data.mixing
        assert mixing.algebra is None and len(mixing.words) == 4, name
        assert extracted == [result.base.system], name
        twisted = result.twisted_bigraded if plus else result.Gamma
        # E once in deform, the twisted algebra once by its own certificate
        assert sorted(map(id, certified)) == sorted(map(id, [E, twisted])), name
        extension = ((result.Lambda_bigraded, result.Lambda) if plus
                     else (result.semitrivial_bigraded, result.semitrivial))
        assert not [a for a in certified if a in extension], name
        assert [m.source for m in transported] == (
            [result.Lambda] if plus else [result.zhang]), name
        assert forms[id(oracle.system)] == 0, name
        assert forms[id(mixing.system)] == 0, name


def ref_block_matches(system, block_words, expect, offset):
    """The products of the normal words ``block_words`` of ``system``, read
    as normal forms, are the structure constants of ``expect`` on its words,
    each block letter shifted down by ``offset``: the block check that
    computed every product, kept as the reference."""
    deform._block_words(block_words, expect.words, offset)
    index = {w: i for i, w in enumerate(expect.words)}
    rename = {w: index[tuple(a - offset for a in w)] for w in block_words}
    for w1 in block_words:
        for w2 in block_words:
            got = normal_form(system, TensorElement.monomial(w1 + w2)).terms
            if not got.keys() <= rename.keys():
                raise DimensionMismatch("subalgebra block is not closed")
            if ({rename[w]: c for w, c in got.items()}
                    != expect.table[rename[w1]][rename[w2]]):
                raise DimensionMismatch("subalgebra block constants disagree")


def ref_mixing_table(data):
    """The mixing block J's table, extracted from its completed system and
    certified as ``build_clifford`` certifies a deformation."""
    mixing = data.mixing
    algebra = extract_algebra(mixing.system, mixing.words)
    if not strongly_graded_check(algebra):
        raise DimensionMismatch("mixing block is not strongly Z2-graded")
    report = verify_algebra(algebra)
    if not report.ok:
        raise DimensionMismatch(f"mixing block invalid: {report.first_failure()}")
    return algebra


def ref_build_Bshriek_clifford(data, lift, base):
    """build_Bshriek_clifford as it was while it read each block's products
    as normal forms and matched them to a certified table: dim E^2 of them
    against E's, and 16 against J's."""
    oracle = deform.build_Bshriek_clifford(data, lift, base)
    ref_block_matches(
        oracle.system, [w for w in oracle.words if all(a >= 2 for a in w)],
        base.algebra, 2)
    ref_block_matches(
        oracle.system, [w for w in oracle.words if all(a < 2 for a in w)],
        ref_mixing_table(data), 0)
    return oracle


def ref_oracle_step(checks, data, lift, base, target, y_images, layout, what):
    """The oracle step while the big deformation had a table: the table is
    extracted from the completed system and checked strongly graded, and
    ref_certify_by_iso checks the map on every basis pair; when that fails,
    verify_algebra names an invalid table first.  Its build computes the
    products of both blocks (``ref_build_Bshriek_clifford``).  An accepted
    map then meets the scan of the target's odd-by-odd products that the
    pipelines ran before strong grading was read off y2^2 = 1."""
    oracle = ref_build_Bshriek_clifford(data, lift, base)
    algebra = extract_algebra(oracle.system, oracle.words)
    if not strongly_graded_check(algebra):
        raise DimensionMismatch("deformation is not strongly Z2-graded")
    E = base.algebra
    images = [{index: ONE} for index in y_images]
    for a in range(data.ngens):
        images.append({layout.index(0, 1, E.words.index((a,))): ONE})
    image = knorrer.extend_on_generators(oracle.relations, target, images)
    iso = GradedLinMap(algebra, target, [image(TensorElement.monomial(w))
                                         for w in algebra.words])
    iso_ok = ref_certify_by_iso(iso)
    if not iso_ok:
        report = verify_algebra(algebra)
        if not report.ok:
            raise DimensionMismatch(
                f"oracle output invalid: {report.first_failure()}")
    if iso_ok and not strongly_graded_check(target):
        raise DimensionMismatch("deformation is not strongly Z2-graded")
    checks.add("oracle-isomorphism", iso_ok)
    if not iso_ok:
        raise knorrer.IsoFailed(f"the deformation does not match the {what}")
    return oracle


def _recorded_inputs(step):
    """(name, arguments after ``checks``) of the knorrer step named
    ``step`` on the five registry pipelines and on the skew3 inputs of
    seeds 1 to 4."""
    found = []
    names = []
    real = getattr(knorrer, step)

    def record(checks, *args):
        found.append(args)
        return real(checks, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knorrer, step, record)
        for scenario_id in ("ex-4.10", "ex-4.9-1", "ex-4.9-2", "ex-5.9",
                            "prop-5.10"):
            assert run_scenario(scenario_id).ok
            names.append(scenario_id)
        for seed in range(1, 5):
            for name, blob in sorted(generate("skew3", seed).items()):
                data, central = parse_double_ore(json.loads(blob))
                run = run_plus_case if name == "plus.json" else run_minus_case
                assert run(data, central).checks.ok
                names.append(f"skew3:{seed}:{name}")
    assert len(found) == len(names)
    return list(zip(names, found))


@pytest.fixture(scope="module")
def oracle_step_inputs():
    return _recorded_inputs("_oracle_step")


def _bump(vec, key):
    out = dict(vec)
    out[key] = out.get(key, ZERO) + ONE
    return {k: c for k, c in out.items() if c}


def _mutate(patch, kind, args, seed):
    """Patch one input of the oracle step of ``args``, before any check
    reads it, by a coefficient bumped by 1: a deformed relation of B's dual
    (``"relation"``), a y image (``"y-image"``) or a right-hand side of a
    completed rule of B's dual (``"rule"``)."""
    data, target = args[0], args[3]
    letters = data.ngens + 2

    def rng():
        return random.Random(f"{seed}:{kind}")

    if kind == "relation":
        real = deform.clifford_theta

        def theta(dual, lift):
            values, relations = real(dual, lift)
            if dual.ngens == letters:
                r = rng()
                n = r.randrange(len(relations))
                word = r.choice(sorted(relations[n].terms))
                relations[n] = TensorElement(_bump(relations[n].terms, word))
            return values, relations

        patch.setattr(deform, "clifford_theta", theta)
    elif kind == "y-image":
        real = knorrer.extend_on_generators

        def extend(relations, tgt, images):
            r = rng()
            images = list(images)
            n = r.randrange(2)
            images[n] = _bump(images[n], r.randrange(target.dim))
            return real(relations, tgt, images)

        patch.setattr(knorrer, "extend_on_generators", extend)
    else:
        _mutate_a_rule(patch, rng, _rules_on(letters))


def _mutate_a_rule(patch, rng, mutable):
    """Patch ``deform.complete`` to bump, by 1, a coefficient of a
    right-hand side of a completed system, at a rule drawn from ``rng()``
    among the left-hand sides that ``mutable(system)`` lists; a system with
    none is kept."""
    real = deform.complete

    def complete(system, maxdeg):
        done = real(system, maxdeg)
        candidates = mutable(done)
        if not candidates:
            return done
        r = rng()
        rules = dict(done.rules)
        lhs = r.choice(candidates)
        word = r.choice(sorted(rules[lhs].terms) + [()])
        rules[lhs] = TensorElement(_bump(rules[lhs].terms, word))
        return RewriteSystem(rules, done.alphabet, done.confluent_up_to)

    patch.setattr(deform, "complete", complete)


def _rules_on(letters):
    """Every left-hand side of a completed system on ``letters`` letters."""
    return lambda system: (sorted(system.rules) if system.nletters == letters
                           else [])


def _first_failure(step, args):
    """The stage at which ``step`` rejects: the exception message up to its
    first detail, or None when it accepts."""
    try:
        step(Report(), *args)
    except NqhError as exc:
        return str(exc).partition(": ")[0]
    return None


def _stage(message, args):
    """A ``_first_failure`` message, with a failed relation of the oracle
    step named by what it evaluated: a deformed relation of B's dual, a
    completed rule of the big system, or one of the completed rules of the
    base block E or of the mixing block J."""
    found = re.fullmatch(r"relation (\d+) not preserved", message or "")
    if not found:
        return message
    data, lift, base = args[:3]
    bounds = [data.b_dual.relations.dim]
    if int(found[1]) >= bounds[0]:
        big = deform.build_Bshriek_clifford(data, lift, base)
        bounds.append(bounds[0] + len(big.system.rules))
        bounds.append(bounds[1] + len(base.system.rules))
    names = ("relation", "rule", "base-block rule", "mixing-block rule")
    return names[sum(int(found[1]) >= bound for bound in bounds)]


def test_oracle_mutants_are_rejected_as_by_the_old_certificate(
        oracle_step_inputs):
    """Mutate a deformed relation, a y image or a rule of the big
    deformation before any check runs, on the oracle step of the five
    registry pipelines and of the skew3 inputs of seeds 1 to 4.  The step
    that certifies the deformation from its presentation, with the base
    block's products left to it, rejects exactly the mutants that the
    table-based reference, which computes them, rejects."""
    kinds = ("relation", "y-image", "rule")
    verdicts = Counter()
    stages = Counter()
    for name, args in oracle_step_inputs:
        for kind in kinds:
            for n in range(3 if name.startswith("skew3") else 4):
                with pytest.MonkeyPatch.context() as patch:
                    _mutate(patch, kind, args, f"oracle-mutant:{name}:{n}")
                    new = _first_failure(knorrer._oracle_step, args)
                    old = _first_failure(ref_oracle_step, args)
                assert (new is None) == (old is None), (name, kind, n, new, old)
                verdicts[kind, new is not None] += 1
                stages[kind, _stage(new, args)] += 1
    assert verdicts == {(kind, True): 44 for kind in kinds}, (verdicts, stages)
    # every corrupted y image breaks a relation; every corrupted rule is
    # seen by the rule evaluation, where the reference finds a wrong block
    # or an invalid table
    assert stages["y-image", "relation"] == 44, stages
    assert stages["rule", "rule"] == 44, stages


def _mutate_mixing(patch, kind, data, seed):
    """Patch a right-hand side of a completed rule by a coefficient bumped
    by 1: one of the mixing block J's (``"j-rule"``; J's deformation, kept
    on ``data``, is dropped so that it is completed again) or one of the
    big system's whose left-hand side is a pure y word (``"y-rule"``)."""

    def rng():
        return random.Random(f"{seed}:{kind}")

    if kind == "j-rule":
        patch.delitem(data.__dict__, "mixing")
        _mutate_a_rule(patch, rng, lambda system: (
            sorted(system.rules) if system.alphabet == ("y1*", "y2*") else []))
    else:
        letters = data.ngens + 2
        _mutate_a_rule(patch, rng, lambda system: (
            sorted(lhs for lhs in system.rules if all(a < 2 for a in lhs))
            if system.nletters == letters else []))


def test_mixing_block_mutants_are_rejected_as_by_its_certified_table(
        oracle_step_inputs):
    """Mutate a rule of the mixing block J, or a rule of the big system on
    pure y words, on the oracle step of the five registry pipelines and of
    the skew3 inputs of seeds 1 to 4.  The step, which evaluates J's rules
    in the target, rejects exactly the mutants that the reference, which
    compares 16 normal forms of the big system with J's certified table,
    rejects."""
    kinds = ("j-rule", "y-rule")
    verdicts = Counter()
    stages = Counter()
    for name, args in oracle_step_inputs:
        for kind in kinds:
            for n in range(3):
                with pytest.MonkeyPatch.context() as patch:
                    _mutate_mixing(patch, kind, args[0],
                                   f"mixing-mutant:{name}:{n}")
                    new = _first_failure(knorrer._oracle_step, args)
                    old = _first_failure(ref_oracle_step, args)
                assert (new is None) == (old is None), (name, kind, n, new, old)
                verdicts[kind, new is not None] += 1
                stages[kind, _stage(new, args), old] += 1
    assert verdicts == {(kind, True): 39 for kind in kinds}, (verdicts, stages)
    # the step rejects each mutant at the rule it corrupted; the reference
    # finds J's table invalid or the block's normal forms disagreeing with it
    assert stages == {
        ("j-rule", "mixing-block rule", "subalgebra block constants disagree"): 32,
        ("j-rule", "mixing-block rule", "mixing block invalid"): 7,
        ("y-rule", "rule", "subalgebra block constants disagree"): 39}, stages


def test_block_and_oracle_tables_match_the_rewriting_reference(
        oracle_step_inputs):
    """On the oracle step's inputs, the tables that ``ref_mixing_table`` and
    ``ref_oracle_step`` extract, of the mixing block J and of the big
    deformation, equal the ones that rewrote all dim^2 products, entry for
    entry.  The dict order is the reference's too, but for 16 entries of
    prop-5.10's big deformation: there the reference reduces a u' v
    leftmost first and the letter-row build reduces u' v first, and rules
    with several right-hand terms meet the same terms in another order.
    No pipeline extracts these tables."""
    reordered = Counter()
    for name, (data, lift, base, *_) in oracle_step_inputs:
        oracle = deform.build_Bshriek_clifford(data, lift, base)
        for block in (data.mixing, oracle):
            new = extract_algebra(block.system, block.words)
            ref = ref_extract_algebra(block.system, block.words)
            assert list(new.table) == ref.table, name
            reordered[name] += sum(
                a != b for a, b in zip(sum(table_entries(new), []),
                                       sum(table_entries(ref), [])))
    assert +reordered == {"prop-5.10": 16}


def test_oracle_step_evaluates_the_base_blocks_rules(oracle_step_inputs):
    """A rule of E's completed system bumped after E's table is built, so
    that the table no longer satisfies it, is rejected by the oracle step
    at that rule, shifted past y1, y2: the base block's rules are evaluated
    in the target."""
    for name, args in oracle_step_inputs:
        data, lift, base = args[:3]
        rules = dict(base.system.rules)
        lhs = min(rules)
        rules[lhs] = TensorElement(_bump(rules[lhs].terms, ()))
        corrupted = dataclasses.replace(base, system=RewriteSystem(
            rules, base.system.alphabet, base.system.confluent_up_to))
        changed = (data, lift, corrupted) + tuple(args[3:])
        stage = _stage(_first_failure(knorrer._oracle_step, changed), changed)
        assert stage == "base-block rule", (name, stage)


def ref_dualize_hom(data, clifford):
    """dualize_hom as it was before E's completed rules certified sigma^!:
    the deformed relations alone are evaluated, then verify_hom_M2 checks
    every basis pair."""
    bare = dataclasses.replace(clifford, system=RewriteSystem(
        {}, clifford.system.alphabet, clifford.system.confluent_up_to))
    hom = deform.dualize_hom(data, bare)
    if not verify_hom_M2(hom):
        raise RelationViolated(-1, "dualized table is not a matrix"
                                   " homomorphism")
    return hom


def ref_prologue(checks, *args):
    """The prologue with ``ref_dualize_hom`` in place of dualize_hom."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knorrer, "dualize_hom", ref_dualize_hom)
        return knorrer._prologue(checks, *args)


def _mutate_base(patch, kind, letters, seed):
    """Patch the build of E, on ``letters`` letters, before it is certified,
    by a coefficient bumped by 1: an entry of E's extracted table
    (``"table"``, before its verify_algebra) or a right-hand side of one of
    E's completed rules (``"rule"``, before extraction)."""

    def rng():
        return random.Random(f"{seed}:{kind}")

    if kind == "rule":
        _mutate_a_rule(patch, rng, _rules_on(letters))
        return
    real = deform.extract_algebra

    def extract(system, words):
        algebra = real(system, words)
        if system.nletters != letters:
            return algebra
        r = rng()
        dim = algebra.dim
        table = [list(row) for row in algebra.table]
        i, j = r.randrange(dim), r.randrange(dim)
        table[i][j] = _bump(table[i][j], r.randrange(dim))
        return GradedAlgebra(algebra.labels, table, algebra.unit,
                             algebra.degrees, words=algebra.words)

    patch.setattr(deform, "extract_algebra", extract)


def test_sigma_dual_mutants_are_rejected_as_by_verify_hom_M2():
    """Mutate E's extracted table or one of E's completed rules before E is
    certified, on the prologue of the five registry pipelines and of the
    skew3 inputs of seeds 1 to 4.  The prologue, which certifies sigma^!
    by evaluating E's rules, rejects every mutant that the reference,
    which checks sigma^! on every basis pair, rejects."""
    kinds = ("table", "rule")
    verdicts = Counter()
    for name, args in _recorded_inputs("_prologue"):
        letters = args[0].ngens
        for kind in kinds:
            for n in range(12):
                with pytest.MonkeyPatch.context() as patch:
                    _mutate_base(patch, kind, letters,
                                 f"base-mutant:{name}:{n}")
                    new = _first_failure(knorrer._prologue, args)
                    old = _first_failure(ref_prologue, args)
                assert (new is None) == (old is None), (name, kind, n, new,
                                                        old)
                verdicts[kind, new is not None] += 1
    assert verdicts == {(kind, True): 156 for kind in kinds}, verdicts


def _word_images(target, images, words):
    """The products in ``target`` of the generator ``images`` along each of
    ``words``."""
    out = []
    for word in words:
        value = dict(target.unit)
        for letter in word:
            value = target.mul(value, images[letter])
        out.append(value)
    return out


def test_oracle_step_rejects_spanning_images_that_break_a_relation(
        monkeypatch, oracle_step_inputs):
    """Doubling y1's image keeps the images of the normal words a basis of
    the target, each scaled by a power of 2, but breaks y1^2 = 1."""
    name, args = oracle_step_inputs[0]
    target = args[3]
    words = deform.build_Bshriek_clifford(*args[:3]).words
    real = knorrer.extend_on_generators
    seen = []

    def doubled(relations, tgt, images):
        images = [{k: c * Scalar(2) for k, c in images[0].items()}] + images[1:]
        seen.append(Subspace.from_rows(_word_images(tgt, images, words),
                                       tgt.dim).dim)
        return real(relations, tgt, images)

    monkeypatch.setattr(knorrer, "extend_on_generators", doubled)
    for step in (knorrer._oracle_step, ref_oracle_step):
        with pytest.raises(RelationViolated):
            step(Report(), *args)
    assert seen == [target.dim, target.dim], name


def _doubled(algebra):
    """The product algebra A x A on two copies of A's basis."""
    d = algebra.dim
    table = [[{k + d * (i // d): c
               for k, c in algebra.table[i % d][j % d].items()}
              if i // d == j // d else {} for j in range(2 * d)]
             for i in range(2 * d)]
    unit = dict(algebra.unit)
    unit.update((k + d, c) for k, c in algebra.unit.items())
    return GradedAlgebra(algebra.labels * 2, table, unit, algebra.degrees * 2)


def test_oracle_step_rejects_a_map_that_keeps_every_relation_but_does_not_span(
        monkeypatch, oracle_step_inputs):
    """The diagonal map into T x T kills every relation and rule, as the
    isomorphism onto T does, but its image is a copy of T, half of T x T:
    the check fails and names the failed isomorphism."""
    name, args = oracle_step_inputs[0]
    target = args[3]
    wide = _doubled(target)
    real = knorrer.extend_on_generators

    def diagonal(relations, tgt, images):
        assert tgt is wide
        images = [vec_add(v, {k + target.dim: c for k, c in v.items()})
                  for v in images]
        return real(relations, tgt, images)

    monkeypatch.setattr(knorrer, "extend_on_generators", diagonal)
    for step in (knorrer._oracle_step, ref_oracle_step):
        checks = Report()
        with pytest.raises(knorrer.IsoFailed):
            step(checks, *args[:3], wide, *args[4:])
        assert [(item.name, item.passed) for item in checks.items] == [
            ("oracle-isomorphism", False)], name


# ---------------------------------------------------------------------------
# the minus case's semi-trivial extension, certified as Gamma x| <mu>


@pytest.fixture(scope="module")
def minus_inputs():
    """(name, data, lift) of the minus runs of ex-5.9 and prop-5.10, of the
    skew3 inputs of seeds 1 to 4, and of the 4-generator input drawn from
    random.Random("big:4")."""
    docs = [("ex-5.9", EX_5_9), ("prop-5.10", PROP_5_10)]
    docs += [(f"skew3:{seed}", json.loads(generate("skew3", seed)["minus.json"]))
             for seed in range(1, 5)]
    docs.append(("big:4", json.loads(encode(
        skew_double_ore(random.Random("big:4"), 4, -1)))))
    return [(name, *parse_double_ore(doc)) for name, doc in docs]


def test_the_minus_extension_passes_verify_algebra(minus_inputs):
    """The conclusion of semitrivial_mu's proof on real data: the
    extension of every minus run passes verify_algebra, which the pipeline
    no longer runs on it."""
    for name, data, lift in minus_inputs:
        result = run_minus_case(data, lift)
        assert result.checks.ok, name
        assert verify_algebra(result.semitrivial_bigraded).ok, name


def _bumped_map(linmap, rng):
    """``linmap`` with one stored coefficient increased by 1."""
    b, k = rng.choice([(b, k) for b, col in enumerate(linmap.cols)
                       for k in sorted(col)])
    cols = list(linmap.cols)
    cols[b] = _bump(cols[b], k)
    return GradedLinMap(linmap.source, linmap.target, cols)


def _bumped_table(table, rng):
    """A 2x2 table of maps with one stored coefficient of one nonzero
    entry increased by 1."""
    entries = [list(row) for row in table.entries]
    i, j = rng.choice([(i, j) for i in range(2) for j in range(2)
                       if not entries[i][j].is_zero()])
    entries[i][j] = _bumped_map(entries[i][j], rng)
    return MatrixHom(entries)


def _mutate_minus(patch, kind, seed):
    """Patch one input of the minus case's extension by a stored
    coefficient bumped by 1: an entry of sigma^! (``"sigma"``), a column of
    mu (``"mu"``) or an entry of Gamma's theta (``"theta"``).  Or replace mu
    by another graded involutive automorphism of Gamma, the identity or mu
    composed with the sign of the grading (``"involution"``), which passes
    semitrivial_mu's checks and so reaches the extension."""
    rng = random.Random(seed)
    if kind == "involution":
        real = knorrer._slot_exchange

        def other(sd, Gamma, layout):
            if rng.randrange(2):
                return GradedLinMap.identity(Gamma)
            return real(sd, Gamma, layout).compose(xi_automorphism(Gamma, MINUS_ONE))

        patch.setattr(knorrer, "_slot_exchange", other)
    elif kind == "sigma":
        real = knorrer.dualize_hom
        patch.setattr(knorrer, "dualize_hom",
                      lambda data, base: _bumped_table(real(data, base), rng))
    elif kind == "mu":
        real = knorrer._slot_exchange
        patch.setattr(knorrer, "_slot_exchange",
                      lambda *args: _bumped_map(real(*args), rng))
    else:
        real = knorrer._thetas
        patch.setattr(knorrer, "_thetas",
                      lambda *args: (_bumped_table(real(*args)[0], rng),))


def _certifying_build(patch, certified):
    """Patch build_semitrivial to certify each extension it builds by
    verify_algebra, as the minus case did before it read the certificate
    off Gamma and mu, and to record it in ``certified``: a failure raises
    that step's PipelineError."""
    real = knorrer.build_semitrivial

    def build(data):
        extension = real(data)
        certified.append(extension)
        report = verify_algebra(extension)
        if not report.ok:
            raise knorrer.PipelineError(
                f"invalid semi-trivial extension: {report.first_failure()}")
        return extension

    patch.setattr(knorrer, "build_semitrivial", build)


def _run(data, lift):
    """The pipeline of the case of ``data``, run on it."""
    run = run_plus_case if p12_classify(data) == CaseKind.PLUS else run_minus_case
    return run(data, lift)


def _outcome(data, lift):
    """The exception a run raises, with its message, or the first failed
    check of a run that returns, or None.  Equal outcomes exit ``nqh
    knorrer`` with the same code."""
    try:
        result = _run(data, lift)
    except NqhError as exc:
        return f"{type(exc).__name__}: {exc}"
    failure = result.checks.first_failure()
    return None if failure is None else failure.name


def test_minus_extension_mutants_fail_as_under_its_own_certificate(
        minus_inputs):
    """Mutate an entry of sigma^!, a column of mu or an entry of Gamma's
    theta, or put another involution in mu's place, on every minus input.
    The pipeline, which certifies the extension through Gamma and mu, and
    the reference, which also runs verify_algebra on it, reject the same
    mutants at the same check."""
    kinds = ("sigma", "mu", "theta", "involution")
    stages = Counter()
    certified = []
    for name, data, lift in minus_inputs:
        for kind in kinds:
            for n in range(1 if name == "big:4" else 3):
                outcomes = []
                for reference in (False, True):
                    with pytest.MonkeyPatch.context() as patch:
                        _mutate_minus(patch, kind, f"minus-mutant:{name}:{kind}:{n}")
                        if reference:
                            _certifying_build(patch, certified)
                        outcomes.append(_outcome(data, lift))
                assert outcomes[0] == outcomes[1], (name, kind, n, outcomes)
                stages[kind, outcomes[0].partition(":")[0]] += 1
    # each mutant is rejected: the bumped coefficients by the checks on
    # sigma^!, mu and Gamma, before any extension is built; the other
    # involutions pass those checks, and their extensions pass verify_algebra
    # in the reference, but break a deformed relation at the oracle step
    assert stages == {(kind, stage): 19 for kind, stage in zip(
        kinds, ("PipelineError",) * 3 + ("RelationViolated",))}, stages
    assert len(certified) == 19


# ---------------------------------------------------------------------------
# the Lemma 4.6 suite, with the second forms of the product rules folded
# into one map identity


def ref_product_rules(xi1, xi2, th22, E):
    """The verdicts of ``xi1-product-rule`` and ``xi2-product-rule`` as the
    suite reached them while it compared each basis pair with both forms
    of each rule."""
    ok2 = ok3 = True
    for a in range(E.dim):
        va = E.basis_vec(a)
        xi1_a = xi1.apply(va)
        xi2_a = xi2.apply(va)
        for b in range(E.dim):
            vb = E.basis_vec(b)
            prod = E.table[a][b]
            th22_b = th22.apply(vb)
            for xi, xi_a, ok in ((xi1, xi1_a, 2), (xi2, xi2_a, 3)):
                lhs = xi.apply(prod)
                rhs = vec_add(E.mul(va, xi2.apply(vb)), E.mul(xi_a, th22_b))
                alt = vec_sub(vec_add(E.mul(va, xi1.apply(vb)),
                                      E.mul(xi_a, th22_b)),
                              E.mul(va, th22_b))
                if not (lhs == rhs and lhs == alt):
                    if ok == 2:
                        ok2 = False
                    else:
                        ok3 = False
    return ok2, ok3


def test_lemma46_suite_mutants_get_the_verdicts_of_both_forms():
    """Mutate xi1 alone, xi2 alone or theta^(0) by one coefficient, on the
    suite of every plus run of the registry and of the skew3 inputs of
    seeds 1 to 4.  Each item of the suite, which checks the second forms of
    the product rules as the map identity xi1 - xi2 = th22, gets the
    verdict of the reference, which compares every pair with both forms."""
    found = []
    real = knorrer._lemma46_suite

    def record(*args):
        found.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knorrer, "_lemma46_suite", record)
        for scenario_id in ("ex-4.10", "ex-4.9-1", "ex-4.9-2", "ex-5.9",
                            "prop-5.10"):
            assert run_scenario(scenario_id).ok
        for seed in range(1, 5):
            data, central = parse_double_ore(
                json.loads(generate("skew3", seed)["plus.json"]))
            assert run_plus_case(data, central).checks.ok
    failed = Counter()
    for n, args in enumerate(found):
        for kind in ("xi1", "xi2", "theta0"):
            for k in range(4):
                rng = random.Random(f"lemma46-mutant:{n}:{kind}:{k}")
                xi1, xi2, phi1, phi2, theta0, theta1, E = args
                if kind != "theta0":
                    # xi1 or xi2 may be 0: bump any coefficient
                    linmap = xi1 if kind == "xi1" else xi2
                    cols = list(linmap.cols)
                    b = rng.randrange(E.dim)
                    cols[b] = _bump(cols[b], rng.randrange(E.dim))
                    linmap = GradedLinMap(E, E, cols)
                    xi1, xi2 = (linmap, xi2) if kind == "xi1" else (xi1, linmap)
                else:
                    theta0 = _bumped_table(theta0, rng)
                items = [(item.name, item.passed) for item in knorrer._lemma46_suite(
                    xi1, xi2, phi1, phi2, theta0, theta1, E).items]
                rules = dict(zip(("xi1-product-rule", "xi2-product-rule"),
                                 ref_product_rules(xi1, xi2, theta0.entry(2, 2), E)))
                assert items == [(name, rules.get(name, passed))
                                 for name, passed in items], (n, kind, k)
                failed.update(name for name, passed in items if not passed)
    assert len(found) == 7
    assert failed["xi1-product-rule"] and failed["xi2-product-rule"], failed


# ---------------------------------------------------------------------------
# strong grading and the degree-0 radical, read off certified data


@pytest.fixture(scope="module")
def knorrer_inputs():
    """(name, data, lift) of the five registry pipelines, of the skew3
    inputs of seeds 1 to 4 and of the 4-generator inputs drawn from
    random.Random("big:4"), plus and minus."""
    docs = [("ex-4.10", EX_4_10), ("ex-4.9-1", EX_4_9_1),
            ("ex-4.9-2", EX_4_9_2), ("ex-5.9", EX_5_9), ("prop-5.10", PROP_5_10)]
    for seed in range(1, 5):
        docs += [(f"skew3:{seed}:{name}", json.loads(blob))
                 for name, blob in sorted(generate("skew3", seed).items())]
    docs += [(f"big:4:{p12}", json.loads(encode(
        skew_double_ore(random.Random("big:4"), 4, p12)))) for p12 in (1, -1)]
    return [(name, *parse_double_ore(doc)) for name, doc in docs]


def test_the_degree0_radical_is_read_off_the_big_radical(knorrer_inputs):
    """On every input, the degree-0 radical that singularity_report counts
    is the one the trace form gives on the degree-0 part, and both radicals
    that it reads off J(Lambda) in the plus case, or off J(Gamma) in the
    minus case, are the ones the trace form gives on the big algebra.
    prop-5.10's radicals are 8 and 4."""
    dims = {}
    for name, data, lift in knorrer_inputs:
        result = _run(data, lift)
        report = singularity_report(result)
        big = result.twisted if result.case == "plus" else result.semitrivial
        assert report.degree0_radical_dim == ref_degree0_radical_dim(big), name
        assert (report.big_radical_dim,
                report.degree0_radical_dim) == ref_radical_dims(big), name
        if result.case == "plus":
            assert report.small_radical_dim == radical(result.Lambda).dim, name
        dims[name] = (report.big_radical_dim, report.degree0_radical_dim)
    assert len(dims) == 15
    assert {name: d for name, d in dims.items() if d != (0, 0)} == {
        "prop-5.10": (8, 4)}


def _truncated_times_triangular():
    """K[x]/(x^3), x odd, times the upper triangular 2x2 matrices with e12
    odd: its radical is spanned by x, x^2 and e12, so it has parts in both
    degrees, and J(A_0) is spanned by x^2."""
    labels = ("1", "x", "x2", "e11", "e12", "e22")
    degrees = [(0,), (1,), (0,), (0,), (1,), (0,)]
    table = [[{} for _ in labels] for _ in labels]
    for i in range(3):
        for j in range(3 - i):
            table[i][j] = {i + j: ONE}
    for (a, b), c in {(3, 3): 3, (3, 4): 4, (4, 5): 4, (5, 5): 5}.items():
        table[a][b] = {c: ONE}
    return GradedAlgebra(labels, table, {0: ONE, 3: ONE, 5: ONE}, degrees)


def test_the_degree0_radical_is_read_off_both_degrees_of_a_radical():
    """On a hand-built algebra R whose radical has odd and even parts: as
    Lambda of a plus case, the corner of the plain M_2(R) on the plus
    case's basis at its full idempotent e = E11, the report closes the
    image of J(R) to J(M_2(R)) and reads 12 and 6, as the trace form on
    M_2(R) gives.  Read as Gamma of the minus case, with mu = id, the
    report reads 6 and 3 off J(Gamma), as the trace form on
    Gamma x| <mu> gives."""
    algebra = _truncated_times_triangular()
    assert verify_algebra(algebra).ok
    J = radical(algebra)
    assert sorted(algebra.element_degree(row) for row in J.basis) == [
        (0,), (1,), (1,)]
    assert ref_degree0_radical_dim(algebra) == 1
    layout = BlockLayout(algebra, standard_basis_m2())
    big = plain_m2(algebra, layout.basis).total_degree_regrade()
    assert verify_algebra(big).ok
    e = {layout.index(0, 1, b): c * HALF for b, c in algebra.unit.items()}
    e.update((layout.index(0, 2, b), c * HALF * I) for b, c in algebra.unit.items())
    gens = generating_set(big)
    assert full_idempotent_check(big, e, gens)
    corner = GradedLinMap(algebra, big, [
        {layout.index(0, 1, b): HALF, layout.index(0, 2, b): HALF * I}
        for b in range(algebra.dim)])
    assert certify_by_iso(corner, corner_embedding(big, e))
    assert ref_radical_dims(big) == (12, 6)
    report = singularity_report(
        SimpleNamespace(case="plus", twisted=big, Lambda=algebra, corner=corner,
                        generators=gens))
    assert (report.big_radical_dim, report.degree0_radical_dim,
            report.small_radical_dim) == (12, 6, 3)
    assert "degree-0 part dim: 12, radical dim: 6" in report.lines
    ST = build_semitrivial(semitrivial_mu(
        algebra, GradedLinMap.identity(algebra),
        generating_set(algebra))).forget_first_regrade()
    assert ref_radical_dims(ST) == (6, 3)
    report = singularity_report(
        SimpleNamespace(case="minus", Gamma=algebra, semitrivial=ST, zhang=algebra))
    assert (report.big_radical_dim, report.degree0_radical_dim) == (6, 3)
    assert "degree-0 part dim: 6, radical dim: 3" in report.lines


def _with_the_scans(patch):
    """Run strongly_graded_check on the target of every accepted oracle
    step, raising as the step did when it was passed that scan's verdict:
    the pipelines as they were before strong grading was read off
    y2^2 = 1 and, in the minus case, off t t = 1."""
    real = knorrer._oracle_step

    def step(checks, data, lift, base, target, *rest):
        oracle = real(checks, data, lift, base, target, *rest)
        if not strongly_graded_check(target):
            raise DimensionMismatch("deformation is not strongly Z2-graded")
        return oracle

    patch.setattr(knorrer, "_oracle_step", step)


def _odd_product_bump(algebra, seed):
    """(i, j, k), drawn from ``seed``: the coefficient of e_k in the product
    of two basis vectors e_i, e_j of odd total degree."""
    rng = random.Random(seed)
    odd = [i for i, d in enumerate(algebra.degrees) if sum(d) % 2]
    i, j = rng.choice(odd), rng.choice(odd)
    return i, j, rng.randrange(algebra.dim)


def _bump_odd_product(algebra, seed):
    """A stored copy of ``algebra`` with the coefficient of
    ``_odd_product_bump`` bumped by 1."""
    i, j, k = _odd_product_bump(algebra, seed)
    table = [list(row) for row in algebra.table]
    table[i][j] = _bump(table[i][j], k)
    return GradedAlgebra(algebra.labels, table, algebra.unit,
                         algebra.degrees, algebra.group_rank)


def _odd_product_mutant(patch, seed):
    """Patch the twisted algebra's build, before its certificate, to form
    the cell of ``_odd_product_bump`` and keep it bumped by 1 in the rule's
    memo, so every later read sees the bump."""
    real = twist._twisted_algebra

    def build(system):
        algebra = real(system)
        i, j, k = _odd_product_bump(algebra, seed)
        row = algebra.row(i)
        row[j] = _bump(row[j], k)
        return algebra

    patch.setattr(twist, "_twisted_algebra", build)


def test_strong_grading_mutants_fail_as_under_the_product_scans(knorrer_inputs):
    """Bump an odd-by-odd product of the twisted algebra, kept in its
    rule's memo before it is certified, on every input, or corrupt mu or
    replace it by another
    involution on every minus input.  The pipelines, which read strong
    grading off y2^2 = 1 and t t = 1, and the reference, which also scans
    the odd-by-odd products of the target, reject the same mutants at the
    same stage with the same message, so with the same exit code."""
    stages = Counter()
    for name, data, lift in knorrer_inputs:
        kinds = ["target"]
        if p12_classify(data) == CaseKind.MINUS:
            kinds += ["mu", "involution"]
        for kind in kinds:
            for n in range(1 if name.startswith("big") else 3):
                seed = f"graded-mutant:{name}:{kind}:{n}"
                outcomes = []
                for reference in (False, True):
                    with pytest.MonkeyPatch.context() as patch:
                        if kind == "target":
                            _odd_product_mutant(patch, seed)
                        else:
                            _mutate_minus(patch, kind, seed)
                        if reference:
                            _with_the_scans(patch)
                        outcomes.append(_outcome(data, lift))
                assert outcomes[0] == outcomes[1], (name, kind, n, outcomes)
                stages[kind, (outcomes[0] or "accepted").partition(":")[0]] += 1
    # the twisted certificate rejects 38 bumps, those of the wrong degree
    # by its scan of the products held when it runs; it certifies the
    # rule, so 3 bumps of cells that no later check reads pass both routes.  Corrupted mu fails semitrivial_mu, and the other
    # involutions keep t t = 1 but break a relation at the oracle step.
    assert stages == {("target", "PipelineError"): 38, ("target", "accepted"): 3,
                      ("mu", "PipelineError"): 19,
                      ("involution", "RelationViolated"): 19}, stages


# ---------------------------------------------------------------------------
# Lambda and the Zhang twist, certified onto subspaces of the big algebras


@pytest.fixture(scope="module")
def subspace_certificates(knorrer_inputs):
    """(name, case, map, image, unit) of each verify_iso call of nqh.knorrer
    on the inputs of ``knorrer_inputs``: Lambda's columns onto the corner e A e,
    whose unit is e, and the Zhang twist's onto the span of ST's degree-0
    basis vectors, whose unit is ST's."""
    found = []
    corners = []
    real_corner = knorrer.corner_embedding
    real_certify = knorrer.verify_iso

    def corner(algebra, e):
        corners.append(e)
        return real_corner(algebra, e)

    def certify(linmap, gens, image):
        found.append((linmap, image))
        return real_certify(linmap, gens, image)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knorrer, "corner_embedding", corner)
        patch.setattr(knorrer, "verify_iso", certify)
        out = []
        for name, data, lift in knorrer_inputs:
            plus = p12_classify(data) == CaseKind.PLUS
            found.clear()
            corners.clear()
            assert (run_plus_case if plus else run_minus_case)(data, lift).checks.ok
            (linmap, image), = found
            out.append((name, "corner" if plus else "zhang", linmap, image,
                        corners[0] if plus else linmap.target.unit))
    return out


def _source_bumped(linmap, rng):
    """``linmap`` from a copy of its source with one product bumped by 1."""
    source = linmap.source
    table = [list(row) for row in source.table]
    i, j = rng.randrange(source.dim), rng.randrange(source.dim)
    table[i][j] = _bump(table[i][j], rng.randrange(source.dim))
    bumped = GradedAlgebra(source.labels, table, source.unit, source.degrees,
                           source.group_rank)
    return GradedLinMap(bumped, linmap.target, linmap.cols)


def _column_mutant(linmap, image, kind, rng):
    """``linmap`` with one column moved: a basis row of ``image`` added to
    it (``"inside"``), a basis vector outside ``image`` added to it
    (``"outside"``), or two columns swapped (``"swapped"``).  Or
    ``linmap`` followed by the grading automorphism of the target, which
    keeps the graded ``image`` (``"xi"``): another isomorphism onto it."""
    cols = list(linmap.cols)
    i, j = rng.sample(range(len(cols)), 2)
    if kind == "xi":
        cols = [vec_scale(col, MINUS_ONE) if linmap.target.element_degree(col) == (1,)
                else col for col in cols]
    elif kind == "swapped":
        cols[i], cols[j] = cols[j], cols[i]
    elif kind == "inside":
        cols[i] = vec_add(cols[i], rng.choice(image.basis))
    else:
        cols[i] = vec_add(cols[i], {rng.choice(
            [k for k in range(image.ambient) if not image.contains({k: ONE})]): ONE})
    return GradedLinMap(linmap.source, linmap.target, cols)


def test_subspace_certificates_match_the_restricted_route(subspace_certificates):
    """verify_iso onto a subspace gives the verdict of the old route,
    which restricted the target to that subspace and certified onto the
    restricted algebra, on Lambda's map onto e A e and the Zhang twist's
    onto ST's degree-0 part on every input, and on mutants of each: a
    bumped product of the Zhang twist's table, a column moved inside or
    outside the subspace, two columns swapped, and the map followed by the
    target's grading automorphism, which both accept.  The pipeline checks
    the corner map on a generating set of Lambda, which it proves
    associative, and the Zhang twist's on every pair.  A bumped product of
    Lambda's table is no input of the pipeline; the all-pairs
    certify_by_iso, which assumes nothing of its source, rejects it as the
    old route does."""
    verdicts = Counter()
    for name, case, linmap, image, unit in subspace_certificates:
        corner = case == "corner"
        gens = generating_set(linmap.source) if corner else range(linmap.source.dim)
        assert verify_iso(linmap, gens, image) and ref_certify_onto(linmap, image, unit)
        rng = random.Random(f"subspace-certificate:{name}")
        mutants = [("table", _source_bumped(linmap, rng)) for _ in range(3)]
        mutants += [(kind, _column_mutant(linmap, image, kind, rng))
                    for kind in ("inside", "outside", "swapped") for _ in range(2)]
        mutants.append(("xi", _column_mutant(linmap, image, "xi", rng)))
        for kind, mutant in mutants:
            verdict = (certify_by_iso(mutant, image) if corner and kind == "table"
                       else verify_iso(mutant, gens, image))
            assert verdict == ref_certify_onto(mutant, image, unit), (name, kind)
            verdicts[case, kind, verdict] += 1
    assert verdicts == {
        **{(case, kind, False): n for case, n in (("corner", 16), ("zhang", 14))
           for kind in ("inside", "outside", "swapped")},
        ("corner", "table", False): 24, ("zhang", "table", False): 21,
        ("corner", "xi", True): 8, ("zhang", "xi", True): 7}, verdicts


def _corner_idempotents(subspace_certificates):
    """(name, twisted algebra A, e) of every plus input."""
    return [(name, linmap.target, e)
            for name, case, linmap, _, e in subspace_certificates
            if case == "corner"]


def test_the_full_idempotent_check_stops_with_the_closure_verdict(
        subspace_certificates):
    """On each plus input's twisted algebra at its e, and on the mutants of
    it that test_strong_grading_mutants_fail_as_under_the_product_scans
    builds, with one odd-by-odd product bumped, the check that stops at
    the unit gives the verdict of the whole closure."""
    verdicts = Counter()
    for name, A, e in _corner_idempotents(subspace_certificates):
        seeds = range(1 if name.startswith("big") else 3)
        for kind, algebra in [("as built", A)] + [
                ("mutant", _bump_odd_product(A, f"graded-mutant:{name}:target:{n}"))
                for n in seeds]:
            gens = generating_set(algebra)
            verdict = full_idempotent_check(algebra, e, gens)
            assert verdict == ref_full_idempotent_check(algebra, e, gens), (name, kind)
            verdicts[kind, verdict] += 1
    # 7 inputs with 3 mutants and big:4 with 1: every bump keeps e full
    assert verdicts == {("as built", True): 8, ("mutant", True): 22}, verdicts


def test_the_full_idempotent_check_stops_at_the_unit(subspace_certificates,
                                                     monkeypatch):
    """The check forms e e and then the closure's products only until the
    unit enters the span.  On skew3:1 plus that is 19 of the 320 products
    of the whole closure (32 vectors, 5 generators, 2 sides), and on each
    registry plus input 15 of 128."""
    products = []
    real = GradedAlgebra.mul
    counts = {}
    for name, A, e in _corner_idempotents(subspace_certificates):
        gens = generating_set(A)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GradedAlgebra, "mul",
                          lambda self, u, v: products.append(1) or real(self, u, v))
            for check in (full_idempotent_check, ref_full_idempotent_check):
                products.clear()
                assert check(A, e, gens), name
                counts[name, check is full_idempotent_check] = len(products)
    # e e, then the closure's products
    for name in ("ex-4.10", "ex-4.9-1", "ex-4.9-2"):
        assert (counts[name, True], counts[name, False]) == (1 + 15, 1 + 128)
    for seed in range(1, 5):
        name = f"skew3:{seed}:plus.json"
        assert (counts[name, True], counts[name, False]) == (1 + 19, 1 + 320)
    assert (counts["big:4:1", True], counts["big:4:1", False]) == (1 + 23, 1 + 768)


def test_a_plus_run_computes_the_twisted_generating_set_once(monkeypatch):
    """The twisted algebra's certificate computes its generating set, and
    the full-idempotent check, on the total-degree regrading that shares
    its table, is handed the same one: one call on that table for a plus
    run and its report, on ex-4.10 and skew3:1."""
    tables = []
    real = algebra_module.generating_set

    def counting(algebra):
        tables.append(algebra.table)
        return real(algebra)

    for module in (algebra_module, twist, knorrer, scenarios):
        if hasattr(module, "generating_set"):
            monkeypatch.setattr(module, "generating_set", counting)
    docs = [EX_4_10, json.loads(generate("skew3", 1)["plus.json"])]
    for doc in docs:
        tables.clear()
        result = run_plus_case(*parse_double_ore(doc))
        singularity_report(result)
        assert result.generators == real(result.twisted)
        assert [t for t in tables if t is result.twisted.table] == [result.twisted.table]


def test_spin_through_a_generating_set_spins_through_every_basis_vector(
        subspace_certificates):
    """On the regular modules of the registry's corner extensions, Zhang
    twists and big algebras, spinning each basis vector, and a seeded
    random vector, through the generating set gives the subspace that
    spinning through every basis vector gives."""
    checked = Counter()
    for name, case, linmap, _, _ in subspace_certificates[:5]:
        for algebra in (linmap.source, linmap.target):
            regular = RightModule.regular(algebra)
            gens = generating_set(algebra)
            rng = random.Random(f"spin:{name}:{algebra.dim}")
            seeds = [{i: ONE} for i in range(algebra.dim)]
            seeds.append({i: Scalar(rng.randrange(-3, 4)) for i in range(algebra.dim)
                          if rng.random() < 0.3})
            for seed in seeds:
                assert spin(regular, [seed], gens) == spin(
                    regular, [seed], range(algebra.dim)), (name, seed)
            checked[case, len(gens) < algebra.dim] += len(seeds)
    # every generating set is a proper subset of the basis
    assert checked == {("corner", True): 66, ("zhang", True): 52}, checked


def test_a_plus_run_stops_when_the_idempotent_is_not_full(monkeypatch):
    """The plus report reads the big radical off Lambda through A e A = A,
    so a run whose full-idempotent check fails raises, after recording the
    failed item, instead of returning a result."""
    checks = []
    real = knorrer.Report.add

    def add(self, name, passed, detail=""):
        checks.append((name, passed))
        return real(self, name, passed, detail)

    monkeypatch.setattr(knorrer, "full_idempotent_check",
                        lambda algebra, e, gens: False)
    monkeypatch.setattr(knorrer.Report, "add", add)
    with pytest.raises(knorrer.PipelineError, match="^the corner idempotent is not full$"):
        run_plus_case(*parse_double_ore(EX_4_10))
    assert checks[-1] == ("full-idempotent", False)


def test_module_bumps_that_the_full_route_rejects_stay_rejected(monkeypatch):
    """Bump one action entry of one listed module of ex-4.10's four
    characters or ex-5.9's five spun modules, over several seeds.  Every
    list that verify_decomposition's old route, intertwiner equations on
    every basis element and no module check, rejects is still rejected.
    The module check through the generating set, [1, 2] of 4 on ex-4.10's
    algebra and [1, 2, 4] of 8 on ex-5.9's, agrees with the check on every
    product on each bumped module."""
    recorded = {}
    real = scenarios.verify_decomposition
    for scenario_id in ("ex-4.10", "ex-5.9"):
        def record(*args, name=scenario_id):
            recorded[name] = args
            return real(*args)

        monkeypatch.setattr(scenarios, "verify_decomposition", record)
        assert run_scenario(scenario_id).ok
    verdicts = Counter()
    for name, (algebra, simples, multiplicities) in recorded.items():
        gens = generating_set(algebra)
        assert gens == {"ex-4.10": [1, 2], "ex-5.9": [1, 2, 4]}[name]
        for k, module in enumerate(simples):
            for n in range(4):
                rng = random.Random(f"module-bump:{name}:{k}:{n}")
                action = [list(rows) for rows in module.action]
                j, r = rng.randrange(algebra.dim), rng.randrange(module.dim)
                action[j][r] = _bump(action[j][r], rng.randrange(module.dim))
                listed = list(simples)
                listed[k] = RightModule(algebra, module.dim, action)
                assert algebra_module._is_module(listed[k], gens) == verify_module(
                    listed[k]), (name, k, n)
                old = ref_verify_decomposition(algebra, listed, multiplicities)
                new = verify_decomposition(algebra, listed, multiplicities)
                assert new <= old, (name, k, n)
                verdicts[name, old, new] += 1
    # no bump keeps a listed module a module, so both routes reject each
    assert verdicts == {("ex-4.10", False, False): 16,
                        ("ex-5.9", False, False): 20}, verdicts


def test_restrict_builds_only_the_eigenspace_subalgebra(monkeypatch):
    """A plus run restricts once, to the eigenspace subalgebra S, and a
    minus run never: the corner is a subspace, with no algebra of its own,
    and the minus result keeps no degree-0 algebra.  The extension shares
    the ring's product dicts rather than copying them."""
    calls = []
    built = []
    inside = []
    real_restrict = algebra_module.restrict
    real_init = GradedAlgebra.__init__
    real_corner = knorrer.corner_embedding

    def restrict_counting(*args):
        calls.append(args[1])
        return real_restrict(*args)

    def init(self, *args, **kwargs):
        if inside:
            built.append(self)
        real_init(self, *args, **kwargs)

    def corner(*args):
        inside.append(True)
        try:
            return real_corner(*args)
        finally:
            inside.pop()

    for module in (algebra_module, knorrer):
        monkeypatch.setattr(module, "restrict", restrict_counting)
    monkeypatch.setattr(GradedAlgebra, "__init__", init)
    monkeypatch.setattr(knorrer, "corner_embedding", corner)
    assert not {"ST0", "sigma_dual"} & {
        f.name for f in dataclasses.fields(knorrer.MinusCaseResult)}
    assert not {"phi1", "sigma_dual"} & {
        f.name for f in dataclasses.fields(knorrer.PlusCaseResult)}
    for name, blob in sorted(generate("skew3", 1).items()):
        data, lift = parse_double_ore(json.loads(blob))
        calls.clear()
        if name == "plus.json":
            result = run_plus_case(data, lift)
            assert calls == [result.S], name
        else:
            result = run_minus_case(data, lift)
            assert calls == [], name
            Gamma, ST_big = result.Gamma, result.semitrivial_bigraded
            assert all(ST_big.table[i][j] is Gamma.table[i][j]
                       for i in range(Gamma.dim) for j in range(Gamma.dim))
        assert result.checks.ok and built == [], name
    assert isinstance(real_corner(result.twisted, result.twisted.unit), Subspace)


def test_a_minus_run_computes_the_twisted_generating_set_once(monkeypatch):
    """The twisted product's certificate computes its generating set, and
    semitrivial_mu's check of mu is handed the same one: one call on
    Gamma's table for a minus run and its report, on ex-5.9 and skew3:1."""
    tables = []
    real = algebra_module.generating_set

    def counting(algebra):
        tables.append(algebra.table)
        return real(algebra)

    for module in (algebra_module, twist, knorrer, scenarios):
        if hasattr(module, "generating_set"):
            monkeypatch.setattr(module, "generating_set", counting)
    docs = [EX_5_9, json.loads(generate("skew3", 1)["minus.json"])]
    for doc in docs:
        tables.clear()
        result = run_minus_case(*parse_double_ore(doc))
        singularity_report(result)
        assert result.theta_prod.generators == real(result.Gamma)
        assert [t for t in tables if t is result.Gamma.table] == [result.Gamma.table]


def test_the_zhang_rows_are_the_table_builder(minus_inputs):
    """The Zhang twist forms each row on demand from Gamma's row and the
    products mu(e_i) e_b of the extension's data, shared with it.  Its rows
    equal those of the table builder it replaced, entry for entry and in
    key order, on every minus input.  Its even products are Gamma's own
    dicts, and its odd ones are the extension's left action e_i . m_j."""
    for name, data, lift in minus_inputs:
        result = run_minus_case(data, lift)
        Gamma, NG = result.Gamma, result.zhang
        ref = ref_zhang_twist(Gamma, result.mu)
        assert table_entries(NG) == table_entries(ref), name
        assert (NG.unit, NG.degrees, NG.words) == (ref.unit, ref.degrees, ref.words)
        ST_big = result.semitrivial_bigraded
        n = Gamma.dim
        for i in range(n):
            for j, cell in enumerate(NG.row(i)):
                if Gamma.degrees[j] == (0,):
                    assert cell is Gamma.row(i)[j], name
                else:
                    assert {n + k: c for k, c in cell.items()} == ST_big.row(i)[n + j], name


def _lemma46_args(knorrer_inputs):
    """The arguments of the Lemma 4.6 suite on every plus input."""
    found = []
    real = knorrer._lemma46_suite

    def record(*args):
        found.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knorrer, "_lemma46_suite", record)
        for name, data, lift in knorrer_inputs:
            if p12_classify(data) == CaseKind.PLUS:
                assert run_plus_case(data, lift).checks.ok, name
    return found


def test_the_lemma46_suite_matches_the_pair_loop(knorrer_inputs):
    """Once xi1 - xi2 = th22, the suite checks the xi product rules on {1}
    and generating_set(E) only, and scans every pair when one fails there.
    On each plus input, and on mutants with one coefficient of xi1, xi2,
    phi1, phi2 or theta^(0) bumped, or the same one of xi1 and xi2, its
    product-rule and two-argument items equal the one pair loop the suite
    ran before."""
    routes = Counter()
    verdicts = Counter()
    real_rules = knorrer._xi_product_rules
    for n, args in enumerate(_lemma46_args(knorrer_inputs)):
        for kind in ("none", "xi1", "xi2", "both xi", "phi1", "phi2", "theta0"):
            for k in range(1 if kind == "none" else 3):
                rng = random.Random(f"lemma46-pairs:{n}:{kind}:{k}")
                xi1, xi2, phi1, phi2, theta0, theta1, E = args
                maps = {"xi1": xi1, "xi2": xi2, "phi1": phi1, "phi2": phi2}
                if kind == "theta0":
                    theta0 = _bumped_table(theta0, rng)
                elif kind == "both xi":
                    # the same bump of both keeps xi1 - xi2 = th22
                    b, key = rng.randrange(E.dim), rng.randrange(E.dim)
                    for name in ("xi1", "xi2"):
                        cols = list(maps[name].cols)
                        cols[b] = _bump(cols[b], key)
                        maps[name] = GradedLinMap(E, E, cols)
                elif kind != "none":
                    cols = list(maps[kind].cols)
                    b = rng.randrange(E.dim)
                    cols[b] = _bump(cols[b], rng.randrange(E.dim))
                    maps[kind] = GradedLinMap(E, E, cols)
                scanned = []
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(knorrer, "_xi_product_rules",
                                  lambda *a: scanned.append(len(a[4])) or real_rules(*a))
                    report = knorrer._lemma46_suite(
                        maps["xi1"], maps["xi2"], maps["phi1"], maps["phi2"],
                        theta0, theta1, E)
                items = {item.name: item.passed for item in report.items}
                want = ref_lemma46_pairs(maps["xi1"], maps["xi2"], maps["phi1"],
                                         maps["phi2"], theta0, E)
                assert {name: items[name] for name in want} == want, (n, kind, k)
                routes[kind, ("map identity", "reduced", "scan")[len(scanned)]] += 1
                verdicts[kind, report.ok] += 1
    # a bumped xi fails xi1 - xi2 = th22, as a theta^(0) bump that moves
    # th22 does; the same bump of both fails a rule on {1} or S
    assert routes == {("none", "reduced"): 8, ("xi1", "map identity"): 24,
                      ("xi2", "map identity"): 24, ("both xi", "scan"): 24,
                      ("phi1", "reduced"): 24, ("phi2", "reduced"): 24,
                      ("theta0", "reduced"): 17, ("theta0", "map identity"): 7}, routes
    assert verdicts == {("none", True): 8, ("xi1", False): 24, ("xi2", False): 24,
                        ("both xi", False): 24, ("phi1", False): 24, ("phi2", False): 24,
                        ("theta0", True): 17, ("theta0", False): 7}, verdicts


def _grading_mutant(algebra, rng, bumps):
    """``algebra`` with ``bumps`` products each given one or two more keys,
    of a degree other than its product's, each placed first or last in the
    dict."""
    table = [list(row) for row in algebra.table]
    for _ in range(bumps):
        i, j = rng.randrange(algebra.dim), rng.randrange(algebra.dim)
        target = add_degrees(algebra.degrees[i], algebra.degrees[j])
        wrong = [k for k, d in enumerate(algebra.degrees) if d != target]
        for k in rng.sample(wrong, rng.choice((1, 2))):
            cell = {key: c for key, c in table[i][j].items() if key != k}
            table[i][j] = {k: ONE, **cell} if rng.random() < 0.5 else {**cell, k: ONE}
    return GradedAlgebra(algebra.labels, table, algebra.unit, algebra.degrees,
                         algebra.group_rank)


def test_the_grading_item_names_the_scan_failure(knorrer_inputs):
    """The grading item tests each product with one set containment.  On
    E, Gamma and the twisted M_2(E) of the registry inputs and the skew3
    inputs of seeds 1 to 4, as built and with one or two products bumped
    onto one or two keys of the wrong degree, its verdict and detail are
    those of the key-by-key scan."""
    checked = Counter()
    for name, data, lift in knorrer_inputs:
        if name.startswith("big"):
            continue
        plus = p12_classify(data) == CaseKind.PLUS
        result = (run_plus_case if plus else run_minus_case)(data, lift)
        twisted = result.twisted_bigraded if plus else result.Gamma
        for label, algebra in (("E", result.base.algebra), ("twisted", twisted)):
            rng = random.Random(f"grading-mutant:{name}:{label}")
            for bumps in (0, 1, 1, 2):
                mutant = _grading_mutant(algebra, rng, bumps)
                item = algebra_module._algebra_report(mutant, []).items[1]
                failure = ref_grading_failure(mutant)
                assert (item.name, item.passed) == ("grading", failure is None)
                assert item.detail == ("" if failure is None else
                                       "product ({},{}) hits degree of basis {}"
                                       .format(*failure)), (name, label, bumps)
                checked[label, item.passed] += 1
    assert checked == {("E", True): 13, ("E", False): 39,
                       ("twisted", True): 13, ("twisted", False): 39}, checked


def test_a_plus_run_checks_the_corner_on_every_pair_when_the_suite_fails(
        monkeypatch):
    """Lambda's associativity rests on the Lemma 4.6 suite.  A passing run
    checks the corner map on generating_set(Lambda).  A run whose suite
    fails records the item and goes on, as before, with the map checked on
    every basis pair, which assumes nothing of Lambda."""
    real_suite = knorrer._lemma46_suite
    real_iso = knorrer.verify_iso
    calls = []

    def recording(linmap, gens, image):
        calls.append((linmap.source, list(gens)))
        return real_iso(linmap, gens, image)

    monkeypatch.setattr(knorrer, "verify_iso", recording)
    data = parse_double_ore(EX_4_10)
    assert run_plus_case(*data).checks.ok
    (Lambda, gens), = calls
    assert gens == generating_set(Lambda) and len(gens) < Lambda.dim
    calls.clear()
    monkeypatch.setattr(knorrer, "_lemma46_suite",
                        lambda xi1, xi2, phi1, *rest: real_suite(xi1, xi2, phi1.scale(Scalar(2)),
                                                                 *rest))
    checks = run_plus_case(*data).checks
    (Lambda, gens), = calls
    assert gens == list(range(Lambda.dim))
    assert [item.name for item in checks.items if not item.passed] == [
        "projection-identity-suite"]


def test_a_bumped_degree0_product_of_the_extension_fails_the_zhang_check(
        minus_inputs):
    """The Zhang certificate checks every pair of ST's degree-0 part, so a
    fault of build_semitrivial's rule there is caught, also at a pair that
    the generating-set check would not read.  On each minus input, a
    stored copy of ST_big with one product e_a e_b bumped by 1, for e_a
    and e_b of degree 0 and e_b not the image of generating_set(NG), fails
    the run."""
    real_build = knorrer.build_semitrivial
    outcomes = Counter()
    for name, data, lift in minus_inputs:
        result = run_minus_case(data, lift)
        n, NG = result.Gamma.dim, result.zhang
        image = [i if result.Gamma.degrees[i] == (0,) else n + i for i in range(n)]
        gens = {image[s] for s in generating_set(NG)}
        rng = random.Random(f"st-degree0-bump:{name}")
        for _ in range(3):
            a = rng.choice(image)
            b = rng.choice([k for k in image if k not in gens])

            def bumped(st_data):
                algebra = real_build(st_data)
                table = [list(row) for row in algebra.table]
                table[a][b] = _bump(table[a][b], rng.randrange(algebra.dim))
                return GradedAlgebra(algebra.labels, table, algebra.unit,
                                     algebra.degrees, algebra.group_rank)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(knorrer, "build_semitrivial", bumped)
                with pytest.raises(NqhError) as failure:
                    run_minus_case(data, lift)
            outcomes[str(failure.value)] += 1
    assert outcomes == {"the Zhang twist does not match the degree-0 part":
                        3 * len(minus_inputs)}, outcomes
