import hashlib
import json
import random
from collections import Counter

import pytest

from conftest import diagonal_sigma

from perfbench.workloads import generate, write_inputs

from nqh import deform, knorrer, twist
from nqh.cli import main
from nqh.formats import parse_double_ore

from nqh.errors import NqhError, WrongP
from nqh.exactlin import I, ONE, Scalar, ZERO
from nqh.algebra import (
    GradedLinMap,
    Report,
    RightModule,
    extend_on_generators,
    hom_dim,
    is_absolutely_simple,
    is_nilpotent_element,
    radical,
    spin,
    vec_add,
    vec_eq,
    vec_scale,
    vec_sub,
    verify_decomposition,
    verify_iso,
)
from nqh.deform import DoubleOreData
from nqh.knorrer import (
    prop51_scenario,
    run_minus_case,
    run_plus_case,
    singularity_report,
)
from nqh.rewrite import extract_algebra
from nqh.scenarios import run_scenario
from nqh.twist import BlockLayout

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
    assert plus_class_z.oracle.algebra.dim == 16
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
            assert vec_eq(lam.table[i][j], lam.table[j][i])


def test_plus_class_z_projection_values(plus_class_z):
    """The quarter projections act as the sign split, and the pairing map
    doubles as half the printed generator images."""
    E = plus_class_z.base.algebra
    even = E.component_indices((0,))
    odd = E.component_indices((1,))
    for k in even:
        assert vec_eq(plus_class_z.xi1.apply(E.basis_vec(k)), E.basis_vec(k))
        assert not plus_class_z.xi2.apply(E.basis_vec(k))
    for k in odd:
        assert vec_eq(plus_class_z.xi2.apply(E.basis_vec(k)), E.basis_vec(k))
        assert not plus_class_z.xi1.apply(E.basis_vec(k))
    index = {lbl: k for k, lbl in enumerate(E.labels)}
    h = Scalar(0, 0, 1, 0, 2)
    image = plus_class_z.phi2.apply(E.basis_vec(index["x1*"]))
    expected = {index["x1*"]: -h, index["x2*"]: I * h}
    assert vec_eq(image, expected)
    printed = vec_scale(expected, Scalar(2))
    assert not vec_eq(image, printed)  # the printed images carry a spare 2


def test_plus_diagonal_identity_case(km1, z_lift):
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    result = run_plus_case(DoubleOreData(km1, ONE, ZERO, sigma), z_lift)
    assert result.checks.ok
    assert result.M.dim == 0
    E = result.base.algebra
    cols = result.S.basis
    iso = GradedLinMap(result.Lambda, E, cols)
    assert verify_iso(iso)
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
    assert verify_iso(iso)


def test_minus_class_t_all_checks(minus_class_t):
    assert minus_class_t.checks.ok
    assert minus_class_t.oracle.algebra.dim == 16
    assert minus_class_t.semitrivial.dim == 16
    assert minus_class_t.Gamma.dim == 8
    assert minus_class_t.zhang.dim == 8


def test_minus_class_t_decomposition(minus_class_t):
    NG = minus_class_t.zhang
    assert radical(NG).dim == 0
    index, pair = pair_tools(minus_class_t)
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
    modules = []
    for seed_list in seeds:
        space = spin(regular, seed_list)
        modules.append(RightModule.from_invariant_subspace(NG, space))
    assert [m.dim for m in modules] == [2, 1, 1, 1, 1]
    assert all(m.verify() for m in modules)
    assert all(is_absolutely_simple(m) for m in modules)
    assert hom_dim(modules[1], modules[2]) == 0
    assert hom_dim(modules[0], regular) == 2
    assert verify_decomposition(NG, modules, [2, 1, 1, 1, 1])
    report = singularity_report(
        minus_class_t,
        decomposition=(modules, [2, 1, 1, 1, 1],
                       ["M2(k)", "k", "k", "k", "k"], NG))
    assert report.isolated
    assert "D^b(k)^{×5}" in report.text()
    assert "blocks: M2(k),k,k,k,k" in report.text()


def test_minus_class_r_products_and_radical(minus_class_r):
    NG = minus_class_r.zhang
    index, pair = pair_tools(minus_class_r)
    one_v = {index["1"]: ONE}
    w_v = {index["x1*x2*"]: ONE}
    u_v = {index["x1*"]: ONE}
    v_v = {index["x2*"]: ONE}
    star = NG.mul
    assert vec_eq(star(pair(v_v, {}), pair(u_v, {})),
                  pair({index["1"]: MINUS_ONE}, {}))
    assert vec_eq(star(pair(v_v, {}), pair(one_v, {})),
                  pair(u_v, {}))
    assert vec_eq(star(pair(w_v, {}), pair({}, one_v)),
                  pair(vec_sub(w_v, one_v), {}))
    # oracle-certified corrections of two misprinted row entries
    assert vec_eq(star(pair(u_v, {}), pair(u_v, {})),
                  pair({index["1"]: MINUS_ONE}, {}))
    assert vec_eq(star(pair(u_v, {}), pair(v_v, {})),
                  pair({index["x1*x2*"]: MINUS_ONE}, {}))
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
            assert vec_eq(NG.mul(left, right), pair(E.table[b][bp], {}))
            left = pair({}, {b: ONE})
            right = pair({}, {bp: ONE})
            assert vec_eq(NG.mul(left, right), pair({}, E.table[b][bp]))
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
    lines, witness = prop51_scenario(data, z_lift)
    assert any("z + y2^2" in line for line in lines)
    assert any("isolated singularity: no" in line for line in lines)
    assert radical(witness.algebra).dim == 2
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


def test_each_run_builds_each_dual_and_deformation_once(monkeypatch):
    """One run builds three Koszul duals (base, B, mixing block J), runs
    check_central three times (in B, then inside the two build_clifford
    calls) and deforms twice (base, J): nothing is rebuilt."""
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
        data, central = parse_double_ore(json.loads(blob))
        run = run_plus_case if name == "plus.json" else run_minus_case
        counts.clear()
        assert run(data, central).checks.ok
        assert counts == {"koszul_dual": 3, "check_central": 3,
                          "build_clifford": 2}, name


def test_each_run_descends_sigma_and_its_inverse_once(monkeypatch, tmp_path,
                                                      capsys):
    """One knorrer run maps sigma and phi to the degree-2 component once
    each: sigma's table is cached on the data and read by every check."""
    calls = []
    real = deform._on_degree2

    def counting(presentation, table):
        calls.append(table)
        return real(presentation, table)

    monkeypatch.setattr(deform, "_on_degree2", counting)
    write_inputs(generate("skew3", 7), tmp_path)
    for case in ("plus", "minus"):
        calls.clear()
        assert main(["--json", "knorrer", str(tmp_path / f"{case}.json")]) == 0
        assert len(calls) == 2, case
    capsys.readouterr()


def test_each_run_builds_and_certifies_each_twisted_table_once(monkeypatch):
    """One run builds its twisted table once and certifies it once; the
    exchange identity is read off that certificate, so the basis-pair loop
    never runs on an accepted system.  No oracle or Zhang table reaches
    verify_algebra, since certify_by_iso certifies both, and a minus run
    checks its involution once."""
    counts = Counter()
    certified = []
    elsewhere = []
    isos = []

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in ("_exchange_failure", "_twisted_algebra", "build_twisted_M2",
                 "build_twisted_prod"):
        monkeypatch.setattr(twist, name, counting(name, getattr(twist, name)))
    real_verify = twist.verify_algebra

    def certify(algebra):
        certified.append(algebra)
        return real_verify(algebra)

    monkeypatch.setattr(twist, "verify_algebra", certify)

    def recording(sink, real):
        def wrapper(arg):
            sink.append(arg)
            return real(arg)
        return wrapper

    for module in (deform, knorrer):
        monkeypatch.setattr(module, "verify_algebra",
                            recording(elsewhere, module.verify_algebra))
    monkeypatch.setattr(twist, "verify_iso", recording(isos, twist.verify_iso))
    for name, blob in sorted(generate("skew3", 7).items()):
        data, central = parse_double_ore(json.loads(blob))
        plus = name == "plus.json"
        counts.clear()
        certified.clear()
        elsewhere.clear()
        isos.clear()
        result = (run_plus_case if plus else run_minus_case)(data, central)
        assert result.checks.ok
        builder = "build_twisted_M2" if plus else "build_twisted_prod"
        assert counts == {builder: 1, "_twisted_algebra": 1}, name
        twisted = result.twisted_bigraded if plus else result.Gamma
        assert len(certified) == 1 and certified[0] is twisted, name
        uncertified = ([result.oracle.algebra] if plus
                       else [result.oracle.algebra, result.zhang])
        assert not [a for a in elsewhere if any(a is u for u in uncertified)], name
        if not plus:
            assert [m for m in isos if m is result.mu] == [result.mu]


# ---------------------------------------------------------------------------
# the oracle certified through certify_by_iso against its own verify_algebra


def ref_oracle_step(checks, data, lift, base, target, y_images, layout, what):
    """The oracle step before certify_by_iso: verify_algebra certifies the
    oracle table, then verify_iso checks the map on a generating set."""
    oracle = deform.build_Bshriek_clifford(data, lift, base)
    deform.certify_oracle(oracle.algebra)
    E = base.algebra
    images = [{index: ONE} for index in y_images]
    for a in range(data.ngens):
        images.append({layout.index(0, 1, E.words.index((a,))): ONE})
    iso = extend_on_generators(oracle, target, images)
    iso_ok = verify_iso(iso)
    checks.add("oracle-isomorphism", iso_ok)
    if not iso_ok:
        raise knorrer.IsoFailed(f"the deformation does not match the {what}")
    return oracle, iso


def _oracle_step_inputs():
    """(name, arguments after ``checks``) of the oracle step of the five
    registry pipelines and of the skew3 inputs of seeds 1 to 4."""
    found = []
    names = []
    real = knorrer._oracle_step

    def record(checks, *args):
        found.append(args)
        return real(checks, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knorrer, "_oracle_step", record)
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


def _mutating_extract(dim, seed, anywhere):
    """deform.extract_algebra, with one coefficient of each table of
    dimension ``dim`` (the oracle's) bumped by 1 before any check sees it:
    a stored one, or with ``anywhere`` any (i, j, k)."""
    def extract(system, pbw_dim):
        algebra = extract_algebra(system, pbw_dim)
        if algebra.dim != dim:
            return algebra
        rng = random.Random(seed)
        table = algebra.table
        if anywhere:
            i, j, k = (rng.randrange(dim) for _ in range(3))
        else:
            i, j, k = rng.choice([(i, j, k) for i in range(dim)
                                  for j in range(dim) for k in sorted(table[i][j])])
        vec = dict(table[i][j])
        vec[k] = vec.get(k, ZERO) + ONE
        table[i][j] = {key: c for key, c in vec.items() if c}
        return algebra

    return extract


def _first_failure(step, args):
    """The stage at which ``step`` rejects: the exception message up to its
    first detail, or None when it accepts."""
    try:
        step(Report(), *args)
    except NqhError as exc:
        return str(exc).partition(": CheckItem(name='")[0]
    return None


def test_oracle_mutants_are_rejected_as_by_the_old_certificate(monkeypatch):
    """Bump one coefficient of the oracle table as extract_algebra returns
    it, on the oracle step of the five registry pipelines and of the skew3
    inputs of seeds 1 to 4.  certify_by_iso reads the map's columns off the
    certified target alone and checks every pair, so it rejects every such
    mutant; the old path, verify_algebra and then verify_iso on a
    generating set, rejects the same ones."""
    rejected = Counter()
    stages = Counter()
    for name, args in _oracle_step_inputs():
        base = args[2]
        for n in range(5 if name.startswith("skew3") else 10):
            monkeypatch.setattr(deform, "extract_algebra", _mutating_extract(
                4 * base.algebra.dim, f"oracle-mutant:{name}:{n}", n % 2))
            new = _first_failure(knorrer._oracle_step, args)
            old = _first_failure(ref_oracle_step, args)
            assert (new is None) == (old is None), (name, n, new, old)
            rejected[new is not None] += 1
            stages[new, old] += 1
    assert rejected == {True: 90}, (rejected, stages)
    # most mutants pass the strong-grading and block checks and reach
    # certify_by_iso, whose failure sends the oracle to verify_algebra
    assert stages["oracle output invalid", "oracle output invalid"] > 45, stages
