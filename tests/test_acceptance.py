"""Acceptance criteria, one test per criterion, each printing a verdict line.

All arithmetic is exact; the time budgets are the per-scenario ceilings the
criteria state.  Run with ``pytest tests/test_acceptance.py -s`` to see the
verdict lines.
"""

import random
import subprocess
import sys
import time

from reference_constructions import (
    normal_form,
    normalize_upsilon,
    plain_m2,
    rebase_omega,
    ref_basis_identities,
    trivial_system,
    verify_module,
)

from nqh.exactlin import HALF, I, ONE, Scalar, TensorElement, ZERO
from nqh.algebra import (
    GradedLinMap,
    MatrixHom,
    RightModule,
    generating_set,
    is_absolutely_simple,
    is_nilpotent_element,
    radical,
    spin,
    strongly_graded_check,
    vec_add,
    vec_scale,
    vec_sub,
    verify_algebra,
    verify_decomposition,
    verify_iso,
)
from nqh.deform import DoubleOreData, build_Bshriek_clifford, build_clifford
from nqh.knorrer import (
    prop51_scenario,
    run_minus_case,
    run_plus_case,
    singularity_report,
)
from nqh.quadratic import QuadraticPresentation
from nqh.rewrite import extract_algebra
from nqh.twist import (
    BlockLayout,
    GradedBasisM2,
    TwistingSystemM2,
    build_twisted_M2,
    build_twisted_prod,
    standard_basis_m2,
    verify_twisting_M2,
    verify_twisting_prod,
    verify_twisting_suite,
)

MINUS_ONE = Scalar(-1)


def verdict(number, passed, description):
    mark = "PASS" if passed else "FAIL"
    print(f"acceptance criterion {number}: {mark} - {description}")
    assert passed, f"criterion {number}: {description}"


def character_modules(algebra):
    modules = []
    for s1 in (ONE, MINUS_ONE):
        for s2 in (ONE, MINUS_ONE):
            action = []
            for word in algebra.words:
                value = ONE
                for letter in word:
                    value = value * (s1 if letter == 0 else s2)
                action.append([{0: value}])
            modules.append(RightModule(algebra, 1, action))
    return modules


def test_criterion_1_base_deformation(km1, z_lift):
    start = time.time()
    deformation = build_clifford(km1, z_lift)
    algebra = deformation.algebra
    ok = algebra.dim == 4
    ok &= all(algebra.table[i][j] == algebra.table[j][i]
              for i in range(4) for j in range(4))
    ok &= radical(algebra).dim == 0
    modules = character_modules(algebra)
    ok &= all(verify_module(m) for m in modules)
    ok &= all(is_absolutely_simple(m) for m in modules)
    ok &= verify_decomposition(algebra, modules, [1, 1, 1, 1])
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    verdict(1, ok, f"rank-2 deformation: dim 4, commutative, semisimple,"
                   f" four 1-dim simples ({elapsed:.2f}s)")


def test_criterion_2_class_z_pipeline(double_ore_class_z, z_lift):
    start = time.time()
    result = run_plus_case(double_ore_class_z, z_lift)
    by_name = {item.name: item.passed for item in result.checks.items}
    ok = result.checks.ok
    for required in ("dual-table-identities", "twisting-system",
                     "oracle-isomorphism", "full-idempotent",
                     "projection-identity-suite", "corner-matches-semitrivial"):
        ok &= by_name[required]
    ok &= len(result.oracle.words) == 16 and result.twisted.dim == 16
    lam = result.Lambda
    ok &= lam.dim == 4
    ok &= all(degree == (0,) for degree in lam.degrees)
    ok &= radical(lam).dim == 0
    ok &= all(lam.table[i][j] == lam.table[j][i]
              for i in range(lam.dim) for j in range(lam.dim))
    report = singularity_report(result)
    text = report.text()
    ok &= report.isolated
    ok &= "isolated singularity: yes" in text
    ok &= "blocks: k,k,k,k ×2 components" in text
    ok &= "D^b(mod k)^{×8}" in text
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    verdict(2, ok, f"class-Z pipeline: identities, dim-16 oracle match,"
                   f" idempotent, corner, four 1-dim blocks ({elapsed:.2f}s)")


def test_criterion_3_double_cover_base_case(km1, z_lift):
    from conftest import diagonal_sigma

    start = time.time()
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    result = run_plus_case(DoubleOreData(km1, ONE, ZERO, sigma), z_lift)
    ok = result.checks.ok
    ok &= result.M.dim == 0
    E = result.base.algebra
    cols = result.S.basis
    iso = GradedLinMap(result.Lambda, E, cols)
    ok &= verify_iso(iso, generating_set(iso.source))
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    verdict(3, ok, f"identity cover: module part 0, extension is the base"
                   f" deformation ({elapsed:.2f}s)")


def test_criterion_4_sign_twisted_cover(km1, z_lift):
    from conftest import diagonal_sigma

    start = time.time()
    sigma = diagonal_sigma([[-1, 0], [0, -1]], [[1, 0], [0, 1]])
    result = run_plus_case(DoubleOreData(km1, ONE, ZERO, sigma), z_lift)
    ok = result.checks.ok
    lam = result.Lambda
    ok &= all(degree == (0,) for degree in lam.degrees)
    ok &= lam.dim == 4
    E = result.base.algebra
    lam_first = result.Lambda_bigraded.regrade(
        [(d[0],) for d in result.Lambda_bigraded.degrees], 1)
    cols = result.S.basis + result.M.basis
    ok &= verify_iso(GradedLinMap(lam_first, E, cols), generating_set(lam_first))
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    verdict(4, ok, f"sign-twisted cover: concentrated in degree 0,"
                   f" degree-0 part is the base deformation ({elapsed:.2f}s)")


def test_criterion_5_class_t_pipeline(double_ore_class_t, z_lift):
    start = time.time()
    result = run_minus_case(double_ore_class_t, z_lift)
    by_name = {item.name: item.passed for item in result.checks.items}
    ok = result.checks.ok
    for required in ("twisting-system", "involution", "oracle-isomorphism",
                     "zhang-is-degree-zero-part"):
        ok &= by_name[required]
    ok &= len(result.oracle.words) == 16 and result.semitrivial.dim == 16
    NG = result.zhang
    ok &= NG.dim == 8
    ok &= radical(NG).dim == 0
    E = result.base.algebra
    index = {lbl: k for k, lbl in enumerate(E.labels)}
    pair = BlockLayout(E, result.theta_prod.basis).pair

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
    modules = [RightModule.from_invariant_subspace(
        NG, spin(regular, seed_list, gens))
        for seed_list in seeds]
    ok &= [m.dim for m in modules] == [2, 1, 1, 1, 1]
    ok &= verify_decomposition(NG, modules, [2, 1, 1, 1, 1])
    report = singularity_report(result, blocks=["M2(k)", "k", "k", "k", "k"])
    text = report.text()
    ok &= report.isolated
    ok &= "blocks: M2(k),k,k,k,k" in text
    ok &= "D^b(k)^{×5}" in text
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    verdict(5, ok, f"class-T pipeline: dim-16 match, Zhang twist semisimple"
                   f" with blocks M2(k)+k^4 ({elapsed:.2f}s)")


def test_criterion_6_class_r_products(double_ore_class_r, z_lift):
    start = time.time()
    result = run_minus_case(double_ore_class_r, z_lift)
    ok = result.checks.ok
    NG = result.zhang
    E = result.base.algebra
    index = {lbl: k for k, lbl in enumerate(E.labels)}
    pair = BlockLayout(E, result.theta_prod.basis).pair

    one_v = {index["1"]: ONE}
    w_v = {index["x1*x2*"]: ONE}
    u_v = {index["x1*"]: ONE}
    v_v = {index["x2*"]: ONE}
    star = NG.mul
    printed = [
        (pair(v_v, {}), pair(u_v, {}),
         pair({index["1"]: MINUS_ONE}, {})),
        (pair(v_v, {}), pair(v_v, {}),
         pair({index["x1*x2*"]: MINUS_ONE}, {})),
        (pair(v_v, {}), pair(one_v, {}), pair(u_v, {})),
        (pair(w_v, {}), pair(one_v, {}), pair(one_v, {})),
        (pair(w_v, {}), pair({}, one_v),
         pair(vec_sub(w_v, one_v), {})),
        (pair(w_v, {}), pair({}, u_v),
         pair(vec_sub(u_v, v_v), {})),
        (pair(u_v, {}), pair(w_v, {}), pair(v_v, {})),
        (pair(w_v, {}), pair(u_v, {}), pair(u_v, {})),
    ]
    matched = sum(star(x, y) == want for x, y, want in printed)
    ok &= matched == len(printed) and matched >= 6
    witness = pair(vec_sub(one_v, w_v), {})
    ok &= not star(witness, witness)
    ok &= is_nilpotent_element(NG, witness)
    rad = radical(NG).dim
    ok &= rad >= 1
    report = singularity_report(result)
    ok &= not report.isolated
    ok &= "isolated singularity: no" in report.text()
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    verdict(6, ok, f"class-R products: {matched} verbatim, nilpotent witness,"
                   f" radical {rad}, not isolated ({elapsed:.2f}s)")


def test_criterion_7_degenerate_mixing(km1, z_lift):
    from conftest import diagonal_sigma

    start = time.time()
    sigma = diagonal_sigma([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    data = DoubleOreData(km1, MINUS_ONE, Scalar(2) * I, sigma)
    lines, rad = prop51_scenario(data, z_lift)
    ok = any("z + y2^2" in line and "verified" in line for line in lines)
    ok &= rad >= 1
    ok &= any("isolated singularity: no" in line for line in lines)
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    verdict(7, ok, f"degenerate mixing: substitution collapses the cover,"
                   f" witness radical {rad} ({elapsed:.2f}s)")


def _paper_plus_system(clifford, data):
    from nqh.deform import dualize_hom
    from nqh.algebra import xi_automorphism

    E = clifford.algebra
    hom = dualize_hom(data, clifford)
    s = hom.entries
    ident = GradedLinMap.identity(E)
    zero = GradedLinMap.zero(E)
    xi = xi_automorphism(E, MINUS_ONE)
    theta0 = MatrixHom([
        [ident, s[0][1].compose(s[0][0]) + s[1][1].compose(s[1][0])],
        [zero, s[1][1].compose(s[0][0]) - s[0][1].compose(s[1][0])],
    ])
    theta1 = MatrixHom([[s[i][j].compose(xi) for j in range(2)]
                        for i in range(2)])
    return TwistingSystemM2(E, (theta0, theta1), standard_basis_m2())


def _paper_minus_system(clifford, data):
    from nqh.deform import dualize_hom

    E = clifford.algebra
    hom = dualize_hom(data, clifford)
    s = hom.entries
    ident = GradedLinMap.identity(E)
    zero = GradedLinMap.zero(E)
    theta = MatrixHom([
        [ident, s[0][1].compose(s[0][0]) + s[1][1].compose(s[1][0])],
        [zero, s[1][1].compose(s[0][0]) + s[0][1].compose(s[1][0])],
    ])
    basis = GradedBasisM2({(0, 1): ((ONE, ZERO), (ZERO, ONE)),
                           (0, 2): ((ONE, ZERO), (ZERO, MINUS_ONE))})
    return TwistingSystemM2(E, (theta,), basis)


def _random_graded_basis(rng):
    from nqh.errors import SingularBasis

    pool = [ONE, MINUS_ONE, I, -I, Scalar(2), HALF, Scalar(1, 1),
            Scalar(1, -1), Scalar(0, 0, 1), Scalar(0, 0, 1, 0, 2)]
    while True:
        entries = [rng.choice(pool) for _ in range(8)]
        try:
            return GradedBasisM2({
                (0, 1): ((entries[0], ZERO), (ZERO, entries[1])),
                (0, 2): ((entries[2], ZERO), (ZERO, entries[3])),
                (1, 1): ((ZERO, entries[4]), (entries[5], ZERO)),
                (1, 2): ((ZERO, entries[6]), (entries[7], ZERO)),
            })
        except SingularBasis:
            continue


def test_criterion_8_twist_property_suite(clifford_km1, double_ore_class_z,
                                          double_ore_class_t):
    start = time.time()
    ok = True
    # both constructed twisting systems from the worked examples
    plus = _paper_plus_system(clifford_km1, double_ore_class_z)
    ok &= verify_twisting_M2(plus).ok
    ok &= verify_twisting_suite(plus).ok
    minus = _paper_minus_system(clifford_km1, double_ore_class_t)
    ok &= verify_twisting_prod(minus).ok
    ok &= verify_algebra(build_twisted_prod(minus)).ok
    twisted = build_twisted_M2(plus)
    ok &= verify_algebra(twisted).ok

    E = clifford_km1.algebra
    rng = random.Random(20260809)
    for trial in range(20):
        basis = _random_graded_basis(rng)
        ok &= ref_basis_identities(basis).ok
        # transported system: still a twisting system (checked inside the
        # transport, which raises otherwise), isomorphic build
        omega, iso = rebase_omega(plus, basis)
        ok &= verify_iso(iso, generating_set(iso.source))
        built = iso.target
        ok &= verify_twisting_suite(omega).ok
        # the unit formula holds: 1 e_i = e_i = e_i 1 for every basis i
        ok &= all(built.mul(built.unit, {i: ONE}) == {i: ONE}
                  and built.mul({i: ONE}, built.unit) == {i: ONE}
                  for i in range(built.dim))
        upsilon, unital_iso = normalize_upsilon(omega)
        ident = [[ONE, ZERO], [ZERO, ONE]]
        ok &= upsilon.theta[0].value_at_unit() == ident
        ok &= upsilon.theta[1].value_at_unit() == ident
        ok &= verify_iso(unital_iso, generating_set(unital_iso.source))
        trivial = trivial_system(E, basis)
        ok &= verify_twisting_M2(trivial).ok
        flat = build_twisted_M2(trivial)
        plain = plain_m2(E, basis)
        ok &= flat.unit == plain.unit
        ok &= all(flat.table[i][j] == plain.table[i][j]
                  for i in range(flat.dim) for j in range(flat.dim))
        if not ok:
            print(f"failure at randomized trial {trial}")
            break
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    verdict(8, ok, f"twist property suite: 2 worked systems + 20 randomized"
                   f" transports, all identities exact ({elapsed:.2f}s)")


def test_criterion_9_oracle_integrity(km1, z_lift, double_ore_class_z,
                                      double_ore_class_t, double_ore_class_r):
    start = time.time()
    ok = True
    deformations = [build_clifford(km1, z_lift)]
    deformations.append(build_clifford(
        QuadraticPresentation(["y1", "y2"],
                              [TensorElement({(0, 1): ONE, (1, 0): ONE})]),
        TensorElement({(1, 1): ONE})))
    for data in (double_ore_class_z, double_ore_class_t, double_ore_class_r):
        deformations.append(build_Bshriek_clifford(
            data, z_lift, build_clifford(data.base, z_lift)))
    rng = random.Random(97)
    pool = [ONE, MINUS_ONE, Scalar(2), HALF, I, Scalar(0, 0, 1)]
    for deformation in deformations:
        # the big deformations get no table of their own: extract it here
        system = deformation.system
        algebra = extract_algebra(system, deformation.words)
        ok &= verify_algebra(algebra).ok
        ok &= strongly_graded_check(algebra)
        dual = deformation.presentation
        pbw = sum(dual.component_dim(n) for n in range(6))
        ok &= algebra.dim == pbw
        letters = len(system.alphabet)
        for _ in range(100):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.randrange(letters)
                             for _ in range(rng.randint(0, 5)))
                terms[word] = rng.choice(pool)
            element = TensorElement(terms)
            once = normal_form(system, element)
            ok &= normal_form(system, once) == once
        if not ok:
            break
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    verdict(9, ok, f"oracle integrity: {len(deformations)} deformations,"
                   f" verification + idempotence + dimension counts"
                   f" ({elapsed:.2f}s)")


def test_criterion_10_reproduce_all_deterministic(nqh_env):
    start = time.time()
    first = subprocess.run([sys.executable, "-m", "nqh", "reproduce", "all"],
                           capture_output=True, env=nqh_env)
    second = subprocess.run([sys.executable, "-m", "nqh", "reproduce", "all"],
                            capture_output=True, env=nqh_env)
    elapsed = time.time() - start
    ok = first.returncode == 0 and second.returncode == 0
    ok &= first.stdout == second.stdout
    ok &= elapsed < 60.0
    verdict(10, ok, f"reproduce all: exit 0, byte-identical reports,"
                    f" two runs in {elapsed:.2f}s")
