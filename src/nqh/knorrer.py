"""End-to-end pipelines for the two admissible mixing parameters.

The plus case (p12, p11) = (1, 0) deforms the matrix algebra over the
base deformation, locates the full idempotent, and extracts the corner as a
semi-trivial extension; the minus case (p12 = -1, p11 normalized to 0)
deforms the direct product, packs it into a semi-trivial extension by an
involution, and identifies the degree-0 part with a Zhang twist.  Both
start with one prologue (double Ore conditions, centrality, the base
deformation and its dualized table) and build each dual and deformation
once.  One step shared by both cases certifies the big deformation from
its presentation, through a map onto the certified twisted construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionMismatch, MuNotInvolution, NqhError, WrongP
from .exactlin import (
    HALF,
    I,
    ONE,
    ZERO,
    Scalar,
    SparseEliminator,
    Subspace,
    TensorElement,
    nullspace,
)
from .algebra import (
    GradedAlgebra,
    GradedLinMap,
    MatrixHom,
    Report,
    corner_embedding,
    extend_on_generators,
    full_idempotent_check,
    generating_set,
    ideal_closure,
    is_commutative,
    is_nilpotent_element,
    radical,
    restrict,
    vec_add,
    vec_sub,
    verify_algebra,
    verify_iso,
    xi_automorphism,
)
from .deform import (
    CaseKind,
    build_Bshriek_clifford,
    build_clifford,
    central_lift_in_b,
    centrality_check_minus,
    centrality_check_plus,
    check_central,
    dual_table_identities,
    dualize_hom,
    dual_dims,
    j_presentation,
    normalize_p11,
    p12_classify,
    substitution_fixes,
    validate_double_ore,
)
from .rewrite import rule_elements
from .twist import (
    BlockLayout,
    GradedBasisM2,
    SemiTrivialData,
    TwistingSystemM2,
    build_semitrivial,
    semitrivial_mu,
    standard_basis_m2,
    verify_twisting_M2,
    verify_twisting_prod,
    verify_twisting_suite,
    zhang_twist,
)


class PipelineError(NqhError):
    pass


class IsoFailed(PipelineError):
    pass


@dataclass
class PlusCaseResult:
    twisted: GradedAlgebra          # total-degree regrading
    twisted_bigraded: GradedAlgebra
    oracle: object                  # CliffordData of the big deformation
    base: object                    # CliffordData of the small deformation
    xi1: GradedLinMap
    xi2: GradedLinMap
    phi2: GradedLinMap
    S: Subspace
    M: Subspace
    Lambda: GradedAlgebra
    Lambda_bigraded: GradedAlgebra
    corner: GradedLinMap            # Lambda onto the corner e A e of twisted
    generators: list                # generating_set(twisted)
    checks: Report = field(default_factory=Report)

    @property
    def case(self):
        return "plus"


@dataclass
class MinusCaseResult:
    theta_prod: TwistingSystemM2
    Gamma: GradedAlgebra
    mu: GradedLinMap
    semitrivial: GradedAlgebra      # forget-first regrading
    semitrivial_bigraded: GradedAlgebra
    oracle: object
    base: object
    zhang: GradedAlgebra
    checks: Report = field(default_factory=Report)

    @property
    def case(self):
        return "minus"


def _thetas(sd, E, p12):
    """The tables of the case's twisting system, from sigma^! = s:
    theta^(0), whose entry (2, 2) is s22 s11 - p12 s12 s21, and for
    p12 = 1 also theta^(1), with entries s_ij xi."""
    s = sd.entries
    theta0 = MatrixHom([
        [GradedLinMap.identity(E),
         s[0][1].compose(s[0][0]) + s[1][1].compose(s[1][0])],
        [GradedLinMap.zero(E),
         s[1][1].compose(s[0][0]) - s[0][1].compose(s[1][0]).scale(p12)],
    ])
    if p12 != ONE:
        return (theta0,)
    xi = xi_automorphism(E, Scalar(-1))
    return theta0, MatrixHom([[s[i][j].compose(xi) for j in range(2)]
                              for i in range(2)])


def _xi_product_rules(xi1, xi2, th22, E, firsts):
    """Whether xi1(a b) = a xi2(b) + xi1(a) th22(b), and whether
    xi2(a b) = a xi2(b) + xi2(a) th22(b), for every vector a of ``firsts``
    and every basis vector b."""
    ok2 = ok3 = True
    for a in firsts:
        xi1_a, xi2_a = xi1.apply(a), xi2.apply(a)
        for b in range(E.dim):
            prod = E.mul(a, {b: ONE})
            a_xi2_b = E.mul(a, xi2.cols[b])
            ok2 = ok2 and xi1.apply(prod) == vec_add(a_xi2_b, E.mul(xi1_a, th22.cols[b]))
            ok3 = ok3 and xi2.apply(prod) == vec_add(a_xi2_b, E.mul(xi2_a, th22.cols[b]))
    return ok2, ok3


def _lemma46_suite(xi1, xi2, phi1, phi2, theta0, theta1, E):
    """The nine derived identities of the quarter-projections.

    ``xi1-product-rule`` is xi1(a b) = a xi2(b) + xi1(a) th22(b)
    = a xi1(b) + xi1(a) th22(b) - a th22(b) on all basis pairs, with th22
    the entry (2, 2) of theta^(0), and ``xi2-product-rule`` the same with
    xi2(a b) and xi2(a) on the left of both.  In both items the second form
    minus the first is a D(b), with D = xi1 - xi2 - th22.  So, given the
    first form, the second holds on all pairs exactly when D = 0: a D(b) = 0
    for all a when D = 0, and a = 1, a combination of basis vectors, gives
    D(b) = 0 otherwise.  Each item is decided as the first form on all pairs
    and the one map identity xi1 - xi2 = th22.

    When D = 0, the first forms are checked for a in {1} and
    S = ``generating_set(E)`` only, with every b; when either fails there,
    every pair is scanned, so the verdicts are the scan's.  Proof, for E
    unital and associative.  The a at which both first forms hold for
    every b form a subspace A holding 1 and S.  For y in A, subtracting
    the two forms gives th22(y b) = (xi1(y) - xi2(y)) th22(b)
    = th22(y) th22(b).  For x, y in A, xi_k's rule at (x, y b), then xi2's
    at (y, b) and th22's product give xi_k(x y b) = x y xi2(b)
    + x xi2(y) th22(b) + xi_k(x) th22(y) th22(b), and xi_k's rule at
    (x, y) makes the last two terms xi_k(x y) th22(b).  So A is closed
    under products, holds every product e_s1 ... e_sk and is E.  A failure
    on {1} or S is a failure on some basis pair, as 1 is a combination of
    basis vectors, but it leaves the other rule undecided.

    The phi identities are scanned on every pair.
    """
    report = Report()
    th12 = theta0.entry(1, 2)
    th22 = theta0.entry(2, 2)
    i_th12 = th12.scale(I)
    phi1_xi1 = phi1.compose(xi1)
    report.add("xi-idempotent",
               xi1.compose(xi1) == xi1 and xi2.compose(xi2) == xi2)

    # the second forms of both rules, as one map identity (proof above)
    ok2 = ok3 = xi1 - xi2 == th22
    if ok2:
        ok2, ok3 = _xi_product_rules(xi1, xi2, th22, E, [E.unit] + [
            {s: ONE} for s in generating_set(E)])
        if not (ok2 and ok3):
            ok2, ok3 = _xi_product_rules(xi1, xi2, th22, E,
                                         [{a: ONE} for a in range(E.dim)])
    report.add("xi1-product-rule", ok2)
    report.add("xi2-product-rule", ok3)

    ok6 = ok7 = True
    for a in range(E.dim):
        va = E.basis_vec(a)
        xi1_a, xi2_a = xi1.cols[a], xi2.cols[a]
        phi1_a, phi2_a = phi1.cols[a], phi2.cols[a]
        for b in range(E.dim):
            vb = E.basis_vec(b)
            xi1_b, xi2_b = xi1.cols[b], xi2.cols[b]
            phi1_b, phi2_b = phi1.cols[b], phi2.cols[b]
            ok6 = (ok6 and phi1.apply(E.mul(xi1_a, vb)) == E.mul(phi1_a, phi1_b)
                   and phi1.apply(E.mul(va, xi1_b)) == E.mul(phi1_a, phi1_xi1.cols[b])
                   and phi1.apply(E.mul(phi2_a, xi2_b)) == E.mul(xi2_a, phi2_b))
            ok7 = (ok7 and phi2.apply(E.mul(xi2_a, vb)) == E.mul(phi2_a, phi1_b)
                   and phi2.apply(E.mul(phi1_a, xi2_b)) == E.mul(xi1_a, phi2_b))

    report.add("xi1-phi1", xi1.compose(phi1) == th22.compose(phi1))
    report.add("phi1-xi1", phi1_xi1 == phi1)
    report.add("phi1-xi2", phi1.compose(xi2) == phi1.compose(i_th12))
    report.add("xi2-phi1", xi2.compose(phi1).is_zero())
    report.add("xi1-phi2", xi1.compose(phi2).is_zero())
    report.add("phi2-xi1", phi2.compose(xi1) == phi2.compose(i_th12))
    report.add("phi2-xi2", phi2.compose(xi2) == phi2)
    report.add("xi2-phi2", xi2.compose(phi2) == th22.compose(phi2).scale(Scalar(-1)))
    report.add("phi1-two-argument", ok6)
    report.add("phi2-two-argument", ok7)

    t11, t12 = theta1.entry(1, 1), theta1.entry(1, 2)
    t21, t22 = theta1.entry(2, 1), theta1.entry(2, 2)
    report.add("phi1-recovers-xi1",
               (t11 - t21.scale(I)).compose(phi1) == xi1
               and (t22 + t12.scale(I)).compose(phi1) == xi1)
    report.add("phi2-recovers-xi2",
               (t11 + t21.scale(I)).compose(phi2) == xi2
               and (t12.scale(I) - t22).compose(phi2) == xi2)
    return report


def _lambda_data(E, ring, S, M, phi1, phi2, module_degrees):
    """The semi-trivial data of Lambda = S x M: s . m = phi1(s) m,
    m . s = m s and psi(m (x) m') = phi2(m) m', products of E read in
    coordinates of M and of S.  ``ring`` is S with E's products, and S and
    M are the eigenvalue-1 spaces of xi1 and xi2.  DimensionMismatch when a
    product leaves M or S.

    Claim.  When E is certified and ``_lemma46_suite`` passes,
    ``build_semitrivial`` of this data is associative with E's unit as a
    right unit, so the corner map needs checking on a generating set only.
    This is the plus-case twin of ``twist.semitrivial_mu``'s claim.
    Proof, by the eight triple kinds of ``build_semitrivial``, with E
    associative throughout:

    - (s, s', s''), (m, s, s'), (s, m, s') and (m, m', s): E is associative;
    - (s, s', m): phi1(s s') m = phi1(s) phi1(s') m, which
      ``phi1-two-argument`` gives at a = s, as xi1(s) = s;
    - (m, s, m'): phi2(m s) m' = phi2(m) phi1(s) m', which
      ``phi2-two-argument`` gives at a = m, as xi2(m) = m;
    - (s, m, m'): phi2(phi1(s) m) m' = s phi2(m) m', which
      ``phi2-two-argument`` gives at (s, m), as xi2(m) = m and xi1(s) = s;
    - (m, m', m''): phi1(phi2(m) m') m'' = m phi2(m') m'', which
      ``phi1-two-argument`` gives at (m, m'), as xi2(m') = m' and
      xi2(m) = m.

    The unit is E's, in S, and s 1 = s and m 1 = m in E.  The left unit,
    1 . m = phi1(1) m = m, is what a passing ``verify_iso`` of the corner
    map adds (see there).
    """
    s_rows, m_rows = S.basis, M.basis
    left = tuple(tuple(M.coords(E.mul(phi1_s, m_vec)) for m_vec in m_rows)
                 for phi1_s in map(phi1.apply, s_rows))
    right = tuple(tuple(M.coords(E.mul(m_vec, s_vec)) for m_vec in m_rows)
                  for s_vec in s_rows)
    psi = tuple(tuple(S.coords(E.mul(phi2_m, m_vec)) for m_vec in m_rows)
                for phi2_m in map(phi2.apply, m_rows))
    return SemiTrivialData(ring, module_degrees, left, right, psi)


def _eigenspace(E, linmap):
    """The eigenvalue-1 space of a linear map of E, the kernel of (map - id).

    For a graded map each component's kernel is supported on that component,
    so the unique reduced row echelon basis is homogeneous."""
    equations = [{} for _ in range(E.dim)]  # one per coordinate of the image
    for i in range(E.dim):
        for j, c in vec_sub(linmap.cols[i], {i: ONE}).items():
            equations[j][i] = c
    return nullspace(equations, E.dim)


def _certify(checks, name, rep, what):
    """Record the ``verify_algebra`` report ``rep`` as check ``name``; a
    failure raises, since every later check on it needs it certified."""
    checks.add(name, rep.ok)
    if not rep.ok:
        raise PipelineError(f"invalid {what}: {rep.first_failure()}")


def _prologue(checks, data, lift, kind):
    """The checks both cases start with, in report order: the double Ore
    conditions, centrality of z + y1^2 + y2^2 through sigma and in B, then
    the base deformation E, the dualized table sigma^! on it, and the
    identities of sigma^!.  Returns (E's CliffordData, sigma^!)."""
    rep, _ = validate_double_ore(data)
    checks.add("double-ore-valid", rep.ok)
    if not rep.ok:
        raise PipelineError(f"invalid double Ore data: {rep.first_failure()}")
    if kind == CaseKind.PLUS:
        central = centrality_check_plus(data, lift)
    else:
        central = centrality_check_minus(data, lift)
    checks.add("centrality-sigma-conditions", central)
    cross = check_central(data.b, central_lift_in_b(data, lift))
    checks.add("centrality-commutator-check", cross)
    if not (central and cross):
        raise PipelineError("the extended element is not central")

    # B's dual has dimension 4 dim E: check the budget before any table
    dual_dims(data.b_dual)
    base = build_clifford(data.base, lift)
    sd = dualize_hom(data, base)
    identities = dual_table_identities(data, sd)
    checks.add("dual-table-identities", identities)
    if not identities:
        raise PipelineError(
            f"dualized table fails the {kind.value}-case identities")
    return base, sd


def _oracle_step(checks, data, lift, base, target, y_images, layout, what):
    """Build the deformation P of B's dual by rewriting and check that
    sending y1, y2 to ``y_images`` and each base letter a to its copy at
    layout index (0, 1, a) extends to an isomorphism f of P onto the
    certified ``target``, with no structure table for P.

    Checked: the deformed relations and the completed rules lhs - rhs
    vanish in the target, and the images of the dim B^! normal words are a
    basis of it.  E's completed rules, letters shifted past y1, y2, and
    those of the mixing block J (``data.mixing``) must vanish in the target
    too: with them, by the rule lemma (``rewrite.rule_elements``), these
    checks certify the products of both blocks, with no table; see
    ``deform._verify_subalgebra_blocks``.
    Proof that f is an isomorphism.  f kills the relations, so it factors
    through P, and it is onto.  gr P, for the word-length filtration,
    satisfies the quadratic parts of the relations, so it is a quotient of
    B^! and dim P <= dim B^! = dim target (the PBW bound:
    Polishchuk-Positselski, *Quadratic Algebras*, ch. 5;
    Braverman-Gaitsgory, J. Algebra 181, 1996).  So f is bijective and the
    normal words are a basis of P.  The rules keep the rewriting route
    independent: each lhs - rhs is then 0 in P, so a corrupted rule is
    rejected.  All generators are odd on both sides, so f is graded.
    Strong grading, with no product scanned: the span of the deformed
    relations holds y2^2 - 1, so u = f(y2) has u u = 1, and u is odd.  So
    A_0 = u (u A_0) lies in A_1 A_1 in the associative target, which is
    strongly Z2-graded, and so is P."""
    oracle = build_Bshriek_clifford(data, lift, base)
    E = base.algebra
    images = [{index: ONE} for index in y_images]
    for a in range(data.ngens):
        images.append({layout.index(0, 1, E.words.index((a,))): ONE})
    shift = {a: a + 2 for a in range(data.ngens)}
    image = extend_on_generators(
        oracle.relations + rule_elements(oracle.system)
        + tuple(r.rename(shift) for r in rule_elements(base.system))
        + rule_elements(data.mixing.system), target, images)
    spanned = Subspace.from_rows(
        [image(TensorElement.monomial(w)) for w in oracle.words], target.dim)
    iso_ok = spanned.dim == target.dim == len(oracle.words)
    if iso_ok and not all(target.degrees[k] == (1,) for v in images for k in v):
        raise DimensionMismatch("deformation is not strongly Z2-graded")
    checks.add("oracle-isomorphism", iso_ok)
    if not iso_ok:
        raise IsoFailed(f"the deformation does not match the {what}")
    return oracle


def run_plus_case(data, lift):
    """The full (p12, p11) = (1, 0) pipeline with every verification."""
    if p12_classify(data) != CaseKind.PLUS:
        raise WrongP("the plus-case pipeline needs (p12, p11) = (1, 0)")
    checks = Report()
    base, sd = _prologue(checks, data, lift, CaseKind.PLUS)
    E = base.algebra

    theta0, theta1 = _thetas(sd, E, data.p12)
    basis = standard_basis_m2()
    Theta = TwistingSystemM2(E, (theta0, theta1), basis)
    rep = verify_twisting_M2(Theta)
    checks.add("twisting-system", rep.ok,
               "" if rep.ok else str(rep.first_failure()))
    if not rep.ok:
        raise PipelineError("the constructed pair is not a twisting system")
    suite = verify_twisting_suite(Theta)
    checks.add("twisting-derived-identities", suite.ok)

    # verify_twisting_M2 built and certified the twisted algebra
    twisted_big = Theta.twisted
    _certify(checks, "twisted-algebra-valid", Theta.certificate, "twisted algebra")
    twisted = twisted_big.total_degree_regrade()

    layout = BlockLayout(E, basis)
    unit_index = E.words.index(())
    # twisted regrades the certified twisted_big
    oracle = _oracle_step(
        checks, data, lift, base, twisted,
        (layout.index(1, 1, unit_index), layout.index(1, 2, unit_index)),
        layout, "twisted matrix algebra")

    e = {layout.index(0, 1, unit_index): HALF,
         layout.index(0, 2, unit_index): HALF * I}
    # twisted shares twisted_big's table and unit, and so its generating set
    full = full_idempotent_check(twisted, e, Theta.generators)
    checks.add("full-idempotent", full)
    if not full:
        # singularity_report reads the big radical off Lambda through A e A = A
        raise PipelineError("the corner idempotent is not full")

    xi1 = (GradedLinMap.identity(E) + theta0.entry(1, 2).scale(I)
           + theta0.entry(2, 2)).scale(HALF)
    xi2 = (GradedLinMap.identity(E) + theta0.entry(1, 2).scale(I)
           - theta0.entry(2, 2)).scale(HALF)
    phi1 = (theta1.entry(1, 1) - theta1.entry(1, 2).scale(I)
            + theta1.entry(2, 1).scale(I) + theta1.entry(2, 2)).scale(HALF)
    phi2 = (theta1.entry(1, 1) - theta1.entry(1, 2).scale(I)
            - theta1.entry(2, 1).scale(I) - theta1.entry(2, 2)).scale(HALF)
    suite46 = _lemma46_suite(xi1, xi2, phi1, phi2, theta0, theta1, E)
    checks.add("projection-identity-suite", suite46.ok,
               "" if suite46.ok else str(suite46.first_failure()))

    S = _eigenspace(E, xi1)
    M = _eigenspace(E, xi2)
    S_alg = restrict(E, S, E.unit)
    s_rows = S.basis
    checks.add("eigenspace-subalgebra", True)

    m_rows = M.basis
    m_degs = [E.element_degree(row) for row in m_rows]
    if None in m_degs:
        raise PipelineError("eigenspace basis is not homogeneous")
    # bimodule structure on M, phi1(s).m and m.s, and the pairing
    # phi2(m).m' into S
    shifted = tuple(((d[0] + 1) % 2,) for d in m_degs)
    try:
        st_data = _lambda_data(E, S_alg, S, M, phi1, phi2, shifted)
        psi_ok = True
    except DimensionMismatch:
        psi_ok = False
    checks.add("module-and-pairing-closure", psi_ok)
    if not psi_ok:
        raise PipelineError("the eigenspace bimodule or pairing is not closed")
    Lambda_big = build_semitrivial(st_data)
    Lambda = Lambda_big.forget_first_regrade()

    # corner at e matches the semi-trivial extension: s goes to
    # I(0)_1 s/2 + I(0)_2 i s/2, m to I(1)_1 m/2 - I(1)_2 i m/2
    def column(i, vec, phase):
        col = {}
        for b, coeff in vec.items():
            col[layout.index(i, 1, b)] = coeff * HALF
            col[layout.index(i, 2, b)] = coeff * HALF * phase
        return col

    corner_cols = ([column(0, vec, I) for vec in s_rows]
                   + [column(1, vec, -I) for vec in m_rows])
    corner = GradedLinMap(Lambda, twisted, corner_cols)
    # twisted regrades the certified twisted_big, as verify_iso needs.  When
    # the suite passes, Lambda is associative with a right unit by the proof
    # in _lambda_data, and a generating set's pairs suffice; else every pair
    # is checked, which assumes nothing of Lambda.  A passing check
    # certifies Lambda, and so Lambda_big: the two share their table and
    # unit, and the ring/module half of Lambda_big's Z2^2 grading holds by
    # the block layout of build_semitrivial (ring times ring and module
    # times module land in the ring, mixed products in the module).  A
    # failing check first asks verify_algebra whether Lambda_big itself is
    # invalid.
    corner_ok = verify_iso(
        corner, generating_set(Lambda) if suite46.ok else range(Lambda.dim),
        corner_embedding(twisted, e))
    if corner_ok:
        checks.add("semitrivial-valid", True)
    else:
        _certify(checks, "semitrivial-valid", verify_algebra(Lambda_big),
                 "semi-trivial extension")
    checks.add("corner-matches-semitrivial", corner_ok)
    if not corner_ok:
        raise IsoFailed("the corner does not realize the semi-trivial extension")

    return PlusCaseResult(
        twisted=twisted, twisted_bigraded=twisted_big,
        oracle=oracle, base=base, xi1=xi1, xi2=xi2, phi2=phi2,
        S=S, M=M, Lambda=Lambda, Lambda_bigraded=Lambda_big, corner=corner,
        generators=Theta.generators, checks=checks,
    )


def _slot_exchange(sd, Gamma, layout):
    """The involution of Gamma that exchanges the two slots of E x E
    through the dual table: eps_1 e_b goes to
    eps_1 s11(xi(e_b)) + eps_2 s21(xi(e_b)), and eps_2 e_b to the same sum
    with the two images exchanged."""
    E = layout.algebra
    xi = xi_automorphism(E, Scalar(-1))
    s11xi = sd.entry(1, 1).compose(xi)
    s21xi = sd.entry(2, 1).compose(xi)
    mu_cols = [None] * Gamma.dim
    for b in range(E.dim):
        a1 = s11xi.cols[b]
        a2 = s21xi.cols[b]
        for j, (first, second) in ((1, (a1, a2)), (2, (a2, a1))):
            col = {layout.index(0, 1, k): v for k, v in first.items()}
            col.update((layout.index(0, 2, k), v) for k, v in second.items())
            mu_cols[layout.index(0, j, b)] = col
    return GradedLinMap(Gamma, Gamma, mu_cols)


def run_minus_case(data, lift):
    """The full p12 = -1 pipeline with every verification."""
    if p12_classify(data) != CaseKind.MINUS:
        raise WrongP("the minus-case pipeline needs p12 = -1")
    checks = Report()
    if data.p11:
        cross0 = check_central(data.b, central_lift_in_b(data, lift))
        checks.add("centrality-before-normalization", cross0)
        data = normalize_p11(data)
        checks.add("p11-normalized", True)
    base, sd = _prologue(checks, data, lift, CaseKind.MINUS)
    E = base.algebra

    basis = GradedBasisM2({(0, 1): ((ONE, ZERO), (ZERO, ONE)),
                           (0, 2): ((ONE, ZERO), (ZERO, Scalar(-1)))})
    system = TwistingSystemM2(E, _thetas(sd, E, data.p12), basis)
    rep = verify_twisting_prod(system)
    checks.add("twisting-system", rep.ok,
               "" if rep.ok else str(rep.first_failure()))
    if not rep.ok:
        raise PipelineError("the constructed pair is not a product twisting system")

    # verify_twisting_prod built and certified the twisted product
    Gamma = system.twisted
    _certify(checks, "twisted-product-valid", system.certificate, "twisted product")
    layout = BlockLayout(E, basis)
    mu = _slot_exchange(sd, Gamma, layout)
    try:
        st_data = semitrivial_mu(Gamma, mu, system.generators)
    except MuNotInvolution:
        st_data = None
    checks.add("involution", st_data is not None)
    if st_data is None:
        raise PipelineError("the slot-exchange map is not a graded involution")

    # ST_big is Gamma x| <mu>, certified by Gamma's certificate and the
    # checks of mu that semitrivial_mu passed (proof there)
    ST_big = build_semitrivial(st_data)
    ST = ST_big.forget_first_regrade()
    checks.add("semitrivial-valid", True)
    # t, the odd module copy of Gamma's unit, has t t = mu(1) 1 = 1 once
    # verify_iso(mu) passed, so ST_0 = t (t ST_0) lies in ST_1 ST_1
    t = {Gamma.dim + k: c for k, c in Gamma.unit.items()}
    checks.add("semitrivial-strongly-graded", ST.mul(t, t) == ST.unit)

    unit_index = E.words.index(())
    oracle = _oracle_step(
        checks, data, lift, base, ST,
        (Gamma.dim + layout.index(0, 1, unit_index),
         Gamma.dim + layout.index(0, 2, unit_index)),
        layout, "semi-trivial extension")

    # semitrivial_mu accepted mu above, as zhang_twist needs
    NG = zhang_twist(st_data)
    # e_i of NG goes to e_i when even, else to m_i, onto the span of ST's
    # degree-0 basis vectors in the certified ST_big, on which the total
    # degree is the first one.  Every pair is checked: it is the one check
    # that reads ST_big's degree-0 products against NG's, and so the one
    # that catches a fault in build_semitrivial's rule there.  A passing
    # check certifies NG; a failing one first asks verify_algebra whether NG
    # itself is invalid
    iso_zero = GradedLinMap(NG, ST_big.total_degree_regrade(), [
        {i if Gamma.degrees[i] == (0,) else Gamma.dim + i: ONE}
        for i in range(Gamma.dim)])
    zero_ok = verify_iso(iso_zero, range(NG.dim), Subspace.from_rows(
        [{i: ONE} for i in ST.component_indices((0,))], ST_big.dim))
    if zero_ok:
        checks.add("zhang-twist-valid", True)
    else:
        _certify(checks, "zhang-twist-valid", verify_algebra(NG), "Zhang twist")
    checks.add("zhang-is-degree-zero-part", zero_ok)
    if not zero_ok:
        raise IsoFailed("the Zhang twist does not match the degree-0 part")

    return MinusCaseResult(
        theta_prod=system, Gamma=Gamma, mu=mu,
        semitrivial=ST, semitrivial_bigraded=ST_big, oracle=oracle,
        base=base, zhang=NG, checks=checks,
    )


# ---------------------------------------------------------------------------
# verdicts and reports


@dataclass
class SingularityReport:
    case: str
    big_radical_dim: int
    degree0_radical_dim: int
    small_radical_dim: int
    isolated: bool
    lines: list

    def text(self):
        return "\n".join(self.lines) + "\n"


def singularity_report(result, blocks=None):
    """Radical dimensions and the isolated-singularity verdict.

    ``blocks`` optionally names the blocks of a module decomposition of the
    small algebra verified upstream; block structure is otherwise certified
    only through commutativity over the closure.  The radical is read
    through the trace form, so its dimension is an isomorphism invariant:
    in the minus case the Zhang twist, which ``run_minus_case`` certified
    isomorphic to the degree-0 part, gets that part's radical dimension.

    In the plus case the trace form runs once, on Lambda, and the big
    algebra A's radicals are read off J(Lambda).  Proof.
    ``corner-matches-semitrivial`` certifies that the corner map takes
    Lambda onto e A e, and ``full-idempotent`` that A e A = A.  As
    J(e A e) = e J(A) e (Lam, *A First Course in Noncommutative Rings*,
    section 21), J(A) = (A e A) J(A) (A e A) lies in A e J(A) e A, which
    lies in J(A): J(A) is the ideal that the image of J(Lambda) generates,
    built by ``ideal_closure``, and it is 0 when J(Lambda) is.  The grading
    automorphism xi preserves J(A), so J(A) is graded and its reduced basis
    is homogeneous (see ``restrict``): its degree-0 rows span
    J(A) cap A_0, which is J(A_0) as 2 is invertible (Cohen-Montgomery,
    Trans. AMS 282, 1984).

    In the minus case both are read off J = J(Gamma): dim J(ST) = 2 dim J
    and dim J(ST_0) = dim J.  Proof.  ST = Gamma x| <mu> with 2 invertible,
    so J(ST) = J + J t (Reiten-Riedtmann, J. Algebra 92, 1985).  As
    e_i m_b = m_{mu(e_i) e_b}, J t = m_{mu(J)} = m_J.  J is xi-stable, so
    graded, and m_b has degree deg e_b + 1; by Cohen-Montgomery
    J(ST_0) = J_0 + m_{J_1}, of dimension dim J.
    """
    lines = []
    if result.case == "plus":
        big = result.twisted
        small = result.Lambda
        small_name = "corner extension"
        small_J = radical(small)
        small_rad = small_J.dim
        big_rad = zero_rad = 0
        if small_rad:
            elim = SparseEliminator()
            seeds = map(result.corner.apply, small_J.basis)
            for _ in ideal_closure(big, elim, seeds, result.generators):
                pass
            J = Subspace.from_eliminator(elim, big.dim)
            big_rad = J.dim
            zero_rad = sum(big.element_degree(row) == (0,) for row in J.basis)
    else:
        big = result.semitrivial
        small = result.zhang
        small_name = "twisted-product Zhang twist"
        zero_rad = small_rad = radical(result.Gamma).dim
        big_rad = 2 * zero_rad
    lines.append("regularity of the central element: assumed (not computed)")
    lines.append(f"big deformation dim: {big.dim}, radical dim: {big_rad}")
    lines.append(f"degree-0 part dim: {len(big.component_indices((0,)))},"
                 f" radical dim: {zero_rad}")
    lines.append(f"{small_name} dim: {small.dim}, radical dim: {small_rad}")
    isolated = big_rad == 0
    lines.append(f"isolated singularity: {'yes' if isolated else 'no'}")
    if blocks is not None:
        lines.append(f"blocks: {','.join(blocks)}")
        lines.append("block certification: verified module decomposition")
        lines.append(f"mcm description: D^b(k)^{{×{len(blocks)}}}")
    elif (isolated and result.case == "plus" and small_rad == 0
          and all(d == (0,) for d in small.degrees) and is_commutative(small)):
        lines.append(f"blocks: {','.join(['k'] * small.dim)} ×2 components")
        lines.append(
            "block certification: commutative semisimple over the closure")
        lines.append(f"mcm description: D^b(mod k)^{{×{2 * small.dim}}}")
    elif isolated:
        lines.append("block structure: not certified over the coefficient"
                     " field (NotSplitOverK possible)")
    return SingularityReport(result.case, big_rad, zero_rad, small_rad,
                             isolated, lines)


def prop51_scenario(data, z):
    """The degenerate p11 = +-2i analysis.

    The change of variables sends the extended central element to z + y2^2,
    and the two-variable deformation at y2^2 has a nonzero radical, so the
    quadric is never an isolated singularity in this regime.  Returns the
    report lines and that witness's radical dimension.
    """
    if data.p12 != Scalar(-1) or (data.p11 != Scalar(2) * I
                                  and data.p11 != Scalar(-2) * I):
        raise WrongP("the degenerate analysis needs p12 = -1, p11 = +-2i")
    lines = []
    # substitution y1 -> y1, y2 -> y2 + (p11/2) y1 on the mixing lift
    fixed = substitution_fixes(data.p11, ONE, TensorElement({(1, 1): ONE}))
    lines.append(f"substitution image of the extended element: z + y2^2"
                 f" ({'verified' if fixed else 'FAILED'})")
    if not fixed:
        raise PipelineError("the degenerate substitution did not collapse y1^2")
    # the two-variable witness deformation, on the mixing relation
    # y2 y1 + y1 y2 left by the substitution
    witness = build_clifford(j_presentation(data.p12, ZERO),
                             TensorElement({(1, 1): ONE}))
    rad = radical(witness.algebra).dim
    lines.append(f"witness deformation dim: {witness.algebra.dim},"
                 f" radical dim: {rad}")
    nilp = is_nilpotent_element(witness.algebra,
                                {witness.algebra.words.index((0,)): ONE})
    lines.append(f"first dual generator squares to zero: {nilp}")
    lines.append("isolated singularity: no")
    if rad < 1:
        raise PipelineError("expected a nonzero radical in the degenerate case")
    return lines, rad
