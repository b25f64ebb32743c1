"""Constructions that only the tests run, kept out of the program.

The paper certifies each skew Knörrer equivalence through one twisting
system on one fixed graded basis, so no ``nqh`` command changes that basis
or normalizes theta(1).  These are the constructions the tests check those
lemmas with (acceptance criterion 8 and the twist suites): the plain matrix
product and the trivial system on any graded basis, the normalization of
the unit values and the transport to another graded basis, and a basis
fake whose l and gamma are set by hand.  Next to them
are the checks that the program replaced by cheaper certificates or by
proofs and that the tests keep as references: the three identities of a
basis's structure tensor l by loops, the homomorphism identity of a map
E -> M_2(E) on every basis pair, the module identity on every triple, the
normal form bounded by a rewriting system's confluence degree, the
twisted table formed block by block, the twisting suite's gamma identities
by loops of their own, the degree-0 radical by the trace
form on the degree-0 part, both radicals of the minus case by the trace
form on its extension, the certificate of a map onto a subspace
read through the algebra restricted to that subspace and on every basis
pair, the Zhang twist as a stored table, the Lemma 4.6 suite's pair loop,
the grading item's scan key by key, vector equality over the union of
keys, the loops that summed a tensor product and a pair of E x E before
``exactlin.add_scaled`` did, and the Clifford
compatibility condition on V* R^perp  intersect  R^perp V*, with the
Zassenhaus subspace intersection it is computed by, which
``check_central`` decides (the proof is in ``deform.build_clifford``).  Last
is the dense matrix layer that sigma used before it became a table of
sparse maps: matrix sums, identities, inverses, and the stacked inverse of
a 2x2 table of blocks with its check, the references of the sparse
t-inverse solver and of sigma's Def-1.1 inverse.

Methods of ``nqh`` classes are functions of their object here:
``verify_module(module)``, ``L_matrix(basis, i, ip, j)``.
"""

import itertools
from fractions import Fraction

from nqh.algebra import (
    GradedAlgebra,
    GradedLinMap,
    MatrixHom,
    Report,
    _scalar_multiple,
    add_degrees,
    generating_set,
    ideal_closure,
    is_t_inverse,
    radical,
    restrict,
    vec_add,
    vec_scale,
    verify_iso,
)
from nqh.errors import (
    DimensionMismatch,
    NotTwistingSystem,
    NqhError,
    ParseError,
    SingularBasis,
)
from nqh.exactlin import (
    ONE,
    ZERO,
    Scalar,
    SparseEliminator,
    Subspace,
    TensorElement,
    add_scaled,
    matrix_mul,
    rref_rows,
)
from nqh.twist import (
    BlockLayout,
    TwistingSystemM2,
    _require_kind,
    _unit_value_invertible,
    verify_twisting_M2,
)


class DegreeExceedsConfluence(NqhError):
    pass


def ref_vec_eq(a, b):
    """Equality of sparse vectors over the union of their keys, a missing
    key read as 0: the verdict ``==`` must give on the program's vectors,
    which store no zero coefficient."""
    return all(a.get(k, ZERO) == b.get(k, ZERO) for k in a.keys() | b.keys())


def ref_concat_terms(left, right):
    """The terms of ``left.concat(right)`` by the loop that summed them
    inline, in its key order."""
    out = {}
    for w1, c1 in left.terms.items():
        for w2, c2 in right.terms.items():
            word = w1 + w2
            coeff = c1 * c2
            acc = out.get(word)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[word] = acc
            else:
                out.pop(word, None)
    return out


def ref_pair(layout, a, b):
    """``layout.pair(a, b)`` by the loop that summed it inline, then
    dropped its zeros."""
    out = {}
    for vec, slot in ((a, ((ONE, ZERO), (ZERO, ZERO))),
                      (b, ((ZERO, ZERO), (ZERO, ONE)))):
        coords = layout.basis.coords(slot, 0)
        for k, v in vec.items():
            for j in (1, 2):
                key = layout.index(0, j, k)
                out[key] = out.get(key, ZERO) + v * coords[j - 1]
    return {k: v for k, v in out.items() if v}


def transpose(a):
    return [list(col) for col in zip(*a)]


def normal_form(system, element):
    """Unique irreducible representative of an element."""
    for word in element.terms:
        if len(word) > system.confluent_up_to:
            raise DegreeExceedsConfluence(
                f"degree {len(word)} exceeds the certified bound {system.confluent_up_to}"
            )
    return system.reduce(element)


def verify_hom_M2(hom):
    """The matrix homomorphism identity on all basis pairs."""
    E = hom.algebra
    for x in range(E.dim):
        bx = E.basis_vec(x)
        images_x = [[hom.entries[i][k].apply(bx) for k in range(2)] for i in range(2)]
        for y in range(E.dim):
            by = E.basis_vec(y)
            product = E.table[x][y]
            for i in range(2):
                for j in range(2):
                    direct = hom.entries[i][j].apply(product)
                    via = {}
                    for k in range(2):
                        add_scaled(via, E.mul(images_x[i][k],
                                              hom.entries[k][j].apply(by)), ONE)
                    if direct != via:
                        return False
    return True


def verify_module(module):
    """Unit acts as identity; action is multiplicative:
    (m_r . e_i) . e_j = m_r . (e_i e_j) for every r, i and j."""
    algebra = module.algebra
    if any(module.act({r: ONE}, algebra.unit) != {r: ONE}
           for r in range(module.dim)):
        return False
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            product = algebra.table[i][j]
            for r, row in enumerate(module.action[i]):
                if module.act(row, {j: ONE}) != module.act({r: ONE}, product):
                    return False
    return True


def ref_basis_identities(basis):
    """The relations of l over ``basis.halves``, with gamma the coordinates
    of the identity, by loops: l-associativity, the coordinate form of
    (I(i)_j I(i')_j') I(i'')_j'' = I(i)_j (I(i')_j' I(i'')_j''), and
    l-right-unit and l-left-unit, those of I(i)_j 1 = I(i)_j = 1 I(i)_j.
    ``GradedBasisM2`` proves all three of the l and gamma it computes."""
    lval, halves, gamma = basis.lval, basis.halves, basis.gamma
    report = Report()
    report.add("l-associativity", all(
        sum((lval(i, ip + ipp, t, j, s) * lval(ip, ipp, s, jp, jpp)
             for s in (1, 2)), start=ZERO)
        == sum((lval(i + ip, ipp, t, s, jpp) * lval(i, ip, s, j, jp)
                for s in (1, 2)), start=ZERO)
        for i in halves for ip in halves for ipp in halves
        for j in (1, 2) for jp in (1, 2) for jpp in (1, 2) for t in (1, 2)))
    report.add("l-right-unit", all(
        sum((lval(i, 0, s, j, t) * gamma[t - 1] for t in (1, 2)), start=ZERO)
        == (ONE if s == j else ZERO)
        for i in halves for s in (1, 2) for j in (1, 2)))
    report.add("l-left-unit", all(
        sum((lval(0, i, s, j, t) * gamma[j - 1] for j in (1, 2)), start=ZERO)
        == (ONE if s == t else ZERO)
        for i in halves for s in (1, 2) for t in (1, 2)))
    return report


class HandSetBasis:
    """A test fake of ``GradedBasisM2`` whose ``l`` and ``gamma`` are given
    rather than solved from matrices: the structure tensors that no
    invertible graded basis has, such as one with a coefficient moved, or
    that of a basis ``GradedBasisM2`` rejects.  It carries what the
    twisting verifiers and ``ref_basis_identities`` read."""

    def __init__(self, halves, l, gamma):
        self.halves, self.l, self.gamma = halves, l, gamma

    def lval(self, i, ip, s, j, jp):
        return self.l[(i % 2, ip % 2, s, j, jp)]


def idempotent_basis():
    """The idempotent basis diag(1, 0), diag(0, 1) of k x k, which
    ``GradedBasisM2`` rejects as singular: eps_j eps_j' = delta_jj' eps_j
    and 1 = eps_1 + eps_2."""
    l = {(0, 0, s, j, jp): ONE if s == j == jp else ZERO
         for s, j, jp in itertools.product((1, 2), repeat=3)}
    return HandSetBasis((0,), l, (ONE, ONE))


def L_matrix(basis, i, ip, j):
    return [[basis.lval(i, ip, 1, j, 1), basis.lval(i, ip, 1, j, 2)],
            [basis.lval(i, ip, 2, j, 1), basis.lval(i, ip, 2, j, 2)]]


def plain_m2(E, basis):
    """Ordinary matrix multiplication constants over the same basis."""
    dim = E.dim
    layout = BlockLayout(E, basis)
    table = [[{} for _ in range(layout.dim)] for _ in range(layout.dim)]
    for i in (0, 1):
        for j in (1, 2):
            for ip in (0, 1):
                isum = (i + ip) % 2
                for jp in (1, 2):
                    # the product lands in the blocks (isum, t), whose keys
                    # are disjoint, so no two terms share a key
                    coeffs = [(t, basis.lval(i, ip, t, j, jp)) for t in (1, 2)
                              if basis.lval(i, ip, t, j, jp)]
                    for b in range(dim):
                        for bp in range(dim):
                            prod = E.table[b][bp]
                            table[layout.index(i, j, b)][layout.index(ip, jp, bp)] = {
                                layout.index(isum, t, k): c * coeff
                                for t, coeff in coeffs for k, c in prod.items()}
    gamma = basis.gamma
    unit = {}
    for j in (1, 2):
        if gamma[j - 1]:
            for k, c in E.unit.items():
                unit[layout.index(0, j, k)] = gamma[j - 1] * c
    return layout.algebra_on(table, unit)


def ref_twisted_algebra(system):
    """``twist._twisted_algebra`` as it was while it formed the products
    theta^(i')_{sj'}(e_b) e_b' again for each left block (i, j), summed by
    a hand-written accumulator: the test reference of the twisted table."""
    if system.t_inverses is None:
        raise NotTwistingSystem("verify the system before building")
    E, theta, basis = system.algebra, system.theta, system.basis
    layout = BlockLayout(E, basis)
    lval = basis.lval
    dim = E.dim
    table = [[{} for _ in range(layout.dim)] for _ in range(layout.dim)]
    for i in layout.halves:
        for j in (1, 2):
            for ip in layout.halves:
                isum = (i + ip) % 2
                for jp in (1, 2):
                    for b in range(dim):
                        bx = E.basis_vec(b)
                        pieces = {}
                        for s in (1, 2):
                            img = theta[ip].entry(s, jp).apply(bx)
                            if img:
                                pieces[s] = img
                        for bp in range(dim):
                            by = E.basis_vec(bp)
                            acc = {}
                            for s, img in pieces.items():
                                prod = E.mul(img, by)
                                if not prod:
                                    continue
                                for t in (1, 2):
                                    coeff = lval(i, ip, t, j, s)
                                    if not coeff:
                                        continue
                                    offset = layout.index(isum, t, 0)
                                    for k, c in prod.items():
                                        key = offset + k
                                        val = acc.get(key)
                                        val = c * coeff if val is None else val + c * coeff
                                        if val:
                                            acc[key] = val
                                        else:
                                            acc.pop(key, None)
                            table[layout.index(i, j, b)][layout.index(ip, jp, bp)] = acc
    unit = {}
    for j in (1, 2):
        part = {}
        for s in (1, 2):
            add_scaled(part, system.t_inverses[0].entry(s, j).apply(E.unit),
                       basis.gamma[s - 1])
        offset = layout.index(0, j, 0)
        unit.update((offset + k, c) for k, c in part.items())
    return layout.algebra_on(table, unit)


def ref_verify_twisting_suite(system):
    """``twist.verify_twisting_suite`` as it was while it derived its three
    gamma items by loops of its own: theta(1), phi(1), l and gamma on the
    scalars, and the absorption identity on every basis vector of E."""
    _require_kind(system, (0, 1))
    report = Report()
    E = system.algebra
    basis = system.basis
    if system.t_inverses is None and not verify_twisting_M2(system).ok:
        report.add("prerequisites", False, "system fails the defining checks")
        return report
    phis = system.t_inverses
    inverse_ok = all(is_t_inverse(theta, phi)
                     for theta, phi in zip(system.theta, phis))
    report.add("theta-phi-exchange", system.exchange_ok and inverse_ok)
    report.add("units-invertible", all(
        _unit_value_invertible(table) for table in (*system.theta, *phis)))
    ok3 = True
    for i, ip, q, r, s in itertools.product((0, 1), (0, 1), (1, 2), (1, 2), (1, 2)):
        lhs = {}
        for p in (1, 2):
            add_scaled(lhs, phis[(i + ip) % 2].entry(p, s).apply(E.unit),
                       basis.lval(i, ip, p, q, r))
        rhs = {}
        for j in (1, 2):
            add_scaled(rhs, phis[i].entry(q, j).apply(E.unit),
                       basis.lval(i, ip, s, j, r))
        ok3 &= lhs == rhs
    report.add("gamma-phi-relation", ok3)
    ok4 = True
    phi0_at_1 = {(r, j): phis[0].entry(r, j).apply(E.unit)
                 for r, j in itertools.product((1, 2), repeat=2)}
    for x in range(E.dim):
        bx = E.basis_vec(x)
        for v in (1, 2):
            lhs = {}
            for r, j in itertools.product((1, 2), repeat=2):
                inner = E.mul(bx, phi0_at_1[(r, j)])
                add_scaled(lhs, system.theta[0].entry(v, j).apply(inner),
                           basis.gamma[r - 1])
            ok4 &= lhs == vec_scale(bx, basis.gamma[v - 1])
    report.add("gamma-absorption", ok4)
    ok5 = True
    for i, s, q in itertools.product((0, 1), (1, 2), (1, 2)):
        total = ZERO
        for t, j, u in itertools.product((1, 2), repeat=3):
            lcoeff = basis.lval(0, i, s, j, t)
            if not lcoeff:
                continue
            phi1 = _scalar_multiple(E, phis[0].entry(u, j).apply(E.unit))
            th1 = _scalar_multiple(E, system.theta[i].entry(t, q).apply(E.unit))
            total = total + basis.gamma[u - 1] * lcoeff * phi1 * th1
        ok5 &= total == (ONE if s == q else ZERO)
    report.add("gamma-unit-contraction", ok5)
    return report


def ref_degree0_radical_dim(algebra):
    """dim J(A_0) as ``singularity_report`` computed it before reading it
    off J(A): the trace form on the restriction of the Z2-graded
    ``algebra`` to its degree-0 basis vectors."""
    zero = Subspace.from_rows(
        [{i: ONE} for i in algebra.component_indices((0,))], algebra.dim)
    return radical(restrict(algebra, zero, algebra.unit)).dim


def ref_radical_dims(algebra):
    """(dim J(A), dim J(A_0)) as ``singularity_report`` read them in the
    minus case before it read them off J(Gamma): the trace form on the
    whole Z2-graded ``algebra``, and the degree-0 rows of its radical's
    reduced basis."""
    J = radical(algebra)
    return J.dim, sum(algebra.element_degree(row) == (0,) for row in J.basis)


def ref_full_idempotent_check(algebra, e, gens):
    """``full_idempotent_check`` as it was before it stopped at the unit:
    the whole closure of e, then its rank."""
    if algebra.mul(e, e) != e:
        return False
    elim = SparseEliminator()
    for _ in ideal_closure(algebra, elim, [e], gens):
        pass
    return elim.rank == algebra.dim


def ref_certify_by_iso(linmap):
    """``certify_by_iso`` as it was while its map went onto a whole
    certified target: a bijection with f(1) = 1 that preserves degrees and
    is multiplicative on every basis pair."""
    source, target, cols = linmap.source, linmap.target, linmap.cols
    return (source.dim == target.dim == linmap.rank()
            and linmap.apply(source.unit) == target.unit
            and all(target.degrees[k] == source.degrees[i]
                    for i, col in enumerate(cols) for k in col)
            and all(linmap.apply(source.table[i][j]) == target.mul(cols[i], cols[j])
                    for i in range(source.dim) for j in range(source.dim)))


def ref_certify_onto(linmap, image, unit):
    """The certificate of a map onto the subspace ``image`` of its target
    as ``knorrer`` read it before ``certify_by_iso`` took a subspace: the
    target restricted to ``image`` with ``unit`` as its unit, the columns
    read as coordinates there, where a column outside ``image`` fails the
    check, and ``ref_certify_by_iso`` onto that algebra."""
    restricted = restrict(linmap.target, image, unit)
    try:
        cols = [image.coords(col) for col in linmap.cols]
    except DimensionMismatch:
        return False
    return ref_certify_by_iso(GradedLinMap(linmap.source, restricted, cols))


def certify_by_iso(linmap, image):
    """The all-pairs certificate of a map onto the subspace ``image`` of a
    certified target, as ``knorrer`` ran it on Lambda and the Zhang twist
    before their products followed a proved rule: a bijection onto
    ``image``, f(1) a two-sided unit of ``image``, degrees kept and
    f(e_i e_j) = f(e_i) f(e_j) on all dim^2 basis pairs.  It assumes nothing
    of the source; when it passes, the source table passes every item of
    ``verify_algebra`` too, since f is injective."""
    source, target, cols = linmap.source, linmap.target, linmap.cols
    one = linmap.apply(source.unit)
    return (image.dim == source.dim
            and Subspace.from_rows(cols, target.dim) == image
            and all(target.mul(one, c) == c and target.mul(c, one) == c
                    for c in cols)
            and all(target.degrees[k] == source.degrees[i]
                    for i, col in enumerate(cols) for k in col)
            and all(linmap.apply(source.row(i)[j]) == target.mul(cols[i], cols[j])
                    for i in range(source.dim) for j in range(source.dim)))


def ref_zhang_twist(E, mu):
    """``twist.zhang_twist`` as a stored table: e_i * e_j = nu_{deg e_j}(e_i) e_j
    with nu = (id, mu), each product formed by ``E.mul``."""
    table = []
    for i in range(E.dim):
        bx = E.basis_vec(i)
        nu_x = (bx, mu.apply(bx))
        table.append([E.mul(nu_x[E.degrees[j][0]], E.basis_vec(j))
                      for j in range(E.dim)])
    return GradedAlgebra(E.labels, table, dict(E.unit), E.degrees, 1, words=E.words)


def ref_lemma46_pairs(xi1, xi2, phi1, phi2, theta0, E):
    """The verdicts of ``xi1-product-rule``, ``xi2-product-rule``,
    ``phi1-two-argument`` and ``phi2-two-argument`` as the Lemma 4.6 suite
    reached them in one loop over every basis pair (a, b), with the second
    forms of the product rules folded into xi1 - xi2 = th22."""
    th22 = theta0.entry(2, 2)
    phi1_xi1 = phi1.compose(xi1)
    ok2 = ok3 = xi1 - xi2 == th22
    ok6 = ok7 = True
    for a in range(E.dim):
        va = E.basis_vec(a)
        xi1_a, xi2_a = xi1.cols[a], xi2.cols[a]
        phi1_a, phi2_a = phi1.cols[a], phi2.cols[a]
        for b, prod in enumerate(E.row(a)):
            vb = E.basis_vec(b)
            xi1_b, xi2_b = xi1.cols[b], xi2.cols[b]
            phi1_b, phi2_b = phi1.cols[b], phi2.cols[b]
            a_xi2_b = E.mul(va, xi2_b)
            ok2 = ok2 and xi1.apply(prod) == vec_add(a_xi2_b, E.mul(xi1_a, th22.cols[b]))
            ok3 = ok3 and xi2.apply(prod) == vec_add(a_xi2_b, E.mul(xi2_a, th22.cols[b]))
            ok6 = (ok6 and phi1.apply(E.mul(xi1_a, vb)) == E.mul(phi1_a, phi1_b)
                   and phi1.apply(E.mul(va, xi1_b)) == E.mul(phi1_a, phi1_xi1.cols[b])
                   and phi1.apply(E.mul(phi2_a, xi2_b)) == E.mul(xi2_a, phi2_b))
            ok7 = (ok7 and phi2.apply(E.mul(xi2_a, vb)) == E.mul(phi2_a, phi1_b)
                   and phi2.apply(E.mul(phi1_a, xi2_b)) == E.mul(xi1_a, phi2_b))
    return {"xi1-product-rule": ok2, "xi2-product-rule": ok3,
            "phi1-two-argument": ok6, "phi2-two-argument": ok7}


def ref_grading_failure(algebra):
    """The grading item's scan key by key: the first (i, j, k) where e_k,
    in the support of e_i e_j, has a degree other than deg e_i + deg e_j,
    or None."""
    for i in range(algebra.dim):
        for j, prod in enumerate(algebra.row(i)):
            target = add_degrees(algebra.degrees[i], algebra.degrees[j])
            for k in prod:
                if algebra.degrees[k] != target:
                    return i, j, k
    return None


def subspace_intersection(u, w):
    """Intersection of two subspaces of the same ambient space K^n.

    Zassenhaus: the rows (x | x), x in the basis of u, and (y | 0), y in the
    basis of w, span {(x + y | x)}, whose vectors that vanish on the first
    half are (0 | x) with x = -y in u and w.  The rows of a row echelon
    basis that lead in the second half span exactly those vectors.
    """
    if u.ambient != w.ambient:
        raise DimensionMismatch("subspaces of different ambient spaces")
    n = u.ambient
    elim = SparseEliminator()
    for x in u.basis:
        row = dict(x)
        row.update((c + n, v) for c, v in x.items())
        elim.add(row)
    for y in w.basis:
        elim.add(y)
    meet = [{c - n: v for c, v in row.items()}
            for lead, row in elim.pivots.items() if lead >= n]
    return Subspace.from_rows(meet, n)


def compatibility_holds(dual, lift):
    """(theta (x) 1 - 1 (x) theta) vanishes on V*R^perp  intersect  R^perp V*,
    for theta(f) = <f, lift> on the relations of ``dual``."""
    g = dual.ngens
    relations = dual.relation_elements()
    left_rows = []
    right_rows = []
    for a in range(g):
        unit_vec = TensorElement.monomial((a,))
        for f in relations:
            left_rows.append(unit_vec.concat(f).coordinates(g, 3))
            right_rows.append(f.concat(unit_vec).coordinates(g, 3))
    left = Subspace.from_rows(left_rows, g ** 3)
    right = Subspace.from_rows(right_rows, g ** 3)
    meet = subspace_intersection(left, right)
    zmat = [[ZERO] * g for _ in range(g)]
    for (a, b), c in lift.terms.items():
        zmat[a][b] = c
    for row in meet.basis:
        t = TensorElement.from_coordinates(row, g, 3)
        contract_12 = [ZERO] * g  # theta on the first two letters
        contract_23 = [ZERO] * g  # theta on the last two letters
        for (a, b, c), coeff in t.terms.items():
            contract_12[c] = contract_12[c] + coeff * zmat[a][b]
            contract_23[a] = contract_23[a] + coeff * zmat[b][c]
        if any(x - y for x, y in zip(contract_12, contract_23)):
            return False
    return True


def trivial_system(E, basis):
    ident = GradedLinMap.identity(E)
    zero = GradedLinMap.zero(E)
    table = MatrixHom([[ident, zero], [zero, ident]])
    return TwistingSystemM2(E, (table, table), basis)


def _require_verified(system):
    if system.certificate is None:
        rep = verify_twisting_M2(system)
        if not rep.ok:
            raise NotTwistingSystem(str(rep.first_failure()))


def _block_iso(system, new_system, coeff, names):
    """Verify ``new_system`` and return it with the iso I(i)_j e_b ->
    sum_s coeff(i, j, s) I(i)_s e_b from the twisted algebra of ``system``
    to that of ``new_system``, each built and certified by its verify."""
    rep = verify_twisting_M2(new_system)
    if not rep.ok:
        raise NotTwistingSystem(f"{names[0]} tables fail: {rep.first_failure()}")
    # verify_iso needs both sides certified associative
    for certificate in (system.certificate, new_system.certificate):
        if not certificate.ok:
            raise NotTwistingSystem(
                f"twisted algebra invalid: {certificate.first_failure()}")
    layout = BlockLayout(system.algebra, system.basis)
    cols = []
    for i in (0, 1):
        for j in (1, 2):
            coeffs = [(s, coeff(i, j, s)) for s in (1, 2)]
            for b in range(layout.algebra.dim):
                cols.append({layout.index(i, s, b): c for s, c in coeffs if c})
    iso = GradedLinMap(system.twisted, new_system.twisted, cols)
    if not verify_iso(iso, generating_set(iso.source)):
        raise NotTwistingSystem(f"{names[1]} map is not an isomorphism")
    return new_system, iso


def normalize_upsilon(system):
    """Rescale the tables so both send 1 to the identity matrix.

    Returns (new system, iso from the old twisted algebra to the new one).
    """
    E = system.algebra
    _require_verified(system)
    new_tables = []
    for i in (0, 1):
        phi_at_1 = system.t_inverses[i].value_at_unit()
        if phi_at_1 is None:
            raise NotTwistingSystem("t-inverse value at 1 is not scalar")
        entries = [[None, None], [None, None]]
        for j in (1, 2):
            for k in (1, 2):
                acc = GradedLinMap.zero(E)
                for m in (1, 2):
                    coeff = phi_at_1[k - 1][m - 1]
                    if coeff:
                        acc = acc + system.theta[i].entry(j, m).scale(coeff)
                entries[j - 1][k - 1] = acc
        new_tables.append(MatrixHom(entries))
    upsilon = TwistingSystemM2(E, tuple(new_tables), system.basis)
    return _block_iso(system, upsilon,
                      lambda i, j, s: _scalar_multiple(
                          E, system.theta[i].entry(s, j).apply(E.unit)),
                      ("normalized", "normalization"))


def rebase_omega(system, new_basis):
    """Transport a twisting system to another graded basis of M_2(k).

    Reads (I...) = (J...) U per degree off ``new_basis.coords`` and
    conjugates the tables by U.
    Returns (new system, iso from the old twisted algebra to the new one).
    """
    E = system.algebra
    _require_verified(system)
    # column j of U^(i): the old I(i)_j in the new degree-i pair
    U = {i: [new_basis.coords(system.basis.mats[(i, j)], i) for j in (1, 2)]
         for i in (0, 1)}
    new_tables = []
    for i in (0, 1):
        u = [[U[i][0][0], U[i][1][0]], [U[i][0][1], U[i][1][1]]]
        uinv = matrix_inverse(u)
        if uinv is None:
            raise SingularBasis("change of basis is singular")
        entries = [[GradedLinMap.zero(E), GradedLinMap.zero(E)],
                   [GradedLinMap.zero(E), GradedLinMap.zero(E)]]
        for a in (1, 2):
            for b in (1, 2):
                acc = GradedLinMap.zero(E)
                for p in (1, 2):
                    for q in (1, 2):
                        coeff = u[a - 1][p - 1] * uinv[q - 1][b - 1]
                        if coeff:
                            acc = acc + system.theta[i].entry(p, q).scale(coeff)
                entries[a - 1][b - 1] = acc
        new_tables.append(MatrixHom(entries))
    omega = TwistingSystemM2(E, tuple(new_tables), new_basis)
    return _block_iso(system, omega, lambda i, j, s: U[i][j - 1][s - 1],
                      ("rebased", "rebase"))


def ref_scalar_parse(text):
    """``Scalar.parse`` as it was while it handed each term to ``Fraction``,
    which also takes exponents, decimals and underscores: the reference on
    the documented grammar only, since an exponent such as 1e300000000
    makes it build a huge integer."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty scalar")
    if s == "0":
        return ZERO
    coeffs = [Fraction(0)] * 4
    terms = []
    current = ""
    for ch in s:
        if ch in "+-" and current and current[-1] not in "+-/*":
            terms.append(current)
            current = ch if ch == "-" else ""
        else:
            current += ch
    if current:
        terms.append(current)
    for term in terms:
        if not term or term in ("+", "-"):
            raise ParseError(f"bad scalar term in {text!r}")
        body = term
        sign = 1
        if body[0] == "+":
            body = body[1:]
        elif body[0] == "-":
            sign = -1
            body = body[1:]
        slot = 0
        if body.endswith("i*r2"):
            slot = 3
            body = body[: -len("i*r2")]
        elif body.endswith("r2"):
            slot = 2
            body = body[: -len("r2")]
        elif body.endswith("i"):
            slot = 1
            body = body[:-1]
        body = body.rstrip("*")
        if body == "":
            value = Fraction(1)
        else:
            try:
                value = Fraction(body)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad scalar {text!r}") from exc
        coeffs[slot] += sign * value
    return Scalar.from_rationals(*coeffs)


# ---------------------------------------------------------------------------
# dense matrices


def matrix_add(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def identity_matrix(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zero_matrix(n, m=None):
    m = n if m is None else m
    return [[ZERO] * m for _ in range(n)]


def matrix_inverse(a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = []
    for i, row in enumerate(a):
        sparse = {j: c for j, c in enumerate(row) if c}
        sparse[n + i] = ONE
        aug.append(sparse)
    basis, pivots = rref_rows(aug, 2 * n)
    if pivots != tuple(range(n)):
        return None
    return [[row.get(n + j, ZERO) for j in range(n)] for row in basis]


def stacked_inverse(blocks):
    """The 2x2 table P of n x n blocks with sum_k blocks[k][i] P[k][j] =
    delta_ij I, or None when there is none.

    The equations say B P = I for the stacked 2n x 2n matrix
    B[(i, r), (k, s)] = blocks[k][i][r][s], so P[k][j] is block (k, j) of
    B^-1.
    """
    n = len(blocks[0][0])
    big = [[blocks[k][i][r][s] for k in range(2) for s in range(n)]
           for i in range(2) for r in range(n)]
    inv = matrix_inverse(big)
    if inv is None:
        return None
    return [[[row[j * n:(j + 1) * n] for row in inv[k * n:(k + 1) * n]]
             for j in range(2)] for k in range(2)]


def is_stacked_inverse(s, p):
    """Both identities sum_k s[k][i] p[k][j] = delta_ij I and
    sum_k p[j][k] s[i][k] = delta_ij I on 2x2 tables of n x n blocks."""
    n = len(s[0][0])
    ident = identity_matrix(n)
    zero = zero_matrix(n)
    for i in range(2):
        for j in range(2):
            expect = ident if i == j else zero
            if matrix_add(matrix_mul(s[0][i], p[0][j]),
                          matrix_mul(s[1][i], p[1][j])) != expect:
                return False
            if matrix_add(matrix_mul(p[j][0], s[i][0]),
                          matrix_mul(p[j][1], s[i][1])) != expect:
                return False
    return True
