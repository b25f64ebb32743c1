"""Clifford deformations and trimmed double Ore extension data.

The deformation of a quadratic dual replaces each relation f by
f - f(zhat) for a degree-2 central lift zhat; the rewriting engine completes
the deformed presentation, and the homogeneous dual supplies the PBW
dimension count that its normal words must reach.

Double Ore data is a base presentation, the pair (p12, p11), and a 2x2
table sigma of degree-1 generator maps, a ``MatrixHom`` of sparse maps of
V.  sigma acts on higher components word-wise through the matrix product
rule sigma(u (x) v) = sigma(u) sigma(v), which is the unique
degree-preserving multiplicative lift; all conditions are then checked
exactly on the degree-1 and degree-2 components.  Each identity set is
written once, over a ``MatrixHom``, and runs on sigma over V, on sigma over
the degree-2 component and on the dualized table sigma^! over the
deformation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import (
    BoundExceeded,
    CompatibilityFailed,
    DegenerateP11,
    DimensionMismatch,
    NotRepresentableInK,
    RelationViolated,
    WrongP,
)
from .exactlin import (
    HALF,
    I,
    MINUS_ONE,
    ONE,
    ZERO,
    Scalar,
    Subspace,
    TensorElement,
    add_scaled,
    pairing,
    sqrt_in_K,
    word_index,
)
from .algebra import (
    GradedLinMap,
    MatrixHom,
    Report,
    Space,
    strongly_graded_check,
    t_inverse_table,
    verify_algebra,
)
from .quadratic import QuadraticPresentation, check_central, koszul_dual
from .rewrite import (
    complete,
    extract_algebra,
    normal_words,
    orient,
    rule_elements,
)

# The largest deformation built: a 10-letter exterior dual (dim 2^10), which
# is B's dual over an 8-generator base.
DIM_BUDGET = 1024


class CaseKind(Enum):
    PLUS = "plus"
    MINUS = "minus"
    INVALID = "invalid"


@dataclass
class CliffordData:
    """A Clifford deformation: dual, deformed relations, completed system,
    normal words and their algebra (None for the big deformation)."""

    presentation: QuadraticPresentation  # homogeneous dual presentation
    central: TensorElement               # lift of the central element (base side)
    theta_values: tuple
    relations: tuple                     # deformed relations fed to the oracle
    system: object
    words: tuple
    algebra: object = None


@dataclass
class DoubleOreData:
    """A base presentation, the mixing pair (p12, p11), and sigma: a
    ``MatrixHom`` whose entry (i, j) maps the generators of V, its carrier
    ``sigma.algebra``, column by column to their sigma_ij images."""

    base: QuadraticPresentation
    p12: Scalar
    p11: Scalar
    sigma: MatrixHom

    @property
    def ngens(self):
        return self.base.ngens

    @cached_property
    def b(self):
        """The presentation of B (see b_presentation), built once."""
        return b_presentation(self)

    @cached_property
    def b_dual(self):
        """The Koszul dual of B, built once."""
        return koszul_dual(self.b)

    @cached_property
    def mixing(self):
        """The deformation of the mixing block's dual at y1^2 + y2^2,
        completed once, with no structure table: the oracle step certifies
        it (see ``_verify_subalgebra_blocks``)."""
        dual = koszul_dual(j_presentation(self.p12, self.p11))
        lift = TensorElement({(0, 0): ONE, (1, 1): ONE})
        theta_values, deformed = clifford_theta(dual, lift)
        return complete_deformation(dual, deformed, lift, theta_values)

    @cached_property
    def degree2(self):
        """The carrier of every table on the base's degree-2 component."""
        return Space(self.base.component_dim(2))

    @cached_property
    def sigma_on_degree2(self):
        """sigma on the degree-2 component of the base (see _on_degree2),
        built once; sigma is never changed after construction."""
        return _on_degree2(self, self.sigma)


def clifford_theta(dual, lift):
    """The Clifford map on the reduced basis of the dual relations,
    theta(f) = <f, lift>, and the deformed relations f - theta(f)."""
    values = []
    relations = []
    for f in dual.relation_elements():
        c = pairing(f, lift)
        values.append(c)
        relations.append(f - TensorElement.unit().scale(c))
    return tuple(values), relations


def dual_dims(presentation):
    """The graded dimensions of a finite-dimensional quadratic quotient, from
    degree 0 up to its top degree; BoundExceeded as soon as their running
    total passes DIM_BUDGET, never a short answer.

    For a connected quadratic quotient the degree-(n+1) component is spanned
    by V times the degree-n component, so the scan can stop at the first
    zero.
    """
    dims = []
    while True:
        dim = presentation.component_dim(len(dims))
        if not dim:
            return dims
        dims.append(dim)
        if sum(dims) > DIM_BUDGET:
            raise BoundExceeded(
                f"the dual's graded dimensions sum to {sum(dims)} by degree"
                f" {len(dims) - 1}, past the dimension budget {DIM_BUDGET}")


def complete_deformation(dual, deformed, central_lift, theta_values,
                         expected_dim=None):
    """Complete a deformation of a presented dual and enumerate its normal
    words; no structure table is built.

    The dual's graded dimensions give the completion degree and the PBW
    dimension, which the normal words must reach exactly."""
    dims = dual_dims(dual)
    pbw_dim = sum(dims)
    if expected_dim is not None and pbw_dim != expected_dim:
        raise DimensionMismatch(
            f"homogeneous dimension {pbw_dim} != expected {expected_dim}")
    maxdeg = 2 * len(dims)  # twice the top degree, plus 2
    system = complete(orient(list(deformed), dual.generators), maxdeg)
    return CliffordData(dual, central_lift, tuple(theta_values),
                        tuple(deformed), system,
                        tuple(normal_words(system, pbw_dim)))


def build_clifford(presentation, lift):
    """The Clifford deformation of the dual of a quadratic presentation,
    with its structure table certified by ``verify_algebra`` from its
    completed rules.

    The one compatibility check is ``check_central``: theta (x) 1 - 1 (x)
    theta, with theta(f) = <f, lift> on the dual relations R^perp, vanishes
    on M = V* R^perp  intersect  R^perp V* exactly when the lift is central
    in A_3.  Proof.  Under the straight pairing of V*^(x)3 with V^(x)3 the
    annihilator of V* R^perp is V R and that of R^perp V* is R V, so
    M^perp = V R + R V = I_3.  Component k of theta (x) 1 - 1 (x) theta is
    the pairing with z x_k - x_k z, for z the lift, so it vanishes on M
    exactly when z x_k - x_k z lies in M^perp = I_3 for every generator:
    when z is central in A_3.

    Strong grading, E_1 E_1 = E_0, is read off one product once the table
    is certified, when a letter a has e_a e_a = c 1 with c != 0
    (``unit_square_letter``).  Proof.  For x in E_0, e_a x lies in E_1 by
    the grading item, and e_a (c^-1 e_a x) = x by associativity, so
    E_0 = e_a (e_a E_0) lies in E_1 E_1, which lies in E_0 by the grading
    item.  That is ``strongly_graded_check``'s verdict, and its rank pass
    runs only when no letter is such a witness.
    """
    if not check_central(presentation, lift):
        raise CompatibilityFailed("the lift is not central")
    dual = koszul_dual(presentation)
    theta_values, deformed = clifford_theta(dual, lift)
    out = complete_deformation(dual, deformed, lift, theta_values)
    out.algebra = extract_algebra(out.system, out.words)
    report = verify_algebra(out.algebra, out.system)
    if not report.ok:
        raise DimensionMismatch(f"oracle output invalid: {report.first_failure()}")
    if unit_square_letter(out.algebra) is None and not strongly_graded_check(out.algebra):
        raise DimensionMismatch("deformation is not strongly Z2-graded")
    return out


def unit_square_letter(E):
    """The index of the first letter a of E's words with e_a e_a = c 1 and
    c != 0, or None; E's unit is e_()."""
    one = E.words.index(())
    return next((k for k, w in enumerate(E.words) if len(w) == 1
                 and E.row(k)[k].keys() == {one} and E.row(k)[k][one]), None)


# ---------------------------------------------------------------------------
# sigma on tensor degree 2 and condition checks


def _on_tensors(table, vec, g):
    """A 2x2 table of generator maps on a sparse vector of V (x) V: entry
    (i, j) of the result is t_ij(vec), by the matrix product rule
    t_ij(u v) = sum_k t_ik(u) t_kj(v) on each word u v."""
    t = table.entries
    out = [[{}, {}], [{}, {}]]
    for idx, coeff in vec.items():
        u, v = divmod(idx, g)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    tail = t[k][j].cols[v]
                    for r, c in t[i][k].cols[u].items():
                        add_scaled(out[i][j],
                                   {r * g + s: b for s, b in tail.items()},
                                   coeff * c)
    return out


def _sigma_preserves_relations(presentation, table):
    g = presentation.ngens
    relations = presentation.relations
    return not any(relations.reduce(image)
                   for row in relations.basis
                   for pair in _on_tensors(table, row, g) for image in pair)


def _on_degree2(data, table):
    """A 2x2 table of generator maps acting on the degree-2 component, on
    the carrier ``data.degree2``: each basis word mapped by _on_tensors,
    then reduced to the component basis."""
    base, space = data.base, data.degree2
    g = base.ngens
    cols = [[[], []], [[], []]]
    for w in base.component_basis_words(2):
        images = _on_tensors(table, {word_index(w, g): ONE}, g)
        for i in range(2):
            for j in range(2):
                tensor = TensorElement.from_coordinates(images[i][j], g, 2)
                cols[i][j].append(base.reduce_mod_ideal(tensor, 2))
    return MatrixHom([[GradedLinMap(space, space, cols[i][j]) for j in range(2)]
                      for i in range(2)])


def _combination(terms):
    """sum c (a after b) over the (c, a, b) in ``terms``, zero c skipped."""
    total = None
    for c, a, b in terms:
        if not c:
            continue
        term = a.compose(b)
        if c != ONE:
            term = term.scale(c)
        total = term if total is None else total + term
    return GradedLinMap.zero(terms[0][1].source) if total is None else total


def composition_identities(table, p12, p11):
    """The double Ore composition identities of a 2x2 table of maps
    (Zhang-Zhang, *Double Ore extensions*, JPAA 2008), 0-based entries.

    These are the confluence conditions of the two reductions of y2 y1 a;
    with p11 = 0 they are the usual three displayed identities, and for
    p11 != 0 the extra p11 terms appear alongside them.
    """
    t = table.entries
    comb = _combination
    return (
        comb([(ONE, t[1][0], t[0][0]), (p11, t[1][1], t[0][0])])
        == comb([(p12, t[0][0], t[1][0]), (p12 * p11, t[0][1], t[1][0]),
                 (p11, t[0][0], t[0][0]), (p11 * p11, t[0][1], t[0][0])])
        and comb([(ONE, t[1][1], t[0][1])])
        == comb([(p12, t[0][1], t[1][1]), (p11, t[0][1], t[0][1])])
        and comb([(p12, t[1][1], t[0][0]), (ONE, t[1][0], t[0][1])])
        == comb([(p12 * p12, t[0][1], t[1][0]), (p12, t[0][0], t[1][1]),
                 (p11 * p12, t[0][1], t[0][0]), (p11, t[0][0], t[0][1])]))


def centrality_identities(table, p12):
    """The identities of a 2x2 table of maps that make y1^2 + y2^2 commute
    past it when p11 = 0, 0-based entries:
    t00 t00 + t10 t10 = 1 = t01 t01 + t11 t11 and
    t00 t01 + t10 t11 = -p12 (t01 t00 + t11 t10)."""
    t = table.entries
    comb = _combination
    ident = GradedLinMap.identity(table.algebra)
    return (
        comb([(ONE, t[0][0], t[0][0]), (ONE, t[1][0], t[1][0])]) == ident
        and comb([(ONE, t[0][1], t[0][1]), (ONE, t[1][1], t[1][1])]) == ident
        and comb([(ONE, t[0][0], t[0][1]), (ONE, t[1][0], t[1][1])])
        == comb([(-p12, t[0][1], t[0][0]), (-p12, t[1][1], t[1][0])]))


def _holds_on_degrees_1_and_2(data, identities):
    """Whether ``identities(table)`` holds for sigma on V and on the
    degree-2 component."""
    return identities(data.sigma) and identities(data.sigma_on_degree2)


def _composition_conditions(data):
    """The trimmed-case composition identities, exactly on degree 1 and
    degree 2."""
    return _holds_on_degrees_1_and_2(
        data, lambda t: composition_identities(t, data.p12, data.p11))


def invert_sigma(data):
    """The Def-1.1 inverse phi of sigma on generators, or None.

    The identities sum_k sigma_ki phi_kj = delta_ij id and
    sum_k phi_jk sigma_ik = delta_ij id on V say that sigma is the
    t-inverse of phi (``is_t_inverse(phi, sigma)``).  Exchanging i and j in
    both, they say that the transpose of phi is the t-inverse of the
    transpose of sigma, which ``t_inverse_table`` solves for and checks.

    Once sigma preserves the relations R (``sigma-preserves-relations``),
    phi preserves R and both identities hold on A_2, so neither is checked.
    Proof.  By the product rule, sum_k sigma_ki phi_kj (u v)
    = u (sum_m sigma_mi phi_mj)(v) and sum_k phi_jk sigma_ik (u v)
    = (sum_m phi_jm sigma_im)(u) v, so both identities hold on V (x) V:
    the maps Q, block (i, k) sigma_ki, and P, block (k, j) phi_kj, of
    (V (x) V)^2 are inverse.  Q maps R^2 into itself and is injective, so
    onto it; so P = Q^-1 preserves R^2, and the identities pass to A_2.
    """
    inverse = t_inverse_table(data.sigma.transposed())
    return None if inverse is None else inverse.transposed()


def validate_double_ore(data):
    """Pass/fail report for the trimmed double Ore conditions."""
    report = Report()
    report.add("p12-nonzero", bool(data.p12), "" if data.p12 else "p12 must be nonzero")
    space = data.sigma.algebra
    degree_ok = space.dim == data.ngens and all(
        entry.source is space and entry.target is space
        for row in data.sigma.entries for entry in row)
    report.add("sigma-shape", degree_ok)
    if not (report.items[0].passed and degree_ok):
        return report, None
    report.add("sigma-preserves-relations",
               _sigma_preserves_relations(data.base, data.sigma))
    report.add("composition-conditions", _composition_conditions(data))
    phi = invert_sigma(data)
    report.add("sigma-invertible", phi is not None)
    return report, phi


def p12_classify(data):
    if data.p12 == ONE and not data.p11:
        return CaseKind.PLUS
    if data.p12 == Scalar(-1):
        return CaseKind.MINUS
    return CaseKind.INVALID


def _sigma_fixes_z(data, lift):
    """sigma(z) = diag(z, z) modulo relations, on the lift of z."""
    g = data.ngens
    zvec = lift.coordinates(g, 2)
    images = _on_tensors(data.sigma, zvec, g)
    for i in range(2):
        add_scaled(images[i][i], zvec, MINUS_ONE)
    return all(data.base.relations.contains(image)
               for pair in images for image in pair)


def _centrality_conditions(data, lift):
    return (_holds_on_degrees_1_and_2(
                data, lambda t: centrality_identities(t, data.p12))
            and _sigma_fixes_z(data, lift))


def centrality_check_plus(data, lift):
    """Conditions making z + y1^2 + y2^2 central when (p12, p11) = (1, 0)."""
    if not (data.p12 == ONE and not data.p11):
        raise WrongP("the plus-case check needs p12 = 1, p11 = 0")
    return _centrality_conditions(data, lift)


def centrality_check_minus(data, lift):
    """Conditions making z + y1^2 + y2^2 central when (p12, p11) = (-1, 0)."""
    if not (data.p12 == Scalar(-1) and not data.p11):
        raise WrongP("the minus-case check needs p12 = -1, p11 = 0")
    return _centrality_conditions(data, lift)


def b_presentation(data):
    """B as a quadratic presentation on y1, y2 followed by the base
    generators, with the mixing and crossing relations."""
    g = data.ngens
    names = ("y1", "y2") + tuple(data.base.generators)
    shift = {a: a + 2 for a in range(g)}
    rels = j_presentation(data.p12, data.p11).relation_elements()
    # base relations, letters shifted past the y block
    for row in data.base.relations.basis:
        rels.append(TensorElement.from_coordinates(row, g, 2).rename(shift))
    # y_i a - sum_j sigma_ij(a) y_j
    for i in range(2):
        for a in range(g):
            terms = {(i, a + 2): ONE}
            for j in range(2):
                for b, c in data.sigma.entries[i][j].cols[a].items():
                    terms[(b + 2, j)] = -c
            rels.append(TensorElement(terms))
    return QuadraticPresentation(names, rels)


def central_lift_in_b(data, z_lift):
    """The lift of z + y1^2 + y2^2 inside the B presentation's letters."""
    shift = {a: a + 2 for a in range(data.ngens)}
    return z_lift.rename(shift) + TensorElement({(0, 0): ONE, (1, 1): ONE})


def dualize_hom(data, clifford):
    """The induced matrix homomorphism sigma^!: E -> M_2(E) on the
    Clifford deformation E = ``clifford.algebra``.

    Generator duals map by transposes; normal words map by the 2x2 matrix
    product over E.  The deformed relations, then the rules of E's completed
    system, must evaluate to the zero matrix, otherwise RelationViolated is
    raised with the index of the first that does not, a rule counted past
    the relations.

    Claim.  When both evaluations pass, sigma^! is an algebra map:
    sigma^!(1) = I and sigma^!(e_u e_v) = sigma^!(e_u) sigma^!(e_v) on every
    basis pair, which the test reference ``verify_hom_M2`` in
    ``tests/reference_constructions.py`` checks pair by pair.  Premises: E
    is certified by ``verify_algebra`` before this runs
    (``build_clifford``), so M_2(E) is associative; and E's table is
    e_u e_v = NF(u v) on its normal words (``extract_algebra``).  Proof.
    sigma^! is e_w -> phi(w), with phi the multiplicative extension of the
    generator images into M_2(E), and phi(()) = I.  phi kills every rule,
    so by the rule lemma (``rewrite.rule_elements``)
    sigma^!(e_u e_v) = phi(NF(u v)) = phi(u v) = phi(u) phi(v).
    """
    lift = clifford.central
    if not _sigma_fixes_z(data, lift):
        raise WrongP("sigma must fix the central element diagonally")
    E = clifford.algebra

    def gen_image(a):
        # 2x2 matrix over E of images of the a-th dual generator; sigma^!
        # on degree-1 duals is the transpose of sigma
        return [[{E.words.index((b,)): col[a]
                  for b, col in enumerate(data.sigma.entries[i][j].cols)
                  if a in col} for j in range(2)] for i in range(2)]

    unit_mat = [[dict(E.unit), {}], [{}, dict(E.unit)]]
    memo = {(): unit_mat}

    def word_image(word):
        cached = memo.get(word)
        if cached is not None:
            return cached
        prev = word_image(word[:-1])
        last = gen_image(word[-1])
        out = [[{}, {}], [{}, {}]]
        for i in range(2):
            for j in range(2):
                acc = {}
                for k in range(2):
                    if prev[i][k] and last[k][j]:
                        add_scaled(acc, E.mul(prev[i][k], last[k][j]), ONE)
                out[i][j] = acc
        memo[word] = out
        return out

    # the deformed relations, then the completed rules (proof above)
    for idx, relation in enumerate(clifford.relations
                                   + rule_elements(clifford.system)):
        acc = [[{}, {}], [{}, {}]]
        for word, coeff in relation.terms.items():
            mat = word_image(word)
            for i in range(2):
                for j in range(2):
                    add_scaled(acc[i][j], mat[i][j], coeff)
        if any(acc[i][j] for i in range(2) for j in range(2)):
            raise RelationViolated(idx, "dualized map does not kill a relation")
    cols = [[[None] * E.dim for _ in range(2)] for _ in range(2)]
    for b, word in enumerate(E.words):
        mat = word_image(word)
        for i in range(2):
            for j in range(2):
                cols[i][j][b] = mat[i][j]
    return MatrixHom([[GradedLinMap(E, E, cols[i][j]) for j in range(2)]
                      for i in range(2)])


def dual_table_identities(data, hom):
    """The composition and centrality identities of the mixing pair on the
    dualized table sigma^! over the deformation E."""
    return (composition_identities(hom, data.p12, data.p11)
            and centrality_identities(hom, data.p12))


def build_Bshriek_clifford(data, lift, base):
    """The Clifford deformation of the dual of B at z + y1^2 + y2^2, with
    ``base`` the deformation of the base dual at the lift of z.

    It gets no structure table and is not certified here: the pipelines
    certify it from its presentation (see ``knorrer._oracle_step``), and
    its base and mixing blocks with it (see ``_verify_subalgebra_blocks``)."""
    g = data.ngens
    bdual = data.b_dual
    # cross-check the printed dual relation space: R_J-perp + R-perp + R_tau
    shift = {a: a + 2 for a in range(g)}
    assembled = []
    assembled.append(TensorElement({(1, 1): ONE}))
    assembled.append(TensorElement({(0, 1): ONE, (1, 0): data.p12}))
    assembled.append(TensorElement({(0, 0): ONE, (1, 0): data.p11}))
    for f in base.presentation.relation_elements():
        assembled.append(f.rename(shift))
    for i in range(2):
        for a in range(g):
            terms = {(a + 2, i): ONE}
            for j in range(2):
                # sigma^! on degree-1 duals is the transpose of sigma
                for b, col in enumerate(data.sigma.entries[j][i].cols):
                    if a in col:
                        terms[(j, b + 2)] = col[a]
            assembled.append(TensorElement(terms))
    assembled_space = Subspace.from_rows(
        [r.coordinates(g + 2, 2) for r in assembled], (g + 2) ** 2)
    if assembled_space != bdual.relations:
        raise DimensionMismatch(
            "assembled dual relations disagree with the orthogonal complement")
    # deform: J-block constants from the lift of y1^2 + y2^2, base block from z
    big_lift = central_lift_in_b(data, lift)
    theta_values, deformed = clifford_theta(bdual, big_lift)
    out = complete_deformation(bdual, deformed, big_lift, theta_values,
                               expected_dim=4 * base.algebra.dim)
    _verify_subalgebra_blocks(out, data, base)
    return out


def j_presentation(p12, p11):
    """The mixing subalgebra on y1, y2 alone: y2 y1 - p12 y1 y2 - p11 y1 y1."""
    return QuadraticPresentation(
        ("y1", "y2"),
        [TensorElement({(1, 0): ONE})
         - TensorElement({(0, 1): p12})
         - TensorElement({(0, 0): p11})],
    )


def _block_words(block_words, expect, offset):
    """DimensionMismatch unless shifting each block letter of the normal
    words ``block_words`` down by ``offset`` is a bijection onto
    ``expect``, a list of normal words."""
    if {tuple(a - offset for a in w) for w in block_words} != set(expect):
        raise DimensionMismatch("subalgebra block words are not the block's")


def _verify_subalgebra_blocks(bdata, data, base_c):
    """The normal words of the big system P on base letters are E's,
    shifted past y1, y2; those on y1, y2 are the mixing block J's
    (``data.mixing``); and every normal word factors as (y part)(base part)
    bijectively.

    No product is computed here: the oracle step certifies both blocks.
    Claim.  Let Q be E with the letter shift s: a -> a + 2, or J with s the
    identity.  Once ``knorrer._oracle_step`` has passed its relation, rule
    and span checks on P, through the map f onto its certified target T,
    and has evaluated Q's completed rules, shifted by s, to 0 in T, then
    NF_P(s(uv)) = s(NF_Q(uv)) for all normal words u, v of Q.  Premise: the
    word check here, so s maps Q's normal words onto P's normal words on
    the block's letters.  Proof.  f and g = f(s(-)) are the multiplicative
    extensions of letter assignments into the associative T; f kills P's
    rules and g kills Q's, so the rule lemma (``rewrite.rule_elements``),
    applied to each, gives f(NF_P(s(uv))) = f(s(uv)) = f(s(NF_Q(uv))).
    NF_P(s(uv)) is a combination of P's irreducible words, which are its
    normal words, and so is s(NF_Q(uv)) by the word check; f is injective
    on their span (the span check), so the two are equal.  For the base
    block, NF_E(uv) is the entry of E's table at (u, v)
    (``extract_algebra``): the block is closed and its constants are E's.
    For the mixing block, the y words with the products NF_J(uv) are J's
    deformation, and g(NF_J(uv)) = g(u) g(v) with g injective on their span:
    J's deformation is isomorphic to a subalgebra of T, so it is certified
    by transport with no table of its own.  If the oracle step fails, the
    run is rejected there."""
    words = bdata.words
    _block_words([w for w in words if all(a >= 2 for a in w)],
                 base_c.algebra.words, 2)
    _block_words([w for w in words if all(a < 2 for a in w)],
                 data.mixing.words, 0)
    # freeness: normal words factor uniquely as y-part then base-part
    seen = set()
    for w in words:
        split = 0
        while split < len(w) and w[split] < 2:
            split += 1
        if any(a < 2 for a in w[split:]):
            raise DimensionMismatch("a normal word mixes y and base letters")
        seen.add((w[:split], w[split:]))
    y_words = {w for w, _ in seen}
    base_part = {w for _, w in seen}
    if len(seen) != len(words) or len(seen) != len(y_words) * len(base_part):
        raise DimensionMismatch("normal words do not factor freely")


def normalize_p11(data):
    """Remove p11 in the minus case by the printed change of variables."""
    if data.p12 != Scalar(-1):
        raise WrongP("p11 normalization applies to the minus case")
    if not data.p11:
        return data
    if data.p11 == Scalar(2) * I or data.p11 == Scalar(-2) * I:
        raise DegenerateP11("p11 = +-2i collapses y1^2 + y2^2; see the"
                            " degenerate-case analysis")
    target = ONE + data.p11 * data.p11 * Scalar(1, 0, 0, 0, 4)
    c = sqrt_in_K(target)
    if c is None:
        raise NotRepresentableInK(
            "the rescaling constant has no square root in K")
    half_p = data.p11 * Scalar(1, 0, 0, 0, 2)
    (s00, s01), (s10, s11) = data.sigma.entries
    cinv = c.inverse()
    new_sigma = MatrixHom([
        [s00 + s01.scale(half_p), s01.scale(c)],
        [(s10 + s11.scale(half_p) + s00.scale(-half_p)
          + s01.scale(-half_p * half_p)).scale(cinv),
         s11 + s01.scale(-half_p)],
    ])
    out = DoubleOreData(data.base, data.p12, ZERO, new_sigma)
    report, _ = validate_double_ore(out)
    if not report.ok:
        raise WrongP("normalized data fails the double Ore conditions")
    if not substitution_fixes(data.p11, cinv,
                              TensorElement({(0, 0): ONE, (1, 1): ONE})):
        raise WrongP("the change of variables does not fix y1^2 + y2^2")
    return out


def substitution_fixes(p11, s, target):
    """Whether y1 -> s y1, y2 -> y2 + (p11/2) s y1 sends y1^2 + y2^2 to
    ``target`` modulo the new mixing relation y2 y1 + y1 y2."""
    y1 = TensorElement({(0,): s})
    y2 = TensorElement({(1,): ONE, (0,): p11 * HALF * s})
    diff = y1.concat(y1) + y2.concat(y2) - target
    mixing = Subspace.from_rows(
        [TensorElement({(1, 0): ONE, (0, 1): ONE}).coordinates(2, 2)], 4)
    return not mixing.reduce(diff.coordinates(2, 2))
