"""Clifford deformations and trimmed double Ore extension data.

The deformation of a quadratic dual replaces each relation f by
f - f(zhat) for a degree-2 central lift zhat; the rewriting engine turns
the deformed presentation into structure constants, and the homogeneous
dual supplies the PBW dimension count that certifies the result.

Double Ore data is a base presentation, the pair (p12, p11), and a 2x2
table sigma of degree-1 generator maps.  sigma acts on higher components
word-wise through the matrix product rule
sigma(u (x) v) = sigma(u) sigma(v), which is the unique degree-preserving
multiplicative lift; all conditions are then checked exactly on the
degree-1 and degree-2 components.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    CompatibilityFailed,
    DegenerateP11,
    DimensionMismatch,
    NotRepresentableInK,
    RelationViolated,
    WrongP,
)
from .exactlin import (
    I,
    MINUS_ONE,
    ONE,
    ZERO,
    Scalar,
    Subspace,
    TensorElement,
    add_scaled,
    identity_matrix,
    is_stacked_inverse,
    matrix_add,
    matrix_mul,
    pairing,
    sqrt_in_K,
    stacked_inverse,
    subspace_intersection,
    word_index,
)
from .algebra import (
    GradedLinMap,
    MatrixHom,
    Report,
    strongly_graded_check,
    verify_algebra,
    verify_hom_M2,
)
from .quadratic import QuadraticPresentation, check_central, koszul_dual
from .rewrite import complete, extract_algebra, orient


class CaseKind(Enum):
    PLUS = "plus"
    MINUS = "minus"
    INVALID = "invalid"


@dataclass
class CliffordData:
    """A Clifford deformation: homogeneous dual, deformed relations, and the
    oracle-built algebra on the normal-word basis."""

    presentation: QuadraticPresentation  # homogeneous dual presentation
    central: TensorElement               # lift of the central element (base side)
    theta_values: tuple
    relations: tuple                     # deformed relations fed to the oracle
    algebra: object
    system: object


@dataclass
class DoubleOreData:
    base: QuadraticPresentation
    p12: Scalar
    p11: Scalar
    sigma: tuple  # 2x2 of g x g matrices over K (columns = generator images)

    @property
    def ngens(self):
        return self.base.ngens


def clifford_theta(presentation, z):
    """Values of the Clifford map on the RREF basis of the dual relations."""
    lift = z.lift if hasattr(z, "lift") else z
    if not check_central(presentation, lift):
        raise CompatibilityFailed("the lift is not central")
    dual = koszul_dual(presentation)
    g = presentation.ngens
    values = []
    for row in dual.relations.basis:
        f = TensorElement.from_coordinates(row, g, 2)
        values.append(pairing(f, lift))
    return tuple(values)


def _deformed_relations(dual, theta_values):
    g = dual.ngens
    rels = []
    for row, c in zip(dual.relations.basis, theta_values):
        f = TensorElement.from_coordinates(row, g, 2)
        rels.append(f - TensorElement.unit().scale(c))
    return rels


def _compatibility_holds(presentation, lift):
    """(theta (x) 1 - 1 (x) theta) vanishes on V*R^perp  intersect  R^perp V*."""
    dual = koszul_dual(presentation)
    g = presentation.ngens
    rperp = dual.relations
    left_rows = []
    right_rows = []
    for a in range(g):
        unit_vec = TensorElement.monomial((a,))
        for row in rperp.basis:
            f = TensorElement.from_coordinates(row, g, 2)
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


def _top_degree(presentation, bound=8):
    """Largest degree with a nonzero component.

    For a connected quadratic quotient the degree-(n+1) component is spanned
    by V times the degree-n component, so the scan can stop at the first
    zero.
    """
    top = 0
    for n in range(bound + 1):
        if presentation.component_dim(n) > 0:
            top = n
        elif n > 0:
            break
    return top


def build_clifford_from_dual(dual, deformed, central_lift, theta_values,
                             expected_dim=None):
    """Complete, extract and certify a deformation of a presented dual."""
    top = _top_degree(dual)
    maxdeg = 2 * top + 2
    system = complete(orient(list(deformed), dual.generators), maxdeg)
    algebra = extract_algebra(system)
    pbw_dim = sum(dual.component_dim(n) for n in range(top + 1))
    if algebra.dim != pbw_dim:
        raise DimensionMismatch(
            f"deformation dimension {algebra.dim} != homogeneous dimension {pbw_dim}")
    if expected_dim is not None and algebra.dim != expected_dim:
        raise DimensionMismatch(
            f"deformation dimension {algebra.dim} != expected {expected_dim}")
    report = verify_algebra(algebra)
    if not report.ok:
        raise DimensionMismatch(f"oracle output invalid: {report.first_failure()}")
    if not strongly_graded_check(algebra):
        raise DimensionMismatch("deformation is not strongly Z2-graded")
    return CliffordData(
        presentation=dual,
        central=central_lift,
        theta_values=tuple(theta_values),
        relations=tuple(deformed),
        algebra=algebra,
        system=system,
    )


def build_clifford(presentation, z):
    """The Clifford deformation of the dual of a quadratic presentation."""
    lift = z.lift if hasattr(z, "lift") else z
    if not check_central(presentation, lift):
        raise CompatibilityFailed("the lift is not central")
    if not _compatibility_holds(presentation, lift):
        raise CompatibilityFailed("the Clifford compatibility condition fails")
    dual = koszul_dual(presentation)
    theta_values = clifford_theta(presentation, z)
    deformed = _deformed_relations(dual, theta_values)
    return build_clifford_from_dual(dual, deformed, lift, theta_values)


# ---------------------------------------------------------------------------
# sigma lifted to tensor degree 2 and condition checks


def _lift_degree2(sigma, g):
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


def _matrix_on_component(presentation, big, n):
    """Descend a degree-n word-space matrix to the component basis."""
    words = presentation.component_basis_words(n)
    g = presentation.ngens
    cols = []
    for w in words:
        col = word_index(w, g)
        image = {r: row[col] for r, row in enumerate(big) if row[col]}
        tensor = TensorElement.from_coordinates(image, g, n)
        cols.append(presentation.reduce_mod_ideal(tensor, n))
    return [[cols[j][i] for j in range(len(words))] for i in range(len(words))]


def _apply_lifted(mat, vec):
    """The sparse image of a sparse vector under a dense matrix."""
    image = {}
    for r, mrow in enumerate(mat):
        acc = sum((mrow[c] * v for c, v in vec.items()), start=ZERO)
        if acc:
            image[r] = acc
    return image


def _sigma_preserves_relations(presentation, sigma):
    g = presentation.ngens
    lifted = _lift_degree2(sigma, g)
    for row in presentation.relations.basis:
        for i in range(2):
            for j in range(2):
                if presentation.relations.reduce(_apply_lifted(lifted[i][j], row)):
                    return False
    return True


def _composition_conditions(data):
    """The trimmed-case conditions, exactly on degree 1 and degree 2.

    These are the confluence conditions of the two reductions of y2 y1 a;
    with p11 = 0 they are the usual three displayed identities, and for
    p11 != 0 the extra p11 terms appear alongside them.
    """
    g = data.ngens
    s = data.sigma
    p12 = data.p12
    p11 = data.p11

    def comp(a, b):
        return matrix_mul(a, b)

    def holds_on(t):
        lhs1 = matrix_add(comp(t[1][0], t[0][0]),
                          _scale(comp(t[1][1], t[0][0]), p11))
        rhs1 = matrix_add(
            matrix_add(_scale(comp(t[0][0], t[1][0]), p12),
                       _scale(comp(t[0][1], t[1][0]), p12 * p11)),
            matrix_add(_scale(comp(t[0][0], t[0][0]), p11),
                       _scale(comp(t[0][1], t[0][0]), p11 * p11)),
        )
        if lhs1 != rhs1:
            return False
        lhs2 = comp(t[1][1], t[0][1])
        rhs2 = matrix_add(_scale(comp(t[0][1], t[1][1]), p12),
                          _scale(comp(t[0][1], t[0][1]), p11))
        if lhs2 != rhs2:
            return False
        lhs3 = matrix_add(_scale(comp(t[1][1], t[0][0]), p12),
                          comp(t[1][0], t[0][1]))
        rhs3 = matrix_add(
            matrix_add(_scale(comp(t[0][1], t[1][0]), p12 * p12),
                       _scale(comp(t[0][0], t[1][1]), p12)),
            matrix_add(_scale(comp(t[0][1], t[0][0]), p11 * p12),
                       _scale(comp(t[0][0], t[0][1]), p11)),
        )
        return lhs3 == rhs3

    if not holds_on(s):
        return False
    lifted = _lift_degree2(s, g)
    entry = [[_matrix_on_component(data.base, lifted[i][j], 2) for j in range(2)]
             for i in range(2)]
    return holds_on(entry)


def _scale(matrix, coeff):
    return [[coeff * x for x in row] for row in matrix]


def invert_sigma(data):
    """The Def-1.1 inverse of sigma on generators, or None.

    Solves sum_k sigma_ki phi_kj = delta_ij id on V, then checks both
    identities on V, relation preservation, and both identities on the
    degree-2 component.
    """
    g = data.ngens
    s = data.sigma
    phi = stacked_inverse(s)
    if phi is None or not is_stacked_inverse(s, phi):
        return None
    if not _sigma_preserves_relations(data.base, phi):
        return None
    # both identities on the degree-2 component
    lifted_s = _lift_degree2(s, g)
    lifted_p = _lift_degree2(phi, g)
    es = [[_matrix_on_component(data.base, lifted_s[i][j], 2) for j in range(2)]
          for i in range(2)]
    ep = [[_matrix_on_component(data.base, lifted_p[i][j], 2) for j in range(2)]
          for i in range(2)]
    if not is_stacked_inverse(es, ep):
        return None
    return phi


def validate_double_ore(data):
    """Pass/fail report for the trimmed double Ore conditions."""
    report = Report()
    report.add("p12-nonzero", bool(data.p12), "p12 must be nonzero")
    degree_ok = all(
        len(data.sigma[i][j]) == data.ngens
        and all(len(row) == data.ngens for row in data.sigma[i][j])
        for i in range(2) for j in range(2)
    )
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
    """sigma(z) = diag(z, z) modulo relations, via the degree-2 lift."""
    g = data.ngens
    lifted = _lift_degree2(data.sigma, g)
    zvec = lift.coordinates(g, 2)
    for i in range(2):
        for j in range(2):
            image = _apply_lifted(lifted[i][j], zvec)
            if i == j:
                add_scaled(image, zvec, MINUS_ONE)
            if not data.base.relations.contains(image):
                return False
    return True


def _centrality_conditions(data, lift, mixed_condition):
    g = data.ngens
    s = data.sigma

    def holds_on(table, size):
        ident = identity_matrix(size)
        if matrix_add(matrix_mul(table[0][0], table[0][0]),
                      matrix_mul(table[1][0], table[1][0])) != ident:
            return False
        if matrix_add(matrix_mul(table[0][1], table[0][1]),
                      matrix_mul(table[1][1], table[1][1])) != ident:
            return False
        return mixed_condition(table, matrix_mul, matrix_add)

    if not holds_on(s, g):
        return False
    lifted = _lift_degree2(s, g)
    entry = [[_matrix_on_component(data.base, lifted[i][j], 2) for j in range(2)]
             for i in range(2)]
    if not holds_on(entry, data.base.component_dim(2)):
        return False
    return _sigma_fixes_z(data, lift)


def centrality_check_plus(data, z):
    """Conditions making z + y1^2 + y2^2 central when (p12, p11) = (1, 0)."""
    if not (data.p12 == ONE and not data.p11):
        raise WrongP("the plus-case check needs p12 = 1, p11 = 0")
    lift = z.lift if hasattr(z, "lift") else z

    def mixed(s, mul, add):
        total = add(add(mul(s[0][0], s[0][1]), mul(s[1][0], s[1][1])),
                    add(mul(s[0][1], s[0][0]), mul(s[1][1], s[1][0])))
        return all(not x for row in total for x in row)

    return _centrality_conditions(data, lift, mixed)


def centrality_check_minus(data, z):
    """Conditions making z + y1^2 + y2^2 central when (p12, p11) = (-1, 0)."""
    if not (data.p12 == Scalar(-1) and not data.p11):
        raise WrongP("the minus-case check needs p12 = -1, p11 = 0")
    lift = z.lift if hasattr(z, "lift") else z

    def mixed(s, mul, add):
        lhs = add(mul(s[0][0], s[0][1]), mul(s[1][0], s[1][1]))
        rhs = add(mul(s[0][1], s[0][0]), mul(s[1][1], s[1][0]))
        return lhs == rhs

    return _centrality_conditions(data, lift, mixed)


def b_presentation(data):
    """B as a quadratic presentation on y1, y2 followed by the base
    generators, with the mixing and crossing relations."""
    g = data.ngens
    names = ("y1", "y2") + tuple(data.base.generators)
    shift = {a: a + 2 for a in range(g)}
    rels = []
    # y2 y1 - p12 y1 y2 - p11 y1 y1
    rels.append(TensorElement({(1, 0): ONE})
                - TensorElement({(0, 1): data.p12})
                - TensorElement({(0, 0): data.p11}))
    # base relations, letters shifted past the y block
    for row in data.base.relations.basis:
        rels.append(TensorElement.from_coordinates(row, g, 2).rename(shift))
    # y_i a - sum_j sigma_ij(a) y_j
    for i in range(2):
        for a in range(g):
            terms = {(i, a + 2): ONE}
            for j in range(2):
                col = data.sigma[i][j]
                for b in range(g):
                    terms[(b + 2, j)] = -col[b][a]
            rels.append(TensorElement(terms))
    return QuadraticPresentation(names, rels)


def central_lift_in_b(data, z_lift):
    """The lift of z + y1^2 + y2^2 inside the B presentation's letters."""
    shift = {a: a + 2 for a in range(data.ngens)}
    return z_lift.rename(shift) + TensorElement({(0, 0): ONE, (1, 1): ONE})


def dual_sigma_entry_on_generators(data):
    """sigma^! on degree-1 duals: the transpose of each sigma entry."""
    g = data.ngens
    out = [[None] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            m = data.sigma[i][j]
            out[i][j] = [[m[c][r] for c in range(g)] for r in range(g)]
    return out


def dualize_hom(data, clifford):
    """The induced matrix homomorphism on the Clifford deformation.

    Generator duals map by transposes; normal words map by the 2x2 matrix
    product over the deformation.  Every deformed relation must evaluate to
    the zero matrix, otherwise RelationViolated is raised.
    """
    lift = clifford.central
    if not _sigma_fixes_z(data, lift):
        raise WrongP("sigma must fix the central element diagonally")
    E = clifford.algebra
    g = data.ngens
    transposed = dual_sigma_entry_on_generators(data)

    def gen_image(a):
        # 2x2 matrix over E of images of the a-th dual generator
        out = [[{}, {}], [{}, {}]]
        for i in range(2):
            for j in range(2):
                col = {}
                for b in range(g):
                    coeff = transposed[i][j][b][a]
                    if coeff:
                        col[_degree1_index(E, b)] = coeff
                out[i][j] = col
        return out

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

    # well-definedness on the deformed relations
    for idx, relation in enumerate(clifford.relations):
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
    hom = MatrixHom([[GradedLinMap(E, E, cols[i][j]) for j in range(2)]
                     for i in range(2)])
    if not verify_hom_M2(hom):
        raise RelationViolated(-1, "dualized table is not a matrix homomorphism")
    return hom


def _degree1_index(algebra, letter):
    for idx, word in enumerate(algebra.words):
        if word == (letter,):
            return idx
    raise DimensionMismatch("missing degree-1 basis word")


def build_Bshriek_clifford(data, z):
    """The Clifford deformation of the dual of B at z + y1^2 + y2^2."""
    lift = z.lift if hasattr(z, "lift") else z
    g = data.ngens
    bpres = b_presentation(data)
    bdual = koszul_dual(bpres)
    base_dual = koszul_dual(data.base)
    # cross-check the printed dual relation space: R_J-perp + R-perp + R_tau
    shift = {a: a + 2 for a in range(g)}
    assembled = []
    assembled.append(TensorElement({(1, 1): ONE}))
    assembled.append(TensorElement({(0, 1): ONE, (1, 0): data.p12}))
    assembled.append(TensorElement({(0, 0): ONE, (1, 0): data.p11}))
    for row in base_dual.relations.basis:
        assembled.append(TensorElement.from_coordinates(row, g, 2).rename(shift))
    transposed = dual_sigma_entry_on_generators(data)
    for i in range(2):
        for a in range(g):
            terms = {(a + 2, i): ONE}
            for j in range(2):
                for b in range(g):
                    terms[(j, b + 2)] = transposed[j][i][b][a]
            assembled.append(TensorElement(terms))
    assembled_space = Subspace.from_rows(
        [r.coordinates(g + 2, 2) for r in assembled], (g + 2) ** 2)
    if assembled_space != bdual.relations:
        raise DimensionMismatch(
            "assembled dual relations disagree with the orthogonal complement")
    # deform: J-block constants from the lift of y1^2 + y2^2, base block from z
    big_lift = central_lift_in_b(data, lift)
    theta_values = []
    deformed = []
    for row in bdual.relations.basis:
        f = TensorElement.from_coordinates(row, g + 2, 2)
        c = pairing(f, big_lift)
        theta_values.append(c)
        deformed.append(f - TensorElement.unit().scale(c))
    base_c = build_clifford(data.base, z)
    out = build_clifford_from_dual(
        bdual, deformed, big_lift, theta_values,
        expected_dim=4 * base_c.algebra.dim)
    _verify_subalgebra_blocks(out, data, base_c)
    return out


def j_presentation(data):
    """The mixing subalgebra on y1, y2 alone."""
    return QuadraticPresentation(
        ("y1", "y2"),
        [TensorElement({(1, 0): ONE})
         - TensorElement({(0, 1): data.p12})
         - TensorElement({(0, 0): data.p11})],
    )


def _block_matches(big, block_words, expect, offset):
    rename = {}
    for w, i in block_words.items():
        stripped = tuple(a - offset for a in w)
        rename[i] = expect.words.index(stripped)
    if len(block_words) != expect.dim:
        raise DimensionMismatch("subalgebra block has the wrong size")
    for i1 in block_words.values():
        for i2 in block_words.values():
            got = big.table[i1][i2]
            want = expect.table[rename[i1]][rename[i2]]
            translated = {}
            for k, c in got.items():
                if k not in rename:
                    raise DimensionMismatch("subalgebra block is not closed")
                translated[rename[k]] = c
            if translated != want:
                raise DimensionMismatch("subalgebra block constants disagree")


def _verify_subalgebra_blocks(bdata, data, base_c):
    """The base deformation sits on pure base-letter words, the mixing-block
    deformation on pure y words, and every normal word factors as
    (y part)(base part) bijectively."""
    B = bdata.algebra
    words = B.words
    base_words = {w: i for i, w in enumerate(words)
                  if w and all(a >= 2 for a in w)}
    base_words[()] = words.index(())
    _block_matches(B, base_words, base_c.algebra, 2)
    j_c = build_clifford(j_presentation(data),
                         TensorElement({(0, 0): ONE, (1, 1): ONE}))
    y_block = {w: i for i, w in enumerate(words)
               if w and all(a < 2 for a in w)}
    y_block[()] = words.index(())
    _block_matches(B, y_block, j_c.algebra, 0)
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
    s = data.sigma
    cinv = c.inverse()
    new_sigma = (
        (matrix_add(s[0][0], _scale(s[0][1], half_p)), _scale(s[0][1], c)),
        (_scale(matrix_add(matrix_add(s[1][0], _scale(s[1][1], half_p)),
                           matrix_add(_scale(s[0][0], -half_p),
                                      _scale(s[0][1], -half_p * half_p))),
                cinv),
         matrix_add(s[1][1], _scale(s[0][1], -half_p))),
    )
    out = DoubleOreData(data.base, data.p12, ZERO, new_sigma)
    report, _ = validate_double_ore(out)
    if not report.ok:
        raise WrongP("normalized data fails the double Ore conditions")
    if not _substitution_fixes_h(data, c):
        raise WrongP("the change of variables does not fix y1^2 + y2^2")
    return out


def _substitution_fixes_h(data, c):
    """y1 -> c^-1 y1, y2 -> y2 + (p11/2) c^-1 y1 fixes y1^2 + y2^2 modulo
    the new mixing relation y2 y1 + y1 y2."""
    cinv = c.inverse()
    half_p = data.p11 * Scalar(1, 0, 0, 0, 2)
    y1 = TensorElement({(0,): cinv})
    y2 = TensorElement({(1,): ONE, (0,): half_p * cinv})
    image = y1.concat(y1) + y2.concat(y2)
    target = TensorElement({(0, 0): ONE, (1, 1): ONE})
    diff = image - target
    mixing = Subspace.from_rows(
        [TensorElement({(1, 0): ONE, (0, 1): ONE}).coordinates(2, 2)], 4)
    return not mixing.reduce(diff.coordinates(2, 2))
