"""Finite-dimensional graded algebras by structure constants.

Elements are sparse coordinate dicts {basis index: Scalar}, summed by the
kernel ``exactlin.add_scaled``, so a computed element never stores a zero
coefficient and two elements are compared by ``==``.  Gradings live
over Z2^k (k = 1 or 2) with degrees stored as 0/1 tuples per basis element;
every basis element is homogeneous.  Graded linear maps store the image of
each source basis vector.  A 2x2 matrix of linear maps with common
source and target models algebra homomorphisms E -> M_2(E), the
not-necessarily-multiplicative map tables used by twisting systems, and
the double Ore datum sigma on V and on A_2.

Right modules use the row convention: the action of an algebra element
acts on the right of row vectors, so action(x) action(y) = action(xy), and
each action is held as its sparse rows, the images of the module's basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DimensionMismatch,
    NotIdempotent,
    RelationViolated,
    ZeroScale,
)
from .exactlin import (
    MINUS_ONE,
    ONE,
    ZERO,
    Scalar,
    SparseEliminator,
    Subspace,
    add_scaled,
    nullspace,
    rref_rows,
)


def vec_add(a, b):
    return add_scaled(dict(a), b, ONE)


def vec_sub(a, b):
    return add_scaled(dict(a), b, MINUS_ONE)


def vec_scale(a, coeff):
    if not coeff:
        return {}
    return {k: v * coeff for k, v in a.items()}


def add_degrees(d1, d2):
    return tuple((a + b) % 2 for a, b in zip(d1, d2))


def require_group_rank(algebra, rank, what):
    """DimensionMismatch unless ``algebra`` is graded over Z2^rank."""
    if algebra.group_rank != rank:
        raise DimensionMismatch(f"{what} needs a Z2^{rank} grading,"
                                f" not Z2^{algebra.group_rank}")


class RowsOnDemand(dict):
    """A structure table whose row i is ``form(i)``, formed when it is first
    read and then kept: the products of an algebra given by a product rule,
    or one row of them.  The memo belongs to this table alone and maps each
    index read so far to its entry, so no entry is stored before it is read
    and a kept entry is read by a plain dict lookup."""

    __slots__ = ("form", "dim")

    def __init__(self, dim, form):
        self.form = form
        self.dim = dim

    def __missing__(self, i):
        if not 0 <= i < self.dim:
            raise IndexError(f"index {i} outside a table of {self.dim}")
        row = self[i] = self.form(i)
        return row

    def __len__(self):
        return self.dim

    def __iter__(self):
        return map(self.__getitem__, range(self.dim))


class LetterRuleRows(RowsOnDemand):
    """The table of an algebra on ``words``, which hold the first letter and
    the rest of each of their longer words: the rows of 1 and of the
    letters are ``short``, by index, and the row of each longer word a u'
    is formed by the letter rule, L_a applied to the row of u', when it is
    first read (``rewrite.extract_algebra``)."""

    __slots__ = ("words", "parts")

    def __init__(self, words, short):
        super().__init__(len(words), self._by_rule)
        self.words = tuple(words)
        index = {w: i for i, w in enumerate(self.words)}
        self.parts = {i: (index[w[:1]], index[w[1:]])
                      for i, w in enumerate(self.words) if len(w) > 1}
        self.update(short)

    def _by_rule(self, i):
        a, rest = self.parts[i]
        letter_row = self[a]
        return [apply_row(letter_row, vec) for vec in self[rest]]


class GradedAlgebra:
    """A unital associative algebra on a homogeneous basis.  ``table`` is a
    list of rows, or a ``RowsOnDemand``.  ``by_letter_rule``, set when the
    algebra is built, says whether its table is a ``LetterRuleRows`` on
    the algebra's own words."""

    __slots__ = ("labels", "dim", "table", "unit", "degrees", "group_rank", "words",
                 "by_letter_rule")

    def __init__(self, labels, table, unit, degrees, group_rank=1, words=None):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.table = table
        self.unit = dict(unit)
        self.degrees = tuple(tuple(d) for d in degrees)
        self.group_rank = group_rank
        self.words = tuple(words) if words is not None else None
        self.by_letter_rule = type(table) is LetterRuleRows and table.words == self.words
        if len(table) != self.dim or len(self.degrees) != self.dim:
            raise DimensionMismatch("structure data sizes disagree")

    def row(self, i):
        """The products e_i e_j for every j: the stored ones, shared, which
        no caller changes.  Outside this class, products are read only here
        or through ``mul``."""
        return self.table[i]

    def mul(self, u, v):
        row_of = self.row
        out = {}
        for i, ci in u.items():
            row = row_of(i)
            for j, cj in v.items():
                add_scaled(out, row[j], ci * cj)
        return out

    def held_products(self):
        """(i, j, e_i e_j) for each nonzero product the table holds now,
        forming none: of a ``RowsOnDemand``, only those already formed."""
        def held(rows):
            return rows.items() if isinstance(rows, RowsOnDemand) else enumerate(rows)
        return [(i, j, prod) for i, row in held(self.table) for j, prod in held(row) if prod]

    def basis_vec(self, i):
        return {i: ONE}

    def element_degree(self, vec):
        degs = {self.degrees[i] for i in vec}
        return degs.pop() if len(degs) == 1 else None

    def regrade(self, degrees, group_rank):
        return GradedAlgebra(self.labels, self.table, self.unit, degrees,
                             group_rank, words=self.words)

    def total_degree_regrade(self):
        """Z2^2 -> Z2 by summing the two components."""
        require_group_rank(self, 2, "the total-degree regrading")
        return self.regrade([( (d[0] + d[1]) % 2 ,) for d in self.degrees], 1)

    def forget_first_regrade(self):
        require_group_rank(self, 2, "the forget-first regrading")
        return self.regrade([(d[1],) for d in self.degrees], 1)

    def component_indices(self, degree):
        return [i for i in range(self.dim) if self.degrees[i] == tuple(degree)]

    def __repr__(self):
        return f"GradedAlgebra(dim={self.dim}, Z2^{self.group_rank})"


@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self):
        return f"{self.name}: {self.detail}" if self.detail else self.name


@dataclass
class Report:
    items: list = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.items.append(CheckItem(name, bool(passed), detail))
        return passed

    @property
    def ok(self):
        return all(item.passed for item in self.items)

    def first_failure(self):
        for item in self.items:
            if not item.passed:
                return item
        return None

    def lines(self):
        out = []
        for item in self.items:
            mark = "pass" if item.passed else "FAIL"
            suffix = f": {item.detail}" if item.detail else ""
            out.append(f"[{mark}] {item.name}{suffix}")
        return out


def generating_set(algebra):
    """Basis indices S such that right products 1 e_s1 ... e_sk span A.

    Greedy in index order: an index joins S when e_i lies outside the span
    closure of {1} under right multiplication by the indices already in S.
    Once the unit axiom holds, 1 e_i = e_i, so the closure reaches every
    basis vector and S is returned when it spans A.
    """
    elim = SparseEliminator()
    elim.add(algebra.unit)
    found = [algebra.unit]
    gens = []
    for i in range(algebra.dim):
        if elim.rank == algebra.dim:
            break
        if elim.contains({i: ONE}):
            continue
        gens.append(i)
        work = [(vec, i) for vec in found]
        while work:
            vec, s = work.pop()
            image = algebra.mul(vec, {s: ONE})
            if elim.add(image):
                found.append(image)
                work.extend((image, t) for t in gens)
    return gens


def _associativity_failure(algebra, middles, firsts=None, lasts=None):
    """The first (i, j, k), j in ``middles``, i in ``firsts`` and k in
    ``lasts`` (every index when None), where (e_i e_j) e_k and
    e_i (e_j e_k) differ, or None.  The two sides are read off stored
    products: sum_m c_m (e_m e_k) over e_i e_j = sum_m c_m e_m, and the
    left multiplication by e_i applied to e_j e_k."""
    everything = range(algebra.dim)
    firsts = everything if firsts is None else firsts
    lasts = everything if lasts is None else lasts
    row = algebra.row
    for i in firsts:
        left = row(i)
        for j in middles:
            right = row(j)
            product = [(row(m), c) for m, c in left[j].items()]
            for k in lasts:
                outer = {}
                for row_m, c in product:
                    add_scaled(outer, row_m[k], c)
                if outer != apply_row(left, right[k]):
                    return (i, j, k)
    return None


def verify_algebra(algebra, system=None):
    """Unit, associativity and grading checks with first counterexamples.

    Every product is the algebra's own, summed by the kernel ``add_scaled``
    from the stored products that ``GradedAlgebra.row`` and ``mul`` read:
    1 e_i, e_i 1, (e_i e_j) e_k and e_i (e_j e_k).  Kernel-built dicts
    never store a zero coefficient, so plain dict comparison is exact.

    Once the unit item passes, associativity is checked only on the triples
    (e_i e_s) e_k = e_i (e_s e_k) with s in S = ``generating_set``: dim^2 |S|
    triples instead of dim^3 (Light's test).  Proof.  The middle nucleus
    N = {s : (x s) y = x (s y) for all x, y} is a subspace by bilinearity,
    and it contains 1 because 1 is a two-sided unit.  It is closed under
    products: for s, t in N, (x (s t)) y = ((x s) t) y = (x s) (t y)
    = x (s (t y)) = x ((s t) y), each step using s or t in N.  The checked
    triples put S in N, so N holds every right product 1 e_s1 ... e_sk,
    whose span is A by the choice of S; so N = A and A is associative.
    The proof assumes only the unit, never associativity, so it applies to
    any table.  When the reduced check fails, or the unit item fails, all
    dim^3 triples are scanned, so the detail names the lexicographically
    first failing triple either way.

    Given the rewriting ``system`` whose normal words index a table that
    the letter rule forms on them (``GradedAlgebra.by_letter_rule``, as
    ``rewrite.extract_algebra`` builds it), a rule certificate replaces
    Light's test; any other table gets Light's test.  Let W =
    ``algebra.words``, T[u][v] = e_u e_v, L_a the left multiplication given
    by the products of the letter a, and phi(w) = L_w1 ... L_wk in
    End(K^W).  Checked: (a) the unit is e_() and W is the set of
    irreducible words: () is in W, each member is normal and each normal
    one-letter extension of a member is a member; (b) every letter is in W;
    (d) phi kills every element of ``rewrite.rule_elements(system)``.
    And (c), the row of each a u' in W is L_a applied to the row of u',
    holds by construction.  Precondition: every row of the table is the
    one the rule forms, whenever it is read: before this certificate,
    during it or after it.  Proof of (c).  The rule forms the row of a longer a u' as
    [apply_row(row(a), x) for x in row(u')] from the kept rows of a and
    u', which is (c)'s right-hand side.  For a letter, u' = () and, by (a)
    and the unit item, row(())[v] = e_() e_v = e_v, so the right-hand side
    is [apply_row(row(a), e_v) for each v] = row(a).
    Proof that (a)-(d) and the unit item make the table associative.
    Prefixes and suffixes of normal words are normal, so by (a) W holds
    every normal word, u' included.  By (d) and the rule lemma,
    phi(u) phi(v) = phi(uv) = phi(NF(uv)) lies in M = span phi(W): M is an
    associative unital subalgebra of End(K^W).  By the unit item and (c),
    induction on length gives T[u][v] = phi(u) e_v, so phi(w) e_() = e_w
    and m -> m(e_()) maps M onto K^W, bijectively as dim M <= |W|.  It
    carries phi(u) phi(v) to phi(u) e_v = T[u][v]: the table is M's product
    transported, so it is associative.  No confluence is used.  (d) reads
    phi(w) e_v as T[w][v] on W, and as L_a phi(w') e_v for any other a w'.
    When a check fails, the full scan decides as above.
    """
    if system is None or not algebra.by_letter_rule:
        return _algebra_report(algebra, generating_set(algebra))
    return _algebra_report(algebra, None, system=system)


def apply_row(row, vec):
    """sum_k vec[k] row[k]: the left multiplication that the table row
    ``row`` defines, applied to ``vec``."""
    out = {}
    for k, c in vec.items():
        add_scaled(out, row[k], c)
    return out


def _rules_certify(algebra, system):
    """Checks (a), (b) and (d) of ``verify_algebra``'s rule certificate,
    for a letter-rule table whose unit item passes."""
    from .rewrite import rule_elements

    words = algebra.words
    if () not in words:
        return False
    rows = dict(zip(words, map(algebra.row, range(algebra.dim))))
    letters = [(a,) for a in range(system.nletters)]
    if (len(rows) != len(words)
            or algebra.unit != {words.index(()): ONE}
            or not all(map(system.is_normal, words))
            or any(w + a not in rows and system.is_normal(w + a)
                   for w in words for a in letters)
            or not all(a in rows for a in letters)):
        return False

    def act(word):
        """[phi(word) e_v for each v]."""
        cols = rows.get(word)
        if cols is None:
            letter_row = rows[word[:1]]
            cols = rows[word] = [apply_row(letter_row, vec) for vec in act(word[1:])]
        return cols

    for element in rule_elements(system):
        terms = [(act(word), c) for word, c in element.terms.items()]
        for v in range(algebra.dim):
            acc = {}
            for cols, c in terms:
                add_scaled(acc, cols[v], c)
            if acc:
                return False
    return True


def _grading_failure(algebra, cells=None):
    """The first (i, j, k) of ``cells``, (i, j, e_i e_j) triples, where e_k
    lies in the support of e_i e_j but not in the component of
    deg e_i + deg e_j, or None; every product, in row, column and then
    e_i e_j's key order, when ``cells`` is None.  Each cell is one set
    containment, against the component set of its degree pair, formed once
    per pair."""
    degrees = algebra.degrees
    components = {}
    for k, d in enumerate(degrees):
        components.setdefault(d, set()).add(k)
    allowed = {}      # deg e_i -> [component of deg e_i + deg e_j for each j]
    for d in components:
        by_degree = {dj: components.get(add_degrees(d, dj), set()) for dj in components}
        allowed[d] = [by_degree[dj] for dj in degrees]
    if cells is None:
        cells = ((i, j, prod) for i in range(algebra.dim)
                 for j, prod in enumerate(algebra.row(i)))
    for i, j, prod in cells:
        component = allowed[degrees[i]][j]
        if not prod.keys() <= component:
            return i, j, next(k for k in prod if k not in component)
    return None


def _algebra_report(algebra, gens, firsts=None, lasts=None, system=None, theta=None):
    """``verify_algebra``'s report, with Light's test run on the middle
    factors ``gens``, the indices of ``generating_set(algebra)``, and on the
    first factors ``firsts`` and last factors ``lasts`` only (every index
    when None).  The caller must prove that a passing restricted test makes
    the table associative; ``twist._certify_exchange`` does so for the
    twisted algebras it builds.  The full scan that names a failure is the
    same either way, so the report is ``verify_algebra``'s item for item.
    With a ``system``, ``verify_algebra``'s rule certificate replaces
    Light's test, and ``gens`` is None.

    With ``theta``, the tables of a twisting system over an algebra E whose
    own grading item passes, every cell that the table forms after this
    report must be formed by the product rule of ``twist._twisted_algebra``.
    The grading item is then read off theta's columns and the products the
    table already holds (``held_products``): it passes when each entry of
    each table sends every basis vector of E into E's component of its
    degree and no held product leaves its component.  Only otherwise does
    the full scan run, which decides and names the failure, so verdict and
    detail are the scan's on every such table.  Proof that a passing check
    makes the scan pass.  A held product passed its containment.  Any other
    cell, of (I(i)_j e_b, I(i')_j' e_b') with factors of degrees
    (i, deg e_b) and (i', deg e_b'), is formed by the rule as
    sum_{s,t} l^(ii')_{tjs} I(i+i')_t theta^(i')_{sj'}(e_b) e_b'.
    theta^(i')_{sj'}(e_b) is a combination of basis vectors e_k of degree
    deg e_b, and by E's grading item each e_k e_b' lies in the component
    of deg e_b + deg e_b'.  The basis vector I(i+i')_t e_m has degree
    (i+i', deg e_m), so every key of the cell has degree
    (i+i', deg e_b + deg e_b'), the sum of its factors' degrees.  On E x E
    only i = i' = 0 occur, eps_t e_m has degree deg e_m, and the proof is
    the same.
    """
    report = Report()
    dim = algebra.dim
    unit_ok = True
    unit_detail = ""
    for i in range(dim):
        e_i = {i: ONE}
        if algebra.mul(algebra.unit, e_i) != e_i or algebra.mul(e_i, algebra.unit) != e_i:
            unit_ok = False
            unit_detail = f"unit axiom fails at basis {i}"
            break
    report.add("unit", unit_ok, unit_detail)

    graded = theta is not None and all(
        _preserves_degrees(entry) for table in theta for row in table.entries
        for entry in row) and not _grading_failure(algebra, algebra.held_products())
    failure = None if graded else _grading_failure(algebra)
    report.add("grading", not failure,
               "product ({},{}) hits degree of basis {}".format(*failure) if failure else "")

    assoc_detail = ""
    if system is not None:
        certified = unit_ok and _rules_certify(algebra, system)
    else:
        certified = unit_ok and not _associativity_failure(
            algebra, gens, firsts, lasts)
    if not certified:
        failure = _associativity_failure(algebra, range(dim))
        if failure:
            assoc_detail = "associativity fails at ({},{},{})".format(*failure)
    report.add("associativity", not assoc_detail, assoc_detail)
    return report


class Space:
    """A vector space known by its dimension alone: the carrier of the
    maps that act on no algebra, sigma on V and on A_2.  One object stands
    for one space, since maps compare their carriers by identity."""

    __slots__ = ("dim",)

    def __init__(self, dim):
        self.dim = dim


class GradedLinMap:
    """A linear map stored column-wise: ``cols[i]`` is the sparse image of
    basis vector i, with no zero coefficient stored.  Source and target
    are carriers that need only ``dim``: graded algebras, or a ``Space``.
    Two maps are equal when their columns are and their carriers are the
    same objects."""

    __slots__ = ("source", "target", "cols")

    def __init__(self, source, target, cols):
        self.source = source
        self.target = target
        self.cols = tuple(dict(c) for c in cols)
        if len(self.cols) != source.dim:
            raise DimensionMismatch("one image per source basis vector required")

    @classmethod
    def identity(cls, space):
        return cls(space, space, [{i: ONE} for i in range(space.dim)])

    @classmethod
    def zero(cls, space):
        return cls(space, space, [{} for _ in range(space.dim)])

    def apply(self, vec):
        return apply_row(self.cols, vec)

    def compose(self, other):
        """self after other."""
        return GradedLinMap(other.source, self.target,
                            [self.apply(col) for col in other.cols])

    def __add__(self, other):
        return GradedLinMap(self.source, self.target,
                            [vec_add(a, b) for a, b in zip(self.cols, other.cols)])

    def __sub__(self, other):
        return GradedLinMap(self.source, self.target,
                            [vec_sub(a, b) for a, b in zip(self.cols, other.cols)])

    def scale(self, coeff):
        return GradedLinMap(self.source, self.target,
                            [vec_scale(c, coeff) for c in self.cols])

    def __eq__(self, other):
        return (isinstance(other, GradedLinMap) and self.cols == other.cols
                and self.source is other.source and self.target is other.target)

    def is_zero(self):
        return all(not c for c in self.cols)

    def rank(self):
        elim = SparseEliminator()
        for col in self.cols:
            elim.add(col)
        return elim.rank

    def __repr__(self):
        return f"GradedLinMap({self.source.dim} -> {self.target.dim})"


class MatrixHom:
    """A 2x2 table of linear maps of one carrier to itself: sigma on V or
    on A_2, sigma^!, the twisting systems theta and the t-inverses."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)
        if len(self.entries) != 2 or any(len(r) != 2 for r in self.entries):
            raise DimensionMismatch("a 2x2 table of maps is required")

    @property
    def algebra(self):
        return self.entries[0][0].source

    def entry(self, i, j):
        """1-based access matching the customary subscripts."""
        return self.entries[i - 1][j - 1]

    def transposed(self):
        """The table with entries (i, j) and (j, i) exchanged."""
        return MatrixHom(zip(*self.entries))

    def value_at_unit(self):
        """The 2x2 scalar matrix of images of 1, or None if not scalar."""
        E = self.algebra
        out = []
        for i in range(2):
            row = []
            for j in range(2):
                img = self.entries[i][j].apply(E.unit)
                value = _scalar_multiple(E, img)
                if img != vec_scale(E.unit, value):
                    return None
                row.append(value)
            out.append(row)
        return out

    def __repr__(self):
        return f"MatrixHom(dim E = {self.algebra.dim})"


def _scalar_multiple(algebra, vec):
    """The scalar c with vec = c * unit, assuming vec is such a multiple."""
    if not vec:
        return ZERO
    k = next(iter(algebra.unit))
    return vec.get(k, ZERO) / algebra.unit[k]


def t_inverse_table(theta):
    """The table psi with sum_k psi_ki theta_kj = delta_ij id and
    sum_k theta_jk psi_ik = delta_ij id (the t-inverse of theta), or None
    when there is none.

    Let T be the 2n x 2n matrix whose block (k, j) is the matrix of
    theta_kj, and Psi the one whose block (i, k) is that of psi_ki: the two
    families say Psi T = I and T Psi = I.  One elimination of [T^t | I]
    solves for Psi.  Row (k, c) of T^t holds theta_0k(e_c) and
    theta_1k(e_c), read off the entries' sparse columns.  When the pivots
    are the 2n columns of T^t, the right half of the reduced rows is
    (T^t)^-1 = Psi^t, whose row (k, c) holds psi_k0(e_c) and psi_k1(e_c).
    Both families are then checked (``is_t_inverse``).
    """
    E = theta.algebra
    n = E.dim
    rows = []
    for k in range(2):
        for c in range(n):
            row = {j * n + r: v for j in range(2)
                   for r, v in theta.entries[j][k].cols[c].items()}
            row[2 * n + k * n + c] = ONE
            rows.append(row)
    reduced, pivots = rref_rows(rows, 4 * n)
    if pivots != tuple(range(2 * n)):
        return None
    cols = [[[{} for _ in range(n)] for _ in range(2)] for _ in range(2)]
    for p, row in enumerate(reduced):
        k, c = divmod(p, n)
        for col, v in sorted(row.items()):
            if col >= 2 * n:
                i, r = divmod(col - 2 * n, n)
                cols[k][i][c][r] = v
    psi = MatrixHom([[GradedLinMap(E, E, cols[k][i]) for i in range(2)]
                     for k in range(2)])
    return psi if is_t_inverse(theta, psi) else None


def is_t_inverse(theta, psi):
    """Both families sum_k psi_ki theta_kj = delta_ij id and
    sum_k theta_jk psi_ik = delta_ij id, on 2x2 tables of maps of one
    algebra."""
    E = theta.algebra
    ident, zero = GradedLinMap.identity(E), GradedLinMap.zero(E)
    t, p = theta.entries, psi.entries
    return all(
        p[0][i].compose(t[0][j]) + p[1][i].compose(t[1][j]) == expect
        and t[j][0].compose(p[i][0]) + t[j][1].compose(p[i][1]) == expect
        for i in range(2) for j in range(2)
        for expect in [ident if i == j else zero])


def extend_on_generators(relations, target, images):
    """Multiplicative extension of a generator assignment, returned as the
    map sending a tensor element in the generators to its target value.

    ``images`` lists a target vector per generator.  Every element of
    ``relations`` is evaluated in the target; a nonzero value raises
    RelationViolated with its index.
    """
    memo = {(): dict(target.unit)}

    def image_of(word):
        cached = memo.get(word)
        if cached is not None:
            return cached
        value = target.mul(image_of(word[:-1]), images[word[-1]])
        memo[word] = value
        return value

    def image(element):
        acc = {}
        for word, coeff in element.terms.items():
            add_scaled(acc, image_of(word), coeff)
        return acc

    for idx, relation in enumerate(relations):
        if image(relation):
            raise RelationViolated(idx)
    return image


def _preserves_degrees(linmap):
    """Whether ``linmap`` sends each basis vector into the target component
    of its degree."""
    source, target = linmap.source, linmap.target
    return all(target.degrees[k] == source.degrees[i]
               for i, col in enumerate(linmap.cols) for k in col)


def _multiplicative_on(linmap, middles):
    """Whether f(e_i e_s) = f(e_i) f(e_s) for every basis index i and every
    s in ``middles``."""
    source, target, cols = linmap.source, linmap.target, linmap.cols
    return all(linmap.apply(source.row(i)[s]) == target.mul(fi, cols[s])
               for i, fi in enumerate(cols) for s in middles)


def verify_iso(linmap, gens, image=None):
    """Whether ``linmap`` is an isomorphism onto its target, or onto the
    subspace ``image`` of its target when one is given.

    Preconditions: the source is associative and x 1 = x for every x,
    certified by ``verify_algebra`` or by a proof, and ``gens`` is its
    ``generating_set``; the target is certified by ``verify_algebra``.
    Checked: f is a bijection onto the target, or onto ``image``; f(1) is
    the target's unit, or a two-sided unit of ``image`` (on the columns,
    which span it); f sends each basis vector into the target component of
    its degree; and f(e_i e_s) = f(e_i) f(e_s) for every i and s in
    ``gens``: dim |S| pairs instead of dim^2.  Proof.  Let
    T = {y : f(x y) = f(x) f(y) for all x}, a subspace by bilinearity.  It
    contains 1, as f(x 1) = f(x) = f(x) f(1) with f(x) in the image, and it
    contains S.  For y, y' in T, f(x (y y')) = f((x y) y') = f(x y) f(y')
    = (f(x) f(y)) f(y') = f(x) (f(y) f(y')) = f(x) f(y y'), using
    associativity of the source in the first step and of the target in the
    fourth; so T is closed under products and holds every product
    1 e_s1 ... e_sk.  ``generating_set`` puts each basis index in S or
    finds e_i in the span of such products, so T is all of the source.  A
    passing check also makes 1 a left unit of the source, as
    f(1 x) = f(1) f(x) = f(x) and f is injective, and gives the source the
    target's grading: f maps each source component into the target
    component of the same degree, the target's components are independent,
    so f(e_i e_j) = f(e_i) f(e_j), which lies in the component of
    deg e_i + deg e_j, is f of a vector of that degree.

    With ``gens`` every index, dim^2 pairs, nothing is assumed of the
    source, and a passing check certifies it: f is injective and
    multiplicative, so f(1) a unit on the image makes 1 x = x = x 1, and
    f((x y) z) = f(x (y z)) by the target's associativity.
    """
    source, target, cols = linmap.source, linmap.target, linmap.cols
    one = linmap.apply(source.unit)
    if image is None:
        bijective = source.dim == target.dim == linmap.rank() and one == target.unit
    else:
        bijective = (image.dim == source.dim
                     and Subspace.from_rows(cols, target.dim) == image
                     and all(target.mul(one, c) == c and target.mul(c, one) == c
                             for c in cols))
    return bijective and _preserves_degrees(linmap) and _multiplicative_on(linmap, gens)


def xi_automorphism(algebra, k):
    """Scaling by k^degree, the degree read in Z2 as a 0/1 exponent."""
    k = k if isinstance(k, Scalar) else Scalar.of(k)
    if not k:
        raise ZeroScale("xi requires a nonzero scale")
    require_group_rank(algebra, 1, "xi")
    cols = []
    for i in range(algebra.dim):
        factor = k if algebra.degrees[i][0] == 1 else ONE
        cols.append({i: factor})
    return GradedLinMap(algebra, algebra, cols)


def radical(algebra):
    """Jacobson radical via the trace form of left multiplication: the
    trace of L_{e_i} is the sum of the e_j coefficients of e_i e_j."""
    dim = algebra.dim
    rows = [algebra.row(i) for i in range(dim)]
    traces = [sum((row[j].get(j, ZERO) for j in range(dim)), start=ZERO)
              for row in rows]
    gram = []
    for row in rows:
        form = {}
        for j, prod in enumerate(row):
            acc = ZERO
            for k, c in prod.items():
                if traces[k]:
                    acc = acc + c * traces[k]
            if acc:
                form[j] = acc
        gram.append(form)
    return nullspace(gram, dim)


def is_nilpotent_element(algebra, vec):
    power = dict(vec)
    for _ in range(algebra.dim):
        if not power:
            return True
        power = algebra.mul(power, vec)
    return not power


class RightModule:
    """A right module by sparse action rows: ``action[j][r]`` is m_r . e_j,
    the image of the module's basis vector r under algebra basis vector j.
    The rows are checked for shape only: one row per module basis vector,
    each supported on the module's basis."""

    __slots__ = ("algebra", "dim", "action")

    def __init__(self, algebra, dim, action):
        self.algebra = algebra
        self.dim = dim
        self.action = [tuple(rows) for rows in action]
        if len(self.action) != algebra.dim:
            raise DimensionMismatch("one action per algebra basis element")
        if any(len(rows) != dim for rows in self.action):
            raise DimensionMismatch("one action row per module basis vector")
        if any(not 0 <= r < dim for rows in self.action for row in rows for r in row):
            raise DimensionMismatch("an action row leaves the module's basis")

    @classmethod
    def regular(cls, algebra):
        """e_r . e_j is the stored product, shared with the algebra."""
        return cls(algebra, algebra.dim, [[algebra.row(r)[j] for r in range(algebra.dim)]
                                          for j in range(algebra.dim)])

    @classmethod
    def from_invariant_subspace(cls, algebra, subspace):
        """Submodule of the regular module on an invariant subspace."""
        return cls(algebra, subspace.dim, [
            [subspace.coords(algebra.mul(basis_vec, {j: ONE}),
                             "subspace is not action invariant")
             for basis_vec in subspace.basis]
            for j in range(algebra.dim)])

    def act(self, vec, algebra_vec):
        """Sparse row vector times the action of an algebra element."""
        out = {}
        for j, cj in algebra_vec.items():
            rows = self.action[j]
            for r, vr in vec.items():
                add_scaled(out, rows[r], vr * cj)
        return out


def spin(module, seeds, gens):
    """Smallest action-invariant subspace containing the sparse seed
    vectors: each vector that raises the rank is queued once, and its
    images under the basis vectors e_s, s in ``gens``, are added in turn.

    Precondition: ``module`` is a module, and the right products
    1 e_s1 ... e_sk span the algebra, as for ``generating_set``.  A subspace
    closed under each e_s is then closed under their products, whose
    actions are the composites, and so under the whole algebra."""
    elim = SparseEliminator()
    work = [seed for seed in seeds if elim.add(seed)]
    while work:
        vec = work.pop()
        for s in gens:
            image = module.act(vec, {s: ONE})
            if elim.add(image):
                work.append(image)
    return Subspace.from_eliminator(elim, module.dim)


def is_absolutely_simple(module):
    """Burnside: the action matrices span the full endomorphism space."""
    if module.dim < 1:
        return False
    elim = SparseEliminator()
    for rows in module.action:
        elim.add({r * module.dim + c: v
                  for r, row in enumerate(rows) for c, v in row.items()})
    return elim.rank == module.dim * module.dim


def hom_dim(m, n, gens):
    """Dimension of the space of module intertwiners m -> n: the matrices X
    with (A^m X)[r][c] = (X A^n)[r][c] for the action pair A^m, A^n of each
    e_a, a in ``gens``.

    Precondition: m and n are modules, and the right products
    1 e_s1 ... e_sk, s_i in ``gens``, span the algebra.  An X that commutes
    with the actions of the e_s commutes with their composites, the actions
    of those products, and so with the action of every element."""
    if m.algebra is not n.algebra:
        raise DimensionMismatch("modules over different algebras")
    unknowns = m.dim * n.dim
    elim = SparseEliminator()
    for a in gens:
        columns = [{} for _ in range(n.dim)]
        for s, row in enumerate(n.action[a]):
            for c, v in row.items():
                columns[c][s] = v
        for r, row in enumerate(m.action[a]):
            for c in range(n.dim):
                eq = {t * n.dim + c: v for t, v in row.items()}
                add_scaled(eq, {r * n.dim + s: v for s, v in columns[c].items()},
                           MINUS_ONE)
                if eq:
                    elim.add(eq)
    return unknowns - elim.rank


def _is_module(module, gens):
    """Whether the unit acts as the identity and
    m_r . (e_i e_s) = (m_r . e_i) . e_s for every r, i and s in ``gens``.

    Precondition: the algebra is associative, and the right products
    1 e_s1 ... e_sk, s_i in ``gens``, span it.  Then the action is a module
    action.  Proof, as for ``verify_iso``: the y with
    rho(x) rho(y) = rho(x y) for all x form a subspace that holds 1 and
    each e_s.  For y, y' in it, rho(y y') = rho(y) rho(y'), so
    rho(x) rho(y y') = rho(x y) rho(y') = rho(x y y'): it is closed under
    products, and so it is the whole algebra."""
    algebra = module.algebra
    return (all(module.act({r: ONE}, algebra.unit) == {r: ONE}
                for r in range(module.dim))
            and all(module.act(row, {s: ONE}) == module.act({r: ONE}, algebra.row(i)[s])
                    for i, rows in enumerate(module.action)
                    for r, row in enumerate(rows) for s in gens))


def verify_decomposition(algebra, simples, multiplicities):
    """Certify a full decomposition of the regular module.

    Requires that each listed module is a module over this algebra
    (``_is_module``) and absolutely simple, no intertwiners between
    distinct listed modules, the prescribed multiplicities in the regular
    module, and a total dimension match.  Precondition: the algebra is
    associative with its unit.  The module and intertwiner checks run
    through S = ``generating_set(algebra)``, computed once.

    These force the radical J(A) to be 0, so it is not computed.  Proof.
    By Burnside, End(S_i) = K, so the S_i-isotypic part of soc(A_A), the sum
    of the images of all maps S_i -> A_A, is S_i^(m_i) with
    m_i = dim Hom(S_i, A_A), of dimension m_i dim S_i.  The S_i are pairwise
    Hom-orthogonal, so pairwise non-isomorphic simple modules, and their
    isotypic parts are independent.  So dim soc(A_A) is at least
    sum m_i dim S_i = dim A: soc(A_A) = A_A, A_A is semisimple, and
    J(A) = 0.  The pairwise check is what makes the S_i non-isomorphic:
    without it, a list that names one simple module in place of another of
    the same dimension, multiplicities unchanged, still totals dim A.

    It checks each unordered pair once, and only pairs of equal dimension.
    Proof that this decides Hom-orthogonality of every ordered pair, once
    each S_i is checked simple.  By Schur, a nonzero map f: S -> T of
    simple modules is an isomorphism: its kernel is a proper submodule of
    S, so 0, and its image a nonzero submodule of T, so T.  Then f^-1 is a
    nonzero map T -> S, so Hom(S, T) = 0 exactly when Hom(T, S) = 0, and
    both vanish when dim S != dim T, as no isomorphism exists.
    """
    if (len(simples) != len(multiplicities)
            or any(s.algebra is not algebra for s in simples)):
        return False
    gens = generating_set(algebra)
    regular = RightModule.regular(algebra)
    total = 0
    for s, m in zip(simples, multiplicities):
        if not _is_module(s, gens) or not is_absolutely_simple(s):
            return False
        if hom_dim(s, regular, gens) != m:
            return False
        total += m * s.dim
    for a in range(len(simples)):
        for b in range(a):
            if simples[a].dim == simples[b].dim and hom_dim(simples[a], simples[b], gens):
                return False
    return total == algebra.dim


def ideal_closure(algebra, elim, seeds, gens):
    """Grow ``elim`` to the two-sided ideal A X A generated by the vectors
    ``seeds``, yielding after each vector that raises its rank.

    Precondition: the algebra is associative (certified by
    ``verify_algebra``).  The ideal is the span closure I of the seeds
    under left and right multiplication by the basis vectors of S = ``gens``,
    the indices of ``generating_set(algebra)``.  Proof.  I lies in A X A,
    since each of its vectors is a sum of products a x b; so does each
    partial span.
    By associativity, left multiplication by a product e_s1 ... e_sk is the
    composite of left multiplications by the e_s, so I is closed under it;
    these products span A by the choice of S, so A I lies in I, and
    likewise I A.  So I is a two-sided ideal containing X, and I = A X A.
    """
    gens = [{s: ONE} for s in gens]
    work = []
    for seed in seeds:
        if elim.add(seed):
            work.append(seed)
            yield
    while work:
        vec = work.pop()
        for g in gens:
            for left, right in ((g, vec), (vec, g)):
                image = algebra.mul(left, right)
                if elim.add(image):
                    work.append(image)
                    yield


def full_idempotent_check(algebra, e, gens):
    """e is idempotent and the two-sided ideal A e A is everything.

    Precondition: the algebra is associative, and ``gens`` is
    ``generating_set(algebra)``.  The check grows A e A by
    ``ideal_closure`` and stops once the unit lies in the span: every
    partial span lies in A e A, and 1 in A e A gives A e A = A.  Only a
    False verdict runs the closure to completion.
    """
    if algebra.mul(e, e) != e:
        return False
    elim = SparseEliminator()
    return any(elim.contains(algebra.unit)
               for _ in ideal_closure(algebra, elim, [e], gens))


def restrict(algebra, space, unit):
    """The algebra on a homogeneous, multiplication-closed subspace, on its
    reduced row echelon basis, with ``unit`` as its unit.

    Structure constants are the coordinates ``space.coords`` reads off each
    product.  A basis row that is not homogeneous, or a product or the unit
    outside the subspace, raises DimensionMismatch.  A span of homogeneous
    vectors has a homogeneous reduced row echelon basis: it is the direct
    sum of its degree parts, whose supports are disjoint, so the union of
    their reduced bases is reduced for the whole span and is its basis by
    uniqueness (see ``exactlin``).
    """
    degrees = [algebra.element_degree(row) for row in space.basis]
    if None in degrees:
        raise DimensionMismatch("subspace basis is not homogeneous")
    table = [[space.coords(algebra.mul(u, v), "a product lies outside the subspace")
              for v in space.basis] for u in space.basis]
    return GradedAlgebra([f"s{k}" for k in range(space.dim)], table,
                         space.coords(unit, "the unit lies outside the subspace"),
                         degrees, algebra.group_rank)


def corner_embedding(algebra, e):
    """The corner e A e, as the subspace of A spanned by the e e_i e; the
    idempotent e is its unit."""
    if algebra.mul(e, e) != e:
        raise NotIdempotent("corner requires an idempotent")
    degree_of_e = algebra.element_degree(e)
    if degree_of_e is None or any(degree_of_e):
        raise NotIdempotent("corner requires a homogeneous degree-0 idempotent")
    # e e_i e is homogeneous, as e has degree 0
    return Subspace.from_rows(
        [algebra.mul(algebra.mul(e, algebra.basis_vec(i)), e)
         for i in range(algebra.dim)], algebra.dim)


def is_commutative(algebra):
    return all(algebra.row(i)[j] == algebra.row(j)[i]
               for i in range(algebra.dim) for j in range(i))


def strongly_graded_check(algebra):
    """For a Z2-grading: the degree-1 part squares onto the degree-0 part."""
    require_group_rank(algebra, 1, "the strong-grading check")
    odd = algebra.component_indices((1,))
    even = set(algebra.component_indices((0,)))
    elim = SparseEliminator()
    for i in odd:
        for j in odd:
            elim.add(algebra.row(i)[j])
    return elim.rank == len(even)
