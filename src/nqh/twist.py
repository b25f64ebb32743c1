"""Twisted matrix algebras, twisted direct products, semi-trivial
extensions and Zhang twists.

A twisting system for M_2(E) is a pair of 2x2 map tables theta^(0),
theta^(1) on E together with an invertible Z2-graded basis of the 2x2
scalar matrices (diagonal pair, anti-diagonal pair).  The basis carries the
structure tensor l and the vector gamma with gamma_1 I(0)_1 + gamma_2
I(0)_2 = identity; the tables must be t-invertible, send 1 to an invertible
scalar matrix, and satisfy the exchange identity that makes the deformed
product associative.  The individual table entries are NOT assumed
multiplicative: the upper-triangular tables produced by the deformation
pipelines have a derivation-like off-diagonal entry.

Twisted direct products are the same deformation of E x E, the degree-0
half of M_2(E): its basis of k x k is the diagonal pair of such a graded
basis, and its twisting system is a single theta^(0).  Semi-trivial
extensions and left Zhang twists by an involution are the two repackagings
used to identify degree-0 parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from types import MappingProxyType

from .errors import (
    MuNotInvolution,
    NotTwistingSystem,
    SingularBasis,
)
from .exactlin import (
    I as IMAG,
    ONE,
    ZERO,
    Scalar,
    add_scaled,
    matrix_mul,
)
from .algebra import (
    GradedAlgebra,
    GradedLinMap,
    Report,
    RowsOnDemand,
    _algebra_report,
    generating_set,
    require_group_rank,
    t_inverse_table,
    verify_iso,
)


def _scalar_2x2(rows):
    return tuple(tuple(x if isinstance(x, Scalar) else Scalar.of(x) for x in row)
                 for row in rows)


class GradedBasisM2:
    """An invertible Z2-graded basis of the 2x2 scalar matrices, or the
    degree-0 pair alone as a basis of k x k.

    ``mats[(i, j)]`` is I(i)_j: the degree-0 pair is diagonal, the degree-1
    pair anti-diagonal.  A basis eps_j = (u_j, v_j) of k x k is the pair
    diag(u_j, v_j), and ``halves`` is then (0,), else (0, 1).  Carries the
    derived data, computed once here: gamma (coordinates of the identity in
    the degree-0 pair), the structure tensor l with
    I(i)_j I(i')_j' = sum_s I(i+i')_s l^(ii')_{s j j'}, and the inverse of
    each degree's determinant, which ``coords`` multiplies by.  l and gamma
    are read-only properties, and l a read-only mapping, so they are the
    ones computed here for as long as the basis lives.

    The identities of l over ``halves``, with gamma, hold by construction:
    l-associativity, the coordinate form of
    (I(i)_j I(i')_j') I(i'')_j'' = I(i)_j (I(i')_j' I(i'')_j''), and
    l-right-unit and l-left-unit, those of I(i)_j 1 = I(i)_j = 1 I(i)_j.
    Proof.  l^(ii')_{sjj'} are the coordinates of I(i)_j I(i')_j' in the
    degree-(i+i') pair, which ``coords`` solves uniquely, as each pair has a
    nonzero determinant.  Expanding both sides of the associativity of 2x2
    matrix multiplication gives sum_t I(i+i'+i'')_t times each side of
    l-associativity at t, and unique coordinates make the two sides equal.
    gamma is the coordinate vector of the identity in the degree-0 pair, so
    sum_t l^(i0)_{sjt} gamma_t is the I(i)_s coordinate of
    I(i)_j 1 = I(i)_j, which is delta_sj (l-right-unit), and
    sum_j l^(0i)_{sjt} gamma_j that of 1 I(i)_t = I(i)_t, which is
    delta_st (l-left-unit).  On k x k only i = 0 occurs; the proof is the
    same.
    """

    __slots__ = ("mats", "halves", "inverse_dets", "_gamma", "_l")

    # the two nonzero cells of a degree-i member, i = 0 then i = 1
    CELLS = (((0, 0), (1, 1)), ((0, 1), (1, 0)))

    def __init__(self, mats):
        # mats[(i, j)] with i in {0, 1}, j in {1, 2}
        halves = (0,) if set(mats) == {(0, 1), (0, 2)} else (0, 1)
        if set(mats) != {(i, j) for i in halves for j in (1, 2)}:
            raise SingularBasis("a graded basis is the degree-0 pair or all four members")
        self.halves = halves
        self.mats = {key: _scalar_2x2(val) for key, val in mats.items()}
        for j, i in product((1, 2), halves):
            (r1, c1), (r2, c2) = self.CELLS[i]
            m = self.mats[(i, j)]
            if m[r1][c2] or m[r2][c1]:
                raise SingularBasis("degree-0 members must be diagonal" if i == 0
                                    else "degree-1 members must be anti-diagonal")
            if not (m[r1][c1] and m[r2][c2]):
                raise SingularBasis(f"degree-{i} members must be invertible")
        self.inverse_dets = {}
        for i in halves:
            (r1, c1), (r2, c2) = self.CELLS[i]
            a, b = self.mats[(i, 1)], self.mats[(i, 2)]
            det = a[r1][c1] * b[r2][c2] - b[r1][c1] * a[r2][c2]
            if not det:
                raise SingularBasis("graded pairs must be linearly independent")
            self.inverse_dets[i] = det.inverse()
        self._gamma = self.coords(((ONE, ZERO), (ZERO, ONE)), 0)
        l = {}
        for i, ip in product(halves, repeat=2):
            for j, jp in product((1, 2), repeat=2):
                prod = matrix_mul(self.mats[(i, j)], self.mats[(ip, jp)])
                for s, c in zip((1, 2), self.coords(prod, i + ip)):
                    l[(i, ip, s, j, jp)] = c
        self._l = MappingProxyType(l)

    @property
    def gamma(self):
        return self._gamma

    @property
    def l(self):
        return self._l

    def coords(self, m, i):
        """(c_1, c_2) with c_1 I(i)_1 + c_2 I(i)_2 = m for a 2x2 matrix m,
        the degree i read mod 2; SingularBasis when m has an entry outside
        the degree-i cells."""
        i %= 2
        (r1, c1), (r2, c2) = self.CELLS[i]
        if m[r1][c2] or m[r2][c1]:
            raise SingularBasis(f"the matrix leaves the degree-{i} cells")
        a, b = self.mats[(i, 1)], self.mats[(i, 2)]
        inv = self.inverse_dets[i]
        x, y = m[r1][c1], m[r2][c2]
        return ((x * b[r2][c2] - b[r1][c1] * y) * inv,
                (a[r1][c1] * y - x * a[r2][c2]) * inv)

    def lval(self, i, ip, s, j, jp):
        return self._l[(i % 2, ip % 2, s, j, jp)]


def standard_basis_m2():
    """The diagonal/anti-diagonal basis used by the plus-case pipeline."""
    return GradedBasisM2({
        (0, 1): ((ONE, ZERO), (ZERO, ONE)),
        (0, 2): ((-IMAG, ZERO), (ZERO, IMAG)),
        (1, 1): ((ZERO, ONE), (ONE, ZERO)),
        (1, 2): ((ZERO, IMAG), (-IMAG, ZERO)),
    })


@dataclass
class TwistingSystemM2:
    """theta tables (one per Z2 degree) over a graded basis of M_2(k), or a
    single table over a basis of k x k (``basis.halves == (0,)``): the
    twisting system of E x E is the degree-0 half of that of M_2(E).

    A system is built from those three alone.  ``verify_twisting_M2`` or
    ``verify_twisting_prod`` fills in the rest, and no other code sets it:
    the t-inverses that ``t_inverse_table`` solved and checked, the twisted
    algebra with its certificate (``verify_algebra``'s items), the
    generating set S of it that the certificate used, and (for M_2(E)) the
    exchange verdict.  These fields are not constructor arguments, so
    ``dataclasses.replace`` cannot swap them and returns an unverified
    system.  Both verifiers need ``algebra`` certified by
    ``verify_algebra`` (see :func:`_certify_exchange`).
    """

    algebra: GradedAlgebra
    theta: tuple     # theta[i] = MatrixHom-shaped table (not nec. multiplicative)
    basis: GradedBasisM2
    t_inverses: tuple = field(default=None, init=False)
    twisted: GradedAlgebra = field(default=None, init=False)
    certificate: Report = field(default=None, init=False)
    generators: list = field(default=None, init=False)     # generating_set(twisted)
    exchange_ok: bool = field(default=None, init=False)


class BlockLayout:
    """The basis of a 2x2 block construction over an algebra E.

    M_2(E) has the basis I(i)_j e_b (i in {0, 1}, j in {1, 2}, b < dim E)
    at index (2i + j - 1) dim E + b.  E x E has the basis eps_j e_b at the
    same index with i = 0: it is the i = 0 half, and ``basis`` holds only
    its degree-0 pair.
    """

    __slots__ = ("algebra", "basis", "halves")

    def __init__(self, algebra, basis):
        self.algebra = algebra
        self.basis = basis
        self.halves = basis.halves

    @property
    def dim(self):
        return 2 * len(self.halves) * self.algebra.dim

    def index(self, i, j, b):
        """The index of I(i)_j e_b, or of eps_j e_b when i = 0."""
        return (2 * i + j - 1) * self.algebra.dim + b

    def algebra_on(self, table, unit):
        """The graded algebra with this basis: labels I{i}_{j}*e_b graded
        (i, deg e_b) for M_2(E), labels e{j}*e_b graded deg e_b for E x E."""
        E = self.algebra
        m2 = self.halves == (0, 1)
        labels = []
        degrees = []
        for i in self.halves:
            for j in (1, 2):
                for b in range(E.dim):
                    if m2:
                        labels.append(f"I{i}_{j}*{E.labels[b]}")
                        degrees.append((i,) + E.degrees[b])
                    else:
                        labels.append(f"e{j}*{E.labels[b]}")
                        degrees.append(E.degrees[b])
        return GradedAlgebra(labels, table, unit, degrees, group_rank=2 if m2 else 1)

    def pair(self, a, b):
        """The vector of (a, b) in E x E on the basis eps_j e_b."""
        out = {}
        for vec, slot in ((a, ((ONE, ZERO), (ZERO, ZERO))),
                          (b, ((ZERO, ZERO), (ZERO, ONE)))):
            coords = self.basis.coords(slot, 0)
            for j in (1, 2):
                add_scaled(out, {self.index(0, j, k): v for k, v in vec.items()},
                           coords[j - 1])
        return out


def _require_kind(system, halves):
    """NotTwistingSystem unless the basis has ``halves``, (0, 1) for M_2(E)
    or (0,) for E x E, and there is one theta table per half."""
    if system.basis.halves != halves or len(system.theta) != len(halves):
        raise NotTwistingSystem(f"{len(system.theta)} theta tables over halves"
                                f" {system.basis.halves}, not {halves}")


def _unit_value_invertible(table):
    """Whether the table sends 1 to an invertible 2x2 scalar matrix."""
    v = table.value_at_unit()
    return v is not None and bool(v[0][0] * v[1][1] - v[0][1] * v[1][0])


def _exchange_failure(system):
    """The first (i', i'', j', j'', p, x, y) at which the exchange identity

        sum_{s,u} l^(i'i'')_{psu} theta^(i'')_{uj''}(theta^(i')_{sj'}(x) y)
        = sum_{t,u} l^(i'i'')_{tj'u} theta^(i'+i'')_{pt}(x) theta^(i'')_{uj''}(y)

    fails on basis vectors x, y of E, or None.  On E x E only
    i' = i'' = 0 occur.  It runs only to name or decide a failure (see
    :func:`_certify_exchange`), so it is written for clarity, not speed.
    """
    E, theta, lval = system.algebra, system.theta, system.basis.lval
    for ip in system.basis.halves:
        for ipp in system.basis.halves:
            ti, tii, tsum = theta[ip], theta[ipp], theta[(ip + ipp) % 2]
            for x in range(E.dim):
                for y in range(E.dim):
                    for jp, jpp, p in product((1, 2), repeat=3):
                        lhs = {}
                        rhs = {}
                        for s, u in product((1, 2), repeat=2):
                            inner = E.mul(ti.entry(s, jp).cols[x], {y: ONE})
                            add_scaled(lhs, tii.entry(u, jpp).apply(inner),
                                       lval(ip, ipp, p, s, u))
                            add_scaled(rhs, E.mul(tsum.entry(p, s).cols[x],
                                                  tii.entry(u, jpp).cols[y]),
                                       lval(ip, ipp, s, jp, u))
                        if lhs != rhs:
                            return ip, ipp, jp, jpp, p, x, y
    return None


def _certify_exchange(system, build):
    """Build the twisted algebra of ``system`` once, keep it, its
    generating set and its certificate on the system, and return the first
    failure of the exchange identity (as :func:`_exchange_failure`) or
    None.

    Preconditions: E is certified by ``verify_algebra``, as every E that
    ``deform.build_clifford`` returns is, and every cell of the algebra that
    ``build`` returns is the one ``_twisted_algebra``'s product rule forms,
    whenever it is read: before this certificate (by ``generating_set``),
    during it, or after it.  The proof below and the grading item rest on
    this; a table from any other builder is certified only by
    ``verify_algebra``.  The grading item is read off theta's columns and
    also tests each product the table holds when it runs, so a held cell of
    the wrong degree fails it whatever formed it (``algebra._algebra_report``).
    The certificate is ``verify_algebra``'s report item for item, but
    Light's test runs only on the first factors I(0)_j e_b and the last
    factors I(i'')_j'' e_k, k in the support of 1_E:
    2 dim E |S| 2|halves| triples for one unit term, instead of
    (2|halves| dim E)^2 |S|.  The proof uses l-associativity and
    l-left-unit, which hold by construction (``GradedBasisM2``).  A failing
    test scans every triple, so the detail names the first failing one
    either way.  A passing associativity item decides the exchange
    identity.  Otherwise the loop runs, decides and names the failure, so
    verdict and detail are the loop's on every input.

    Claim.  Given the l identities and a unital associative E, the
    exchange identity holds on all (x, y) exactly when the twisted product
    is associative.  Proof.  Write I_m for I(i+i'+i'')_m and
    D(q) = EX_lhs(q) - EX_rhs(q) for the difference of the two sides of the
    exchange identity at (i', i'', j', j'', q, x, y).  By the product rule
    of ``_twisted_algebra``,

        ((I(i)_j x)(I(i')_j' y))(I(i'')_j'' z) = sum_{s,t,u,m}
            l^(ii')_{tjs} l^(i+i',i'')_{mtu} I_m
            theta^(i'')_{uj''}(theta^(i')_{sj'}(x) y) z,
        (I(i)_j x)((I(i')_j' y)(I(i'')_j'' z)) = sum_{t,p,u,m}
            l^(i,i'+i'')_{mjt} l^(i'i'')_{pj'u} I_m
            theta^(i'+i'')_{tp}(x) (theta^(i'')_{uj''}(y) z).

    l-associativity, sum_t l^(i+i',i'')_{mtu} l^(ii')_{tjs}
    = sum_q l^(i,i'+i'')_{mjq} l^(i'i'')_{qsu}, turns the first into
    sum_{m,q} l^(i,i'+i'')_{mjq} I_m EX_lhs(q) z, and associativity of E
    turns the second into sum_{m,q} l^(i,i'+i'')_{mjq} I_m EX_rhs(q) z.  The
    I_m e_b are a basis, so associativity on all triples with middle factor
    I(i')_j' y says sum_q l^(i,i'+i'')_{mjq} D(q) z = 0 for all i, j, m and
    z, which D(., y) = 0 gives.  Conversely take i = 0 and z = 1, and
    contract with gamma_j: l-left-unit, sum_j l^(0,k)_{mjq} gamma_j
    = delta_mq, leaves D(m) = 0.  The converse uses only the right unit of
    E, not its associativity.  On E x E only i = i' = i'' = 0 occur, I(0)_j
    reads eps_j and gamma is the coordinate vector of (1, 1); the proof is
    the same.  The l identities hold by construction (``GradedBasisM2``).
    E's associativity is assumed: plain M_2(E) over a
    non-associative E passes the restricted test, since (x y) 1 = x (y 1).

    The restricted test.  S = ``generating_set`` of the twisted algebra A
    is a set of basis indices, so each s in S is some I(i')_j' y with y a
    basis vector of E.  A passing test gives associativity on
    (I(0)_j x, s, I(i'')_j'' 1) for all j, x, i'' and j'', by linearity in
    the last factor.  These are the triples of the converse, so
    D(., y) = 0 at that (i', j') for every i'', j'', q and x.  By the
    forward half, which needs E associative, A is then associative on every
    triple with middle factor s: S lies in the middle nucleus N.  With A's
    unit item passing, ``verify_algebra``'s nucleus argument gives N = A.
    So a passing restricted test certifies A, as the full one would.
    """
    E = system.algebra
    system.twisted = build(system)
    system.generators = generating_set(system.twisted)
    layout = BlockLayout(E, system.basis)
    firsts = [layout.index(0, j, b) for j in (1, 2) for b in range(E.dim)]
    lasts = [layout.index(i, j, k) for i in layout.halves for j in (1, 2)
             for k in E.unit]
    system.certificate = _algebra_report(system.twisted, system.generators,
                                         firsts, lasts, theta=system.theta)
    passed = {item.name: item.passed for item in system.certificate.items}
    return None if passed["associativity"] else _exchange_failure(system)


def verify_twisting_M2(system):
    """Full condition report for a candidate twisting system.

    ``basis-identities`` passes by construction (``GradedBasisM2``).  Once
    both t-inverses exist, the twisted algebra is built and certified once,
    and the exchange identity is read off its certificate
    (:func:`_certify_exchange`).
    """
    _require_kind(system, (0, 1))
    report = Report()
    report.add("basis-identities", True)
    inverses = []
    for i in (0, 1):
        inv = t_inverse_table(system.theta[i])
        inverses.append(inv)
        report.add(f"theta{i}-t-invertible", inv is not None)
    if any(inv is None for inv in inverses):
        return report
    system.t_inverses = tuple(inverses)
    report.add("theta1-unit-invertible", _unit_value_invertible(system.theta[1]))
    report.add("theta0-unit-invertible", _unit_value_invertible(system.theta[0]))

    failure = _certify_exchange(system, build_twisted_M2)
    system.exchange_ok = failure is None
    detail = "" if failure is None else (
        "first failure at i'={} i''={} j'={} j''={} p={} x={} y={}".format(*failure))
    report.add("exchange-identity", failure is None, detail)
    return report


def verify_twisting_suite(system):
    """The derived identities that hold on every accepted system, read off
    the verdicts of ``verify_twisting_M2`` on it, with no product of E; a
    system that carries no certificate is verified first.

    ``theta-phi-exchange`` is the l-weighted exchange law between theta and
    its t-inverses phi: for all i, i', p, q, r and x, y in E,

        sum_u l^(ii')_{pqu} sum_j theta^(i')_{uj}(x phi^(i')_{rj}(y))
        = sum_{t,j} l^(ii')_{tjr} theta^(i+i')_{pt}(phi^(i)_{qj}(x)) y.

    It is decided as the exchange verdict of ``verify_twisting_M2``.  The
    phi that verifier kept are the ones ``t_inverse_table`` solved and
    checked, and no other code sets them, so ``algebra.is_t_inverse`` holds
    on theta^(i) and phi^(i) for both i; its second family is
    sum_j theta^(i)_{uj} phi^(i)_{rj} = delta_ur id.  Proof.  That family
    says that the square stacked matrices of theta and phi multiply to the
    identity, so they are inverse on both sides, which is also the first
    family, sum_q phi^(i)_{qj} theta^(i)_{qj'}
    = delta_jj' id; so the check passes exactly when this family holds.
    Substitute x -> phi^(i)_{qj'}(x) and y -> phi^(i')_{rj}(y) in the
    exchange identity at (i, i', j', j, p) and sum over j' and j: the check
    collapses sum_j' theta^(i)_{sj'} phi^(i)_{qj'} to delta_sq on the left
    and sum_j theta^(i')_{uj} phi^(i')_{rj} to delta_ur on the right, which
    leaves the law above.  Conversely substitute x -> theta^(i)_{qj'}(x)
    and y -> theta^(i')_{rj}(y) in the law and sum over q and r; the second
    family collapses both sides back to the exchange identity.

    The gamma items.  With ``units-invertible`` passing,
    T^(i) = theta^(i)(1) is an invertible scalar matrix and
    phi^(i)(1) = Phi^(i) = ((T^(i))^-1)^t; phi is the solved one from which
    ``_twisted_algebra`` built the unit sum_j c_j I(0)_j 1,
    c_j = sum_r gamma_r Phi^(0)_rj.  The identities of l hold by
    construction (``GradedBasisM2``).  Each item reads False when a premise
    of its proof fails.
    - ``gamma-phi-relation``, sum_p Phi^(i+i')_ps l^(ii')_pqr
      = sum_j Phi^(i)_qj l^(ii')_sjr.  The exchange identity at
      (i, i') and x = y = 1, with T^(i') cancelled, reads
      L_u T^(i) = T^(i+i') L_u for (L_u)_ps = l^(ii')_psu, so
      (T^(i+i'))^-1 L_r = L_r (T^(i))^-1: the item, entry for entry.
    - ``gamma-absorption``, sum_j c_j theta^(0)_vj(x) = gamma_v x.  The
      certificate's ``unit`` item gives (I(0)_j x) 1 = I(0)_j x, whose
      I(0)_t coefficient is sum_s l^(00)_tjs sum_j' c_j' theta^(0)_sj'(x)
      = delta_tj x; contracted with gamma_j, l-left-unit leaves the item.
    - ``gamma-unit-contraction``, sum_{j,t} c_j l^(0i)_sjt T^(i)_tq
      = delta_sq: the coefficient of I(i)_s 1 in 1 (I(i)_q 1), which the
      ``unit`` item makes delta_sq.
    """
    _require_kind(system, (0, 1))
    report = Report()
    if system.certificate is None and not verify_twisting_M2(system).ok:
        report.add("prerequisites", False, "system fails the defining checks")
        return report
    report.add("theta-phi-exchange", system.exchange_ok)
    units_ok = report.add("units-invertible", all(
        _unit_value_invertible(table) for table in (*system.theta, *system.t_inverses)))
    passed = {item.name: item.passed for item in system.certificate.items}
    unit_ok = units_ok and passed["unit"]
    report.add("gamma-phi-relation", units_ok and system.exchange_ok)
    report.add("gamma-absorption", unit_ok)
    report.add("gamma-unit-contraction", unit_ok)
    return report


def products(E, col):
    """The products col e_b of E for each b: E's stored row of e_k when
    col = e_k, else a ``RowsOnDemand`` whose cell b is formed by ``E.mul``
    when first read and kept."""
    if list(col.values()) == [ONE]:
        return E.row(next(iter(col)))
    return RowsOnDemand(E.dim, lambda b: E.mul(col, {b: ONE}))


def _twisted_algebra(system):
    """The twisted product of a verified system, as a rule, and its unit.

    I(i)_j e_b * I(i')_j' e_b' = sum_{s,t} l^(ii')_{tjs} I(i+i')_t
    theta^(i')_{sj'}(e_b) e_b' with l^(ii')_{tjs} = lval(i, i', t, j, s), and
    the unit is sum_{j,s} gamma_s I(0)_j phi0_{sj}(1) with phi0 the t-inverse
    of theta^(0).  On E x E only i = 0 occurs and I(0)_j reads eps_j.

    Each cell is formed by this rule the first time it is read and then
    kept: the table and each of its rows are ``RowsOnDemand``.  The
    products theta^(i')_{sj'}(e_b) e_b' are ``products`` of E, shared by
    the cells of every left block I(i)_j: at most 4 |halves| dim E^2 are
    formed however many cells are read.  A cell sums its terms in the
    order of s, then t.
    """
    if system.t_inverses is None:
        raise NotTwistingSystem("verify the system before building")
    E, theta, basis = system.algebra, system.theta, system.basis
    layout = BlockLayout(E, basis)
    n = E.dim

    # shared[i', j', s][b]: products(E, theta^(i')_{sj'}(e_b))
    shared = {(ip, jp, s): RowsOnDemand(n, lambda b, cols=entry.cols: products(E, cols[b]))
              for ip, jp, s in product(layout.halves, (1, 2), (1, 2))
              for entry in [theta[ip].entry(s, jp)] if not entry.is_zero()}
    blocks = [(i, j) for i in layout.halves for j in (1, 2)]   # at 2i + j - 1
    # terms[left block][right block]: (shared[i', j', s], offset of
    # I(i+i')_t, l^(ii')_{tjs}) for each nonzero term; a coefficient 1 is
    # the object ONE, so a cell of one such term is its shifted product
    terms = [[[(shared[ip, jp, s], layout.index((i + ip) % 2, t, 0),
                ONE if coeff == ONE else coeff)
               for s, t in product((1, 2), (1, 2)) if (ip, jp, s) in shared
               for coeff in [basis.lval(i, ip, t, j, s)] if coeff]
              for ip, jp in blocks] for i, j in blocks]

    def form(r):
        left, b = divmod(r, n)
        row_terms = [[(rows[b], offset, coeff) for rows, offset, coeff in block]
                     for block in terms[left]]

        def cell(c):
            right, bp = divmod(c, n)
            out = {}
            for products_b, offset, coeff in row_terms[right]:
                shifted = {offset + k: v for k, v in products_b[bp].items()}
                out = (add_scaled(out, shifted, coeff) if out or coeff is not ONE
                       else shifted)
            return out

        return RowsOnDemand(layout.dim, cell)

    table = RowsOnDemand(layout.dim, form)
    unit = {}
    for j in (1, 2):
        part = {}
        for s in (1, 2):
            add_scaled(part, system.t_inverses[0].entry(s, j).apply(E.unit),
                       basis.gamma[s - 1])
        offset = layout.index(0, j, 0)
        unit.update((offset + k, c) for k, c in part.items())
    return layout.algebra_on(table, unit)


def build_twisted_M2(system):
    """The deformed algebra on the basis {I(i)_j e_b}, Z2 x Z2 graded;
    ``verify_twisting_M2`` builds it once and keeps it as ``twisted``."""
    return _twisted_algebra(system)


# ---------------------------------------------------------------------------
# twisted direct products


def verify_twisting_prod(system):
    """Condition report for a product twisting system, a
    ``TwistingSystemM2`` with one table over a basis of k x k; as for
    M_2(E), the twisted product is built and certified once, and the
    exchange identity is read off its certificate (:func:`_certify_exchange`)."""
    _require_kind(system, (0,))
    report = Report()
    theta = system.theta[0]
    inv = t_inverse_table(theta)
    report.add("theta-t-invertible", inv is not None)
    if inv is None:
        return report
    system.t_inverses = (inv,)
    report.add("theta-unit-invertible", _unit_value_invertible(theta))
    failure = _certify_exchange(system, build_twisted_prod)
    detail = "" if failure is None else (
        "fails at j={} j'={} p={} x={} y={}".format(*failure[2:]))
    report.add("product-exchange-identity", failure is None, detail)
    return report


def build_twisted_prod(system):
    """The twisted product on the basis {eps_j e_b}, graded by E's grading;
    ``verify_twisting_prod`` builds it once and keeps it as ``twisted``."""
    return _twisted_algebra(system)


# ---------------------------------------------------------------------------
# semi-trivial extensions


@dataclass
class SemiTrivialData:
    """A ring, a bimodule given by sparse action rows, and a pairing psi.

    The module has basis m_0, ..., m_{len(module_degrees) - 1}; the
    vectors below are sparse coordinate dicts.  Each of ``left``,
    ``right`` and ``psi`` holds one row per left factor, as a structure
    table does, and is a tuple of rows or a ``RowsOnDemand``.
    """

    ring: GradedAlgebra
    module_degrees: tuple     # Z2 degrees, already shifted if applicable
    left: tuple               # left[i][b]: module vector e_i . m_b
    right: tuple              # right[b][i]: module vector m_b . e_i
    psi: tuple                # psi[a][b]: ring vector psi(m_a (x) m_b)


def build_semitrivial(data):
    """The algebra on ring (+) module with the twisted-square product.

    With R the ring and M the module, the product on R (+) M is r r' in R,
    r . m and m . r from the actions, and m m' = psi(m (x) m').  No axiom is
    checked here.  ``verify_algebra``'s unit and associativity items hold
    exactly when R is a unital associative algebra, M a unital R-bimodule,
    and psi a balanced bimodule map that satisfies the bridge; for the data
    of ``semitrivial_mu`` they follow from its checks (proof there).

    Proof.  The product is bilinear, so it is associative if and only if
    (xy)z = x(yz) for all basis triples.  Write r, r', r'' for ring and m,
    m', m'' for module basis vectors; by bilinearity each of the eight
    kinds of triple is exactly one condition:

    - (r, r', r''): R is associative;
    - (r, r', m): (r r') m = r (r' m), left associativity;
    - (m, r, r'): (m r) r' = m (r r'), right associativity;
    - (r, m, r'): (r m) r' = r (m r'), compatibility for all r and r';
    - (m, r, m'): psi(m r (x) m') = psi(m (x) r m'), psi is balanced;
    - (r, m, m'): psi(r m (x) m') = r psi(m (x) m'), psi is left-linear;
    - (m, m', r): psi(m (x) m' r) = psi(m (x) m') r, psi is right-linear;
    - (m, m', m''): psi(m (x) m') m'' = m psi(m' (x) m''), the bridge.

    The unit is R's unit, so the unit triples 1 r = r = r 1 and
    1 m = m = m 1 are R's unit axiom and the unit axioms of the bimodule.

    Each row is formed from the data when it is first read
    (``RowsOnDemand``); the ring's products and psi are shared, since no
    cell changes once formed.
    """
    E = data.ring
    n = E.dim
    m = len(data.module_degrees)
    labels = [f"r:{lbl}" for lbl in E.labels] + [f"m{k}" for k in range(m)]
    degrees = ([(0,) + d for d in E.degrees]
               + [(1,) + tuple(d) for d in data.module_degrees])

    def shifted(vec):
        return {n + k: v for k, v in vec.items()}

    def form(i):
        if i < n:
            return list(E.row(i)) + [shifted(vec) for vec in data.left[i]]
        b = i - n
        return [shifted(vec) for vec in data.right[b]] + list(data.psi[b])

    return GradedAlgebra(labels, RowsOnDemand(n + m, form), E.unit, degrees,
                         group_rank=2)


def semitrivial_mu(E, mu, gens):
    """The bimodule-and-psi package of the skew group algebra E x| <mu>:
    the module is E twisted by mu on the left and shifted, and psi is
    (a, b) -> mu(a) b.  E must be certified associative, and ``gens`` must
    be its ``generating_set`` (``verify_iso``).

    This is the one check of mu: MuNotInvolution unless mu is a graded
    automorphism with mu^2 = id, which is also what ``zhang_twist`` needs.

    Claim.  If E passes ``verify_algebra`` and mu passes both checks,
    ``build_semitrivial`` of the returned data passes ``verify_algebra`` on
    every item, so it needs no certificate of its own.  Precondition: the
    table is the one that ``build_semitrivial`` builds from this data; the
    claim says nothing of any other.  It is E x| <t> with
    t^2 = 1 and t a = mu(a) t, on the basis e_i and m_b = t e_b: then
    e_i m_b = t mu(e_i) e_b, m_b e_i = t e_b e_i and m_a m_b = mu(e_a) e_b.
    Proof.  In the module r . m = mu(r) m, m . r = m r and
    psi(m (x) m') = mu(m) m' are products of E; the eight triple kinds of
    ``build_semitrivial`` read, with E associative throughout:

    - (r, r', r''), (m, r, r'), (r, m, r') and (m, m', r): E is associative;
    - (r, r', m): mu(r r') m = mu(r) mu(r') m, mu is multiplicative;
    - (m, r, m'): mu(m r) m' = mu(m) mu(r) m', the same;
    - (r, m, m'): mu(mu(r) m) m' = r mu(m) m', which multiplicativity turns
      into mu^2(r) mu(m) m' = r mu(m) m', true as mu^2 = id;
    - (m, m', m''): mu(mu(m) m') m'' = m mu(m') m'', which is
      mu^2(m) mu(m') m'' = m mu(m') m'' in the same way.

    The unit is E's: 1 . m = mu(1) m = m as mu(1) = 1, and every other unit
    triple is E's unit axiom.  The grading holds because E's does and mu is
    graded: e_i . m_b and m_b . e_i lie in the module part of degree
    deg e_i + deg e_b, shifted as m_b is, and psi(m_a (x) m_b) in E's
    degree deg e_a + deg e_b.  Only the last two kinds use mu^2 = id, and
    without it they fail, as they do for an order-4 rotation of a Clifford
    algebra's generators.
    """
    if not verify_iso(mu, gens):
        raise MuNotInvolution("mu must be a graded algebra automorphism")
    if not mu.compose(mu) == GradedLinMap.identity(E):
        raise MuNotInvolution("mu must be an involution: mu^2 is not the identity")
    return _skew_group_data(E, mu)


def _skew_group_data(E, mu):
    """``semitrivial_mu``'s package without its checks of mu: the products
    of E that it holds already.  Row i of the left action, which is also
    psi's row i and the odd products of ``zhang_twist``, is
    ``products(E, mu(e_i))``: E's stored row of e_k when mu(e_i) = e_k.
    Row b of the right action, m_b . e_i = e_b e_i, is E's row b."""
    require_group_rank(E, 1, "the skew group extension")
    left = tuple(products(E, col) for col in mu.cols)
    right = tuple(map(E.row, range(E.dim)))
    shifted = tuple(((d[0] + 1) % 2,) for d in E.degrees)
    return SemiTrivialData(E, shifted, left, right, left)


def zhang_twist(data):
    """The left Zhang twist of a Z2-graded algebra E = ``data.ring`` by an
    involutive graded automorphism mu: the product x * y = nu_{deg y}(x) y
    of the twisting system nu = (id, mu).  ``data`` is ``semitrivial_mu``'s
    package, whose check accepted mu, and is not repeated here; E must be
    certified associative.  Row i is formed when it is first read
    (``RowsOnDemand``), from E's row i and row i of ``data.left``, the
    products mu(e_i) e_j, shared: e_i * e_j is e_i e_j for even e_j and
    mu(e_i) e_j for odd e_j.

    nu is a left twisting system when, for y of degree h and every l,
    nu_l(nu_h(x) y) = nu_{h+l}(x) nu_l(y).  The two checks of mu, that it
    is a graded automorphism (``verify_iso``) and that mu^2 = id, imply it.
    Proof.  For l = 0, nu_0 = id and both sides are nu_h(x) y.  For l = 1 and
    h = 0 the identity is mu(x y) = mu(x) mu(y), multiplicativity.  For
    l = 1 and h = 1, multiplicativity gives mu(mu(x) y) = mu^2(x) mu(y),
    which is x mu(y) = nu_0(x) nu_1(y) since mu^2 = id.  So the twist is
    associative, and unital with E's unit, as mu(1) = 1 and 1 is even.
    """
    E = data.ring
    require_group_rank(E, 1, "the Zhang twist")
    odd = [d == (1,) for d in E.degrees]

    def form(i):
        return [twisted if is_odd else plain
                for plain, twisted, is_odd in zip(E.row(i), data.left[i], odd)]

    return GradedAlgebra(E.labels, RowsOnDemand(E.dim, form), E.unit, E.degrees, 1,
                         words=E.words)
