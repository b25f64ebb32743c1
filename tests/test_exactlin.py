from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reference_constructions import (
    matrix_inverse,
    ref_concat_terms,
    ref_scalar_parse,
    subspace_intersection,
)

from nqh import exactlin
from nqh.errors import DegreeMismatch, DimensionMismatch, ParseError
from nqh.exactlin import (
    HALF,
    I,
    IR2,
    MINUS_ONE,
    ONE,
    R2,
    SQRT2_OVER_2,
    Scalar,
    SparseEliminator,
    Subspace,
    TensorElement,
    ZERO,
    add_scaled,
    matrix_mul,
    nullspace,
    pairing,
    rref_rows,
    sqrt_in_K,
    words_of_length,
)

SMALL_COEFFS = [Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2)]
SMALL_SCALARS = [
    Scalar.from_rationals(a, b, c, d)
    for a in SMALL_COEFFS for b in SMALL_COEFFS
    for c in SMALL_COEFFS for d in SMALL_COEFFS
]

small_scalar = st.sampled_from(SMALL_SCALARS)


def test_defining_relations():
    assert I * I == MINUS_ONE
    assert R2 * R2 == Scalar(2)
    assert I * R2 == IR2
    assert IR2 * IR2 == Scalar(-2)


def test_half_sqrt2_squares_to_half():
    h = SQRT2_OVER_2
    assert h * h == HALF
    assert Scalar(2) * h * h == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_every_small_nonzero_scalar_has_inverse():
    for s in SMALL_SCALARS:
        if not s:
            continue
        assert s * s.inverse() == ONE
        assert (ONE / s) * s == ONE


@given(small_scalar, small_scalar, small_scalar)
def test_field_axioms_on_small_scalars(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a


@given(small_scalar)
def test_text_round_trip(s):
    assert Scalar.parse(s.text()) == s


def test_parse_shorthands():
    assert Scalar.parse("i") == I
    assert Scalar.parse("-r2") == -R2
    assert Scalar.parse("i*r2") == IR2
    assert Scalar.parse("1/2 + -3/2*i + r2") == Scalar.from_rationals(
        Fraction(1, 2), Fraction(-3, 2), 1, 0)
    with pytest.raises(ParseError):
        Scalar.parse("")
    with pytest.raises(ParseError):
        Scalar.parse("x")


SHORTHANDS = ("i", "-r2", "i*r2", "1/2 + -3/2*i + r2", "+1", "2i", "2 * r2",
              "1 - i", "-1/2-i*r2", "0", "0/5", "3/6*i", " 1 + -1*i ")

fractions_ = st.fractions(max_denominator=10 ** 6).filter(
    lambda f: abs(f.numerator) < 10 ** 30)


@given(st.tuples(fractions_, fractions_, fractions_, fractions_))
def test_the_grammar_parses_as_the_fraction_route(coeffs):
    """On every ``text()`` output the parser agrees with the earlier one,
    which handed each term to Fraction."""
    text = Scalar.from_rationals(*coeffs).text()
    assert Scalar.parse(text) == ref_scalar_parse(text) == Scalar.from_rationals(*coeffs)


@pytest.mark.parametrize("text", SHORTHANDS)
def test_shorthands_parse_as_the_fraction_route(text):
    assert Scalar.parse(text) == ref_scalar_parse(text)


def test_every_whitespace_is_ignored():
    """The Fraction route dropped only spaces, and rejected this tab."""
    assert Scalar.parse("1 +\t-1*i\n") == ONE - I
    with pytest.raises(ParseError):
        ref_scalar_parse("1 +\t-1*i\n")


FRACTION_ONLY = ("1e3", "1E3", "1e400", "2.5", "1_000", "--1", "1+--1", "+-1", "٣")


@pytest.mark.parametrize("text", FRACTION_ONLY + (
    "1/0", "1/-2", "1+", "*", "2i2", "i r 2", "x", "", "  ", "1/2/3"))
def test_text_outside_the_grammar_is_a_parse_error(text):
    """Exponents, decimals, underscores, doubled signs, non-ASCII digits
    and the rest.  The Fraction route accepted the first of these, and
    1e300000000 made it build a 300-million-digit integer."""
    with pytest.raises(ParseError):
        Scalar.parse(text)
    if text in FRACTION_ONLY:
        ref_scalar_parse(text)


def test_sqrt_in_K():
    assert sqrt_in_K(Scalar(4)) in (Scalar(2), Scalar(-2))
    root = sqrt_in_K(Scalar(2))
    assert root is not None and root * root == Scalar(2)
    root = sqrt_in_K(I)
    assert root is not None and root * root == I
    assert sqrt_in_K(Scalar(5)) is None
    # an eighth root of unity with no square root in the field
    zeta8_cubed = (I - ONE) * SQRT2_OVER_2
    assert sqrt_in_K(zeta8_cubed) is None


# ---------------------------------------------------------------------------
# fast paths against the generic formulas
#
# ``Scalar`` skips the product and ``_normalize`` for +-1 factors, negation,
# denominators 1 and rational inverses.  The generic formulas below are a
# test-only copy of the arithmetic with no fast path: every result must
# have exactly the canonical (n, d) they give.


def generic(n, d):
    return exactlin._normalize(*n, d)


def generic_mul(a, b):
    a0, a1, a2, a3 = a.n
    b0, b1, b2, b3 = b.n
    return generic((a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
                    a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
                    a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
                    a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1), a.d * b.d)


def generic_add(a, b, sign=1):
    return generic(tuple(x * b.d + sign * y * a.d for x, y in zip(a.n, b.n)),
                   a.d * b.d)


def generic_inverse(a):
    c1 = Scalar(*generic((a.n[0], -a.n[1], a.n[2], -a.n[3]), a.d))
    c2 = Scalar(*generic((a.n[0], a.n[1], -a.n[2], -a.n[3]), a.d))
    c3 = Scalar(*generic((c1.n[0], c1.n[1], -c1.n[2], -c1.n[3]), c1.d))
    p = Scalar(*generic_mul(Scalar(*generic_mul(c1, c2)), c3))
    norm = generic_mul(a, p)
    norm = Fraction(norm[0], norm[4])
    return generic(tuple(c * norm.denominator for c in p.n), p.d * norm.numerator)


def nd(s):
    return (*s.n, s.d)


FAST_PATH_OPERANDS = SMALL_SCALARS + [
    Scalar(n) for n in (2, -2, 3, -7, 12)
] + [
    Scalar(n, 0, 0, 0, d) for n, d in ((1, 2), (-1, 2), (1, 3), (-1, 6), (4, 9))
] + [Scalar(1, 1), Scalar(-1, 0, 1), Scalar(1, 0, 0, 1, 3), Scalar(-1, 2, 0, 0, 5)]


def check_fast_paths(a, b):
    assert nd(a * b) == generic_mul(a, b)
    assert nd(a + b) == generic_add(a, b)
    assert nd(a - b) == generic_add(a, b, -1)


def test_fast_paths_give_the_generic_canonical_form():
    for a in FAST_PATH_OPERANDS:
        assert nd(-a) == generic(tuple(-c for c in a.n), a.d)
        if a:
            assert nd(a.inverse()) == generic_inverse(a)
        for b in FAST_PATH_OPERANDS:
            check_fast_paths(a, b)


coefficient = st.one_of(st.sampled_from([-1, 0, 1]),
                        st.integers(-10**12, 10**12))
large_scalar = st.one_of(
    st.sampled_from([ONE, MINUS_ONE, Scalar(1, 0, 0, 0, 7), Scalar(-1, 0, 0, 0, 2)]),
    st.builds(Scalar, coefficient),
    st.builds(Scalar, coefficient, coefficient, coefficient, coefficient,
              st.one_of(st.just(1), st.integers(1, 10**6))))


@given(large_scalar, large_scalar)
def test_fast_paths_on_large_coefficients(a, b):
    check_fast_paths(a, b)
    check_fast_paths(b, a)
    for s in (a, b):
        assert nd(-s) == generic(tuple(-c for c in s.n), s.d)
        if s:
            assert nd(s.inverse()) == generic_inverse(s)


def test_hash_agrees_with_int_and_fraction():
    assert hash(Scalar(3)) == hash(3)
    assert len({Scalar(3), 3}) == 1
    assert hash(MINUS_ONE) == hash(-1)
    assert hash(HALF) == hash(Fraction(1, 2))
    assert {3: "three", Fraction(-1, 2): "minus half"}[Scalar(3)] == "three"
    assert {3: "three", Fraction(-1, 2): "minus half"}[-HALF] == "minus half"
    assert {Scalar(3): "three", -HALF: "minus half"}[Fraction(-1, 2)] == "minus half"
    assert hash(Scalar(0, 1)) == hash(I)


def test_inverse_rejects_a_norm_outside_the_rationals(monkeypatch):
    monkeypatch.setattr(Scalar, "conj_r2", lambda self: self)
    with pytest.raises(ArithmeticError, match="not a nonzero rational"):
        (ONE + R2).inverse()


# ---------------------------------------------------------------------------
# linear algebra


def sparse(row):
    return {c: v for c, v in enumerate(row) if v}


def scalars(*values):
    return [Scalar.of(v) for v in values]


def test_rref_dependent_rows():
    space = Subspace.from_rows([sparse(scalars(1, 1)), sparse(scalars(2, 2))], 2)
    assert space.dim == 1
    assert space.basis == ({0: ONE, 1: ONE},)


def test_rref_empty_input():
    space = Subspace.from_rows([], 3)
    assert space.dim == 0 and space.ambient == 3


def test_rref_rejects_ragged_rows():
    # a sparse row is ragged when it reaches past the ambient dimension
    with pytest.raises(DimensionMismatch):
        Subspace.from_rows([sparse(scalars(1, 2)), sparse(scalars(0, 0, 1))], 2)


def test_rref_idempotent():
    import random

    rng = random.Random(7)
    pool = [ZERO, ONE, MINUS_ONE, HALF, I, R2]
    for _ in range(20):
        rows = [sparse([rng.choice(pool) for _ in range(4)]) for _ in range(3)]
        space = Subspace.from_rows(rows, 4)
        again = Subspace.from_rows(space.basis, 4)
        assert again == space


def test_nullspace_identity_and_zero():
    assert nullspace([{0: ONE}, {1: ONE}], 2).dim == 0
    assert nullspace([{}], 3).dim == 3


def test_nullspace_vectors_are_exact_kernel_elements():
    rows = [[ONE, I, ZERO, HALF], [ZERO, R2, ONE, MINUS_ONE]]
    kernel = nullspace([sparse(r) for r in rows], 4)
    assert kernel.dim == 2
    for vec in kernel.basis:
        for row in rows:
            total = ZERO
            for c, v in vec.items():
                total = total + row[c] * v
            assert total == ZERO


def test_nullspace_of_pairing_row_gives_three_dim_complement():
    # the single relation row of the skew plane in the degree-2 word basis
    row = TensorElement({(0, 1): ONE, (1, 0): ONE}).coordinates(2, 2)
    kernel = nullspace([row], 4)
    assert kernel.dim == 3


def test_rank_of_single_relation_row():
    row = TensorElement({(0, 1): ONE, (1, 0): ONE}).coordinates(2, 2)
    space = Subspace.from_rows([row], 4)
    assert space.dim == 1 and nullspace([row], 4).dim == 3
    assert space.ambient == 4


def test_subspace_membership_and_coords():
    space = Subspace.from_rows([sparse(scalars(1, 0, 1)), sparse(scalars(0, 1, 1))], 3)
    assert space.contains(sparse(scalars(1, 1, 2)))
    assert not space.contains({2: ONE})
    coords, rem = space.reduce_with_coords(sparse(scalars(1, 1, 2)))
    assert coords == {0: ONE, 1: ONE} and not rem


READER_SPACES = {
    # rows at pivots 0, 2 and 6 are single entries; those at 1 and 4 are
    # dense, with entries at the non-pivot columns 3 and 5
    "mixed": Subspace.from_rows([{0: ONE}, {1: ONE, 3: Scalar(2)}, {2: ONE},
                                 {4: ONE, 5: I}, {6: ONE}], 8),
    "dense": Subspace.from_rows([{0: ONE, 1: ONE}, {1: ONE, 2: HALF}], 4),
    "standard": Subspace.from_rows([{1: ONE}, {3: ONE}], 4),
    "zero": Subspace.zero(4),
}

READER_PROBES = {
    "mixed": [
        {6: I, 0: Scalar(2), 2: MINUS_ONE},               # single-entry pivots
        {2: ONE, 0: ZERO},                                # with a stored zero
        {3: Scalar(2), 1: ONE, 0: Scalar(3)},             # uses a dense row
        {5: I, 4: ONE, 6: HALF, 1: MINUS_ONE, 3: Scalar(-2)},
        {7: ONE, 0: ONE},                                 # non-pivot column
        {3: ONE},
        {1: ONE},                                         # dense row's pivot
        {4: ONE, 2: ONE},
        {},
    ],
    "dense": [{0: ONE, 1: Scalar(2), 2: HALF}, {0: ONE}, {2: ONE}, {3: ONE},
              {}],
    "standard": [{3: I, 1: ONE}, {1: ZERO}, {0: ONE}, {2: ONE, 3: ONE}],
    "zero": [{}, {0: ZERO}, {2: ONE}],
}


@pytest.mark.parametrize("name", sorted(READER_SPACES))
def test_coords_reads_what_reduce_with_coords_reads(name):
    """On subspaces that mix single-entry and dense rows, ``coords`` gives
    the coordinates of ``reduce_with_coords``, in its key order, and raises
    DimensionMismatch exactly when its remainder is nonzero, whether or not
    the probe's support lies on single-entry pivots."""
    space = READER_SPACES[name]
    outcomes = set()
    for vec in READER_PROBES[name]:
        found, rem = space.reduce_with_coords(vec)
        if rem:
            with pytest.raises(DimensionMismatch, match="^probe outside$"):
                space.coords(vec, "probe outside")
        else:
            got = space.coords(vec, "probe outside")
            assert list(got.items()) == list(found.items()), vec
        outcomes.add((bool(rem), vec.keys() <= space.standard_pivots))
    assert outcomes >= {(False, True), (True, False)}, outcomes
    if name in ("mixed", "dense"):
        assert (False, False) in outcomes, outcomes


def test_subspace_intersection():
    u = Subspace.from_rows([{0: ONE}, {1: ONE}], 3)
    w = Subspace.from_rows([{1: ONE}, {2: ONE}], 3)
    meet = subspace_intersection(u, w)
    assert meet.dim == 1
    assert meet.contains({1: ONE})


def test_matrix_inverse():
    a = [[Scalar(2), ZERO], [ONE, ONE]]
    inv = matrix_inverse(a)
    assert matrix_mul(a, inv) == [[ONE, ZERO], [ZERO, ONE]]
    assert matrix_inverse([[ONE, ONE], [ONE, ONE]]) is None


def test_word_coordinates_round_trip():
    t = TensorElement({(0, 1, 1): I, (1, 0, 0): HALF, (0, 0, 0): MINUS_ONE})
    coords = t.coordinates(2, 3)
    assert coords == {3: I, 4: HALF, 0: MINUS_ONE}
    assert TensorElement.from_coordinates(coords, 2, 3) == t


# ---------------------------------------------------------------------------
# the sparse engine against a dense reference


def dense_rref(rows, ncols):
    """Test-only reference: dense reduced row echelon form by a column scan
    for pivots, as the package computed it before its one sparse engine."""
    work = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for idx in range(rank, len(work)):
            if work[idx][col]:
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = work[rank][col].inverse()
        row = work[rank] = [c * inv for c in work[rank]]
        for idx in range(len(work)):
            factor = work[idx][col]
            if idx != rank and factor:
                work[idx] = [t - factor * r for t, r in zip(work[idx], row)]
        pivots.append(col)
        rank += 1
    return [tuple(work[i]) for i in range(rank)], pivots


def dense_reduce_with_coords(basis, pivots, vec):
    coords = []
    for row, p in zip(basis, pivots):
        factor = vec[p]
        coords.append(factor)
        vec = [v - factor * r for v, r in zip(vec, row)]
    return coords, vec


def dense_nullspace(rows, ncols):
    basis, pivots = dense_rref(rows, ncols)
    kernel = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, p in zip(basis, pivots):
            vec[p] = -row[free]
        kernel.append(vec)
    return dense_rref(kernel, ncols)


def dense_intersection(u_basis, w_basis, ncols):
    """The transposed-kernel intersection: combinations of both bases that
    sum to zero, read on the first basis."""
    cols = list(u_basis) + list(w_basis)
    if not u_basis or not w_basis:
        return [], []
    combos, _ = dense_nullspace(
        [[col[i] for col in cols] for i in range(ncols)], len(cols))
    vectors = []
    for combo in combos:
        vec = [ZERO] * ncols
        for coeff, basis_vec in zip(combo, u_basis):
            vec = [v + coeff * b for v, b in zip(vec, basis_vec)]
        vectors.append(vec)
    return dense_rref(vectors, ncols)


ENTRIES = [ZERO, ZERO, ZERO, ONE, MINUS_ONE, HALF, I, R2]


@st.composite
def row_sets(draw, ncols, support):
    """Dense rows on the first ``support`` columns, with a duplicated row
    and a zero row sometimes mixed in."""
    rows = [[draw(st.sampled_from(ENTRIES)) if c < support else ZERO
             for c in range(ncols)] for _ in range(draw(st.integers(0, 5)))]
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [ZERO] * ncols)
    return rows


@st.composite
def matrix_cases(draw):
    """(ncols, rows, other rows, probe vector), with the ambient often
    wider than the support of the rows."""
    ncols = draw(st.integers(1, 6))
    support = draw(st.integers(0, ncols))
    rows = draw(row_sets(ncols, support))
    other = draw(row_sets(ncols, draw(st.integers(0, ncols))))
    probe = [draw(st.sampled_from(ENTRIES)) for _ in range(ncols)]
    if rows and draw(st.booleans()):
        # a probe inside the row span, to exercise membership
        probe = [a + b for a, b in zip(draw(st.sampled_from(rows)),
                                       draw(st.sampled_from(rows)))]
    return ncols, rows, other, probe


def assert_reduced(space):
    """Canonical form: no stored zero, pivots ascending, each pivot the
    leftmost column of its row, 1 there and 0 in every other row."""
    assert list(space.pivots) == sorted(set(space.pivots))
    assert len(space.pivots) == len(space.basis)
    for k, (p, row) in enumerate(zip(space.pivots, space.basis)):
        assert all(row.values())
        assert min(row) == p and row[p] == ONE
        assert max(row) < space.ambient
        for j, other in enumerate(space.basis):
            if j != k:
                assert p not in other


@given(matrix_cases())
def test_sparse_engine_matches_the_dense_reference(case):
    ncols, rows, other, probe = case
    ref_basis, ref_pivots = dense_rref(rows, ncols)
    basis, pivots = rref_rows([sparse(r) for r in rows], ncols)
    assert basis == tuple(sparse(r) for r in ref_basis)
    assert pivots == tuple(ref_pivots)

    space = Subspace.from_rows([sparse(r) for r in rows], ncols)
    assert_reduced(space)
    ref_coords, ref_rem = dense_reduce_with_coords(ref_basis, ref_pivots, probe)
    coords, rem = space.reduce_with_coords(sparse(probe))
    assert coords == sparse(ref_coords)
    assert rem == sparse(ref_rem)
    assert space.contains(sparse(probe)) == (not any(ref_rem))

    kernel = nullspace([sparse(r) for r in rows], ncols)
    assert_reduced(kernel)
    ref_kernel, ref_kernel_pivots = dense_nullspace(rows, ncols)
    assert kernel.basis == tuple(sparse(r) for r in ref_kernel)
    assert kernel.pivots == tuple(ref_kernel_pivots)

    w = Subspace.from_rows([sparse(r) for r in other], ncols)
    other_basis, _ = dense_rref(other, ncols)
    meet = subspace_intersection(space, w)
    assert_reduced(meet)
    ref_meet, ref_meet_pivots = dense_intersection(ref_basis, other_basis, ncols)
    assert meet.basis == tuple(sparse(r) for r in ref_meet)
    assert meet.pivots == tuple(ref_meet_pivots)


def all_pivot_reduce_with_coords(space, vec):
    """The reduction that visits every pivot of ``space`` in turn: the form
    ``Subspace.reduce_with_coords`` had before it read coordinates through
    the pivot position map."""
    rem = {c: v for c, v in vec.items() if v}
    coords = {}
    for k, (p, row) in enumerate(zip(space.pivots, space.basis)):
        factor = rem.get(p)
        if factor:
            coords[k] = factor
            add_scaled(rem, row, -factor)
    return coords, rem


@st.composite
def probe_cases(draw):
    """(space, vector, inside): a vector built inside the span, or drawn
    freely; either may carry stored zeros, and its keys come in any order."""
    ncols = draw(st.integers(1, 7))
    rows = draw(row_sets(ncols, draw(st.integers(0, ncols))))
    space = Subspace.from_rows([sparse(r) for r in rows], ncols)
    inside = draw(st.booleans())
    if inside:
        vec = {}
        for row in space.basis:
            add_scaled(vec, row, draw(st.sampled_from(ENTRIES)))
    else:
        vec = sparse([draw(st.sampled_from(ENTRIES)) for _ in range(ncols)])
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
        vec.setdefault(c, ZERO)
    vec = dict(draw(st.permutations(list(vec.items()))))
    return space, vec, inside


@given(probe_cases())
def test_reduce_with_coords_matches_the_all_pivot_loop(case):
    space, vec, inside = case
    coords, rem = space.reduce_with_coords(vec)
    ref_coords, ref_rem = all_pivot_reduce_with_coords(space, vec)
    assert coords == ref_coords and list(coords) == list(ref_coords)
    assert rem == ref_rem
    assert all(rem.values())
    if inside:
        assert rem == {}


def test_reduced_rows_back_substitute_the_echelon_rows():
    elim = SparseEliminator()
    elim.add({0: ONE, 1: ONE, 2: ONE})
    elim.add({1: ONE, 2: Scalar(2)})
    assert elim.pivots[0] == {0: ONE, 1: ONE, 2: ONE}
    assert elim.reduced_rows() == {0: {0: ONE, 2: MINUS_ONE},
                                   1: {1: ONE, 2: Scalar(2)}}


def test_sparse_eliminator_rank_and_membership():
    elim = SparseEliminator()
    assert elim.add({0: ONE, 1: ONE})
    assert not elim.add({0: Scalar(2), 1: Scalar(2)})
    assert elim.add({1: ONE})
    assert elim.rank == 2
    assert elim.contains({0: Scalar(5), 1: Scalar(-3)})
    assert not elim.contains({2: ONE})


def test_sparse_eliminator_raises_on_a_stored_zero_lead(monkeypatch):
    """A kernel that keeps cancelled keys as stored zeros must make the
    eliminator fail, not loop on a lead that never leaves the row."""
    def storing_zeros(out, vec, coeff):
        if not coeff:
            return out
        for k, v in vec.items():
            out[k] = out.get(k, ZERO) + v * coeff
        return out

    elim = SparseEliminator()
    assert elim.add({0: ONE, 1: ONE})
    monkeypatch.setattr(exactlin, "add_scaled", storing_zeros)
    with pytest.raises(ArithmeticError):
        elim.add({0: Scalar(2), 1: Scalar(2)})
    with pytest.raises(ArithmeticError):
        elim.contains({0: ONE, 1: ONE})


def test_add_scaled_updates_in_place():
    out = {0: ONE, 1: Scalar(2)}
    same = out
    assert add_scaled(out, {1: ONE, 2: I}, Scalar(3)) is same
    assert out == {0: ONE, 1: Scalar(5), 2: Scalar(0, 3)}


def test_add_scaled_drops_a_cancelled_key():
    out = {0: ONE, 1: Scalar(2)}
    add_scaled(out, {1: ONE, 2: ONE}, Scalar(-2))
    assert out == {0: ONE, 2: Scalar(-2)}
    assert 1 not in out
    add_scaled(out, {0: HALF}, Scalar(-2))
    assert out == {2: Scalar(-2)}


def test_add_scaled_leaves_absent_keys_absent():
    out = {0: ONE}
    add_scaled(out, {3: ZERO, 4: I}, R2)
    assert out == {0: ONE, 4: IR2}
    assert 3 not in out
    assert add_scaled({}, {}, ONE) == {}


def test_add_scaled_zero_coefficient_is_a_no_op():
    out = {0: ONE, 1: I}
    add_scaled(out, {0: MINUS_ONE, 2: ONE}, ZERO)
    assert out == {0: ONE, 1: I}
    assert list(out) == [0, 1]


@given(st.dictionaries(st.integers(0, 5), small_scalar),
       st.dictionaries(st.integers(0, 5), small_scalar), small_scalar)
def test_add_scaled_is_the_sparse_sum(a, b, c):
    a = {k: v for k, v in a.items() if v}
    out = add_scaled(dict(a), b, c)
    assert all(v for v in out.values())
    for k in range(6):
        assert out.get(k, ZERO) == a.get(k, ZERO) + c * b.get(k, ZERO)


def generic_add_scaled(out, vec, coeff):
    for k, v in vec.items():
        acc = generic_mul(v, coeff)
        if k in out:
            acc = generic_add(out[k], Scalar(*acc))
        if any(acc[:4]):
            out[k] = Scalar(*acc)
        else:
            out.pop(k, None)
    return out


@given(st.dictionaries(st.integers(0, 5), small_scalar),
       st.dictionaries(st.integers(0, 5), small_scalar),
       st.sampled_from([ONE, MINUS_ONE, Scalar(1, 0, 0, 0, 3), Scalar(-1, 0, 0, 0, 2)]))
def test_add_scaled_by_a_unit_matches_the_generic_loop(a, b, c):
    a = {k: v for k, v in a.items() if v}
    for vec in (b, {k: -v for k, v in a.items()}, {k: c * v for k, v in a.items()}):
        out = add_scaled(dict(a), vec, c)
        assert all(v for v in out.values())
        expected = generic_add_scaled(dict(a), vec, c)
        assert {k: nd(v) for k, v in out.items()} == {k: nd(v) for k, v in expected.items()}


def test_add_scaled_by_a_unit_stores_no_zero():
    assert add_scaled({}, {0: ZERO, 1: I}, ONE) == {1: I}
    assert add_scaled({}, {0: ZERO, 1: I}, MINUS_ONE) == {1: -I}
    assert add_scaled({0: I, 1: ONE}, {0: I, 1: ONE}, MINUS_ONE) == {}
    assert add_scaled({0: I, 1: ONE}, {0: -I, 1: ONE}, ONE) == {1: Scalar(2)}


# ---------------------------------------------------------------------------
# words and pairing


def test_words_of_length_order():
    assert words_of_length(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_pairing_matching_and_mismatched_words():
    d = TensorElement({(0, 1): ONE})
    assert pairing(d, TensorElement({(0, 1): ONE})) == ONE
    assert pairing(d, TensorElement({(1, 0): ONE})) == ZERO


def test_pairing_reproduces_deformation_constant():
    # the square of the first dual generator evaluated on the diagonal lift
    zhat = TensorElement({(0, 0): ONE, (1, 1): ONE})
    assert pairing(TensorElement({(0, 0): ONE}), zhat) == ONE


def test_pairing_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        pairing(TensorElement({(0,): ONE}), TensorElement({(0, 1): ONE}))


def test_pairing_matrix_is_identity():
    for degree in (1, 2, 3):
        words = words_of_length(2, degree)
        for w1 in words:
            for w2 in words:
                value = pairing(TensorElement.monomial(w1),
                                TensorElement.monomial(w2))
                assert value == (ONE if w1 == w2 else ZERO)


@given(small_scalar, small_scalar)
def test_pairing_bilinear(a, b):
    d1 = TensorElement({(0, 1): ONE})
    d2 = TensorElement({(1, 1): ONE})
    primal = TensorElement({(0, 1): a, (1, 1): b})
    combo = d1 + d2
    assert pairing(combo, primal) == a + b


words_of_two_letters = st.sampled_from([(), (0,), (1,), (0, 1), (1, 0), (0, 0)])
tensor_elements = st.dictionaries(words_of_two_letters, small_scalar).map(TensorElement)


@given(tensor_elements, tensor_elements)
def test_concat_sums_as_its_inline_loop_did(left, right):
    """Words of mixed lengths collide, (0,) + (1,) = (0, 1) + (), so terms
    add up and cancel; the kernel gives the old loop's terms in its key
    order."""
    got = left.concat(right).terms
    assert list(got.items()) == list(ref_concat_terms(left, right).items())


def test_tensor_element_basics():
    t = TensorElement({(0,): ONE, (1,): MINUS_ONE})
    assert t.degree() == 1
    assert (t - t) == TensorElement()
    product = t.concat(t)
    assert product.terms[(0, 1)] == MINUS_ONE
    assert TensorElement({(0, 1): ONE}).max_word() == (0, 1)
    renamed = t.rename({0: 2, 1: 3})
    assert set(renamed.terms) == {(2,), (3,)}
