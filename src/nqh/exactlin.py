"""Exact arithmetic over K = Q(i, sqrt(2)) and exact sparse linear algebra.

A scalar is stored as four integers (a0, a1, a2, a3) over a common positive
denominator d, representing

    (a0 + a1*i + a2*r2 + a3*i*r2) / d,          r2 = sqrt(2),

reduced so that gcd(a0, a1, a2, a3, d) = 1.  K is a field: every nonzero
scalar is invertible (the inverse is computed from the three Galois
conjugates i -> -i, r2 -> -r2).

Every operation returns the canonical form, and a Scalar is never changed
after it is built.  The structure constants of (+-1)-skew bases are nearly
all +-1, so the common operands take fast paths that build the canonical
result without the generic products or ``_normalize``: a product with +-1
is the other operand or its negation; a negation negates the numerators,
which keeps a canonical form canonical; a sum or difference of two scalars
with d = 1 has d = 1 and needs no gcd; and the inverse of a rational n0/d
is d/n0 with the sign moved to the numerator.  Each gives exactly the
(n, d) that the generic formula and ``_normalize`` give.

Tensor words over a finite alphabet are tuples of generator indices; the
empty tuple is the unit of the tensor algebra.  Words are ordered
degree-lexicographically: first by length, then lexicographically by index.
Free-algebra elements (TensorElement) map words to scalars with no zero
coefficients stored.  Every sparse vector of the package (a dict from keys
to scalars) is summed by one in-place kernel, ``add_scaled``, which never
stores a zero coefficient and adds or subtracts with no product when the
coefficient is +-1, so two vectors are compared by ``==``.  The one other
sum is the hot loop ``quadratic._image``, whose rows only
``SparseEliminator`` reads, and it drops zeros itself.

All elimination runs in one loop, ``SparseEliminator``: incremental rank
and membership on its row echelon rows, and, after back-substitution, the
reduced row echelon basis.  A subspace of K^n is kept as that basis, sparse
rows plus ascending pivots, which makes equality and membership canonical.
The reduced row echelon basis of a subspace U (each row 1 at its pivot, its
leftmost column, and 0 at every other pivot) is unique.  The pivots are the
leftmost columns of the nonzero vectors of U: a combination of such rows
leads at the smallest pivot among the rows it uses.  For two such bases of
U and one pivot p, the difference of their rows at p lies in U and is 0 at
every pivot, so it has no leftmost column and is 0.  So any correct
elimination returns the same rows and pivots, whatever the order and
format of its work, and a report built from them keeps its bytes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

from .errors import DegreeMismatch, DimensionMismatch, ParseError

Rational = Fraction

_UNIT_SUFFIX = ("", "*i", "*r2", "*i*r2")
# one term of a scalar: a sign, then a coefficient p or p/q, a unit or both
_SCALAR_TERM = re.compile(
    r"([+-]?)(?:([0-9]+)(?:/([0-9]+))?\*?(i\*r2|r2|i)?|\*?(i\*r2|r2|i))")
_UNIT_SLOT = {None: 0, "i": 1, "r2": 2, "i*r2": 3}


def _quote_input(text, limit=40):
    """``text`` for an error line: quoted whole when it is short, else its
    first ``limit`` characters quoted and its length, so that a hostile
    input never fills the line."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def _normalize(n0, n1, n2, n3, d):
    if d == 0:
        raise ZeroDivisionError("zero denominator")
    if d < 0:
        n0, n1, n2, n3, d = -n0, -n1, -n2, -n3, -d
    if n0 == 0 and n1 == 0 and n2 == 0 and n3 == 0:
        return (0, 0, 0, 0, 1)
    if d == 1:
        return (n0, n1, n2, n3, 1)
    g = gcd(gcd(abs(n0), abs(n1)), gcd(abs(n2), abs(n3)))
    g = gcd(g, d)
    if g > 1:
        return (n0 // g, n1 // g, n2 // g, n3 // g, d // g)
    return (n0, n1, n2, n3, d)


_ONE_N = (1, 0, 0, 0)
_MINUS_ONE_N = (-1, 0, 0, 0)


def _canonical(n, d):
    """A Scalar from an (n, d) that is already in canonical form."""
    s = object.__new__(Scalar)
    s.n = n
    s.d = d
    return s


class Scalar:
    """An element of K = Q(i, sqrt(2)) in canonical form."""

    __slots__ = ("n", "d")

    def __init__(self, n0=0, n1=0, n2=0, n3=0, d=1):
        n0, n1, n2, n3, d = _normalize(int(n0), int(n1), int(n2), int(n3), int(d))
        self.n = (n0, n1, n2, n3)
        self.d = d

    @classmethod
    def _raw(cls, n, d):
        s = object.__new__(cls)
        n0, n1, n2, n3, d = _normalize(n[0], n[1], n[2], n[3], d)
        s.n = (n0, n1, n2, n3)
        s.d = d
        return s

    @classmethod
    def of(cls, value):
        """Coerce an int, Fraction or Scalar into K."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, int):
            return cls(value)
        if isinstance(value, Fraction):
            return cls(value.numerator, 0, 0, 0, value.denominator)
        raise TypeError(f"cannot coerce {value!r} into K")

    @classmethod
    def from_rationals(cls, c0, c1=0, c2=0, c3=0):
        c0, c1, c2, c3 = (Fraction(c) for c in (c0, c1, c2, c3))
        d = 1
        for c in (c0, c1, c2, c3):
            d = d * c.denominator // gcd(d, c.denominator)
        return cls(
            c0.numerator * (d // c0.denominator),
            c1.numerator * (d // c1.denominator),
            c2.numerator * (d // c2.denominator),
            c3.numerator * (d // c3.denominator),
            d,
        )

    def as_rationals(self):
        return tuple(Fraction(c, self.d) for c in self.n)

    def is_rational(self):
        return self.n[1] == 0 and self.n[2] == 0 and self.n[3] == 0

    def rational_part(self):
        return Fraction(self.n[0], self.d)

    def __bool__(self):
        return self.n != (0, 0, 0, 0)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                other = Scalar.of(other)
            else:
                return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        # equal to the hash of the int or Fraction that compares equal
        if self.is_rational():
            return hash(Fraction(self.n[0], self.d))
        return hash((self.n, self.d))

    def __neg__(self):
        a = self.n
        return _canonical((-a[0], -a[1], -a[2], -a[3]), self.d)

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.of(other)
        a, b = self.n, other.n
        da, db = self.d, other.d
        if da == 1 and db == 1:
            return _canonical((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]), 1)
        if da == db:
            return Scalar._raw((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]), da)
        return Scalar._raw(
            (a[0] * db + b[0] * da, a[1] * db + b[1] * da,
             a[2] * db + b[2] * da, a[3] * db + b[3] * da),
            da * db,
        )

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.of(other)
        a, b = self.n, other.n
        da, db = self.d, other.d
        if da == 1 and db == 1:
            return _canonical((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]), 1)
        if da == db:
            return Scalar._raw((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]), da)
        return Scalar._raw(
            (a[0] * db - b[0] * da, a[1] * db - b[1] * da,
             a[2] * db - b[2] * da, a[3] * db - b[3] * da),
            da * db,
        )

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.of(other)
        if other.d == 1:
            if other.n == _ONE_N:
                return self
            if other.n == _MINUS_ONE_N:
                return -self
        if self.d == 1:
            if self.n == _ONE_N:
                return other
            if self.n == _MINUS_ONE_N:
                return -other
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        return Scalar._raw(
            (
                a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
                a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
                a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
                a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
            ),
            self.d * other.d,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return Scalar.of(other).__sub__(self)

    def conj_i(self):
        a = self.n
        return Scalar._raw((a[0], -a[1], a[2], -a[3]), self.d)

    def conj_r2(self):
        a = self.n
        return Scalar._raw((a[0], a[1], -a[2], -a[3]), self.d)

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in K")
        if self.is_rational():
            # 1 / (n0 / d) = d / n0, canonical once the sign moves up
            n0, d = self.n[0], self.d
            if n0 < 0:
                n0, d = -n0, -d
            return _canonical((d, 0, 0, 0), n0)
        c1 = self.conj_i()
        c2 = self.conj_r2()
        c3 = c1.conj_r2()
        p = c1 * c2 * c3
        norm = self * p
        if not (norm.is_rational() and norm):
            raise ArithmeticError(
                f"norm of {self.text()} is {norm.text()}, not a nonzero rational")
        nr = norm.rational_part()
        # p / nr
        return Scalar._raw(
            tuple(c * nr.denominator for c in p.n), p.d * nr.numerator
        )

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.of(other)
        return self * other.inverse()

    def text(self):
        """Canonical textual form, terms ordered 1, i, r2, i*r2."""
        if not self:
            return "0"
        parts = []
        for k, c in enumerate(self.n):
            if c == 0:
                continue
            f = Fraction(c, self.d)
            num = f"{f.numerator}" if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
            parts.append(num + _UNIT_SUFFIX[k])
        return " + ".join(parts)

    @classmethod
    def parse(cls, text):
        """Parse the textual form emitted by :meth:`text`.

        The grammar, whitespace ignored: terms joined by ``+`` or ``-``,
        each an optional sign, an optional integer or ``p/q`` coefficient,
        an optional ``*`` and an optional unit ``i``, ``r2`` or ``i*r2``,
        with a coefficient or a unit; so ``i``, ``-r2`` and ``1 + -2*i``
        parse.  Anything else, exponents and decimals included, raises
        ParseError.
        """
        s = "".join(text.split())
        coeffs = [Fraction(0)] * 4
        pos, sign = 0, 1
        while True:
            term = _SCALAR_TERM.match(s, pos)
            if term is None:
                raise ParseError(f"bad scalar {_quote_input(text)}")
            term_sign, num, den = term.group(1, 2, 3)
            try:
                value = Fraction(int(num or 1), int(den or 1))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad scalar {_quote_input(text)}") from exc
            if term_sign == "-":
                value = -value
            coeffs[_UNIT_SLOT[term.group(4) or term.group(5)]] += sign * value
            pos = term.end()
            if pos == len(s):
                return cls.from_rationals(*coeffs)
            if s[pos] not in "+-":
                raise ParseError(f"bad scalar {_quote_input(text)}")
            sign = 1 if s[pos] == "+" else -1
            pos += 1

    def __repr__(self):
        return f"Scalar({self.text()})"


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)
R2 = Scalar(0, 0, 1)
IR2 = Scalar(0, 0, 0, 1)
HALF = Scalar(1, 0, 0, 0, 2)
SQRT2_OVER_2 = Scalar(0, 0, 1, 0, 2)


def _rational_sqrt(x):
    """Square root of a Fraction within Q, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    pn, pd = x.numerator, x.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def _sqrt_in_Qi(u, v):
    """Square root of u + v*i with u, v in Q, as a pair (x, y), or None."""
    u, v = Fraction(u), Fraction(v)
    if v == 0:
        r = _rational_sqrt(u)
        if r is not None:
            return (r, Fraction(0))
        r = _rational_sqrt(-u)
        if r is not None:
            return (Fraction(0), r)
        return None
    r = _rational_sqrt(u * u + v * v)
    if r is None:
        return None
    for root in (r, -r):
        t = (u + root) / 2
        x = _rational_sqrt(t)
        if x is not None and x != 0:
            return (x, v / (2 * x))
    return None


def sqrt_in_K(s):
    """A square root of ``s`` in K, or None when none exists in K.

    Works down the tower K = Q(i)(r2): writing s = s0 + s1*r2 with
    s0, s1 in Q(i), a root a + b*r2 satisfies a^2 + 2b^2 = s0 and
    2ab = s1.
    """
    s = Scalar.of(s) if not isinstance(s, Scalar) else s
    c0, c1, c2, c3 = s.as_rationals()
    # s0 = c0 + c1*i,  s1 = c2 + c3*i
    if c2 == 0 and c3 == 0:
        root = _sqrt_in_Qi(c0, c1)
        if root is not None:
            return Scalar.from_rationals(root[0], root[1], 0, 0)
        # try a pure r2-multiple root: (b*r2)^2 = 2 b^2
        root = _sqrt_in_Qi(c0 / 2, c1 / 2)
        if root is not None:
            return Scalar.from_rationals(0, 0, root[0], root[1])
        return None
    # d = sqrt(s0^2 - 2 s1^2) in Q(i)
    d_re = c0 * c0 - c1 * c1 - 2 * (c2 * c2 - c3 * c3)
    d_im = 2 * c0 * c1 - 4 * c2 * c3
    d = _sqrt_in_Qi(d_re, d_im)
    if d is None:
        return None
    for sign in (1, -1):
        t_re = (c0 + sign * d[0]) / 2
        t_im = (c1 + sign * d[1]) / 2
        a = _sqrt_in_Qi(t_re, t_im)
        if a is None:
            continue
        a_sc = Scalar.from_rationals(a[0], a[1], 0, 0)
        if not a_sc:
            continue
        b_sc = Scalar.from_rationals(c2, c3, 0, 0) / (Scalar(2) * a_sc)
        root = a_sc + b_sc * R2
        if root * root == s:
            return root
    return None


# ---------------------------------------------------------------------------
# sparse vectors, words and free-algebra elements


def add_scaled(out, vec, coeff):
    """out += coeff * vec in place, for sparse dicts key -> Scalar; returns out.

    A key whose sum cancels to zero is dropped and a zero product is never
    stored, so a dict built by this kernel from {} holds no zero
    coefficient and two such dicts are equal exactly when their vectors
    are.  A zero ``coeff`` leaves ``out`` unchanged.  A ``coeff`` of 1 or
    -1 adds or subtracts each entry with no multiplication.
    """
    if not coeff:
        return out
    if coeff.d == 1 and coeff.n == _ONE_N:
        for k, v in vec.items():
            acc = out.get(k)
            acc = v if acc is None else acc + v
            if acc:
                out[k] = acc
            else:
                out.pop(k, None)
        return out
    if coeff.d == 1 and coeff.n == _MINUS_ONE_N:
        for k, v in vec.items():
            acc = out.get(k)
            acc = -v if acc is None else acc - v
            if acc:
                out[k] = acc
            else:
                out.pop(k, None)
        return out
    for k, v in vec.items():
        acc = out.get(k)
        acc = v * coeff if acc is None else acc + v * coeff
        if acc:
            out[k] = acc
        else:
            out.pop(k, None)
    return out


def deglex_key(word):
    return (len(word), word)


def word_index(word, nletters):
    idx = 0
    for letter in word:
        idx = idx * nletters + letter
    return idx


def words_of_length(nletters, length):
    """All words of a given length in index (= deglex) order."""
    if length == 0:
        return [()]
    words = [()]
    for _ in range(length):
        words = [w + (a,) for w in words for a in range(nletters)]
    return words


class TensorElement:
    """A finite K-linear combination of tensor words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for word, coeff in terms.items():
                coeff = coeff if isinstance(coeff, Scalar) else Scalar.of(coeff)
                if coeff:
                    cleaned[tuple(word)] = coeff
        self.terms = cleaned

    @classmethod
    def monomial(cls, word, coeff=ONE):
        return cls({tuple(word): coeff})

    @classmethod
    def unit(cls):
        return cls({(): ONE})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: deglex_key(kv[0]))

    def __add__(self, other):
        result = TensorElement.__new__(TensorElement)
        result.terms = add_scaled(dict(self.terms), other.terms, ONE)
        return result

    def __neg__(self):
        result = TensorElement.__new__(TensorElement)
        result.terms = {w: -c for w, c in self.terms.items()}
        return result

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        coeff = coeff if isinstance(coeff, Scalar) else Scalar.of(coeff)
        if not coeff:
            return TensorElement()
        result = TensorElement.__new__(TensorElement)
        result.terms = {w: c * coeff for w, c in self.terms.items()}
        return result

    def concat(self, other):
        """Tensor-algebra product."""
        out = {}
        for w1, c1 in self.terms.items():
            add_scaled(out, {w1 + w2: c2 for w2, c2 in other.terms.items()}, c1)
        result = TensorElement.__new__(TensorElement)
        result.terms = out
        return result

    def degree(self):
        """Common word length, or None for 0 or mixed-degree elements."""
        lengths = {len(w) for w in self.terms}
        if len(lengths) == 1:
            return lengths.pop()
        return None

    def max_word(self):
        return max(self.terms, key=deglex_key)

    def coordinates(self, nletters, length):
        """Sparse word coordinates {word index: coefficient}."""
        vec = {}
        for word, coeff in self.terms.items():
            if len(word) != length:
                raise DegreeMismatch("element is not homogeneous of the requested degree")
            vec[word_index(word, nletters)] = coeff
        return vec

    @classmethod
    def from_coordinates(cls, vec, nletters, length):
        """The element with sparse word coordinates ``vec``."""
        terms = {}
        for idx, coeff in vec.items():
            word = []
            for _ in range(length):
                idx, letter = divmod(idx, nletters)
                word.append(letter)
            terms[tuple(reversed(word))] = coeff
        return cls(terms)

    def rename(self, word_map):
        """Apply an index substitution letter-wise."""
        return TensorElement(
            {tuple(word_map[a] for a in w): c for w, c in self.terms.items()}
        )

    def text(self, names):
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.items():
            label = "1" if not word else "".join(names[a] for a in word)
            parts.append(f"({coeff.text()})*{label}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TensorElement({dict(self.items())!r})"


def pairing(dual, primal):
    """Evaluate a dual tensor on a primal tensor of the same degree.

    Word functionals multiply factor by factor in straight order, so in the
    word bases the pairing matrix is the identity and the value is a plain
    coefficient dot product.
    """
    deg_d = dual.degree()
    deg_p = primal.degree()
    if deg_d is None or deg_p is None or deg_d != deg_p:
        if dual and primal:
            raise DegreeMismatch("pairing requires equal homogeneous degrees")
    total = ZERO
    for word, coeff in dual.terms.items():
        other = primal.terms.get(word)
        if other:
            total = total + coeff * other
    return total


# ---------------------------------------------------------------------------
# linear algebra: one sparse eliminator


def _require_cancelled(row, lead):
    """A step that leaves its lead key in the row would repeat forever."""
    if lead in row:
        raise ArithmeticError(
            f"elimination step left column {lead} in the row: stored zero?")


class SparseEliminator:
    """Gaussian eliminator over sparse rows keyed by column index.

    The one elimination loop of the package.  Rows are dicts column ->
    Scalar.  Insertion reduces only until the row acquires a fresh lead
    column, its smallest (row echelon, not reduced), which keeps pivot rows
    sparse and makes rank and membership incremental; membership reduction
    cancels pivot leads until none remain.  Every pivot row is scaled to
    lead 1, so adding -row[lead] times it cancels the lead exactly.
    ``reduced_rows`` back-substitutes to the reduced row echelon basis.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        row = {c: v for c, v in row.items() if v}
        pivots = self.pivots
        while row:
            hit = None
            for col in row:
                if col in pivots and (hit is None or col < hit):
                    hit = col
            if hit is None:
                break
            add_scaled(row, pivots[hit], -row[hit])
            _require_cancelled(row, hit)
        return row

    def add(self, row):
        """Insert a row; returns True if it increased the rank."""
        row = {c: v for c, v in row.items() if v}
        pivots = self.pivots
        while row:
            lead = min(row)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                inv = row[lead].inverse()
                if inv != ONE:
                    row = {c: v * inv for c, v in row.items()}
                pivots[lead] = row
                return True
            add_scaled(row, pivot_row, -row[lead])
            _require_cancelled(row, lead)
        return False

    def contains(self, row):
        return not self.reduce(row)

    @property
    def rank(self):
        return len(self.pivots)

    def reduced_rows(self):
        """The reduced row echelon basis of the span, {lead: row}.

        Back-substitution from the highest lead down: every row above the
        current lead is already reduced, so it is 1 at its own lead and 0 at
        every other lead, and subtracting it row[col] times clears column
        col of the current row without touching any other lead.  Leads come
        out ascending and each row's columns ascending.  The pivot rows of
        the eliminator are left as they are.
        """
        reduced = {}
        for lead in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[lead])
            for col in [c for c in row if c in reduced]:
                add_scaled(row, reduced[col], -row[col])
            reduced[lead] = row
        return {lead: dict(sorted(reduced[lead].items())) for lead in sorted(reduced)}


def rref_rows(rows, ambient=None):
    """Reduced row echelon form of sparse rows; returns (basis_rows,
    pivot_columns), both in pivot order.  With ``ambient`` given, a column
    outside range(ambient) raises DimensionMismatch."""
    elim = SparseEliminator()
    for row in rows:
        if ambient is not None and row and (min(row) < 0 or max(row) >= ambient):
            raise DimensionMismatch(f"row column outside range({ambient})")
        elim.add(row)
    reduced = elim.reduced_rows()
    return tuple(reduced.values()), tuple(reduced)


class Subspace:
    """A subspace of K^ambient held as its reduced row echelon basis.

    ``basis`` holds sparse rows {column: Scalar} with no zero stored;
    ``pivots`` holds their pivot columns ascending, and ``position`` maps
    each pivot to its row.  Row k is 1 at pivots[k], its leftmost column,
    and 0 at every other pivot.  ``standard_pivots`` holds the pivots whose
    row is the standard basis vector there.  This basis
    is unique to the subspace (see the module docstring), so two subspaces
    are equal exactly when their bases are.
    """

    __slots__ = ("ambient", "basis", "pivots", "position", "standard_pivots")

    def __init__(self, ambient, basis, pivots):
        self.ambient = ambient
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)
        self.position = {p: k for k, p in enumerate(self.pivots)}
        self.standard_pivots = frozenset(
            p for p, row in zip(self.pivots, self.basis) if len(row) == 1)

    @classmethod
    def from_rows(cls, rows, ambient):
        return cls(ambient, *rref_rows(rows, ambient))

    @classmethod
    def from_eliminator(cls, elim, ambient):
        reduced = elim.reduced_rows()
        return cls(ambient, reduced.values(), reduced)

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, (), ())

    @property
    def dim(self):
        return len(self.basis)

    def reduce_with_coords(self, vec):
        """(coords, remainder) of a sparse vector: vec = sum of coords[k]
        times basis[k], plus a remainder that is 0 at every pivot, and {}
        exactly when vec lies in the subspace.  Row k is 1 at pivots[k] and
        0 at the other pivots, so coords[k] is vec's own entry there: only
        the pivots in vec's support are visited, through ``position``, in
        ascending order."""
        position = self.position
        coords = {position[c]: v for c, v in sorted(vec.items())
                  if v and c in position}
        rem = {c: v for c, v in vec.items() if v}
        for k, factor in coords.items():
            add_scaled(rem, self.basis[k], -factor)
        return coords, rem

    def coords(self, vec, message="vector lies outside the subspace"):
        """vec's coordinates {k: c} on the basis, k ascending, as
        ``reduce_with_coords`` gives them; DimensionMismatch(message) when
        vec lies outside the subspace.

        No reduction is computed when every entry of vec sits in
        ``standard_pivots``: vec is then the sum of its entries times the
        rows at those pivots, so it lies in the subspace and its entries are
        its coordinates."""
        if vec.keys() <= self.standard_pivots:
            position = self.position
            return {position[c]: v for c, v in sorted(vec.items()) if v}
        found, rem = self.reduce_with_coords(vec)
        if rem:
            raise DimensionMismatch(message)
        return found

    def reduce(self, vec):
        """Subtract the projection onto the subspace; returns the remainder."""
        return self.reduce_with_coords(vec)[1]

    def contains(self, vec):
        return not self.reduce(vec)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.pivots,
                     tuple(frozenset(row.items()) for row in self.basis)))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def nullspace(rows, ncols):
    """Kernel {v : M v = 0} of the matrix with the given sparse rows, as a
    Subspace of K^ncols; sparse rows do not carry their length.

    Each free column f gives the kernel vector that is 1 at f, -row[f] at
    the pivot of each reduced row, and 0 elsewhere.
    """
    basis, pivots = rref_rows(rows, ncols)
    kernel = {f: {f: ONE} for f in range(ncols)}
    for p, row in zip(pivots, basis):
        del kernel[p]
        for f, c in row.items():
            if f != p:
                kernel[f][p] = -c
    return Subspace.from_rows(kernel.values(), ncols)


# ---------------------------------------------------------------------------
# 2x2 scalar matrices


def matrix_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[ZERO] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            f = ai[k]
            if not f:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + f * bk[j]
    return out
