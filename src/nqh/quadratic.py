"""Quadratic presentations T(V)/(R), graded dimensions, and quadratic duals.

A presentation stores its relation space as an RREF subspace of V (x) V in
word coordinates, so two presentations with the same generators are equal
exactly when their relation subspaces coincide.

Graded components are built degree by degree from the recurrence

    A_n = (A_{n-1} (x) V) / image(A_{n-2} (x) R)

(Polishchuk-Positselski, *Quadratic Algebras*, ch. 1).  It holds because the
degree-n piece of the ideal is I_n = I_{n-1} (x) V + V^(x)(n-2) (x) R, and
V^(x)(n-2) is spanned modulo I_{n-2} by the basis words of A_{n-2}.  Degree n
keeps its basis words, a map from their word indices to positions, and one
sparse eliminator over the words w a with w a basis word of A_{n-1} and a a
letter; the eliminator's rows are the normal forms of u (x) r for u a basis
word of A_{n-2} and r a relation.  The ambient is dim A_{n-1} * g columns
instead of g^n.  Normal forms are memoised per word and computed as
nf_n(w) = reduce(nf_{n-1}(w[:-1]) (x) w[-1]).

Every eliminator pivots on the lex-smallest word of a row, and lex order on
words of one length is compatible with concatenation on both sides.  So a
word is a pivot here exactly when it is the smallest word of some element of
I_n: the basis words are the words that lead no element of I_n, and the
normal form of a tensor is its unique representative supported on them.
Both depend only on I_n and the word order, not on how I_n was spanned.

PBW certificate.  Call a row u (x) r plain when u a is a basis word of
A_{n-1}, with a b the lead (smallest word) of the relation r, and an
overlap row otherwise.  Degree 3 inserts every row and counts the plain
ones; the presentation is certified PBW exactly when the degree-3 rank
equals that count.  From degree 4 on, a certified presentation inserts only
its plain rows and never forms an overlap row; an uncertified one keeps
every row.  Proof that the plain rows span the image of A_{n-2} (x) R:

- A plain row leads at the column (u a, b) with coefficient 1.  Its other
  terms come from words u a' b' > u a b of r, and the normal form of u a'
  lies on words >= u a', so they all sit at larger columns.  Distinct
  (u, r) give distinct (u a, b), since the leads of the RREF rows are
  distinct, so the plain rows are independent.
- Call a word lead-avoiding when no relation lead is a subword of it.  In
  degree 3, g dim A_2 - #plain counts the 3-words x y z with neither x y
  nor y z a lead, so the certificate says dim A_3 = #lead-avoiding
  3-words: the lead-avoiding 3-words are independent modulo I_3.  Every
  ambiguity of a quadratic rewriting system lies in degree 3, so by the
  diamond lemma (Bergman, Adv. Math. 29, 1978; Polishchuk-Positselski,
  ch. 4) the relations are then a Groebner basis: for every n the basis
  words of A_n are the lead-avoiding n-words, and
  dim A_n = g dim A_{n-1} - #plain, the same count one degree up.
- So the plain rows are independent, lie in the image, and number its
  rank: they span it.  The span is I_n's, so by the paragraph above the
  basis words and normal forms are those of the full row set.

Lead enumeration.  From degree 4 on, a certified presentation reads its
basis words off the leads, forming no row: they are the words w b, for w a
basis word of A_{n-1} in order and b a letter, with w[-1] b not a lead.
Each plain row leads at (u a, b) with coefficient 1, and the leads are
distinct, so each enters the eliminator as a fresh pivot at its own lead.
Basis words are closed under prefixes (a lead w' of f in I_{n-2} makes
w' b the lead of f (x) b in I_{n-1}), so (u, r) runs over the plain rows
exactly when u a runs over the basis words w of A_{n-1} with w[-1] = a.
The pivot set is therefore {w b : w a basis word of A_{n-1}, w[-1] b a
lead}, and its complement among the words w b is the enumerated list, in
the same order.  The eliminator, with the same plain rows, is formed only
when a normal form in that degree is asked for.
"""

from __future__ import annotations

from .errors import BoundExceeded, DegreeMismatch, DimensionMismatch
from .exactlin import (
    ONE,
    SparseEliminator,
    Subspace,
    TensorElement,
    nullspace,
    word_index,
    words_of_length,
)

DEGREE_BOUND = 8
# The most candidate words g dim A_{n-1} that one component may have: about
# 20 times the most that any registry, benchmark, big:<=8 or test input
# reaches (5,082)
COMPONENT_BUDGET = 100_000


class _Component:
    """One graded component: basis words, their positions keyed by word
    index, the eliminator of the relation image, and memoised normal forms
    of words ({word index: coefficient} over the basis words).  The
    eliminator may be given as a function that forms it on first use."""

    __slots__ = ("words", "position", "_elim", "normal_forms")

    def __init__(self, words, g, elim):
        self.words = words
        self.position = {word_index(w, g): k for k, w in enumerate(words)}
        self._elim = elim
        self.normal_forms = {}

    @property
    def elim(self):
        if callable(self._elim):
            self._elim = self._elim()
        return self._elim


class QuadraticPresentation:
    """Generators of degree 1 plus a subspace of quadratic relations."""

    __slots__ = ("generators", "relations", "_components", "_pbw")

    def __init__(self, generators, relations):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise DimensionMismatch("generator names must be unique")
        g = len(generators)
        if isinstance(relations, Subspace):
            if relations.ambient != g * g:
                raise DimensionMismatch("relation subspace has wrong ambient dimension")
            space = relations
        else:
            rows = []
            for rel in relations:
                deg = rel.degree()
                if deg != 2:
                    raise DegreeMismatch("relations must be homogeneous of degree 2")
                rows.append(rel.coordinates(g, 2))
            space = Subspace.from_rows(rows, g * g)
        self.generators = generators
        self.relations = space
        self._components = []
        self._pbw = False

    @property
    def ngens(self):
        return len(self.generators)

    def relation_elements(self):
        """RREF basis of the relation space as tensor elements."""
        g = self.ngens
        return [TensorElement.from_coordinates(row, g, 2) for row in self.relations.basis]

    def index_of(self, name):
        return self.generators.index(name)

    def _component(self, n):
        if n < 0:
            raise DegreeMismatch("negative degree")
        components = self._components
        while len(components) <= n:
            components.append(self._next_component(len(components)))
        return components[n]

    def _next_component(self, n):
        """Degree n from degrees n-1 and n-2, which must already be built;
        from degree 4 on, a PBW-certified presentation reads its words off
        the relation leads (module docstring).  BoundExceeded, before any
        word is built, when the g dim A_{n-1} candidate words pass
        COMPONENT_BUDGET."""
        g = self.ngens
        candidates = g * len(self._components[n - 1].words) if n else 1
        if candidates > COMPONENT_BUDGET:
            raise BoundExceeded(
                f"degree {n} has {candidates} candidate words, past the"
                f" component budget {COMPONENT_BUDGET}")
        if n < 2:
            comp = _Component(words_of_length(g, n), g, SparseEliminator())
            comp.normal_forms = {w: {word_index(w, g): ONE} for w in comp.words}
            return comp
        previous = self._components[n - 1].words
        if self._pbw:
            leads = {min(row) for row in self.relations.basis}
            words = [w + (b,) for w in previous for b in range(g)
                     if w[-1] * g + b not in leads]
            return _Component(words, g, lambda: self._eliminator(n)[0])
        elim, plain = self._eliminator(n)
        if n == 3:
            self._pbw = elim.rank == plain
        words = [w + (b,) for w in previous for b in range(g)
                 if word_index(w, g) * g + b not in elim.pivots]
        return _Component(words, g, elim)

    def _eliminator(self, n):
        """The degree-n eliminator of the rows u (x) r and the number of
        its plain rows; a PBW-certified presentation forms only the plain
        ones (module docstring)."""
        g = self.ngens
        elim = SparseEliminator()
        relations = [(min(row) // g, [(divmod(idx, g), c) for idx, c in row.items()])
                     for row in self.relations.basis]
        previous = self._components[n - 1].position
        plain = 0
        for u in self._components[n - 2].words:
            prefix = word_index(u, g) * g
            for a, rel in relations:
                if prefix + a in previous:
                    plain += 1
                elif self._pbw:
                    continue
                elim.add(self._image((u + ab, c) for ab, c in rel))
        return elim, plain

    def _image(self, terms):
        """The image of sum c * w in A_{n-1} (x) V, for (w, c) pairs with
        len(w) = n >= 1: sum c * nf_{n-1}(w[:-1]) (x) w[-1], keyed by the word
        indices that are the columns of the degree-n eliminator."""
        g = self.ngens
        row = {}
        for w, c in terms:
            for col, v in self._normal_form(w[:-1]).items():
                col = col * g + w[-1]
                acc = row.get(col)
                row[col] = c * v if acc is None else acc + c * v
        return row

    def _normal_form(self, word):
        """nf_n(w) = reduce(nf_{n-1}(w[:-1]) (x) w[-1]), memoised per word."""
        comp = self._components[len(word)]
        nf = comp.normal_forms.get(word)
        if nf is None:
            nf = comp.elim.reduce(self._image([(word, ONE)]))
            comp.normal_forms[word] = nf
        return nf

    def _residue(self, element, n):
        """Normal form of a degree-n tensor, keyed by word index."""
        comp = self._component(n)
        if any(len(w) != n for w in element.terms):
            raise DegreeMismatch("element is not homogeneous of degree n")
        if n == 0:
            return {0: c for c in element.terms.values() if c}
        return comp.elim.reduce(self._image(element.terms.items()))

    def component_dim(self, n):
        return len(self._component(n).words)

    def component_basis_words(self, n):
        """Words giving coset representatives of the degree-n component.

        These are the degree-n words, in deglex order, that are not the
        smallest word of any element of the degree-n piece of the ideal;
        the module docstring explains why the recurrence finds exactly them.
        """
        return list(self._component(n).words)

    def reduce_mod_ideal(self, element, n):
        """Sparse coordinates of a degree-n tensor in the component basis."""
        position = self._component(n).position
        return {position[col]: coeff
                for col, coeff in self._residue(element, n).items()}

    def in_ideal(self, element, n):
        return not self._residue(element, n)

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticPresentation)
            and self.generators == other.generators
            and self.relations == other.relations
        )

    def __repr__(self):
        return f"QuadraticPresentation({self.generators}, dim R={self.relations.dim})"


def hilbert_profile(presentation, upto):
    if upto > DEGREE_BOUND:
        raise BoundExceeded(
            f"degree {upto} exceeds the configured bound {DEGREE_BOUND}")
    return [presentation.component_dim(n) for n in range(upto + 1)]


def koszul_dual(presentation):
    """The quadratic dual: starred generators, relations the orthogonal
    complement of R under the straight word pairing."""
    g = presentation.ngens
    complement = nullspace(presentation.relations.basis, g * g)
    dual_names = tuple(name + "*" for name in presentation.generators)
    return QuadraticPresentation(dual_names, complement)


def check_central(presentation, lift):
    """Whether the degree-2 class of the lift commutes with every generator."""
    if lift.degree() not in (2, None):
        raise DegreeMismatch("central lift must have degree 2")
    if not lift:
        return True
    g = presentation.ngens
    for v in range(g):
        gen = TensorElement.monomial((v,))
        diff = lift.concat(gen) - gen.concat(lift)
        if not presentation.in_ideal(diff, 3):
            return False
    return True
