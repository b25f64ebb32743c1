"""Bounded-degree rewriting for inhomogeneous quadratic quotients.

Relations f - c_f are oriented into rules lhs -> rhs with lhs the
deglex-largest word, after a full Gaussian interreduction over the words
appearing in the input, so that left-hand sides are distinct and no rule's
right-hand side contains another rule's left-hand side.  Completion
resolves overlap ambiguities up to a degree bound, adding oriented rules
for every critical pair that does not already reduce to zero; for the PBW
deformations this package builds, all overlaps resolve at degree 3 and the
resulting normal words form a finite basis.

Reduction always replaces a word by deglex-smaller words, so normal forms
terminate; confluence up to the completion bound makes them unique.
"""

from __future__ import annotations

from .errors import (
    CompletionDiverged,
    DimensionMismatch,
    InfiniteDimensional,
    NotConfluent,
    NotOrientable,
)
from .exactlin import ONE, TensorElement, add_scaled, deglex_key, rref_rows

RULE_CAP = 512


class RewriteRule:
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = tuple(lhs)
        self.rhs = rhs
        for word in rhs.terms:
            if deglex_key(word) >= deglex_key(self.lhs):
                raise NotOrientable("rule does not descend in deglex order")

    def as_element(self):
        return TensorElement.monomial(self.lhs) - self.rhs

    def __repr__(self):
        return f"RewriteRule({self.lhs} -> {dict(self.rhs.items())})"


def _interreduce(elements, min_lhs_degree=2):
    """Gaussian interreduction; returns oriented rules keyed by lhs."""
    elements = [e for e in elements if e]
    if not elements:
        return {}
    support = sorted({w for e in elements for w in e.terms}, key=deglex_key, reverse=True)
    col_of = {w: i for i, w in enumerate(support)}
    basis, pivots = rref_rows(
        [{col_of[w]: c for w, c in e.terms.items()} for e in elements])
    rules = {}
    for row, p in zip(basis, pivots):
        lhs = support[p]
        if len(lhs) < min_lhs_degree:
            raise NotOrientable(
                f"leading-term elimination degenerates to a degree-{len(lhs)} lead"
            )
        rhs = TensorElement({support[j]: -c for j, c in row.items() if j != p})
        rules[lhs] = rhs
    return rules


class RewriteSystem:
    """An oriented rule set over a fixed alphabet."""

    __slots__ = ("rules", "alphabet", "confluent_up_to", "_nf_cache", "_lhs_lengths")

    def __init__(self, rules, alphabet, confluent_up_to=0):
        self.rules = dict(rules)
        self.alphabet = tuple(alphabet)
        self.confluent_up_to = confluent_up_to
        self._nf_cache = {(): TensorElement.unit()}
        self._lhs_lengths = sorted({len(l) for l in self.rules}) if self.rules else []

    @property
    def nletters(self):
        return len(self.alphabet)

    def rule_list(self):
        return [RewriteRule(lhs, rhs) for lhs, rhs in
                sorted(self.rules.items(), key=lambda kv: deglex_key(kv[0]))]

    def _find_redex(self, word):
        rules = self.rules
        for pos in range(len(word)):
            for length in self._lhs_lengths:
                if pos + length > len(word):
                    break
                sub = word[pos:pos + length]
                if sub in rules:
                    return pos, length, sub
        return None

    def _nf_word(self, word):
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        redex = self._find_redex(word)
        if redex is None:
            result = TensorElement.monomial(word)
        else:
            pos, length, sub = redex
            prefix, suffix = word[:pos], word[pos + length:]
            acc = {}
            for rhs_word, coeff in self.rules[sub].terms.items():
                add_scaled(acc, self._nf_word(prefix + rhs_word + suffix).terms,
                           coeff)
            result = TensorElement(acc)
        self._nf_cache[word] = result
        return result

    def reduce(self, element):
        """Normal form without the confluence-bound guard (internal use)."""
        acc = {}
        for word, coeff in element.terms.items():
            add_scaled(acc, self._nf_word(word).terms, coeff)
        return TensorElement(acc)

    def is_normal(self, word):
        return self._find_redex(word) is None


def orient(relations, alphabet):
    """Orient a list of tensor relations into a rewrite system."""
    rules = _interreduce(list(relations))
    return RewriteSystem(rules, alphabet)


def _overlaps(u, v):
    """Proper overlap words u[:k-cut] glued with v, by shared border length."""
    out = []
    top = min(len(u), len(v))
    for k in range(1, top):
        if u[len(u) - k:] == v[:k]:
            out.append(u + v[k:])
    return out


def complete(system, maxdeg):
    """Resolve all critical pairs of degree <= maxdeg."""
    if maxdeg < 3:
        raise ValueError("completion bound must be at least 3")
    equations = [rule.as_element() for rule in system.rule_list()]
    while True:
        rules = _interreduce(equations, min_lhs_degree=1)
        if len(rules) > RULE_CAP:
            raise CompletionDiverged(f"rule count exceeded {RULE_CAP}")
        work = RewriteSystem(rules, system.alphabet)
        new_equation = None
        lhs_list = sorted(rules, key=deglex_key)
        for u in lhs_list:
            for v in lhs_list:
                critical = []
                for word in _overlaps(u, v):
                    if len(word) <= maxdeg:
                        left = rules[u].concat(TensorElement.monomial(word[len(u):]))
                        right = TensorElement.monomial(
                            word[:len(word) - len(v)]).concat(rules[v])
                        critical.append((left, right))
                if v != u and len(v) < len(u):
                    for pos in range(len(u) - len(v) + 1):
                        if u[pos:pos + len(v)] == v:
                            right = TensorElement.monomial(u[:pos]).concat(
                                rules[v]).concat(
                                TensorElement.monomial(u[pos + len(v):]))
                            critical.append((rules[u], right))
                for left, right in critical:
                    diff = work.reduce(left) - work.reduce(right)
                    if diff:
                        new_equation = diff
                        break
                if new_equation is not None:
                    break
            if new_equation is not None:
                break
        if new_equation is None:
            return RewriteSystem(rules, system.alphabet, confluent_up_to=maxdeg)
        if not new_equation.max_word():
            raise NotOrientable("completion derived 1 = 0: inconsistent relations")
        equations = [TensorElement.monomial(l) - r for l, r in rules.items()]
        equations.append(new_equation)


def rule_elements(system):
    """The elements lhs - rhs of the rules of ``system``, in deglex order of
    their left-hand sides.

    The rule lemma (Bergman, *The diamond lemma for ring theory*, Adv.
    Math. 29, 1978).  Let phi be the multiplicative extension of an
    assignment of the generators into an associative algebra, so that
    phi(a_1 ... a_k) = phi(a_1) ... phi(a_k), extended linearly.  If phi
    kills every element returned here, then phi(x) = phi(NF(x)) for every
    x, where NF is the reduction of ``RewriteSystem.reduce``.  Proof.  A
    reduction step replaces a term c u lhs v of x by c u rhs v, and
    phi(u lhs v) - phi(u rhs v) = phi(u) phi(lhs - rhs) phi(v) = 0 by
    multiplicativity and associativity; NF(x) is reached from x by finitely
    many steps.  No confluence is used.  So when the algebra's table on the
    normal words w is e_u e_v = NF(u v), as ``extract_algebra`` builds it,
    the linear map e_w -> phi(w) respects every product of the table:
    phi(NF(u v)) = phi(u v) = phi(u) phi(v).  ``deform.dualize_hom`` and
    ``knorrer._oracle_step`` evaluate these elements for this reason.
    """
    return tuple(rule.as_element() for rule in system.rule_list())


def normal_words(system, dim):
    """All irreducible words, by increasing deglex; there must be exactly
    ``dim`` of them, and the enumeration stops as soon as it finds more."""
    if system.confluent_up_to < 3:
        raise NotConfluent("complete the system before enumerating normal words")
    found = [()]
    level = [()]
    length = 0
    while level:
        length += 1
        if length > system.confluent_up_to:
            raise InfiniteDimensional(
                "normal words exceed the certified confluence bound")
        nxt = []
        for w in level:
            for a in range(system.nletters):
                word = w + (a,)
                if system.is_normal(word):
                    nxt.append(word)
        found.extend(nxt)
        if len(found) > dim:
            raise DimensionMismatch(f"more than {dim} normal words")
        level = nxt
    if len(found) != dim:
        raise DimensionMismatch(f"{len(found)} normal words, expected {dim}")
    return found


def extract_algebra(system, words):
    """Structure constants of the quotient on its normal ``words``, as
    ``normal_words`` enumerates them, graded by word-length parity.

    Only the rows of 1 and of the letters, e_a e_v = NF(a v), are
    rewritten.  The row of a longer word a u' is formed by the letter rule,
    L_a applied to the row of u', when it is first read
    (``algebra.LetterRuleRows``): confluence up to twice the longest word
    makes that NF(a NF(u' v)) = NF(a u' v)."""
    from .algebra import GradedAlgebra, LetterRuleRows

    if 2 * max(map(len, words)) > system.confluent_up_to:
        raise NotConfluent("products of normal words exceed the confluence bound")
    index = {w: i for i, w in enumerate(words)}
    degrees = [(len(w) % 2,) for w in words]
    labels = []
    names = system.alphabet
    for w in words:
        labels.append("1" if not w else "".join(names[a] for a in w))

    def position(w):
        k = index.get(w)
        if k is None:
            raise NotConfluent("normal form left the normal-word basis")
        return k

    short = {i: [{position(u): c for u, c in system._nf_word(w + v).terms.items()}
                 for v in words]
             for i, w in enumerate(words) if len(w) < 2}
    unit = {index[()]: ONE}
    return GradedAlgebra(labels, LetterRuleRows(words, short), unit, degrees, 1,
                         words=words)
