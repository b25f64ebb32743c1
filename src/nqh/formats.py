"""File formats: presentations, double Ore data, and twisting systems.

All files are JSON.  Scalars are strings in the canonical textual form
``p/q + p/q*i + p/q*r2 + p/q*i*r2`` (zero terms omitted, integer
denominators dropped).  Words of degree 2 are keys of the form
"gen1 gen2" (space separated).  A double Ore file carries the base
presentation plus ``p12``, ``p11`` and the four generator-image tables
``sigma`` keyed "11", "12", "21", "22".
"""

from __future__ import annotations

import json
import sys

from .errors import ParseError
from .exactlin import Scalar, TensorElement, _quote_input
from .quadratic import QuadraticPresentation
from .algebra import GradedLinMap, MatrixHom, Space, radical
from .deform import DoubleOreData, build_clifford
from .twist import GradedBasisM2, TwistingSystemM2


def _expect(obj, kind, what):
    """``obj`` if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(obj, kind):
        name = "object" if kind is dict else "array"
        raise ParseError(f"{what} must be a JSON {name}")
    return obj


def parse_scalar(text):
    if not isinstance(text, str):
        # bool is an int subclass, but a JSON true/false is not a scalar
        if isinstance(text, int) and not isinstance(text, bool):
            return Scalar(text)
        shown = repr(text)
        raise ParseError("scalar must be a string, got "
                         + (shown if len(shown) <= 40 else _quote_input(shown)))
    return Scalar.parse(text)


def _parse_word(key, presentation_names):
    parts = key.split()
    index = {name: k for k, name in enumerate(presentation_names)}
    try:
        return tuple(index[p] for p in parts)
    except KeyError as exc:
        raise ParseError(f"unknown generator in word {_quote_input(key)}") from exc


def parse_tensor(obj, names):
    """The degree-2 element whose words are the keys of ``obj``."""
    terms = {}
    for key, value in obj.items():
        word = _parse_word(key, names)
        if len(word) != 2:
            raise ParseError(f"word {_quote_input(key)} must have degree 2")
        if word in terms:
            raise ParseError(f"word {_quote_input(key)} is written twice")
        terms[word] = parse_scalar(value)
    return TensorElement(terms)


def parse_presentation(doc):
    if "generators" not in _expect(doc, dict, "a presentation"):
        raise ParseError("missing generators")
    names = doc["generators"]
    if isinstance(names, str):
        raise ParseError("generators must be a list of names, not a string")
    _expect(names, list, "generators")
    if not names or not all(isinstance(n, str) for n in names):
        raise ParseError("generators must be a nonempty list of names")
    for name in names:
        # words are split on whitespace, so such a name could never be read
        if name.split() != [name]:
            raise ParseError(f"generator name {_quote_input(name)} is empty"
                             " or holds whitespace")
    relations = [parse_tensor(_expect(rel, dict, "a relation"), names)
                 for rel in _expect(doc.get("relations", []), list, "relations")]
    try:
        presentation = QuadraticPresentation(names, relations)
    except Exception as exc:
        raise ParseError(f"bad presentation: {exc}") from exc
    central = None
    if "central" in doc and doc["central"] is not None:
        central = parse_tensor(_expect(doc["central"], dict, "central"), names)
    return presentation, central


def parse_double_ore(doc):
    presentation, central = parse_presentation(doc)
    try:
        p12 = parse_scalar(doc["p12"])
        p11 = parse_scalar(doc["p11"])
        sigma_doc = _expect(doc["sigma"], dict, "sigma")
    except KeyError as exc:
        raise ParseError(f"missing double Ore field: {exc}") from exc
    space = Space(presentation.ngens)
    tables = []
    for i in (1, 2):
        row = []
        for j in (1, 2):
            key = f"{i}{j}"
            if key not in sigma_doc:
                raise ParseError(f"missing sigma table {key}")
            cols = [{} for _ in range(space.dim)]
            for src, image in _expect(sigma_doc[key], dict,
                                      f"sigma table {key}").items():
                if src not in presentation.generators:
                    raise ParseError(f"unknown generator {_quote_input(src)} in sigma {key}")
                col = cols[presentation.index_of(src)]
                what = f"sigma {key} image of {_quote_input(src)}"
                for dst, coeff in _expect(image, dict, what).items():
                    if dst not in presentation.generators:
                        raise ParseError(
                            f"unknown generator {_quote_input(dst)} in sigma {key}")
                    col[presentation.index_of(dst)] = parse_scalar(coeff)
            # no zero stored: map equality needs it
            row.append(GradedLinMap(space, space, [
                {b: c for b, c in col.items() if c} for col in cols]))
        tables.append(row)
    data = DoubleOreData(presentation, p12, p11, MatrixHom(tables))
    return data, central


def parse_twist_file(doc):
    """A twisting-system file: the deformation defining E, the graded basis
    matrices, and the two theta tables over E's serialized basis labels.

    The basis and both theta blocks are shape-checked before E is built;
    only the label lookups need E.
    """
    if "algebra" not in _expect(doc, dict, "a twisting-system file"):
        raise ParseError("missing algebra block")
    presentation, central = parse_presentation(doc["algebra"])
    if central is None:
        raise ParseError("the algebra block needs a central element")
    try:
        members = _expect(doc["basis"], dict, "basis")
        basis = GradedBasisM2({
            (0, 1): _matrix2(members["I0_1"]),
            (0, 2): _matrix2(members["I0_2"]),
            (1, 1): _matrix2(members["I1_1"]),
            (1, 2): _matrix2(members["I1_2"]),
        })
    except KeyError as exc:
        raise ParseError(f"missing basis member: {exc}") from exc
    blocks = [_theta_block(doc, name) for name in ("theta0", "theta1")]
    clifford = build_clifford(presentation, central)
    E = clifford.algebra
    label_index = {lbl: k for k, lbl in enumerate(E.labels)}

    def index(label):
        if label not in label_index:
            raise ParseError(f"unknown basis label {_quote_input(label)}")
        return label_index[label]

    tables = []
    for block in blocks:
        entries = []
        for block_row in block:
            row = []
            for mapping in block_row:
                cols = [dict() for _ in range(E.dim)]
                for src, image in mapping.items():
                    col = {index(dst): c for dst, c in image.items()}
                    # no zero stored: map equality needs it
                    cols[index(src)] = {k: c for k, c in col.items() if c}
                row.append(GradedLinMap(E, E, cols))
            entries.append(row)
        tables.append(MatrixHom(entries))
    return TwistingSystemM2(E, tuple(tables), basis), clifford


def _theta_block(doc, name):
    """The 2x2 table ``name`` of a twisting-system file, each entry as
    {source label: {target label: Scalar}}."""
    if name not in doc:
        raise ParseError(f"missing table {name}")
    block = _expect(doc[name], list, name)
    if len(block) != 2 or any(len(_expect(r, list, name)) != 2 for r in block):
        raise ParseError(f"{name} must be a 2x2 table")
    entries = []
    for block_row in block:
        row = []
        for entry in block_row:
            mapping = {}
            for src, image in _expect(entry, dict, f"{name} entry").items():
                image = _expect(image, dict, f"{name} image of {_quote_input(src)}")
                mapping[src] = {dst: parse_scalar(c) for dst, c in image.items()}
            row.append(mapping)
        entries.append(row)
    return entries


def _matrix2(rows):
    _expect(rows, list, "a basis member")
    if len(rows) != 2 or any(len(_expect(r, list, "a basis member row")) != 2
                             for r in rows):
        raise ParseError("basis members must be 2x2")
    return tuple(tuple(parse_scalar(x) for x in row) for row in rows)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"bad JSON in {path}: arrays or objects nested too"
                         " deeply") from exc
    except ValueError as exc:
        # an integer literal past CPython's conversion limit, whose message
        # tells a program how to raise the limit
        raise ParseError(f"bad JSON in {path}: an integer literal has more than"
                         f" {sys.get_int_max_str_digits()} digits") from exc


# ---------------------------------------------------------------------------
# serialization helpers


def presentation_doc(presentation):
    names = presentation.generators
    rels = []
    for element in presentation.relation_elements():
        rels.append({" ".join(names[a] for a in word): coeff.text()
                     for word, coeff in element.items()})
    return {"generators": list(names), "relations": rels}


def algebra_summary(clifford):
    """Deterministic summary lines and JSON payload for a deformation from
    ``build_clifford``, with its radical computed once for both.  It is
    strongly graded: ``build_clifford`` raises otherwise."""
    algebra = clifford.algebra
    even = len(algebra.component_indices((0,)))
    odd = len(algebra.component_indices((1,)))
    rad = radical(algebra).dim
    lines = [
        f"dimension: {algebra.dim}",
        f"component dims: even {even}, odd {odd}",
        f"radical dim: {rad}",
        "strongly graded: yes",
        "basis: " + ", ".join(algebra.labels),
    ]
    payload = {"dim": algebra.dim, "radical": rad, "strongly_graded": True,
               "basis": list(algebra.labels)}
    return lines, payload
