import pytest

from test_cli import _twist_doc

from nqh.errors import ParseError
from nqh.exactlin import ONE, Scalar
from nqh.formats import (
    parse_double_ore,
    parse_presentation,
    parse_scalar,
    parse_tensor,
    parse_twist_file,
    presentation_doc,
)
from nqh.scenarios import EX_4_10, EX_5_9, KM1_PRESENTATION, PROP_5_10


def test_parse_scalar_accepts_int():
    assert parse_scalar(3) == Scalar(3)
    assert parse_scalar("1/2*r2") == Scalar(0, 0, 1, 0, 2)
    for value in (1.5, True, False):
        with pytest.raises(ParseError):
            parse_scalar(value)


def test_parse_presentation_round_trip():
    presentation, central = parse_presentation(KM1_PRESENTATION)
    names = presentation.generators
    doc = {**presentation_doc(presentation),
           "central": {" ".join(names[a] for a in word): coeff.text()
                       for word, coeff in central.items()}}
    again, central_again = parse_presentation(doc)
    assert again == presentation
    assert central_again == central


def test_parse_presentation_errors():
    with pytest.raises(ParseError):
        parse_presentation({})
    with pytest.raises(ParseError):
        parse_presentation({"generators": []})
    with pytest.raises(ParseError):
        parse_presentation({"generators": ["x"],
                            "relations": [{"x": "1"}]})
    with pytest.raises(ParseError):
        parse_presentation({"generators": ["x"],
                            "relations": [{"x y": "1"}]})


def test_parse_tensor_words():
    presentation, _ = parse_presentation(KM1_PRESENTATION)
    element = parse_tensor({"x1 x2": "1", "x2 x1": "-1"},
                           presentation.generators)
    assert element.terms[(0, 1)] == ONE
    assert element.terms[(1, 0)] == -ONE


def test_parse_double_ore_tables():
    for doc in (EX_4_10, EX_5_9, PROP_5_10):
        data, central = parse_double_ore(doc)
        assert data.ngens == 2
        assert central is not None
        assert len(data.sigma.entries) == 2 and len(data.sigma.entries[0]) == 2


def test_parse_double_ore_errors():
    with pytest.raises(ParseError):
        parse_double_ore(KM1_PRESENTATION)
    broken = dict(EX_4_10)
    broken["sigma"] = {"11": {}, "12": {}, "21": {}}
    with pytest.raises(ParseError):
        parse_double_ore(broken)
    broken = dict(EX_4_10)
    broken["sigma"] = {**EX_4_10["sigma"], "11": {"zz": {"x1": "1"}}}
    with pytest.raises(ParseError):
        parse_double_ore(broken)


def test_parse_twist_file_stores_no_zero_coefficient(clifford_km1):
    """An explicit "0" in a theta image is dropped, as parse_double_ore
    drops one in sigma: the file parses to the columns of the same file
    without it.  Map equality compares stored coefficients, so it needs no
    zero stored."""
    labels = clifford_km1.algebra.labels
    plain = _twist_doc(labels)
    zeros = _twist_doc(labels)
    zeros["theta1"][0][0][labels[0]][labels[1]] = "0"
    zeros["theta0"][0][1] = {labels[2]: {labels[3]: "0"}}
    tables = [parse_twist_file(doc)[0].theta for doc in (plain, zeros)]
    for table, other in zip(*tables):
        for row, other_row in zip(table.entries, other.entries):
            for entry, other_entry in zip(row, other_row):
                assert entry.cols == other_entry.cols
