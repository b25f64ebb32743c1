import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from nqh.exactlin import ONE, Scalar, TensorElement, ZERO

settings.register_profile(
    "ci", derandomize=True, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


@pytest.fixture(scope="session")
def nqh_env():
    """Environment for a ``python -m nqh`` subprocess: this checkout's
    ``src`` leads PYTHONPATH, so the package need not be installed."""
    paths = [str(Path(__file__).resolve().parents[1] / "src")]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def recording_output(build, sink):
    """``build``, recording each algebra it returns in ``sink``."""
    def built(arg):
        algebra = build(arg)
        sink.append(algebra)
        return algebra

    return built


def ref_extract_algebra(system, words):
    """``rewrite.extract_algebra`` as it was while it rewrote every product
    of two normal words, dim^2 normal forms: the test reference."""
    from nqh.algebra import GradedAlgebra
    from nqh.errors import NotConfluent

    index = {w: i for i, w in enumerate(words)}
    degrees = [(len(w) % 2,) for w in words]
    labels = []
    names = system.alphabet
    for w in words:
        labels.append("1" if not w else "".join(names[a] for a in w))
    table = []
    for wi in words:
        row = []
        for wj in words:
            product = wi + wj
            if len(product) > system.confluent_up_to:
                raise NotConfluent(
                    "products of normal words exceed the confluence bound")
            nf = system._nf_word(product)
            vec = {}
            for w, c in nf.terms.items():
                k = index.get(w)
                if k is None:
                    raise NotConfluent("normal form left the normal-word basis")
                vec[k] = c
            row.append(vec)
        table.append(row)
    unit = {index[()]: ONE}
    return GradedAlgebra(labels, table, unit, degrees, 1, words=words)


def table_entries(algebra):
    """Every structure constant of ``algebra``, each in its dict order."""
    return [[list(vec.items()) for vec in row] for row in algebra.table]


@pytest.fixture(scope="session")
def base_deformations():
    """(name, E, E's completed system) for each base deformation that
    ``build_clifford`` certifies in the six registry scenarios, and for the
    bases of the skew3 inputs of seeds 1 and 2, of big:4 and big:5 in both
    cases, and of the presentations inputs of seeds 1 to 3."""
    from nqh import deform
    from nqh.formats import parse_double_ore, parse_presentation
    from nqh.scenarios import REGISTRY, run_scenario
    from perfbench.workloads import generate, skew_double_ore

    found = []
    real = deform.verify_algebra

    def record(algebra, *rest):
        found.append((algebra, *rest))
        return real(algebra, *rest)

    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deform, "verify_algebra", record)
        for scenario_id in sorted(REGISTRY):
            found.clear()
            assert run_scenario(scenario_id).ok
            assert found and all(len(call) == 2 for call in found)
            out.extend((f"{scenario_id}:{n}", *call) for n, call in enumerate(found))
    docs = [(f"skew3:{seed}:{name}", json.loads(blob))
            for seed in (1, 2) for name, blob in sorted(generate("skew3", seed).items())]
    docs += [(f"big:{g}:{p12:+d}", skew_double_ore(random.Random(f"big:{g}"), g, p12))
             for g in (4, 5) for p12 in (1, -1)]
    for name, doc in docs:
        data, central = parse_double_ore(doc)
        E = deform.build_clifford(data.base, central)
        out.append((name, E.algebra, E.system))
    for seed in (1, 2, 3):
        base = json.loads(generate("presentations", seed)["base.json"])
        E = deform.build_clifford(*parse_presentation(base))
        out.append((f"presentations:{seed}", E.algebra, E.system))
    return out


def scalar_matrix(rows):
    return [[x if isinstance(x, Scalar) else Scalar.of(x) for x in row]
            for row in rows]


def sigma_table(dense):
    """A 2x2 table of g x g matrices, whose columns are the generator
    images, as the table of sparse maps on one new carrier of dimension g
    that ``DoubleOreData.sigma`` holds."""
    from nqh.algebra import GradedLinMap, MatrixHom, Space

    space = Space(len(dense[0][0]))
    return MatrixHom([[GradedLinMap(space, space, [
        {r: m[r][c] for r in range(space.dim) if m[r][c]}
        for c in range(space.dim)]) for m in row] for row in dense])


def dense_table(table):
    """The 2x2 table of dense matrices of a table of maps, as lists: entry
    [r][c] of a matrix is the coefficient of basis vector r in the image of
    basis vector c."""
    n = table.algebra.dim
    return [[[[entry.cols[c].get(r, ZERO) for c in range(n)] for r in range(n)]
             for entry in row] for row in table.entries]


@pytest.fixture(scope="session")
def km1():
    from nqh.quadratic import QuadraticPresentation

    return QuadraticPresentation(
        ["x1", "x2"], [TensorElement({(0, 1): ONE, (1, 0): ONE})])


@pytest.fixture(scope="session")
def z_lift():
    return TensorElement({(0, 0): ONE, (1, 1): ONE})


@pytest.fixture(scope="session")
def clifford_km1(km1, z_lift):
    from nqh.deform import build_clifford

    return build_clifford(km1, z_lift)


def class_z_sigma():
    h = Scalar(0, 0, 1, 0, 2)
    return sigma_table(
        ((scalar_matrix([[h, 0], [0, h]]), scalar_matrix([[0, h], [h, 0]])),
         (scalar_matrix([[0, h], [h, 0]]), scalar_matrix([[-h, 0], [0, -h]]))))


def class_t_sigma():
    h = Scalar(1, 0, 0, 0, 2)
    return sigma_table(
        ((scalar_matrix([[-h, h], [h, -h]]), scalar_matrix([[h, h], [h, h]])),
         (scalar_matrix([[h, h], [h, h]]), scalar_matrix([[h, -h], [-h, h]]))))


def class_r_sigma():
    return sigma_table(
        ((scalar_matrix([[1, 0], [1, 0]]), scalar_matrix([[1, 1], [0, 0]])),
         (scalar_matrix([[0, 0], [1, -1]]), scalar_matrix([[0, -1], [0, 1]]))))


def diagonal_sigma(entry11, entry22):
    zero = scalar_matrix([[0, 0], [0, 0]])
    return sigma_table(((scalar_matrix(entry11), zero),
                        (zero, scalar_matrix(entry22))))


@pytest.fixture(scope="session")
def double_ore_class_z(km1):
    from nqh.deform import DoubleOreData

    return DoubleOreData(km1, ONE, ZERO, class_z_sigma())


@pytest.fixture(scope="session")
def double_ore_class_t(km1):
    from nqh.deform import DoubleOreData

    return DoubleOreData(km1, Scalar(-1), ZERO, class_t_sigma())


@pytest.fixture(scope="session")
def double_ore_class_r(km1):
    from nqh.deform import DoubleOreData

    return DoubleOreData(km1, Scalar(-1), ZERO, class_r_sigma())
