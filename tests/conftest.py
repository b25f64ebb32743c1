import os
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


def scalar_matrix(rows):
    return [[x if isinstance(x, Scalar) else Scalar.of(x) for x in row]
            for row in rows]


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
    return ((scalar_matrix([[h, 0], [0, h]]), scalar_matrix([[0, h], [h, 0]])),
            (scalar_matrix([[0, h], [h, 0]]), scalar_matrix([[-h, 0], [0, -h]])))


def class_t_sigma():
    h = Scalar(1, 0, 0, 0, 2)
    return ((scalar_matrix([[-h, h], [h, -h]]), scalar_matrix([[h, h], [h, h]])),
            (scalar_matrix([[h, h], [h, h]]), scalar_matrix([[h, -h], [-h, h]])))


def class_r_sigma():
    return ((scalar_matrix([[1, 0], [1, 0]]), scalar_matrix([[1, 1], [0, 0]])),
            (scalar_matrix([[0, 0], [1, -1]]), scalar_matrix([[0, -1], [0, 1]])))


def diagonal_sigma(entry11, entry22):
    zero = scalar_matrix([[0, 0], [0, 0]])
    return ((scalar_matrix(entry11), zero), (zero, scalar_matrix(entry22)))


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
