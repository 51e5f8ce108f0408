import pytest

from gsds import DependencyGraph, Field, GsdsModel, parse_poly

# The three worked models used across the suite: a 4-gene Boolean network
# with a sequential schedule, a mixed-state parallel network, and a
# 3-gene GF(3) network presented in balanced display.

EX1_LOCALS = ("1", "1", "x1*x2", "x2*(x3+1)")
EX1_EDGES = {(1, 3), (1, 2), (0, 2), (2, 3)}

EX2_LOCALS = (
    "-x2",
    "1 + x1^2*x3^2",
    "2 + x1 + 2*x3 + x1*x3 + 2*x1^2 + x3^2 + 2*x1^2*x3 + 2*x1*x3^2 + x1^2*x3^2",
)
EX2_EDGES = {(0, 2), (2, 1), (0, 1), (1, 0), (2, 2)}

EX3_LOCALS = ("x1 + x2", "x2", "x2 + x3")
EX3_EDGES = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)}

EX3_TIMES = (0.0, 1.0, 2.0, 3.0)
EX3_ROWS = (
    (0.5, 1.2, 0.5),
    (0.78, 1.2, 1.25),
    (1.5, 1.2, 1.5),
    (0.5, 1.2, 0.5),
)
EX3_THRESHOLDS = (0.78, 0.75, 1.25)


def build_example1():
    field = Field(2)
    polys = [parse_poly(s, 4, field) for s in EX1_LOCALS]
    return GsdsModel(
        field,
        ["g0", "g1", "g2", "g3"],
        DependencyGraph(4, EX1_EDGES),
        polys,
        schedule=[3, 2, 1, 0],
    )


def build_example2():
    field = Field(3)
    polys = [parse_poly(s, 3, field) for s in EX2_LOCALS]
    return GsdsModel(
        field,
        ["g1", "g2", "g3"],
        DependencyGraph(3, EX2_EDGES),
        polys,
        schedule=None,
        state_sets=[(0, 1, 2), (0, 1), (0, 1, 2)],
    )


def build_example3(display="balanced"):
    field = Field(3)
    polys = [parse_poly(s, 3, field) for s in EX3_LOCALS]
    return GsdsModel(
        field,
        ["g1", "g2", "g3"],
        DependencyGraph(3, EX3_EDGES),
        polys,
        schedule=[0, 1, 2],
        display=display,
    )


def build_ex3_thresholds(display="canonical"):
    from gsds import GeneThresholds, ThresholdMap

    field = Field(3)
    return ThresholdMap(
        field,
        [GeneThresholds([t], [2, 1], [0]) for t in EX3_THRESHOLDS],
        display=display,
    )


@pytest.fixture
def example1():
    return build_example1()


@pytest.fixture
def example2():
    return build_example2()


@pytest.fixture
def example3():
    return build_example3()


@pytest.fixture
def ex3_thresholds():
    return build_ex3_thresholds()
