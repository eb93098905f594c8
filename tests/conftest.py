import numpy as np
import pytest

from rfl.graphs import BipartiteGraph


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240901))


def random_graph(rng, n: int, prob: float) -> BipartiteGraph:
    picks = rng.random((n, n)) < prob
    rows = tuple(
        sum(1 << j for j in range(n) if picks[i, j]) for i in range(n)
    )
    return BipartiteGraph(n, rows)


def brackets_overlap(a, b) -> bool:
    """Whether the brackets [value, value + residual] of two spectral
    reports meet: neither radius is certainly below the other."""
    return a.value <= b.value + b.residual and b.value <= a.value + a.residual


def bracket_below(a, b) -> bool:
    """Whether report a's bracket lies wholly below report b's, so that
    rho(a) < rho(b) for certain."""
    return a.value + a.residual < b.value
