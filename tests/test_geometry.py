"""Metric, region, lattice and packing tests, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipzoom.geometry import (
    ActiveRegion,
    GeometryError,
    Metric,
    MetricKind,
    lattice,
    maximal_packing,
)


def test_absolute_distance():
    m = Metric(MetricKind.ABSOLUTE, 1)
    assert m.distance((0.2,), (0.7,)) == pytest.approx(0.5)
    assert m.distance((0.7,), (0.2,)) == pytest.approx(0.5)
    assert m.distance((0.3,), (0.3,)) == 0.0


def test_linf_distance():
    m = Metric(MetricKind.LINF, 2)
    assert m.distance((0.1, 0.9), (0.4, 0.5)) == pytest.approx(0.4)
    assert m.distance((0.0, 0.0), (1.0, 1.0)) == pytest.approx(1.0)


def test_l2_rescaled_diameter_at_most_one():
    m = Metric(MetricKind.L2, 2)
    # corner-to-corner would be sqrt(2) unscaled; the 1/sqrt(d) factor caps it at 1
    assert m.distance((0.0, 0.0), (1.0, 1.0)) == pytest.approx(1.0)
    assert m.distance((0.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0 / np.sqrt(2.0))


def test_metric_validation():
    with pytest.raises(GeometryError):
        Metric(MetricKind.ABSOLUTE, 2)
    with pytest.raises(GeometryError):
        Metric(MetricKind.LINF, 0)
    m = Metric(MetricKind.LINF, 2)
    with pytest.raises(GeometryError):
        m.distance((0.1,), (0.2, 0.3))


def test_pairwise_matches_distance():
    m = Metric(MetricKind.L2, 3)
    rng = np.random.default_rng(0)
    a = rng.random((5, 3))
    b = rng.random((4, 3))
    d = m.pairwise(a, b)
    for i in range(5):
        for j in range(4):
            assert d[i, j] == pytest.approx(m.distance(tuple(a[i]), tuple(b[j])))


def test_lattice_endpoints():
    pts = lattice(1, 0.25)
    assert np.allclose(pts[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    # non-divisor spacing still reaches 1.0
    pts = lattice(1, 0.3)
    assert pts[0, 0] == 0.0 and pts[-1, 0] == 1.0


def test_lattice_2d_row_major():
    pts = lattice(2, 0.5)
    assert len(pts) == 9
    assert tuple(pts[0]) == (0.0, 0.0)
    assert tuple(pts[1]) == (0.0, 0.5)  # second coordinate varies fastest
    assert tuple(pts[-1]) == (1.0, 1.0)


def test_lattice_bad_spacing():
    with pytest.raises(GeometryError):
        lattice(1, 0.0)


def test_whole_space_region_covers_everything():
    m = Metric(MetricKind.LINF, 2)
    region = ActiveRegion.whole_space(2)
    assert region.contains((0.0, 1.0), m)
    assert region.contains((1.0, 0.0), m)


def test_region_contains_boundary_closed():
    m = Metric(MetricKind.ABSOLUTE, 1)
    region = ActiveRegion(((0.25,),), 0.1)
    assert region.contains((0.35,), m)       # boundary point: closed ball
    assert not region.contains((0.36,), m)


def test_packing_whole_interval_half():
    m = Metric(MetricKind.ABSOLUTE, 1)
    pts = maximal_packing(ActiveRegion.whole_space(1), m, 0.5, spacing=1 / 8)
    assert [p[0] for p in pts] == [0.0, 0.5, 1.0]


def test_packing_whole_interval_one():
    m = Metric(MetricKind.ABSOLUTE, 1)
    pts = maximal_packing(ActiveRegion.whole_space(1), m, 1.0, spacing=1 / 4)
    assert [p[0] for p in pts] == [0.0, 1.0]


def test_packing_single_ball():
    # B(0.5, 0.25) spans [0.25, 0.75]; greedy with eps=0.5 accepts both ends
    # since their distance is exactly 0.5 and the packing condition is >= eps
    m = Metric(MetricKind.ABSOLUTE, 1)
    region = ActiveRegion(((0.5,),), 0.25)
    pts = maximal_packing(region, m, 0.5, spacing=1 / 8)
    assert [p[0] for p in pts] == [0.25, 0.75]


def test_packing_requires_fine_spacing():
    m = Metric(MetricKind.ABSOLUTE, 1)
    with pytest.raises(GeometryError):
        maximal_packing(ActiveRegion.whole_space(1), m, 0.1, spacing=0.05)


def test_packing_empty_region():
    m = Metric(MetricKind.ABSOLUTE, 1)
    assert maximal_packing(ActiveRegion((), 0.5), m, 0.5, spacing=1 / 8) == []


# --- property-based checks: packing and maximality-implies-covering ---

_metrics = st.sampled_from([
    Metric(MetricKind.ABSOLUTE, 1),
    Metric(MetricKind.LINF, 2),
    Metric(MetricKind.L2, 2),
])


@st.composite
def _region_case(draw):
    metric = draw(_metrics)
    d = metric.dimension
    k = draw(st.integers(1, 4))
    centers = tuple(
        tuple(draw(st.floats(0.0, 1.0)) for _ in range(d)) for _ in range(k)
    )
    radius = draw(st.floats(0.05, 0.5))
    eps = 2.0 ** -draw(st.integers(1, 4))
    return metric, ActiveRegion(centers, radius), eps


@settings(max_examples=100, deadline=None)
@given(_region_case())
def test_packing_properties(case):
    metric, region, eps = case
    spacing = eps / 4
    pts = maximal_packing(region, metric, eps, spacing)
    arr = np.asarray(pts, dtype=float)
    # membership
    for p in pts:
        assert region.contains(p, metric)
    if len(pts) > 1:
        d = metric.pairwise(arr, arr)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= eps - 1e-12
    # maximality witness: every lattice candidate inside the region is covered
    cand = lattice(metric.dimension, spacing)
    inside = cand[region.contains_many(cand, metric)]
    if len(inside):
        assert len(pts) > 0
        cover = metric.pairwise(inside, arr).min(axis=1)
        assert cover.max() < eps + 1e-12
