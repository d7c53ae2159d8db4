"""Metric, region, lattice and packing tests, including property-based checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipzoom import algorithms, geometry
from lipzoom.geometry import (
    PACKING_MEMO,
    ActiveRegion,
    GeometryError,
    Metric,
    Point,
    _axis,
    _cells_within,
    _exclusion_width,
    lattice,
    maximal_packing,
    _packing,
)
from lipzoom.environment import twodim_model
from lipzoom.harness import ExperimentConfig, run_single


def test_absolute_distance():
    m = Metric(1)
    assert m.distance((0.2,), (0.7,)) == pytest.approx(0.5)
    assert m.distance((0.7,), (0.2,)) == pytest.approx(0.5)
    assert m.distance((0.3,), (0.3,)) == 0.0


def test_linf_distance():
    m = Metric(2)
    assert m.distance((0.1, 0.9), (0.4, 0.5)) == pytest.approx(0.4)
    assert m.distance((0.0, 0.0), (1.0, 1.0)) == pytest.approx(1.0)


def test_metric_validation():
    with pytest.raises(GeometryError):
        Metric(0)
    m = Metric(2)
    with pytest.raises(GeometryError):
        m.distance((0.1,), (0.2, 0.3))


def test_pairwise_matches_distance():
    m = Metric(3)
    rng = np.random.default_rng(0)
    a = rng.random((5, 3))
    b = rng.random((4, 3))
    d = m.pairwise(a, b)
    for i in range(5):
        for j in range(4):
            assert d[i, j] == pytest.approx(m.distance(tuple(a[i]), tuple(b[j])))


def _reference_pairwise(metric: Metric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance matrix between rows of `a` (n,d) and rows of `b` (m,d)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1:] != (metric.dimension,) or b.shape[1:] != (metric.dimension,):
        raise GeometryError(
            f"point dimension mismatch: expected {metric.dimension} columns, "
            f"got shapes {a.shape} and {b.shape}"
        )
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)


_PAIRWISE_METRICS = [Metric(d) for d in (1, 2, 3, 5)]


@pytest.mark.parametrize(
    "metric", _PAIRWISE_METRICS, ids=lambda m: f"linf-{m.dimension}d"
)
def test_pairwise_bit_identical_to_reference(metric):
    rng = np.random.default_rng(metric.dimension)
    d = metric.dimension
    for _ in range(40):
        n, m = (int(k) for k in rng.integers(1, 30, 2))
        # points in [-0.5, 1.5]^d, so some lie off the cube; a third of `a`
        # snapped to a 1/64 lattice, and rows of `b` shared with `a`
        a = rng.uniform(-0.5, 1.5, (n, d))
        b = rng.uniform(-0.5, 1.5, (m, d))
        a[::3] = np.round(a[::3] * 64) / 64
        k = min(n, m)
        b[:k:2] = a[:k:2]
        got = metric.pairwise(a, b)
        want = _reference_pairwise(metric, a, b)
        assert got.shape == want.shape == (n, m)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert np.array_equal(metric.pairwise(a[0], b), _reference_pairwise(metric, a[0], b))


def test_pairwise_rejects_dimension_mismatch():
    m = Metric(2)
    with pytest.raises(GeometryError):
        m.pairwise([[0.1, 0.9]], [[0.1]])
    with pytest.raises(GeometryError):
        m.pairwise([[0.1]], [[0.1, 0.9]])
    with pytest.raises(GeometryError):
        Metric(1).pairwise([[0.1, 0.9]], [[0.1, 0.9]])


def test_contains_many_rejects_dimension_mismatch():
    region = ActiveRegion(((0.5,),), 0.1)
    with pytest.raises(GeometryError):
        region.contains_many(np.array([[0.5, 0.5]]), Metric(2))


def test_packing_rejects_dimension_mismatch():
    region = ActiveRegion(((0.5,),), 0.1)
    with pytest.raises(GeometryError):
        maximal_packing(region, Metric(2), 0.5, 1 / 8)
    with pytest.raises(GeometryError):
        maximal_packing(
            ActiveRegion(((0.5, 0.5),), 0.1), Metric(1), 0.5, 1 / 8
        )


def test_lattice_endpoints():
    pts = lattice(1, 0.25)
    assert np.allclose(pts[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    # every lattice is dyadic: a spacing that does not divide 1 has no lattice
    with pytest.raises(GeometryError, match=r"1/2\^p"):
        lattice(1, 0.3)


def test_lattice_2d_row_major():
    pts = lattice(2, 0.5)
    assert len(pts) == 9
    assert tuple(pts[0]) == (0.0, 0.0)
    assert tuple(pts[1]) == (0.0, 0.5)  # second coordinate varies fastest
    assert tuple(pts[-1]) == (1.0, 1.0)


def test_lattice_bad_spacing():
    with pytest.raises(GeometryError):
        lattice(1, 0.0)


def test_lattice_and_packing_reject_non_dyadic_spacing():
    # `_Cover` takes no spacing: its lattice is `_axis` at fixed 1/512 and 1/64
    region = ActiveRegion.whole_space(1)
    builds = [
        lambda: lattice(1, 0.3),
        lambda: lattice(2, 1 / 5.5),
        lambda: lattice(1, 2.0),
        lambda: maximal_packing(region, Metric(1), 0.5, 0.1),
        lambda: maximal_packing(ActiveRegion((), 0.5), Metric(1), 0.5, 0.1),
    ]
    for build in builds:
        with pytest.raises(GeometryError, match=r"1/2\^p"):
            build()


_NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: maximal_packing(ActiveRegion.whole_space(1), Metric(1), 0.5, 0.0),
    lambda: maximal_packing(ActiveRegion.whole_space(1), Metric(1), 0.5, -0.1),
    lambda: maximal_packing(ActiveRegion.whole_space(1), Metric(1), 0.5, _NAN),
    lambda: maximal_packing(ActiveRegion.whole_space(1), Metric(1), _NAN, 1 / 8),
    lambda: maximal_packing(ActiveRegion((), 0.5), Metric(1), 0.5, 0.0),
    lambda: ActiveRegion(((0.5,),), _NAN),
    lambda: ActiveRegion(((0.5,),), 0.0),
    lambda: lattice(1, _NAN),
    lambda: lattice(1, -0.25),
], ids=["packing-spacing-0", "packing-spacing-negative", "packing-spacing-nan",
        "packing-eps-nan", "empty-packing-spacing-0", "radius-nan", "radius-0",
        "lattice-nan", "lattice-negative"])
def test_geometry_rejects_nan_and_non_positive_sizes(build):
    with pytest.raises(GeometryError, match="must be positive"):
        build()


@pytest.mark.parametrize("centres", [
    ((0.5,), (0.5, 0.5)), ((_NAN,),), ((0.5, math.inf),), ((0.25,), (-math.inf,)),
], ids=["ragged", "nan", "inf", "minus-inf"])
def test_region_rejects_ragged_and_non_finite_centres(centres):
    # a ragged region would fail inside numpy, and a NaN centre matches nothing
    with pytest.raises(GeometryError, match="centres"):
        ActiveRegion(centres, 0.1)


def _contains(region: ActiveRegion, p: Point, metric: Metric) -> bool:
    """Closed-ball membership of one point, a reference for ActiveRegion.contains_many.

    Distances follow the metric's definition in plain Python, one centre at
    a time, without the vectorised `Metric.pairwise`.
    """
    return any(
        max(abs(a - b) for a, b in zip(c, p)) <= region.radius for c in region.centers
    )


def test_whole_space_region_covers_everything():
    m = Metric(2)
    region = ActiveRegion.whole_space(2)
    assert _contains(region, (0.0, 1.0), m)
    assert _contains(region, (1.0, 0.0), m)
    assert region.contains_many(lattice(2, 0.25), m).all()


def test_region_contains_boundary_closed():
    m = Metric(1)
    region = ActiveRegion(((0.25,),), 0.1)
    assert _contains(region, (0.35,), m)       # boundary point: closed ball
    assert not _contains(region, (0.36,), m)
    assert region.contains_many(np.array([[0.35], [0.36]]), m).tolist() == [True, False]


def test_packing_whole_interval_half():
    m = Metric(1)
    pts = maximal_packing(ActiveRegion.whole_space(1), m, 0.5, spacing=1 / 8)
    assert [p[0] for p in pts] == [0.0, 0.5, 1.0]


def test_packing_whole_interval_one():
    m = Metric(1)
    pts = maximal_packing(ActiveRegion.whole_space(1), m, 1.0, spacing=1 / 4)
    assert [p[0] for p in pts] == [0.0, 1.0]
    # beyond the diameter every cell is within eps of the first
    for eps in (1.5, 1e300, math.inf):
        assert maximal_packing(ActiveRegion.whole_space(1), m, eps, spacing=1 / 4) == [(0.0,)]
    # spacing 1, the coarsest lattice: its only cells are the two faces
    assert maximal_packing(ActiveRegion.whole_space(1), m, 4.0, spacing=1.0) == [(0.0,)]


def test_packing_single_ball():
    # B(0.5, 0.25) spans [0.25, 0.75]; greedy with eps=0.5 accepts both ends
    # since their distance is exactly 0.5 and the packing condition is >= eps
    m = Metric(1)
    region = ActiveRegion(((0.5,),), 0.25)
    pts = maximal_packing(region, m, 0.5, spacing=1 / 8)
    assert [p[0] for p in pts] == [0.25, 0.75]


def test_packing_requires_fine_spacing():
    m = Metric(1)
    with pytest.raises(GeometryError):
        maximal_packing(ActiveRegion.whole_space(1), m, 0.1, spacing=0.05)


def test_packing_empty_region():
    m = Metric(1)
    assert maximal_packing(ActiveRegion((), 0.5), m, 0.5, spacing=1 / 8) == []


# --- property-based checks: packing and maximality-implies-covering ---

_PACKING_METRICS = [
    Metric(1),
    Metric(2),
]
_METRIC_IDS = ["abs-1d", "linf-2d"]
_metrics = st.sampled_from(_PACKING_METRICS)


@st.composite
def _region_case(draw):
    """Centres on the lattice of spacing eps/4, the one the test packs on."""
    metric = draw(_metrics)
    d = metric.dimension
    k = draw(st.integers(1, 4))
    eps = 2.0 ** -draw(st.integers(1, 4))
    n = round(4 / eps)
    centers = tuple(
        tuple(draw(st.integers(0, n)) / n for _ in range(d)) for _ in range(k)
    )
    radius = draw(st.floats(0.05, 0.5))
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
        assert _contains(region, p, metric)
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


# --- windowed packing against the whole-lattice pairwise scan ---

def _reference_packing(
    region: ActiveRegion,
    metric: Metric,
    eps: float,
    spacing: float,
) -> list[Point]:
    """Greedy maximal eps-packing of a ball-union region over a lattice.

    Candidates are scanned in row-major order (lowest coordinates first);
    a candidate is accepted iff it lies in the region and is at distance
    >= eps from every previously accepted point.  The result is therefore
    a packing, and by maximality an eps-covering of every lattice candidate
    inside the region.
    """
    if eps <= 0:
        raise GeometryError(f"packing radius must be positive, got {eps}")
    if spacing > eps / 4 + 1e-12:
        raise GeometryError(
            f"lattice spacing {spacing} too coarse for eps={eps}; need <= eps/4"
        )
    if not region.centers:
        return []
    cand = lattice(metric.dimension, spacing)
    mask = region.contains_many(cand, metric)
    cand = cand[mask]
    if len(cand) == 0:
        return []
    first = cand[:, 0]
    eligible = np.ones(len(cand), dtype=bool)
    accepted: list[Point] = []
    while eligible.any():
        i = int(np.argmax(eligible))
        accepted.append(tuple(float(v) for v in cand[i]))
        # every candidate before i is excluded already; the rows are sorted on
        # the first coordinate, and from hi on it alone is at least eps away
        hi = i + int(np.searchsorted(first[i:] - first[i], eps))
        eligible[i:hi] &= metric.pairwise(cand[i:hi], cand[i : i + 1])[:, 0] >= eps
    return accepted


def _random_packing_case(rng, metric):
    """Centres on the lattice of spacing eps/4 or eps/8, some on or near a face."""
    d = metric.dimension
    eps = 2.0 ** -int(rng.integers(1, 7))
    # the reference costs (accepted points) x (region candidates), so in
    # 2-D the radius is capped at 4 eps to keep the deep packings cheap
    radius = float(rng.uniform(0.05, 0.5 if d == 1 else min(0.5, 4 * eps)))
    centres = rng.random((int(rng.integers(1, 9)), d))
    near_face = rng.random(centres.shape) < 0.25
    k = int(near_face.sum())
    centres[near_face] = rng.choice([0.0, 0.97], k) + 0.03 * rng.random(k)
    spacing = eps / 4 if rng.random() < 0.5 else eps / 8
    centres = np.round(centres / spacing) * spacing
    region = ActiveRegion(tuple(tuple(c) for c in centres.tolist()), radius)
    return region, eps, spacing


@pytest.mark.parametrize("metric, seed", zip(_PACKING_METRICS, [1, 2]), ids=_METRIC_IDS)
def test_packing_matches_reference_on_random_regions(metric, seed):
    rng = np.random.default_rng(seed)
    for case in range(180):
        region, eps, spacing = _random_packing_case(rng, metric)
        got = maximal_packing(region, metric, eps, spacing)
        want = _reference_packing(region, metric, eps, spacing)
        assert got == want, (case, region, eps, spacing)


@pytest.mark.parametrize("metric", _PACKING_METRICS, ids=_METRIC_IDS)
@pytest.mark.parametrize("eps", [0.5, 0.125, 1 / 16, 0.3, 3 / 16])
def test_packing_matches_reference_on_whole_space(metric, eps):
    # the lattice is dyadic, eps need not be: eps/spacing is 4.8 and 9.6
    # at 0.3, and a whole 6 and 12 at 3/16, where < and <= differ
    region = ActiveRegion.whole_space(metric.dimension)
    coarsest = 2.0 ** math.floor(math.log2(eps / 4))
    for spacing in (coarsest, coarsest / 2):
        want = _reference_packing(region, metric, eps, spacing)
        assert maximal_packing(region, metric, eps, spacing) == want


@pytest.mark.parametrize("metric", _PACKING_METRICS, ids=_METRIC_IDS)
def test_contains_many_matches_reference(metric):
    rng = np.random.default_rng(5)
    region = ActiveRegion(tuple(map(tuple, rng.random((3, metric.dimension)))), 0.2)
    pts = rng.random((400, metric.dimension))
    want = [_contains(region, tuple(p), metric) for p in pts]
    assert region.contains_many(pts, metric).tolist() == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("metric", _PACKING_METRICS, ids=_METRIC_IDS)
def test_packing_matches_reference_on_empty_regions(metric):
    # a region the reference reads as empty, or with a ball it drops, has a
    # centre that is not a lattice cell, and the packing rejects it: NaN,
    # past the cube, off the lattice, or of another dimension
    d = metric.dimension
    cell, nan = (0.5,) * d, (math.nan,) * d
    outside = ActiveRegion(((2.0,) * d,), 0.1)
    assert _reference_packing(outside, metric, 0.25, 1 / 16) == []
    bad = [(nan,), (nan, cell), ((2.0,) * d,), ((0.3,) * d,), (cell, (0.5,) * (d + 1))]
    for centres in bad:
        with pytest.raises(GeometryError):
            maximal_packing(ActiveRegion(centres, 0.25), metric, 0.5, 1 / 8)


def test_packing_matches_reference_on_qlae_survivor_regions():
    # the stages of a deep qlae run: survivors at eps re-packed at eps/2
    config = ExperimentConfig(
        algorithm="qlae", reward="twodim", T=600_000, master_seed=7, audits=True
    )
    result = run_single(config, 0)
    metric = twodim_model().metric
    stages = [a for a in result.stage_audits if a.survivors]
    assert stages[-1].survivors[0][1] <= 1 / 32
    for audit in stages:
        eps = audit.survivors[0][1]
        region = ActiveRegion(tuple(x for x, _ in audit.survivors), eps)
        got = maximal_packing(region, metric, eps / 2, eps / 8)
        assert got == _reference_packing(region, metric, eps / 2, eps / 8)
        assert len(got) > 0


# --- the packing's exclusion box ---

@pytest.mark.parametrize("eps", [0.5, 0.25, 1 / 16, 1 / 64, 0.3])
@pytest.mark.parametrize("divisor", [4, 5.5])
def test_exclusion_ranges_match_brute_force(eps, divisor):
    # the packing clears `_cells_within` w = `_exclusion_width` about an
    # accepted cell, on the finest dyadic lattice at or below eps / divisor;
    # that box must hold exactly the axis values at distance < eps
    spacing = 2.0 ** math.floor(math.log2(eps / divisor))
    axis = _axis(spacing).tolist()
    n = len(axis) - 1
    w = _exclusion_width(eps, spacing)
    for j, x in enumerate(axis):
        near = [k for k, y in enumerate(axis) if abs(y - x) < eps]
        (cells,) = _cells_within((j,), w, n)
        assert near == list(range(n + 1))[cells], j


# --- the region's radius boundary ---

@pytest.mark.parametrize("d, spacing", [(1, 1 / 64), (2, 1 / 32), (3, 1 / 8)],
                         ids=["1d", "2d", "3d"])
def test_packing_matches_reference_at_the_region_radius(d, spacing):
    # one ball on a face, a corner or an interior cell, at radii of exactly
    # k cells and one ulp below, where the ball's box is k and k - 1 cells
    # wide.  At eps = 4 * spacing the first accepted point is the ball's
    # lower face, so a box one cell too wide or too narrow shows
    n = round(1 / spacing)
    metric, eps = Metric(d), 4 * spacing
    cells = [(0,) * d, (n,) * d, (0,) + (n // 2,) * (d - 1), (n - 1,) * d,
             tuple(n // 2 - 1 + k for k in range(d)), (n // 2 + 1,) * d]
    radii = [1.0, math.nextafter(1.0, 2.0), 3.0, math.inf]
    for k in (1, 2, 3, 5, n // 2 - 1, n // 2, n - 1, n):
        radii += [k * spacing, math.nextafter(k * spacing, 0.0)]
    for centre in cells:
        for r in radii:
            region = ActiveRegion((tuple(k * spacing for k in centre),), r)
            want = _reference_packing(region, metric, eps, spacing)
            assert maximal_packing(region, metric, eps, spacing) == want, (centre, r)


_LINF_3D = Metric(3)


def test_packing_matches_reference_on_random_regions_3d():
    # eps >= 1/8 keeps the whole-lattice reference cheap in three dimensions
    rng = np.random.default_rng(4)
    cases = 0
    while cases < 120:
        region, eps, spacing = _random_packing_case(rng, _LINF_3D)
        if eps < 1 / 8:
            continue
        cases += 1
        want = _reference_packing(region, _LINF_3D, eps, spacing)
        assert maximal_packing(region, _LINF_3D, eps, spacing) == want, (region, eps, spacing)


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
def test_packing_matches_reference_on_whole_space_3d(eps):
    region = ActiveRegion.whole_space(3)
    for spacing in (eps / 4, eps / 8):
        want = _reference_packing(region, _LINF_3D, eps, spacing)
        assert maximal_packing(region, _LINF_3D, eps, spacing) == want


def test_packing_builds_no_lattice_and_calls_no_pairwise(monkeypatch):
    config = ExperimentConfig(
        algorithm="qlae", reward="twodim", T=600_000, master_seed=7, audits=True
    )
    audit = [a for a in run_single(config, 0).stage_audits if a.survivors][-1]
    eps = audit.survivors[0][1]
    assert eps <= 1 / 32
    twodim = (
        ActiveRegion(tuple(x for x, _ in audit.survivors), eps),
        twodim_model().metric, eps / 2, eps / 8,
    )
    rng = np.random.default_rng(9)
    region, eps3, _ = _random_packing_case(rng, _LINF_3D)
    while eps3 < 1 / 8:  # keeps the whole-lattice reference cheap
        region, eps3, _ = _random_packing_case(rng, _LINF_3D)
    cases = [twodim, (region, _LINF_3D, eps3, eps3 / 8)]
    wants = [_reference_packing(*case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("maximal_packing must not build a lattice or call pairwise")

    monkeypatch.setattr(geometry, "lattice", refuse)
    monkeypatch.setattr(Metric, "pairwise", refuse)
    for case, want in zip(cases, wants):
        assert len(want) > 0
        assert maximal_packing(*case) == want


# --- the packing memo ---

def _memo_cases():
    """Calls that differ in one argument each, with different packings."""
    cells_1d, cells_2d = ((0.3125,), (0.71875,)), ((0.3125, 0.59375), (0.8125, 0.09375))
    return [
        (ActiveRegion.whole_space(1), Metric(1), 0.3, 1 / 16),
        (ActiveRegion.whole_space(1), Metric(1), 0.3, 1 / 128),
        (ActiveRegion.whole_space(1), Metric(1), 0.25, 1 / 16),
        (ActiveRegion(cells_1d, 0.11), Metric(1), 0.125, 1 / 32),
        (ActiveRegion(cells_1d, 0.11), Metric(1), 0.125, 1 / 64),
        (ActiveRegion(cells_1d, 0.15), Metric(1), 0.125, 1 / 64),
        (ActiveRegion(cells_2d, 0.2), Metric(2), 0.0625, 1 / 64),
        (ActiveRegion(cells_2d, 0.2), Metric(2), 0.0625, 1 / 128),
        (ActiveRegion.whole_space(2), Metric(2), 0.25, 1 / 16),
    ]


def test_packing_memo_hit_equals_a_recompute():
    cases = _memo_cases()
    assert len(cases) <= PACKING_MEMO
    _packing.cache_clear()
    first = [maximal_packing(*case) for case in cases]
    assert len(set(map(tuple, first))) == len(cases)  # each argument matters
    hits = [maximal_packing(*case) for case in cases]
    assert _packing.cache_info().hits == len(cases)
    for case, hit in zip(cases, hits):
        _packing.cache_clear()
        assert hit == maximal_packing(*case), case


def test_packing_memo_returns_a_new_list_per_call():
    case = _memo_cases()[-1]
    want = maximal_packing(*case)
    got = maximal_packing(*case)
    assert got is not want
    got.append((0.5, 0.5))
    got[0] = (9.0, 9.0)
    got.sort(reverse=True)
    assert maximal_packing(*case) == want


def test_packing_memo_holds_a_bounded_share_of_a_run(monkeypatch):
    # the memo keeps the packings and regions of the last PACKING_MEMO
    # distinct calls: 20-40 traced bytes per point they hold, since a
    # stage's region shares its points with the packing before it.  A memo
    # that kept all of this run's calls would hold 3-5 times as much
    calls = {}

    def recorded(region, metric, eps, spacing):
        arms = maximal_packing(region, metric, eps, spacing)
        calls.pop((region, eps, spacing), None)  # latest last, as the memo orders them
        calls[region, eps, spacing] = len(region.centers) + len(arms)
        return arms

    monkeypatch.setattr(algorithms, "maximal_packing", recorded)
    config = ExperimentConfig(algorithm="qlae", reward="twodim", T=600_000, trials=10,
                              master_seed=23)
    _packing.cache_clear()
    tracemalloc.start()
    try:
        for trial in range(config.trials):
            run_single(config, trial)
        held = tracemalloc.get_traced_memory()[0]
        _packing.cache_clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(calls) > 2 * PACKING_MEMO
    points = sum(list(calls.values())[-PACKING_MEMO:])
    assert 0 < held <= 64 * points, (held, points)
