import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shadowgeo.circlecover import PERIOD_CIRCLE
from shadowgeo.geometry import Cap, orthonormal_basis, unit
from shadowgeo.sampling import sample_sphere
from shadowgeo.spherecover import (
    _SAMPLE_BLOCK,
    COVERED,
    INDETERMINATE,
    UNCOVERED,
    CapSet,
    _grid_margins,
    boundary_arrangement,
    cap_boundary_cover_arcs,
    cover_sphere,
    falsify,
    uncovered_area_estimate,
)

from oracles import circle_point_margins, sphere_cover_sampled, sphere_point_margins

Z = np.array([0.0, 0.0, 1.0])

OCTA_AXES = [
    np.array(v, dtype=float)
    for v in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
]
# deepest hole of the octahedral axes sits at a diagonal direction
OCTA_DEPTH = math.acos(1.0 / math.sqrt(3.0))


def caps_data(cs):
    return [(c.axis, c.angular_radius) for c in cs.caps]


def test_capset_drops_empty_and_contained():
    big = Cap(Z, 1.0)
    small = Cap(unit([0.05, 0.0, 1.0]), 0.2)
    empty = Cap(Z, 0.0)
    cs = CapSet([small, big, empty])
    assert len(cs) == 1
    assert cs.caps[0] is big


def test_capset_keeps_one_of_identical_pair():
    a, b = Cap(Z, 0.7), Cap(Z, 0.7)
    cs = CapSet([a, b])
    assert len(cs) == 1


def test_capset_full_cap_absorbs_everything():
    cs = CapSet([Cap(Z, math.pi), Cap(-Z, 1.0), Cap(unit([1, 1, 1]), 2.0)])
    assert len(cs) == 1
    assert cs.caps[0].is_full


def test_margin_values():
    assert falsify(CapSet([]))[1] == math.inf
    cs = CapSet([Cap(Z, math.pi / 3)])
    np.testing.assert_allclose(_grid_margins(np.array([Z, -Z]), cs), [0.5 - 1.0, 0.5 + 1.0])


def test_falsify_hemisphere_finds_antipode():
    cs = CapSet([Cap(Z, math.pi / 2)])
    d, mu = falsify(cs)
    assert mu == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(d, -Z, rtol=0.0, atol=1e-12)


def test_falsify_is_deterministic():
    cs = CapSet([Cap(Z, 1.0), Cap(unit([1.0, 0.2, -0.3]), 0.8)])
    d1, mu1 = falsify(cs)
    d2, mu2 = falsify(cs)
    assert mu1 == mu2
    np.testing.assert_array_equal(d1, d2)


def test_cover_sphere_trivial_cases():
    cov = cover_sphere(CapSet([]))
    assert cov.verdict == UNCOVERED
    assert cov.margin == math.inf
    np.testing.assert_array_equal(cov.witness, Z)
    cov = cover_sphere(CapSet([Cap(Z, math.pi)]))
    assert cov.verdict == COVERED
    assert cov.stage == "trivial"


def test_two_exact_hemispheres_cover():
    cov = cover_sphere(CapSet([Cap(Z, math.pi / 2), Cap(-Z, math.pi / 2)]))
    assert cov.verdict == COVERED
    assert cov.stage == "arrangement"
    assert all(not gaps for gaps in cov.boundary_report)


@pytest.mark.parametrize("shrink,verdict", [(0.01, UNCOVERED), (-0.01, COVERED)])
def test_perturbed_hemispheres(shrink, verdict):
    b = math.pi / 2 - shrink
    cov = cover_sphere(CapSet([Cap(Z, b), Cap(-Z, b)]))
    assert cov.verdict == verdict
    if verdict == UNCOVERED:
        assert cov.margin == pytest.approx(math.sin(shrink), abs=1e-6)
        # witness is certified: strictly outside both caps
        assert sphere_point_margins([cov.witness], [(Z, b), (-Z, b)])[0] > 0


def test_hairline_tangency_is_indeterminate():
    b = math.pi / 2 - 7.5e-10
    cov = cover_sphere(CapSet([Cap(Z, b), Cap(-Z, b)]))
    assert cov.verdict == INDETERMINATE
    assert cov.stage == "arrangement"


def test_octahedral_caps_across_covering_threshold():
    for beta, verdict in [
        (math.pi / 4, UNCOVERED),
        (OCTA_DEPTH - 1e-3, UNCOVERED),
        (OCTA_DEPTH + 1e-3, COVERED),
    ]:
        cs = CapSet([Cap(a, beta) for a in OCTA_AXES])
        cov = cover_sphere(cs)
        assert cov.verdict == verdict, f"beta={beta}"
        if verdict == UNCOVERED:
            assert sphere_point_margins([cov.witness], caps_data(cs))[0] > 0


def test_octahedral_witness_is_a_diagonal():
    cs = CapSet([Cap(a, math.pi / 4) for a in OCTA_AXES])
    cov = cover_sphere(cs)
    assert cov.verdict == UNCOVERED
    assert cov.margin == pytest.approx(math.cos(math.pi / 4) - 1 / math.sqrt(3), abs=1e-12)
    np.testing.assert_allclose(np.abs(cov.witness), 1 / math.sqrt(3), atol=1e-12)


def test_octahedral_hole_just_above_tolerance_is_certified():
    # the diagonal hole is sin(OCTA_DEPTH) * 2e-9 = 1.633e-9 deep, above tol = 1e-9
    cs = CapSet([Cap(a, OCTA_DEPTH - 2e-9) for a in OCTA_AXES])
    cov = cover_sphere(cs)
    assert cov.verdict == UNCOVERED
    assert cov.stage == "falsifier"
    assert cov.margin == pytest.approx(math.sqrt(2.0 / 3.0) * 2e-9, rel=1e-4)
    at_witness = sphere_point_margins([cov.witness], caps_data(cs))[0]
    assert at_witness == pytest.approx(cov.margin, abs=1e-15)
    assert at_witness > 1e-9


def test_capset_drops_a_nested_cap_on_the_same_axis():
    # a . a rounds below 1 here; acos of it would put the axes 1.5e-8 apart
    a = unit([0.3, -0.7, 0.2])
    cs = CapSet([Cap(a, 1.0), Cap(a, 1.0 + 1e-10)])
    assert len(cs) == 1
    assert cs.caps[0].angular_radius == 1.0 + 1e-10


def test_capset_keeps_one_cap_of_a_chain_of_mutually_containing_caps():
    # each neighbour pair contains each other within the 1e-12 slack, but the
    # last cap strictly contains the first: one cap of the chain must stay
    cs = CapSet([Cap(Z, 1.0), Cap(Z, 1.0 + 0.9e-12), Cap(Z, 1.0 + 1.8e-12)])
    assert [c.angular_radius for c in cs.caps] == [1.0 + 0.9e-12]
    assert cs._axes.shape == (1, 3) and cs._cosb.tolist() == [math.cos(1.0 + 0.9e-12)]


def test_falsify_skips_pairs_sharing_an_axis():
    a = unit([0.3, -0.7, 0.2])
    cs = CapSet([Cap(a, 1.0), Cap(a, 1.0 + 1e-10), Cap(-a, 0.5)])
    assert len(cs) == 2
    d, mu = falsify(cs)
    # the optimum balances the outer cap against the opposite one
    assert mu == pytest.approx((math.cos(1.0 + 1e-10) + math.cos(0.5)) / 2, abs=1e-12)
    assert sphere_point_margins([d], caps_data(cs))[0] == pytest.approx(mu, abs=1e-15)
    assert cover_sphere(cs).verdict == UNCOVERED


def test_boundary_arcs_match_direct_membership():
    # one cap's boundary circle against one other cap, checked pointwise
    cs = CapSet([Cap(Z, 1.2), Cap(unit([1.0, 0.3, 0.4]), 0.9)])
    arcs = cap_boundary_cover_arcs(cs, 0, tol=0.0)
    b = cs.caps[0].angular_radius
    e1, e2 = orthonormal_basis(cs.caps[0].axis)
    ts = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    points = math.cos(b) * cs.caps[0].axis \
        + math.sin(b) * (np.cos(ts)[:, None] * e1 + np.sin(ts)[:, None] * e2)
    want = sphere_point_margins(points, caps_data(cs)[1:]) <= 0.0
    # the oracle's circular distance from each t to the nearest covering arc
    arc_margins = circle_point_margins(ts, [(a.center, a.half_width) for a in arcs.arcs],
                                       PERIOD_CIRCLE)
    disagree = want != (arc_margins <= 0.0)
    # disagreement allowed only within float fuzz of the crossing
    assert (np.abs(arc_margins[disagree]) < 1e-6).all()


def test_uncovered_area_estimates():
    assert uncovered_area_estimate(CapSet([]), 10, seed=0) == pytest.approx(4 * math.pi)
    assert uncovered_area_estimate(CapSet([Cap(Z, math.pi)]), 1000, seed=0) == 0.0
    half = uncovered_area_estimate(CapSet([Cap(Z, math.pi / 2)]), 200_000, seed=1)
    assert half == pytest.approx(2 * math.pi, rel=0.02)
    with pytest.raises(ValueError):
        uncovered_area_estimate(CapSet([]), 0, seed=0)


def test_area_estimate_counts_by_blocks_as_the_full_table_does():
    caps = CapSet([Cap(a, 0.9) for a in OCTA_AXES])
    # two whole blocks of samples and a partial third
    n = 2 * _SAMPLE_BLOCK + 5000
    outside = np.count_nonzero(_grid_margins(sample_sphere(n, 3), caps) > 0.0)
    assert outside > 0
    assert uncovered_area_estimate(caps, n, seed=3) == 4.0 * math.pi * (outside / n)


def test_area_estimate_memory_does_not_grow_with_the_samples():
    caps = CapSet([Cap(a, 0.9) for a in OCTA_AXES])
    tracemalloc.start()
    try:
        uncovered_area_estimate(caps, 1_000_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the million points alone take 24 MB
    assert peak < 16 * 2**20


@st.composite
def cap_sets(draw, max_caps=6):
    n = draw(st.integers(1, max_caps))
    caps = []
    for _ in range(n):
        v = np.array(
            [
                draw(st.floats(-1, 1, allow_nan=False)),
                draw(st.floats(-1, 1, allow_nan=False)),
                draw(st.floats(-1, 1, allow_nan=False)),
            ]
        )
        if np.linalg.norm(v) < 1e-3:
            v = np.array([1.0, 0.0, 0.0])
        caps.append(Cap(unit(v), draw(st.floats(0.05, 2.5, allow_nan=False))))
    return CapSet(caps)


@given(cap_sets())
def test_verdicts_agree_with_sampling_oracle(cs):
    cov = cover_sphere(cs)
    if cov.verdict == UNCOVERED:
        assert sphere_point_margins([cov.witness], caps_data(cs))[0] > 1e-9
    elif cov.verdict == COVERED:
        ok, worst, mu = sphere_cover_sampled(caps_data(cs), n=20_000, seed=7)
        assert mu <= 1e-9


_RANDOM_DIRECTIONS = np.random.default_rng(11).normal(size=(20_000, 3))
_RANDOM_DIRECTIONS /= np.linalg.norm(_RANDOM_DIRECTIONS, axis=1)[:, None]


@st.composite
def nested_cap_lists(draw, max_caps=8):
    """Caps on a few shared axes: duplicates, nested, empty and full caps among them."""
    vectors = draw(st.lists(st.tuples(*[st.floats(-1, 1)] * 3), min_size=1, max_size=3))
    axes = [unit(v) if np.linalg.norm(v) >= 1e-3 else np.array([1.0, 0.0, 0.0])
            for v in map(np.array, vectors)]
    # 1.0 and its two neighbours make a chain of caps that contain each other within 1e-12
    radius = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 0.9e-12, 1.0 + 1.8e-12, math.pi]),
                       st.floats(0.0, math.pi))
    return [Cap(axes[draw(st.integers(0, len(axes) - 1))], draw(radius))
            for _ in range(draw(st.integers(0, max_caps)))]


@given(st.one_of(nested_cap_lists(), cap_sets().map(lambda cs: cs.caps)))
@example([Cap(Z, 1.0), Cap(Z, 1.0 + 0.9e-12), Cap(Z, 1.0 + 1.8e-12)])
def test_capset_keeps_no_nested_cap_and_loses_no_covered_direction(caps):
    cs = CapSet(caps)
    assert all(any(k is c for c in caps) for k in cs.caps)
    # axis angles by the half-chord formula, not the library's atan2(|a x b|, a . b)
    for i, ci in enumerate(cs.caps):
        for j, cj in enumerate(cs.caps):
            if i != j:
                ang = 2.0 * math.atan2(np.linalg.norm(ci.axis - cj.axis),
                                       np.linalg.norm(ci.axis + cj.axis))
                assert cj.angular_radius < math.pi and ang + ci.angular_radius > cj.angular_radius
    # a cap of angular radius 0 is empty by convention, so it covers nothing
    given_data = [(c.axis, c.angular_radius) for c in caps if not c.is_empty]
    points = np.vstack([_RANDOM_DIRECTIONS] + [a for a, _ in given_data])
    covered = sphere_point_margins(points, given_data) <= 0.0
    assert (sphere_point_margins(points[covered], caps_data(cs)) <= 1e-9).all()


@given(cap_sets())
def test_falsify_beats_every_sampled_direction(cs):
    d, mu = falsify(cs)
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
    assert sphere_point_margins([d], caps_data(cs))[0] == pytest.approx(mu, abs=1e-15)
    assert mu >= sphere_point_margins(_RANDOM_DIRECTIONS, caps_data(cs)).max() - 1e-12


@given(cap_sets())
@settings(max_examples=30)
def test_falsifier_and_arrangement_never_contradict(cs):
    _, mu = falsify(cs)
    report = boundary_arrangement(cs)
    if mu > 1e-9:
        # a genuinely uncovered sphere must leak through some boundary circle
        assert any(gaps for gaps in report)


@given(cap_sets(max_caps=4))
@settings(max_examples=30)
def test_growing_caps_never_uncovers(cs):
    before = cover_sphere(cs)
    grown = CapSet(
        [Cap(c.axis, min(c.angular_radius + 0.2, math.pi), c.topology) for c in cs.caps]
    )
    after = cover_sphere(grown)
    if before.verdict == COVERED:
        assert after.verdict == COVERED
    if after.verdict == UNCOVERED:
        assert before.verdict == UNCOVERED
