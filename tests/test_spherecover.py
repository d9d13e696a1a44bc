import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowgeo.geometry import Cap, unit
from shadowgeo.spherecover import (
    COVERED,
    INDETERMINATE,
    UNCOVERED,
    CapSet,
    boundary_arrangement,
    cap_boundary_cover_arcs,
    cover_sphere,
    falsify,
    margin,
    uncovered_area_estimate,
)

from oracles import sphere_cover_sampled, sphere_point_margins

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
    assert margin(Z, CapSet([])) == math.inf
    cs = CapSet([Cap(Z, math.pi / 3)])
    assert margin(Z, cs) == pytest.approx(0.5 - 1.0)
    assert margin(-Z, cs) == pytest.approx(0.5 + 1.0)


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
    other = cs.caps[1]
    b = cs.caps[0].angular_radius
    from shadowgeo.geometry import orthonormal_basis

    e1, e2 = orthonormal_basis(cs.caps[0].axis)
    for t in np.linspace(0, 2 * math.pi, 720, endpoint=False):
        p = math.cos(b) * cs.caps[0].axis + math.sin(b) * (math.cos(t) * e1 + math.sin(t) * e2)
        want = float(p @ other.axis) >= math.cos(other.angular_radius)
        got = any(a.contains(t) for a in arcs.arcs)
        if want != got:
            # disagreement allowed only within float fuzz of the crossing
            assert min(abs(a.signed_distance(t)) for a in arcs.arcs) < 1e-6


def test_uncovered_area_estimates():
    assert uncovered_area_estimate(CapSet([]), 10, seed=0) == pytest.approx(4 * math.pi)
    assert uncovered_area_estimate(CapSet([Cap(Z, math.pi)]), 1000, seed=0) == 0.0
    half = uncovered_area_estimate(CapSet([Cap(Z, math.pi / 2)]), 200_000, seed=1)
    assert half == pytest.approx(2 * math.pi, rel=0.02)
    with pytest.raises(ValueError):
        uncovered_area_estimate(CapSet([]), 0, seed=0)


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
