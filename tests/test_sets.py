"""Ellipsoid geometry, reachable-set sequences, and ultimate bounds."""

import numpy as np
import pytest

import satreach as sr
from satreach import CertificateError, Ellipsoid

REF_RATE = 0.98010206886129503
REF_EFFECTIVE = 0.78266292246021862
REF_NOISE = 7.05
REF_PUB_FULL = 1771.5409584181621
REF_PUB_EFFECTIVE = 162.19045732566198


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        Ellipsoid(P=np.eye(2), r=-1.0)
    with pytest.raises(ValueError):
        Ellipsoid(P=np.eye(2), r=float("nan"))
    with pytest.raises(ValueError):
        Ellipsoid(P=np.eye(2), r=float("inf"))
    with pytest.raises(CertificateError):
        Ellipsoid(P=[[1.0, 0.5], [0.0, 1.0]], r=1.0)
    with pytest.raises(CertificateError):
        Ellipsoid(P=np.diag([1.0, -1.0]), r=1.0)


def _inside(ellipsoid, x) -> bool:
    # Membership as the ensemble counts it: x' P x against the threshold.
    x = np.asarray(x, dtype=float)
    return float(x @ ellipsoid.P @ x) <= ellipsoid.threshold


def test_contains_center_boundary_outside():
    ell = Ellipsoid(P=np.diag([4.0, 1.0]), r=9.0)
    assert _inside(ell, [0.0, 0.0])
    assert _inside(ell, [1.5, 0.0])
    assert not _inside(ell, [1.5 * (1.0 + 1e-6), 0.0])


def test_contains_zero_radius_is_origin_only():
    ell = Ellipsoid(P=np.eye(2), r=0.0)
    assert _inside(ell, [0.0, 0.0])
    assert not _inside(ell, [1e-5, 0.0])


def test_area_unit_disk():
    assert sr.area(Ellipsoid(P=np.eye(2), r=1.0)) == pytest.approx(np.pi, rel=1e-15)


def test_area_scales_linearly_in_radius():
    P = np.array([[2.0, 0.4], [0.4, 1.0]])
    a1 = sr.area(Ellipsoid(P=P, r=1.0))
    a5 = sr.area(Ellipsoid(P=P, r=5.0))
    assert a5 == pytest.approx(5.0 * a1, rel=1e-14)


def test_area_diagonal_shape():
    assert sr.area(Ellipsoid(P=np.diag([4.0, 9.0]), r=1.0)) == pytest.approx(
        np.pi / 6.0, rel=1e-14
    )


def test_area_is_finite_where_pi_r_overflows():
    # pi * 1e308 overflows, but the area pi * 1e308 / 100 does not.
    assert sr.area(Ellipsoid(P=100.0 * np.eye(2), r=1e308)) == pytest.approx(np.pi * 1e306, rel=1e-14)
    with pytest.raises(ValueError, match="not finite"):
        sr.area(Ellipsoid(P=1e-4 * np.eye(2), r=1e308))


def test_area_requires_planar():
    with pytest.raises(ValueError):
        sr.area(Ellipsoid(P=np.eye(3), r=1.0))


def test_boundary_identity_square():
    pts = sr.boundary_polyline(Ellipsoid(P=np.eye(2), r=1.0), 4)
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert np.allclose(pts, expected, rtol=0.0, atol=1e-12)


def test_boundary_points_lie_on_the_level_set():
    rng = np.random.default_rng(31)
    G = rng.normal(size=(2, 2))
    P = G @ G.T + 0.5 * np.eye(2)
    ell = Ellipsoid(P=P, r=7.0)
    pts = sr.boundary_polyline(ell, 257)
    values = np.einsum("ij,jk,ik->i", pts, P, pts)
    assert np.allclose(values, 7.0, rtol=1e-10, atol=0.0)
    assert all(_inside(ell, p) for p in pts)


def test_boundary_validation():
    with pytest.raises(ValueError):
        sr.boundary_polyline(Ellipsoid(P=np.eye(2), r=1.0), 2)
    with pytest.raises(ValueError):
        sr.boundary_polyline(Ellipsoid(P=np.eye(3), r=1.0), 8)


def test_prs_sequence_reference_start(ref_shape):
    sets = sr.prs_sequence(ref_shape, REF_EFFECTIVE, REF_NOISE, 0.2, 3)
    assert len(sets) == 4
    assert sets[0].r == 0.0
    # One step in, the scaling is noise / epsilon regardless of the rate.
    assert sets[1].r == pytest.approx(REF_NOISE / 0.2, rel=1e-14)
    radii = [e.r for e in sets]
    assert radii == sorted(radii)


def test_prs_sequence_approaches_ultimate_bound(ref_shape):
    sets = sr.prs_sequence(ref_shape, REF_EFFECTIVE, REF_NOISE, 0.2, 100)
    limit = sr.pub(ref_shape, REF_EFFECTIVE, REF_NOISE, 0.2)
    assert REF_EFFECTIVE**100 < 1e-9
    assert sets[-1].r == pytest.approx(limit.r, rel=1e-6)
    assert all(e.r <= limit.r * (1.0 + 1e-12) for e in sets)


def test_prs_sequence_grows_as_epsilon_shrinks(ref_shape):
    loose = sr.prs_sequence(ref_shape, 0.8, 1.0, 0.5, 10)
    tight = sr.prs_sequence(ref_shape, 0.8, 1.0, 0.1, 10)
    for small, big in zip(loose[1:], tight[1:]):
        assert big.r > small.r


def test_pub_reference_scalings(ref_shape):
    full = sr.pub(ref_shape, REF_RATE, REF_NOISE, 0.2)
    effective = sr.pub(ref_shape, REF_EFFECTIVE, REF_NOISE, 0.2)
    assert full.r == pytest.approx(REF_PUB_FULL, rel=1e-12)
    assert effective.r == pytest.approx(REF_PUB_EFFECTIVE, rel=1e-12)
    reduction = 1.0 - sr.area(effective) / sr.area(full)
    assert reduction == pytest.approx(1.0 - effective.r / full.r, rel=1e-12)
    assert 0.90 <= reduction <= 0.92


def test_pub_zero_noise_is_origin(ref_shape):
    assert sr.pub(ref_shape, 0.9, 0.0, 0.2).r == 0.0


def test_pub_validation(ref_shape):
    with pytest.raises(ValueError):
        sr.pub(ref_shape, 1.0, 1.0, 0.2)
    with pytest.raises(ValueError):
        sr.pub(ref_shape, 0.9, -1.0, 0.2)
    with pytest.raises(ValueError):
        sr.pub(ref_shape, 0.9, 1.0, 0.0)
    with pytest.raises(ValueError):
        sr.pub(ref_shape, 0.9, 1.0, 1.5)
    # epsilon (1 - rate) that is subnormal gives an infinite scaling, and one
    # that underflows to zero no quotient at all.
    for epsilon in (1e-320, 5e-324):
        with pytest.raises(ValueError):
            sr.pub(ref_shape, 0.9, 1.0, epsilon)


def test_prs_validation(ref_shape):
    with pytest.raises(ValueError):
        sr.prs_sequence(ref_shape, 0.9, 1.0, 0.2, -1)
    with pytest.raises(ValueError):
        sr.prs_sequence(ref_shape, -0.1, 1.0, 0.2, 5)
