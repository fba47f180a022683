"""Rate computation, shape-matrix synthesis, and certificate verification."""

import time

import numpy as np
import pytest
import scipy.linalg
from conftest import grid_best_planar_rate, grid_min_rate_oracle, random_certifiable_problem

import satreach as sr
import satreach.certify as certify
from satreach import (
    CertificateError,
    ContractionCertificate,
    FeedbackGain,
    SynthesisError,
    SystemSpec,
)

# Regression values for the benchmark plant, frozen at first computation.
REF_RATE = 0.98010206886129503
REF_RATE_LINEAR = 0.76852028012028373
REF_SYNTH_RATE = 0.9801000000000001


def test_min_rate_scalar_problem():
    # One state, one input: the rate is the worse of the two squared poles,
    # independent of the (scalar) shape matrix.
    sys1 = SystemSpec(A=[[0.9]], B=[[1.0]], W=[[1.0]], ubar=[1.0])
    gain1 = FeedbackGain(K=[[-0.6]])
    verts = sr.vertex_matrices(sys1, gain1)
    expected = max(0.9**2, 0.3**2)
    for p in (0.5, 1.0, 7.0):
        assert sr.min_contraction_rate([[p]], verts) == pytest.approx(expected, rel=1e-13)


def test_min_rate_reference_value(ref_sys, ref_gain, ref_shape):
    verts = sr.vertex_matrices(ref_sys, ref_gain)
    rate = sr.min_contraction_rate(ref_shape, verts)
    assert rate == pytest.approx(REF_RATE, rel=1e-12)


def test_min_rate_matches_generalized_eigensolver(ref_sys, ref_gain):
    rng = np.random.default_rng(3)
    verts = sr.vertex_matrices(ref_sys, ref_gain)
    for _ in range(25):
        G = rng.normal(size=(2, 2))
        P = G @ G.T + 0.2 * np.eye(2)
        rate = sr.min_contraction_rate(P, verts)
        oracle = max(
            scipy.linalg.eigh(M.T @ P @ M, P, eigvals_only=True)[-1] for M in verts
        )
        assert rate == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_min_rate_matches_feasibility_grid():
    rng = np.random.default_rng(5)
    for _ in range(50):
        sys_r, gain_r = random_certifiable_problem(rng)
        verts = sr.vertex_matrices(sys_r, gain_r)
        G = rng.normal(size=(2, 2))
        P = G @ G.T + 0.3 * np.eye(2)
        rate = sr.min_contraction_rate(P, verts)
        if rate >= 1.0:
            continue
        oracle = grid_min_rate_oracle(P, verts)
        assert abs(rate - oracle) <= 1.5e-5


def test_min_rate_invariant_under_shape_scaling(ref_sys, ref_gain, ref_shape):
    verts = sr.vertex_matrices(ref_sys, ref_gain)
    base = sr.min_contraction_rate(ref_shape, verts)
    for c in (1e-3, 4.0, 1e5):
        assert sr.min_contraction_rate(c * ref_shape, verts) == pytest.approx(
            base, rel=1e-11
        )


def test_min_rate_is_tight(ref_sys, ref_gain, ref_shape):
    # At the reported rate some vertex slack matrix is exactly singular.
    verts = sr.vertex_matrices(ref_sys, ref_gain)
    rate = sr.min_contraction_rate(ref_shape, verts)
    slacks = [
        np.linalg.eigvalsh(rate * ref_shape - M.T @ ref_shape @ M)[0] for M in verts
    ]
    assert min(slacks) == pytest.approx(0.0, abs=1e-10)
    assert all(s >= -1e-10 for s in slacks)


def test_min_rate_monotone_in_vertex_set(ref_sys, ref_gain, ref_shape):
    verts = sr.vertex_matrices(ref_sys, ref_gain)
    single = verts[1:]
    both = sr.min_contraction_rate(ref_shape, verts)
    assert sr.min_contraction_rate(ref_shape, single) <= both + 1e-15


def test_min_rate_rejects_bad_shape(ref_sys, ref_gain):
    verts = sr.vertex_matrices(ref_sys, ref_gain)
    with pytest.raises(CertificateError):
        sr.min_contraction_rate([[1.0, 0.5], [0.0, 1.0]], verts)
    with pytest.raises(CertificateError):
        sr.min_contraction_rate([[1.0, 0.0], [0.0, -1.0]], verts)


@pytest.mark.parametrize(
    "P",
    [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, np.inf]],
        [[1.0, -np.inf], [-np.inf, 1.0]],
        # Finite, but the symmetrizing sum overflows.
        [[1.0, 1e308], [1e308, 1.0]],
    ],
    ids=["nan", "inf", "off-diagonal-inf", "overflow"],
)
def test_non_finite_shape_is_rejected(ref_sys, ref_gain, P):
    verts = sr.vertex_matrices(ref_sys, ref_gain)
    with pytest.raises(CertificateError, match="finite"):
        ContractionCertificate(P=P, rate=0.9, rate_linear=0.5)
    with pytest.raises(CertificateError, match="finite"):
        sr.Ellipsoid(P, 1.0)
    with pytest.raises(CertificateError, match="finite"):
        sr.min_contraction_rate(P, verts)


def test_closed_loop_rate_reference(ref_sys, ref_gain, ref_shape):
    rate = sr.closed_loop_rate(ref_shape, ref_sys, ref_gain)
    assert rate == pytest.approx(REF_RATE_LINEAR, rel=1e-12)


def test_closed_loop_rate_equals_full_vertex(ref_sys, ref_gain, ref_shape):
    verts = sr.vertex_matrices(ref_sys, ref_gain)
    full = verts[-1:]
    assert sr.closed_loop_rate(ref_shape, ref_sys, ref_gain) == pytest.approx(
        sr.min_contraction_rate(ref_shape, full), rel=1e-12
    )


def test_closed_loop_rate_deadbeat():
    sys_d = SystemSpec(A=0.6 * np.eye(2), B=np.eye(2), W=np.eye(2), ubar=[1.0, 1.0])
    gain_d = FeedbackGain(K=-0.6 * np.eye(2))
    assert sr.closed_loop_rate(np.eye(2), sys_d, gain_d) == pytest.approx(0.0, abs=1e-14)


def test_synthesize_without_feedback_reaches_spectral_floor():
    # B = 0 leaves only the open loop; the best rate is its squared
    # spectral radius, reached within the bisection resolution.
    sys0 = SystemSpec(
        A=0.5 * np.eye(2), B=np.zeros((2, 1)), W=np.eye(2), ubar=[1.0]
    )
    P, rate = sr.synthesize_contraction(sys0, FeedbackGain(K=np.zeros((1, 2))))
    assert 0.25 <= rate <= 0.25 + 2e-4
    assert np.trace(P) == pytest.approx(2.0, rel=1e-12)
    assert np.linalg.eigvalsh(P)[0] > 0.0


def test_synthesize_reference_system(ref_sys, ref_gain):
    start = time.perf_counter()
    P, rate = sr.synthesize_contraction(ref_sys, ref_gain)
    elapsed = time.perf_counter() - start
    assert rate == pytest.approx(REF_SYNTH_RATE, abs=1e-6)
    assert elapsed < 10.0
    rate_linear = sr.closed_loop_rate(P, ref_sys, ref_gain)
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=rate_linear)
    assert sr.verify_certificate(cert, ref_sys, ref_gain).passed


def test_synthesize_respects_trace_scale(ref_sys, ref_gain):
    P, _ = sr.synthesize_contraction(ref_sys, ref_gain, trace_scale=5.0)
    assert np.trace(P) == pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize(
    "tolerance",
    [{"feas_tol": 0.0}, {"bisect_tol": -0.1}, {"bisect_tol": 1.0}, {"trace_scale": -1.0}],
    ids=["feas_tol", "negative-bisect_tol", "unit-bisect_tol", "trace_scale"],
)
def test_synthesize_rejects_bad_tolerances_before_probing(ref_sys, ref_gain, monkeypatch, tolerance):
    # A negative bisect_tol used to bisect forever, and a negative
    # trace_scale failed only after the whole bisection.
    monkeypatch.setattr(certify, "_feasible_shape", lambda *args: pytest.fail("probed"))
    with pytest.raises(ValueError):
        sr.synthesize_contraction(ref_sys, ref_gain, **tolerance)


def test_synthesize_round_trip_random_problems():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sys_r, gain_r = random_certifiable_problem(rng, n=int(rng.integers(2, 4)))
        P, rate = sr.synthesize_contraction(sys_r, gain_r)
        rate_linear = sr.closed_loop_rate(P, sys_r, gain_r)
        assert 0.0 <= rate_linear
        assert rate_linear + 1e-4 < rate < 1.0
        cert = ContractionCertificate(P=P, rate=rate, rate_linear=rate_linear)
        assert sr.verify_certificate(cert, sys_r, gain_r).passed
        verts = sr.vertex_matrices(sys_r, gain_r)
        assert rate == sr.min_contraction_rate(P, verts)
        # No shape matrix beats the worst squared vertex spectral radius,
        # and synthesis should land within a few bisection steps of it.
        floor = max(np.abs(np.linalg.eigvals(M)).max() ** 2 for M in verts)
        assert floor - 1e-9 <= rate <= floor + 5e-4


@pytest.mark.parametrize("m, seed", [(1, 0), (1, 1), (1, 2), (2, 2), (2, 3), (2, 7), (2, 11)])
def test_synthesis_is_not_beaten_by_a_planar_grid(m, seed):
    # The grid's best shape is one feasible point, so a synthesis that finds
    # the optimal rate lands at or below it, up to the bisection step.  The
    # Stein-lift heuristic stopped 0.0246 above it on (m, seed) = (2, 11).
    sys_r, gain_r = random_certifiable_problem(np.random.default_rng(seed), 2, m)
    _, rate = sr.synthesize_contraction(sys_r, gain_r)
    best = grid_best_planar_rate(sr.vertex_matrices(sys_r, gain_r))
    assert rate <= best + certify.DEFAULT_BISECT_TOL


def test_newton_system_matches_finite_differences_of_the_barrier():
    # Coordinates as in _stein_correction: P's upper triangle in the basis
    # e_k e_l' + e_l e_k', then t.
    vertices = sr.vertex_matrices(*random_certifiable_problem(np.random.default_rng(4), 3, 2))
    rate, P0, t0, h = 0.99, np.diag([0.5, 0.4, 0.6]), -0.3, 1e-4
    rows, cols = np.triu_indices(3)

    def barrier(x):
        dP = np.zeros((3, 3))
        dP[rows, cols] = x[:-1]
        return certify._barrier(vertices, rate, P0 + dP + dP.T, t0 + x[-1], 0.0)

    step = h * np.eye(rows.size + 1)
    grad = np.array([barrier(e) - barrier(-e) for e in step]) / (2 * h)
    hess = np.array(
        [[barrier(a + b) - barrier(a - b) - barrier(b - a) + barrier(-a - b) for b in step]
         for a in step]
    ) / (4 * h * h)
    g, Hg, He = certify._stein_correction(vertices, rate, P0, t0)
    assert np.allclose(g, grad, rtol=1e-6, atol=1e-6)
    assert np.allclose(hess @ Hg, g, rtol=1e-4, atol=1e-4)
    assert np.allclose(hess @ He, np.eye(rows.size + 1)[-1], rtol=1e-4, atol=1e-4)


def test_synthesize_rejects_unstable_closed_loop():
    sys_u = SystemSpec(A=0.9 * np.eye(2), B=[[0.0], [1.0]], W=np.eye(2), ubar=[1.0])
    with pytest.raises(SynthesisError):
        sr.synthesize_contraction(sys_u, FeedbackGain(K=[[0.0, 10.0]]))


def test_verify_reference_certificate(ref_sys, ref_gain, ref_shape):
    cert = ContractionCertificate(
        P=ref_shape, rate=REF_RATE, rate_linear=REF_RATE_LINEAR
    )
    report = sr.verify_certificate(cert, ref_sys, ref_gain)
    assert report.passed
    assert len(report.vertex_residuals) == 2
    assert report.rate_gap == pytest.approx(REF_RATE - REF_RATE_LINEAR, rel=1e-12)
    assert report.shape_min_eig > 0.0


def test_verify_rejects_understated_rate(ref_sys, ref_gain, ref_shape):
    cert = ContractionCertificate(P=ref_shape, rate=0.97, rate_linear=0.75)
    report = sr.verify_certificate(cert, ref_sys, ref_gain)
    assert not report.passed
    assert min(report.vertex_residuals) < -cert.feas_tol


def test_verify_rejects_indefinite_shape(ref_sys, ref_gain):
    cert = ContractionCertificate(
        P=np.diag([1.0, -1.0]), rate=0.9, rate_linear=0.5
    )
    assert not sr.verify_certificate(cert, ref_sys, ref_gain).passed


def test_certificate_requires_ordered_rates(ref_shape):
    with pytest.raises(ValueError):
        ContractionCertificate(P=ref_shape, rate=0.5, rate_linear=0.7)
    with pytest.raises(ValueError):
        ContractionCertificate(P=ref_shape, rate=1.2, rate_linear=0.5)
    with pytest.raises(ValueError):
        ContractionCertificate(
            P=[[1.0, 0.5], [0.0, 1.0]], rate=0.9, rate_linear=0.5
        )
