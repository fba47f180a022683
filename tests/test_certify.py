"""Rate computation, shape-matrix synthesis, and certificate verification."""

import math
import time

import numpy as np
import pytest
import scipy.linalg
from conftest import grid_min_rate_oracle, random_certifiable_problem

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


def _unfactored(patch):
    """Route each correction through one scipy solve, with no inverse
    formed ahead: the "factor" is the scaled transposed vertex."""

    def correction(a, rate, deficit):
        dP = scipy.linalg.solve_discrete_lyapunov(a, deficit / rate)
        return 0.5 * (dP + dP.T)

    patch.setattr(certify, "_stein_factor", lambda vertex, rate: vertex.T / math.sqrt(rate))
    patch.setattr(certify, "_stein_correction", correction)


def _multi_input_plants():
    rng = np.random.default_rng(4)
    return [random_certifiable_problem(rng, n=n, m=m) for n, m in ((3, 3), (4, 3), (3, 4))]


def test_synthesis_matches_the_unfactored_scipy_solve(monkeypatch):
    plants = _multi_input_plants()
    factored = [sr.synthesize_contraction(*plant) for plant in plants]
    _unfactored(monkeypatch)
    for plant, (P, rate) in zip(plants, factored):
        P_ref, rate_ref = sr.synthesize_contraction(*plant)
        # The same bisection: the shipped rate is the exact rate of P, so it
        # moves only with P's rounding, far below one bisection step.
        assert rate == pytest.approx(rate_ref, rel=1e-9, abs=0.0)
        assert np.allclose(P, P_ref, rtol=1e-9, atol=0.0)


def _probe_log(monkeypatch):
    """Per `_feasible_shape` call: the vertices factored, the factors
    built and the number of `_stein_correction` calls."""
    log = []
    feasible, factor, correction = (
        certify._feasible_shape, certify._stein_factor, certify._stein_correction
    )

    def logged_feasible(*args, **kwargs):
        log.append({"vertices": [], "factors": [], "solves": 0})
        return feasible(*args, **kwargs)

    def logged_factor(vertex, rate):
        built = factor(vertex, rate)
        log[-1]["vertices"].append(vertex.tobytes())
        log[-1]["factors"].append(built)
        return built

    def logged_correction(built, rate, deficit):
        assert any(built is own for own in log[-1]["factors"])
        log[-1]["solves"] += 1
        return correction(built, rate, deficit)

    monkeypatch.setattr(certify, "_feasible_shape", logged_feasible)
    monkeypatch.setattr(certify, "_stein_factor", logged_factor)
    monkeypatch.setattr(certify, "_stein_correction", logged_correction)
    return log


def test_each_probe_factors_a_vertex_at_most_once(monkeypatch):
    plant = _multi_input_plants()[2]
    vertices = sr.vertex_matrices(*plant)
    with monkeypatch.context() as patch:
        _unfactored(patch)
        reference = _probe_log(patch)
        sr.synthesize_contraction(*plant)
    log = _probe_log(monkeypatch)
    sr.synthesize_contraction(*plant)
    assert len(log) == len(reference) > 1
    for probe, ref_probe in zip(log, reference):
        assert len(set(probe["vertices"])) == len(probe["vertices"]) <= len(vertices)
        # One solve per correction, as on the unfactored path.
        assert probe["solves"] == ref_probe["solves"]
    assert sum(p["solves"] for p in log) > sum(len(p["factors"]) for p in log)


def test_singular_stein_operator_is_loud():
    # Eigenvalues +-1 at rate one: I - kron(a, a) is exactly singular, so
    # forming its inverse must fail.
    with pytest.raises(np.linalg.LinAlgError):
        certify._stein_factor(np.array([[0.0, 0.5], [2.0, 0.0]]), 1.0)


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
