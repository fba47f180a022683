"""Rate computation, shape-matrix synthesis, and certificate verification."""

import time

import numpy as np
import pytest
import scipy.linalg
from conftest import grid_best_planar_rate, grid_min_rate_oracle, random_certifiable_problem
from hypothesis import given
from hypothesis import strategies as st

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
    # A P that is not square is refused before it is symmetrized.
    with pytest.raises(CertificateError, match="square"):
        ContractionCertificate(P=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], rate=0.9, rate_linear=0.5)


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


def test_a_shape_of_another_size_is_refused_by_every_rate_and_check(ref_sys, ref_gain):
    # The demo plant is planar; a 3 x 3 P fits none of its vertices.
    P = np.eye(3)
    cert = ContractionCertificate(P=P, rate=0.99, rate_linear=0.5)
    calls = (
        lambda: sr.min_contraction_rate(P, sr.vertex_matrices(ref_sys, ref_gain)),
        lambda: sr.closed_loop_rate(P, ref_sys, ref_gain),
        lambda: sr.verify_certificate(cert, ref_sys, ref_gain),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^vertex dimension does not match P$"):
            call()


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


def test_synthesize_respects_trace_scale():
    # Synthesis fixes the free scale of the certificate cone at trace(P) = n.
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        P, _ = sr.synthesize_contraction(*random_certifiable_problem(rng, n=n))
        assert np.trace(P) == pytest.approx(n, rel=1e-12)


@pytest.mark.parametrize(
    "tolerance",
    [{"feas_tol": 0.0}, {"bisect_tol": -0.1}, {"bisect_tol": 1.0}],
    ids=["feas_tol", "negative-bisect_tol", "unit-bisect_tol"],
)
def test_synthesize_rejects_bad_tolerances_before_probing(ref_sys, ref_gain, monkeypatch, tolerance):
    # A negative bisect_tol used to bisect forever.
    monkeypatch.setattr(certify, "_feasible_shape", lambda *args: pytest.fail("probed"))
    with pytest.raises(ValueError):
        sr.synthesize_contraction(ref_sys, ref_gain, **tolerance)


@pytest.fixture
def probes(monkeypatch):
    """Count synthesis's barrier probes (calls of certify._feasible_shape)."""
    calls = []
    real = certify._feasible_shape

    def counting(vertices, rate, *args, **kwargs):
        calls.append(rate)
        return real(vertices, rate, *args, **kwargs)

    monkeypatch.setattr(certify, "_feasible_shape", counting)
    return calls


def _floor(sys_r, gain_r) -> float:
    """The worst vertex's squared spectral radius, below every certifiable rate."""
    return float(np.abs(np.linalg.eigvals(sr.vertex_matrices(sys_r, gain_r))).max()) ** 2


def test_synthesize_round_trip_random_problems(probes):
    rng = np.random.default_rng(11)
    for _ in range(50):
        sys_r, gain_r = random_certifiable_problem(rng, n=int(rng.integers(2, 4)))
        del probes[:]
        P, rate = sr.synthesize_contraction(sys_r, gain_r)
        rate_linear = sr.closed_loop_rate(P, sys_r, gain_r)
        assert 0.0 <= rate_linear
        assert rate_linear + 1e-4 < rate < 1.0
        cert = ContractionCertificate(P=P, rate=rate, rate_linear=rate_linear)
        assert sr.verify_certificate(cert, sys_r, gain_r).passed
        verts = sr.vertex_matrices(sys_r, gain_r)
        assert rate == sr.min_contraction_rate(P, verts)
        # No shape matrix beats the worst squared vertex spectral radius.
        # When the first probe, at floor + bisect_tol, finds a shape, that is
        # the only probe and the rate is within bisect_tol of the floor;
        # otherwise bisection lands within a few steps of it.
        floor = _floor(sys_r, gain_r)
        if len(probes) == 1:
            assert floor - 1e-9 <= rate <= floor + certify.DEFAULT_BISECT_TOL
        else:
            assert floor - 1e-9 <= rate <= floor + 5e-4


def _floor_above_optimum(scale: float = 1.0):
    """A plant whose best quadratic rate is at least twice its floor.

    Every hull vertex has squared spectral radius at most scale^2 / 4 and
    the linear loop is deadbeat, but the product of the two partly
    saturated vertices has spectral radius scale^2 / 2, so no common
    quadratic certificate has a rate below scale^2 / 2.
    """
    A = scale * np.array([[0.5, -0.5], [1.0, -0.5]])
    B = [[0.0, 0.5], [-1.0, 1.0]]
    K = scale * np.array([[0.0, 0.5], [-1.0, 1.0]])
    return SystemSpec(A=A, B=B, W=np.eye(2), ubar=[1.0, 1.0]), FeedbackGain(K=K)


@pytest.fixture
def kept(probes, monkeypatch):
    """The last iterate of each failed probe that synthesis keeps (through
    `last`), after swapping in kept["replacement"] when that is set."""
    record = {"iterates": [], "replacement": None}
    counting = certify._feasible_shape

    def keeping(*args, last=None, **kwargs):
        shape = counting(*args, last=last, **kwargs)
        if last:
            if record["replacement"] is not None:
                last[0] = record["replacement"]
            record["iterates"].append(last[0])
        return shape

    monkeypatch.setattr(certify, "_feasible_shape", keeping)
    return record


def test_synthesis_bisects_when_the_floor_probe_fails(probes, kept):
    sys_r, gain_r = _floor_above_optimum()
    vertices = sr.vertex_matrices(sys_r, gain_r)
    floor, tol = _floor(sys_r, gain_r), certify.DEFAULT_BISECT_TOL
    assert floor == pytest.approx(0.25, abs=1e-12)
    # The floor probe's last iterate is an iterate over its active vertices
    # only; on this plant it collapses towards P = 0 and its exact rate over
    # all four is 1.158, so a shape found at rate 0.9 stands in for it.
    # That shape's exact rate becomes the upper end in place of a cold probe
    # at 1 - bisect_tol, so every later probe lies inside the bracket.
    kept["replacement"] = certify._feasible_shape(vertices, 0.9, certify.DEFAULT_FEAS_TOL)
    hi = certify._shippable_rate(kept["replacement"], vertices, certify.DEFAULT_FEAS_TOL)
    assert 0.5 < hi < 0.9
    del probes[:]
    P, rate = sr.synthesize_contraction(sys_r, gain_r)
    assert probes[0] == floor + tol and len(kept["iterates"]) == 1
    assert 1.0 - tol not in probes and len(probes) > 1
    assert all(floor + tol < probe < hi for probe in probes[1:])
    assert 0.5 - 1e-9 <= rate <= grid_best_planar_rate(vertices) + tol
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=sr.closed_loop_rate(P, sys_r, gain_r))
    assert sr.verify_certificate(cert, sys_r, gain_r).passed


@pytest.mark.parametrize(
    "replacement",
    [np.diag([1.0, -1.0]), np.diag([1.0, 1e-9]), np.eye(2)],
    ids=["indefinite", "below-feas_tol", "rate-above-one"],
)
def test_synthesis_probes_one_minus_bisect_tol_when_the_kept_iterate_is_unusable(
    probes, kept, replacement
):
    # A kept iterate that is not positive definite, whose rescaled smallest
    # eigenvalue misses feas_tol, or whose rate is not below 1 - bisect_tol
    # gives no upper end: the bisection starts from a cold probe there.
    sys_r, gain_r = _floor_above_optimum()
    vertices = sr.vertex_matrices(sys_r, gain_r)
    floor, tol = _floor(sys_r, gain_r), certify.DEFAULT_BISECT_TOL
    assert certify._shippable_rate(replacement, vertices, certify.DEFAULT_FEAS_TOL) >= 1.0 - tol
    kept["replacement"] = replacement
    P, rate = sr.synthesize_contraction(sys_r, gain_r)
    assert probes[:2] == [floor + tol, 1.0 - tol] and len(probes) > 2
    assert all(floor + tol < probe < 1.0 - tol for probe in probes[2:])
    assert 0.5 - 1e-9 <= rate <= grid_best_planar_rate(vertices) + tol
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=sr.closed_loop_rate(P, sys_r, gain_r))
    assert sr.verify_certificate(cert, sys_r, gain_r).passed


def test_synthesis_probes_once_when_the_floor_is_within_bisect_tol_of_one(probes):
    # Scaled so that the floor lies in [1 - 2 bisect_tol, 1 - bisect_tol):
    # the floor probe would be at or past 1 - bisect_tol, so that rate is
    # probed once, and no shape certifies it.
    sys_r, gain_r = _floor_above_optimum(2.0 * np.sqrt(0.99985))
    tol = certify.DEFAULT_BISECT_TOL
    assert 1.0 - 2.0 * tol <= _floor(sys_r, gain_r) < 1.0 - tol
    with pytest.raises(SynthesisError, match="no common quadratic certificate"):
        sr.synthesize_contraction(sys_r, gain_r)
    assert probes == [1.0 - tol]


def test_synthesis_reaches_the_floor_with_eight_inputs():
    # The all-vertex floor probe refuted floor + bisect_tol = 0.862546 on
    # this plant and shipped 0.862921, although a shape with exact rate
    # 0.862543 exists.  (random_certifiable_problem draws the same plant as
    # the benchmark's multi_input_plant from the same generator.)
    sys_r, gain_r = random_certifiable_problem(np.random.default_rng(1), 6, 8)
    P, rate = sr.synthesize_contraction(sys_r, gain_r)
    assert rate <= _floor(sys_r, gain_r) + certify.DEFAULT_BISECT_TOL
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=sr.closed_loop_rate(P, sys_r, gain_r))
    assert sr.verify_certificate(cert, sys_r, gain_r).passed


def test_synthesis_reaches_a_certifiable_rate_with_twelve_inputs():
    # With every failing vertex joining, 160 of the 4096 vertices were
    # active and two probes were refuted at squared Newton decrements of
    # -9.8e3 and -6.3e4, so 0.857109 shipped although a shape with exact
    # rate 0.85673 exists.
    sys_r, gain_r = random_certifiable_problem(np.random.default_rng(3), 6, 12)
    P, rate = sr.synthesize_contraction(sys_r, gain_r)
    assert rate <= 0.85673 + certify.DEFAULT_BISECT_TOL
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=sr.closed_loop_rate(P, sys_r, gain_r))
    assert sr.verify_certificate(cert, sys_r, gain_r).passed


def test_only_the_worst_failing_vertex_joins_the_active_set(monkeypatch):
    # On this plant many vertices fail each check by a little; with every
    # failing vertex joining, 304 of its 1024 vertices ended up active.
    sys_r, gain_r = random_certifiable_problem(np.random.default_rng(2), 8, 10)
    lists = []
    real = certify._feasible_shape

    def recording(*args, active=None, **kwargs):
        lists.append(active)
        return real(*args, active=active, **kwargs)

    monkeypatch.setattr(certify, "_feasible_shape", recording)
    P, rate = sr.synthesize_contraction(sys_r, gain_r)
    assert all(active is lists[0] for active in lists)
    assert len(set(lists[0])) == len(lists[0]) <= 32
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=sr.closed_loop_rate(P, sys_r, gain_r))
    assert sr.verify_certificate(cert, sys_r, gain_r).passed


@pytest.mark.parametrize("m, seed", [(1, 0), (1, 1), (1, 2), (2, 2), (2, 3), (2, 7), (2, 11)])
def test_synthesis_is_not_beaten_by_a_planar_grid(m, seed):
    # The grid's best shape is one feasible point, so a synthesis that finds
    # the optimal rate lands at or below it, up to the bisection step.  The
    # Stein-lift heuristic stopped 0.0246 above it on (m, seed) = (2, 11).
    sys_r, gain_r = random_certifiable_problem(np.random.default_rng(seed), 2, m)
    _, rate = sr.synthesize_contraction(sys_r, gain_r)
    best = grid_best_planar_rate(sr.vertex_matrices(sys_r, gain_r))
    assert rate <= best + certify.DEFAULT_BISECT_TOL


@given(
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    margin=st.floats(0.1, 1.0),
)
def test_newton_system_matches_finite_differences_of_the_barrier(n, m, seed, fraction, margin):
    # Coordinates as in _stein_correction: P's upper triangle in the basis
    # e_k e_l' + e_l e_k', then t.  (P0, t0) lies inside the barrier's
    # domain: every slack block exceeds t0 I by at least `margin`.
    rng = np.random.default_rng(seed)
    vertices = sr.vertex_matrices(*random_certifiable_problem(rng, n, m))
    floor = float(np.abs(np.linalg.eigvals(vertices)).max()) ** 2
    rate = floor + fraction * (1.0 - floor)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    P0 = (Q * rng.uniform(0.1, 0.9, n)) @ Q.T
    P0 = 0.5 * (P0 + P0.T)
    t0 = np.linalg.eigvalsh(certify._slacks(vertices, rate, P0))[:, 0].min() - margin
    h = 1e-4
    rows, cols = np.triu_indices(n)

    def barrier(x):
        dP = np.zeros((n, n))
        dP[rows, cols] = x[:-1]
        return -certify._log_det(certify._slacks(vertices, rate, P0 + dP + dP.T, t0 + x[-1]))

    step = h * np.eye(rows.size + 1)
    grad = np.array([barrier(e) - barrier(-e) for e in step]) / (2 * h)
    hess = np.array(
        [[barrier(a + b) - barrier(a - b) - barrier(b - a) + barrier(-a - b) for b in step]
         for a in step]
    ) / (4 * h * h)
    g, Hg, He = certify._stein_correction(
        certify._slacks(vertices, rate, P0, t0), certify._Probe(vertices, rate)
    )
    # Central differences at h = 1e-4 err by O(h^2) relative to the
    # gradient's scale (~2e-7 at worst over 400 random draws).
    scale = np.abs(g).max()
    assert np.abs(g - grad).max() <= 1e-6 * scale
    assert np.abs(hess @ Hg - g).max() <= 1e-4 * scale
    assert np.abs(hess @ He - np.eye(rows.size + 1)[-1]).max() <= 1e-4


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
    # The open loop A (vertex 0) is tight at rate rho(A)^2; the linear loop
    # (vertex 1) holds with room to spare.
    assert report.worst_vertex == 0
    assert abs(report.worst_residual) <= cert.feas_tol
    assert report.tight_vertices == 1
    assert report.rate_gap == pytest.approx(REF_RATE - REF_RATE_LINEAR, rel=1e-12)
    assert report.shape_min_eig > 0.0


def test_verify_rejects_understated_rate(ref_sys, ref_gain, ref_shape):
    cert = ContractionCertificate(P=ref_shape, rate=0.97, rate_linear=0.75)
    report = sr.verify_certificate(cert, ref_sys, ref_gain)
    assert not report.passed
    assert report.worst_residual < -cert.feas_tol


def test_verify_rejects_indefinite_shape(ref_sys, ref_gain):
    cert = ContractionCertificate(
        P=np.diag([1.0, -1.0]), rate=0.9, rate_linear=0.5
    )
    assert not sr.verify_certificate(cert, ref_sys, ref_gain).passed


def test_certificate_requires_ordered_rates(ref_sys, ref_gain, ref_shape):
    # The constructor checks each rate alone; verify_certificate judges
    # their order, and fails an unordered or equal pair by its rate gap.
    for rate, rate_linear in ((0.5, 0.7), (REF_RATE, REF_RATE)):
        cert = ContractionCertificate(P=ref_shape, rate=rate, rate_linear=rate_linear)
        report = sr.verify_certificate(cert, ref_sys, ref_gain)
        assert not report.passed
        assert report.rate_gap == rate - rate_linear <= 0.0
    with pytest.raises(ValueError):
        ContractionCertificate(P=ref_shape, rate=1.2, rate_linear=0.5)
    with pytest.raises(ValueError):
        ContractionCertificate(P=ref_shape, rate=0.9, rate_linear=-0.1)
    with pytest.raises(ValueError):
        ContractionCertificate(
            P=[[1.0, 0.5], [0.0, 1.0]], rate=0.9, rate_linear=0.5
        )
