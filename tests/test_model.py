"""Plant validation, saturation, step maps, and the vertex enumeration."""

import numpy as np
import pytest
from conftest import hull_membership_check

import satreach as sr
from satreach import FeedbackGain, PreconditionError, SystemSpec


def test_saturate_unchanged_inside_bounds():
    u = np.array([0.5, -1.2, 0.0])
    out = sr.saturate(u, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(out, u)


def test_saturate_clips_componentwise():
    out = sr.saturate([4.0, -7.0, 0.25], [1.0, 2.0, 3.0])
    assert np.array_equal(out, [1.0, -2.0, 0.25])


def test_saturate_is_idempotent_and_odd():
    rng = np.random.default_rng(7)
    ubar = np.array([0.5, 1.5, 4.0])
    for _ in range(200):
        u = rng.normal(scale=3.0, size=3)
        once = sr.saturate(u, ubar)
        assert np.array_equal(sr.saturate(once, ubar), once)
        assert np.array_equal(sr.saturate(-u, ubar), -once)
        assert np.all(np.abs(once) <= ubar)


def test_saturate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sr.saturate([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        sr.saturate([1.0], [0.0])


def test_saturate_stack_matches_per_row_calls():
    rng = np.random.default_rng(11)
    ubar = np.array([0.5, 1.5, 4.0])
    stack = rng.normal(scale=3.0, size=(7, 3))
    out = sr.saturate(stack, ubar)
    assert out.shape == (7, 3)
    rows = np.array([sr.saturate(row, ubar) for row in stack])
    assert np.array_equal(out.view(np.uint64), rows.view(np.uint64))


def test_saturate_stack_rejects_a_nan_row():
    stack = np.zeros((7, 3))
    stack[4] = np.nan
    with pytest.raises(ValueError):
        sr.saturate(stack, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        sr.saturate(np.zeros((7, 2)), [1.0, 2.0, 3.0])


def test_error_step_with_deep_saturation(ref_sys, ref_gain):
    # Far from the origin the feedback rails at -ubar and only the second
    # state feels it through B.
    out = sr.error_step([100.0, 100.0], [0.0], [0.0, 0.0], ref_sys, ref_gain)
    assert np.allclose(out, [99.0, 89.0], rtol=0.0, atol=1e-12)


def test_error_step_linear_when_small(ref_sys, ref_gain):
    e = np.array([0.3, -0.2])
    closed = ref_sys.A + ref_sys.B @ ref_gain.K
    out = sr.error_step(e, [0.0], [0.0, 0.0], ref_sys, ref_gain)
    assert np.allclose(out, closed @ e, rtol=1e-14, atol=0.0)


def test_error_step_adds_noise_term(ref_sys, ref_gain):
    w = np.array([0.7, -1.1])
    base = sr.error_step([1.0, 2.0], [0.0], [0.0, 0.0], ref_sys, ref_gain)
    out = sr.error_step([1.0, 2.0], [0.0], w, ref_sys, ref_gain)
    assert np.allclose(out - base, w, rtol=0.0, atol=1e-15)


def test_error_step_rejects_oversized_nominal_input(ref_sys, ref_gain):
    with pytest.raises(PreconditionError):
        sr.error_step([0.0, 0.0], [10.5], [0.0, 0.0], ref_sys, ref_gain)


def test_error_step_checks_dimensions(ref_sys, ref_gain):
    with pytest.raises(ValueError):
        sr.error_step([0.0, 0.0, 0.0], [0.0], [0.0, 0.0], ref_sys, ref_gain)
    with pytest.raises(ValueError):
        sr.error_step([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], ref_sys, ref_gain)


def test_nominal_step_reference_point(ref_sys):
    out = sr.nominal_step([1.0, 0.0], [1.0], ref_sys)
    assert np.allclose(out, [0.89, 1.10], rtol=0.0, atol=1e-15)


def test_nominal_step_ignores_saturation(ref_sys):
    # The nominal recursion is saturation-free by construction.
    out = sr.nominal_step([0.0, 0.0], [50.0], ref_sys)
    assert np.allclose(out, [0.0, 50.0], rtol=0.0, atol=0.0)


def test_vertex_endpoints_single_input(ref_sys, ref_gain):
    verts = sr.vertex_matrices(ref_sys, ref_gain)
    assert len(verts) == 2
    assert np.array_equal(verts[0], ref_sys.A)
    closed = ref_sys.A + ref_sys.B @ ref_gain.K
    assert np.max(np.abs(verts[1] - closed)) < 1e-12


def test_vertex_bitmask_order_two_inputs():
    sys2 = SystemSpec(
        A=[[0.5, 0.0], [0.0, 0.4]],
        B=np.eye(2),
        W=np.eye(2),
        ubar=[1.0, 1.0],
    )
    gain2 = FeedbackGain(K=[[0.1, 0.0], [0.0, 0.2]])
    verts = sr.vertex_matrices(sys2, gain2)
    assert len(verts) == 4
    # Bit i of the index toggles feedback row i on.
    assert np.allclose(verts[0], [[0.5, 0.0], [0.0, 0.4]])
    assert np.allclose(verts[1], [[0.6, 0.0], [0.0, 0.4]])
    assert np.allclose(verts[2], [[0.5, 0.0], [0.0, 0.6]])
    assert np.allclose(verts[3], [[0.6, 0.0], [0.0, 0.6]])


def test_vertex_enumeration_guard():
    m = 21
    sys_wide = SystemSpec(
        A=0.5 * np.eye(2),
        B=np.ones((2, m)),
        W=np.eye(2),
        ubar=np.ones(m),
    )
    gain = FeedbackGain(K=np.zeros((m, 2)))
    with pytest.raises(ValueError):
        sr.vertex_matrices(sys_wide, gain)


def test_vertex_matrices_are_read_only(ref_sys, ref_gain):
    verts = sr.vertex_matrices(ref_sys, ref_gain)
    with pytest.raises(ValueError):
        verts[0][0, 0] = 0.0


def test_saturated_step_stays_in_vertex_hull(ref_sys, ref_gain):
    rng = np.random.default_rng(42)
    for _ in range(5000):
        e = rng.normal(scale=40.0, size=2)
        v = rng.uniform(-10.0, 10.0, size=1)
        w = rng.normal(size=2)
        hull_membership_check(ref_sys, ref_gain, e, v, w)


def test_saturated_step_stays_in_vertex_hull_two_inputs():
    sys2 = SystemSpec(
        A=[[0.7, 0.2], [-0.1, 0.6]],
        B=[[1.0, 0.3], [0.0, 1.0]],
        W=np.eye(2),
        ubar=[1.0, 2.5],
    )
    gain2 = FeedbackGain(K=[[-0.4, -0.1], [0.2, -0.5]])
    rng = np.random.default_rng(43)
    for _ in range(5000):
        e = rng.normal(scale=8.0, size=2)
        v = rng.uniform(-1.0, 1.0, size=2) * sys2.ubar
        w = rng.normal(size=2)
        hull_membership_check(sys2, gain2, e, v, w)


def test_system_spec_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        SystemSpec(A=np.ones((2, 3)), B=eye, W=eye, ubar=[1.0, 1.0])
    with pytest.raises(ValueError):
        SystemSpec(A=eye, B=eye, W=eye, ubar=[1.0, 1.0])  # spectral radius 1
    with pytest.raises(ValueError):
        SystemSpec(A=0.5 * eye, B=eye, W=[[1.0, 0.5], [0.0, 1.0]], ubar=[1.0, 1.0])
    with pytest.raises(ValueError):
        SystemSpec(A=0.5 * eye, B=eye, W=-eye, ubar=[1.0, 1.0])
    with pytest.raises(ValueError):
        SystemSpec(A=0.5 * eye, B=eye, W=eye, ubar=[1.0, 0.0])
    with pytest.raises(ValueError):
        SystemSpec(A=0.5 * eye, B=np.ones((3, 2)), W=eye, ubar=[1.0, 1.0])
    with pytest.raises(ValueError):
        SystemSpec(A=0.5 * eye, B=eye, W=eye, ubar=[1.0])


def test_system_spec_arrays_immutable(ref_sys):
    with pytest.raises(ValueError):
        ref_sys.A[0, 0] = 2.0
    with pytest.raises(ValueError):
        ref_sys.ubar[0] = -1.0


def test_system_spec_dimensions(ref_sys):
    assert ref_sys.n == 2
    assert ref_sys.m == 1
