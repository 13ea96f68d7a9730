"""Tests for state families and noise channels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlocality.linalg import hermitian_eigenvalues, kron
from nlocality.states import (KrausSet, amplitude_damped_ghz,
                              amplitude_damping_kraus,
                              apply_channel_per_qubit, biseparable_state,
                              depolarized_ghz, gghz_state, ghz_n_state,
                              ghz_symmetric_state, phase_damped_ghz,
                              phase_damping_kraus)
from test_linalg import random_density


def test_gghz_amplitudes():
    alpha = 0.4
    state = gghz_state(alpha)
    assert np.allclose(state[0], np.cos(alpha))
    assert np.allclose(state[7], np.sin(alpha))
    assert np.allclose(np.delete(state, [0, 7]), 0.0)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_gghz_at_pi_over_4_is_ghz():
    state = gghz_state(np.pi / 4)
    assert np.allclose(state, ghz_n_state(3))


def test_gghz_range_errors():
    for bad in (-0.1, np.pi / 4 + 0.1):
        with pytest.raises(ValueError):
            gghz_state(bad)


def test_ghz_n_states():
    bell = ghz_n_state(2)
    assert np.allclose(bell, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    four = ghz_n_state(4)
    assert np.allclose(four[0], 1 / np.sqrt(2))
    assert np.allclose(four[15], 1 / np.sqrt(2))
    assert np.allclose(np.delete(four, [0, 15]), 0.0)


def test_biseparable_structure():
    eta, s1 = 0.6, 0.8
    s2 = 0.6
    state = biseparable_state(eta, s1, s2)
    pair = np.array([np.cos(eta), 0.0, 0.0, np.sin(eta)])
    single = np.array([s1, s2])
    assert np.allclose(state, kron(pair.reshape(4, 1),
                                   single.reshape(2, 1)).ravel())
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_biseparable_norm_violation():
    with pytest.raises(ValueError):
        biseparable_state(0.3, 0.9, 0.9)


def test_ghz_symmetric_pure_corner():
    rho = ghz_symmetric_state(0.5, np.sqrt(3) / 4)
    ghz = ghz_n_state(3)
    assert np.allclose(rho, np.outer(ghz, ghz.conj()), atol=1e-12)


def test_ghz_symmetric_shape_and_positivity():
    rho = ghz_symmetric_state(0.1, 0.2)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    eigs = hermitian_eigenvalues(rho)
    assert np.all(eigs >= -1e-10)
    # diagonal except the (1,8)/(8,1) corners, which equal p1
    off = rho - np.diag(np.diag(rho))
    off[0, 7] = off[7, 0] = 0.0
    assert np.allclose(off, 0.0)
    assert np.allclose(rho[0, 7], 0.1)


def test_ghz_symmetric_lower_vertex():
    rho = ghz_symmetric_state(0.0, -1 / (4 * np.sqrt(3)))
    eigs = hermitian_eigenvalues(rho)
    assert np.all(eigs >= -1e-10)
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_ghz_symmetric_positivity_errors():
    with pytest.raises(ValueError):
        ghz_symmetric_state(0.9, 0.2)
    with pytest.raises(ValueError):
        ghz_symmetric_state(0.0, 0.5)
    with pytest.raises(ValueError):
        ghz_symmetric_state(0.0, -0.2)


def test_depolarized_entries():
    rho = depolarized_ghz(0.8)
    assert np.allclose(rho[0, 0], 0.425)
    assert np.allclose(rho[7, 7], 0.425)
    assert np.allclose(rho[0, 7], 0.4)
    assert np.allclose(rho[1, 1], 0.025)
    assert abs(np.trace(rho) - 1.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0))
def test_kraus_completeness(gamma):
    for ks in (amplitude_damping_kraus(gamma), phase_damping_kraus(gamma)):
        total = sum(k.conj().T @ k for k in ks.operators)
        assert np.allclose(total, np.eye(2), atol=1e-12)


def test_kraus_gamma_zero_is_identity_channel():
    ks = amplitude_damping_kraus(0.0)
    assert np.allclose(ks.operators[0], np.eye(2))
    assert np.allclose(ks.operators[1], 0.0)
    ghz = ghz_n_state(3)
    rho = np.outer(ghz, ghz.conj())
    assert np.allclose(apply_channel_per_qubit(rho, ks, 3), rho)


def test_kraus_set_rejects_incomplete():
    with pytest.raises(ValueError):
        KrausSet((np.eye(2) * 0.5,))


def test_kraus_range_errors():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            amplitude_damping_kraus(bad)
        with pytest.raises(ValueError):
            phase_damping_kraus(bad)


def test_amplitude_damped_entries():
    gamma = 0.3
    rho = amplitude_damped_ghz(gamma)
    assert np.allclose(rho[0, 0], (1 + gamma ** 3) / 2)
    assert np.allclose(rho[7, 7], (1 - gamma) ** 3 / 2)
    assert np.allclose(rho[0, 7], (1 - gamma) ** 1.5 / 2)
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_phase_damped_entries():
    gamma = 0.3
    rho = phase_damped_ghz(gamma)
    assert np.allclose(rho[0, 0], 0.5)
    assert np.allclose(rho[7, 7], 0.5)
    assert np.allclose(rho[0, 7], (1 - gamma) ** 1.5 / 2)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_channel_outputs_are_states(ga, gp):
    ghz = ghz_n_state(3)
    rho = np.outer(ghz, ghz.conj())
    for ks in (amplitude_damping_kraus(ga), phase_damping_kraus(gp)):
        out = apply_channel_per_qubit(rho, ks, 3)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.all(hermitian_eigenvalues(out) >= -1e-10)


def kron_channel(rho, kraus, num_qubits):
    """Reference form of apply_channel_per_qubit: each Kraus operator
    lifted to the full space by Kronecker products."""
    out = rho
    for wire in range(num_qubits):
        acc = np.zeros_like(out)
        for k in kraus.operators:
            full = kron(*[k if w == wire else np.eye(2)
                          for w in range(num_qubits)])
            acc += full @ out @ full.conj().T
        out = acc
    return out


@pytest.mark.parametrize("channel", [amplitude_damping_kraus,
                                     phase_damping_kraus])
@pytest.mark.parametrize("seed", range(4))
def test_channel_matches_kronecker_form(channel, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    ks = channel(float(rng.uniform()))
    out = apply_channel_per_qubit(rho, ks, 3)
    assert np.abs(out - kron_channel(rho, ks, 3)).max() <= 1e-15
