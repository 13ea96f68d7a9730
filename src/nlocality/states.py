"""State factories and single-qubit noise channels.

Pure states are returned as normalized complex vectors, mixed states as
density matrices.  Three-qubit family states are given in role order
(extreme wire, first intermediate wire, second intermediate wire).
"""

from dataclasses import dataclass, field

import numpy as np

TRACE_TOL = 1e-12


def gghz_state(alpha):
    """Generalized GHZ vector cos(alpha)|000> + sin(alpha)|111>."""
    if not 0.0 <= alpha <= np.pi / 4 + 1e-12:
        raise ValueError("alpha must lie in [0, pi/4]")
    v = np.zeros(8, dtype=complex)
    v[0] = np.cos(alpha)
    v[7] = np.sin(alpha)
    return v


def biseparable_state(eta, sigma1, sigma2):
    """Entangled pair on the first two wires, single qubit on the third.

    cos(eta)|00> + sin(eta)|11> on wires (0,1), sigma1|0> + sigma2|1> on
    wire 2.
    """
    if not 0.0 <= eta <= np.pi / 4 + 1e-12:
        raise ValueError("eta must lie in [0, pi/4]")
    if abs(abs(sigma1) ** 2 + abs(sigma2) ** 2 - 1.0) > TRACE_TOL:
        raise ValueError("|sigma1|^2 + |sigma2|^2 must be 1")
    pair = np.zeros(4, dtype=complex)
    pair[0] = np.cos(eta)
    pair[3] = np.sin(eta)
    single = np.array([sigma1, sigma2], dtype=complex)
    return np.kron(pair, single)


def ghz_n_state(n):
    """n-qubit GHZ vector (|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def ghz_plus_projector():
    g = ghz_n_state(3)
    return np.outer(g, g.conj())


def ghz_minus_projector():
    g = ghz_n_state(3)
    g = g.copy()
    g[7] = -g[7]
    return np.outer(g, g.conj())


def ghz_symmetric_state(p1, p2):
    """Two-parameter mixed family spanned by the GHZ projectors and I/8."""
    s3 = np.sqrt(3.0)
    if not -1 / (4 * s3) - 1e-12 <= p2 <= s3 / 4 + 1e-12:
        raise ValueError("p2 outside the positivity range")
    if abs(p1) > 1 / 8 + (s3 / 2) * p2 + 1e-12:
        raise ValueError("(p1, p2) outside the positivity triangle")
    wp = 2 * p2 / s3 + p1
    wm = 2 * p2 / s3 - p1
    w0 = 1 - 4 * p2 / s3
    return (wp * ghz_plus_projector() + wm * ghz_minus_projector()
            + w0 * np.eye(8, dtype=complex) / 8)


def depolarized_ghz(epsilon):
    """epsilon * |GHZ+><GHZ+| + (1 - epsilon) * I/8."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return (epsilon * ghz_plus_projector()
            + (1 - epsilon) * np.eye(8, dtype=complex) / 8)


@dataclass(frozen=True)
class KrausSet:
    """A trace-preserving set of single-qubit Kraus operators."""

    operators: tuple = field(default_factory=tuple)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        object.__setattr__(self, "operators", ops)
        total = sum(k.conj().T @ k for k in ops)
        if np.abs(total - np.eye(2)).max() > TRACE_TOL:
            raise ValueError("Kraus set is not trace preserving")


def amplitude_damping_kraus(gamma):
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    w0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    w1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausSet((w0, w1))


def phase_damping_kraus(gamma):
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    q0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    q1 = np.array([[0, 0], [0, np.sqrt(gamma)]], dtype=complex)
    return KrausSet((q0, q1))


def apply_channel_per_qubit(rho, kraus, num_qubits):
    """Apply the same single-qubit channel independently on every wire.

    Each Kraus operator K acts on its wire's row digit and, conjugated, on
    its column digit of the reshaped state, which is K rho K^dagger with K
    on that wire and the identity elsewhere, without forming that
    2^n x 2^n operator.  Wires are processed in ascending order; channels
    on distinct wires commute, so the order only fixes rounding behavior.
    """
    dim = 2 ** num_qubits
    out = np.asarray(rho, dtype=complex)
    for wire in range(num_qubits):
        # a row or column index as (wires before, this wire, wires after)
        split = (2 ** wire, 2, -1)
        acc = np.zeros_like(out)
        for k in kraus.operators:
            left = (k @ out.reshape(split)).reshape(dim, dim)
            acc += (k.conj() @ left.reshape((dim,) + split)).reshape(dim, dim)
        out = acc
    return out


def amplitude_damped_ghz(gamma):
    """Three-qubit GHZ+ after amplitude damping on every wire."""
    return apply_channel_per_qubit(ghz_plus_projector(),
                                   amplitude_damping_kraus(gamma), 3)


def phase_damped_ghz(gamma):
    """Three-qubit GHZ+ after phase damping on every wire."""
    return apply_channel_per_qubit(ghz_plus_projector(),
                                   phase_damping_kraus(gamma), 3)
