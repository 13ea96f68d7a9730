"""Dense complex linear algebra for multi-qubit states.

Convention: qubit 0 is the most significant bit, so a computational basis
ket |abc> sits at index 4a+2b+c.  All operators are dense numpy arrays.
"""

import numpy as np

HERMITICITY_TOL = 1e-10


def kron(*ops):
    """Kronecker product of any number of matrices (left to right)."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def num_qubits_of(dim):
    k = int(round(np.log2(dim)))
    if 2 ** k != dim:
        raise ValueError("dimension %d is not a power of 2" % dim)
    return k


def check_permutation(perm, k):
    perm = list(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError("not a bijection on 0..%d: %r" % (k - 1, perm))
    return perm


def permute_qubits(state, perm):
    """Relabel qubits: source qubit i goes to destination wire perm[i].

    Works on state vectors (1d) and operators (2d square).
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        k = num_qubits_of(state.shape[0])
        perm = check_permutation(perm, k)
        inv = [0] * k
        for i, d in enumerate(perm):
            inv[d] = i
        return np.transpose(state.reshape((2,) * k), inv).reshape(-1)
    k = num_qubits_of(state.shape[0])
    perm = check_permutation(perm, k)
    inv = [0] * k
    for i, d in enumerate(perm):
        inv[d] = i
    t = state.reshape((2,) * (2 * k))
    return np.transpose(t, inv + [i + k for i in inv]).reshape(2 ** k, 2 ** k)


def partial_trace(rho, num_qubits, keep):
    """Trace out all qubits not in `keep`; kept qubits stay in their order."""
    keep = sorted(keep)
    if any(q < 0 or q >= num_qubits for q in keep):
        raise ValueError("keep indices out of range")
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * num_qubits))
    row = list(range(num_qubits))
    col = list(range(num_qubits))
    out_axes = []
    nxt = num_qubits
    for q in range(num_qubits):
        if q in keep:
            col[q] = nxt
            out_axes.append(q)
            nxt += 1
        # traced qubits reuse the row index so einsum sums them
    out = list(out_axes) + [col[q] for q in keep]
    return np.einsum(t, row + col, out).reshape(2 ** len(keep), 2 ** len(keep))


def partial_transpose(rho, num_qubits, transposed):
    """Transpose the listed qubits only (PPT diagnostics)."""
    if any(q < 0 or q >= num_qubits for q in transposed):
        raise ValueError("transpose indices out of range")
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * num_qubits))
    perm = list(range(2 * num_qubits))
    for q in transposed:
        perm[q], perm[q + num_qubits] = perm[q + num_qubits], perm[q]
    return np.transpose(t, perm).reshape(2 ** num_qubits, 2 ** num_qubits)


def hermitian_eigenvalues(m):
    """Ascending real spectrum; rejects visibly non-Hermitian input."""
    m = np.asarray(m, dtype=complex)
    if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within %g" % HERMITICITY_TOL)
    return np.linalg.eigvalsh(m)


def normalized(vec, tol=1e-12):
    vec = np.asarray(vec, dtype=complex)
    n = np.linalg.norm(vec)
    if n < tol:
        raise ValueError("cannot normalize a null vector")
    return vec / n
