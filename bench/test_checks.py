"""The benchmark's own checks reject wrong outputs and accept right ones.

Run with `python3 -m pytest bench/test_checks.py` from the repository root.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def ghz_behavior():
    """P(a, b, c | x, y, z) of a three-qubit GHZ state measured in X / Y."""
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    rho = np.outer(ghz, ghz.conj())
    obs = [np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex)]
    eye = np.eye(2)
    probs = np.empty((2,) * 6)
    for x, y, z, a, b, c in np.ndindex(*(2,) * 6):
        proj = [(eye + (-1) ** o * obs[s]) / 2
                for o, s in zip((a, b, c), (x, y, z))]
        full = np.kron(np.kron(proj[0], proj[1]), proj[2])
        probs[x, y, z, a, b, c] = np.trace(rho @ full).real
    return probs


def threshold_result(**changes):
    result = {"critical_value": checks.DEPOLARIZED_THRESHOLD,
              "bracket_width": 6.1e-5, "score_below": 0.99995,
              "score_above": 1.00003}
    result.update(changes)
    return result


def test_closed_forms():
    assert checks.gghz_bound(np.pi / 4) == pytest.approx(2 ** (1 / 3))
    assert checks.ghz_symmetric_bound(-16 ** (-1 / 3)) == pytest.approx(1.0)
    # eta = pi/4, sigma1 = sigma2 = 1/sqrt 2 reaches 2^(1/3)
    assert checks.biseparable_bound(np.pi / 4, 2 ** -0.5) == pytest.approx(
        2 ** (1 / 3))


def test_score_against_closed_form():
    bound = checks.gghz_bound(0.5)
    checks.check_score(bound - 5e-5, bound, checks.CLOSED_FORM_TOL_FULL)
    with pytest.raises(CheckError):
        checks.check_score(bound - 2e-4, bound, checks.CLOSED_FORM_TOL_FULL)
    # a score above its closed form is wrong however small the excess
    with pytest.raises(CheckError):
        checks.check_score(bound + 1e-8, bound, checks.CLOSED_FORM_TOL)
    with pytest.raises(CheckError):
        checks.check_score(float("nan"), bound, checks.CLOSED_FORM_TOL)


def test_score_recomputed_from_ivalues():
    rows = [{"i1": i1, "i2": i2, "k": k, "value": 0.1 * (1 + i1 + 2 * i2)
             * (-1) ** k} for i1 in (0, 1) for i2 in (0, 1) for k in (0, 1)]
    table = checks.ivalue_array(rows)
    score = 0.4 ** (1 / 3) + 0.2 ** (1 / 3)
    checks.check_score_from_ivalues(score, table, [[1, 1], [1, 0]])
    with pytest.raises(CheckError):
        checks.check_score_from_ivalues(score + 1e-8, table,
                                        [[1, 1], [1, 0]])
    with pytest.raises(CheckError):
        checks.ivalue_array(rows[:-1])


def test_local_bound_and_ivalue_range():
    checks.check_local_bound(1.0 + 1e-7)
    with pytest.raises(CheckError):
        checks.check_local_bound(1.0 + 1e-5)
    with pytest.raises(CheckError):
        checks.check_ivalue_range(np.array([0.5, -1.001]))


def test_threshold():
    checks.check_threshold(threshold_result(), checks.DEPOLARIZED_THRESHOLD)
    wrong = [threshold_result(critical_value=checks.DEPOLARIZED_THRESHOLD
                              + 2e-3),
             threshold_result(bracket_width=2e-4),
             threshold_result(score_below=1.00001),
             threshold_result(score_above=0.99998)]
    for result in wrong:
        with pytest.raises(CheckError):
            checks.check_threshold(result, checks.DEPOLARIZED_THRESHOLD)
    with pytest.raises(CheckError):
        checks.check_threshold(threshold_result(),
                               checks.DAMPING_THRESHOLD)


def test_behavior_properties():
    probs = ghz_behavior()
    checks.check_behavior(probs, 3)
    # one negative entry, totals unchanged; odd parities have probability
    # 0 under X X X on GHZ
    negative = probs.copy()
    assert abs(probs[0, 0, 0, 0, 0, 1]) < 1e-15
    negative[0, 0, 0, 0, 0, 1] -= 1e-9
    negative[0, 0, 0, 0, 0, 0] += 1e-9
    with pytest.raises(CheckError):
        checks.check_behavior(negative, 3)
    unnormalized = probs * (1 + 1e-9)
    with pytest.raises(CheckError):
        checks.check_behavior(unnormalized, 3)
    # party 0 signals: the outcomes of parties 1 and 2 depend on its setting
    signalling = probs.copy()
    signalling[1] = 0.0
    signalling[1, :, :, 0, 0, 0] = 1.0
    with pytest.raises(CheckError):
        checks.check_behavior(signalling, 3)
    with pytest.raises(CheckError):
        checks.check_behavior(probs, 2)


def test_engines_agree_after_permutation():
    rng = np.random.default_rng(0)
    tri = rng.random((2,) * 10)
    perm = list(checks.TRILOCAL_TO_NLOCAL)
    nlo = tri.transpose(perm + [5 + i for i in perm])
    checks.check_behaviors_agree(nlo, tri)
    with pytest.raises(CheckError):
        checks.check_behaviors_agree(tri, tri)
    off = nlo.copy()
    off[0, 1, 0, 1, 0, 1, 0, 1, 0, 1] += 1e-10
    with pytest.raises(CheckError):
        checks.check_behaviors_agree(off, tri)


def test_noise_scaling():
    clean = np.array([[0.3, -0.2], [0.1, 0.05]])
    checks.check_noise_scaling(0.7 ** 3 * clean, clean, 0.7, 3)
    with pytest.raises(CheckError):
        checks.check_noise_scaling(0.7 ** 2 * clean, clean, 0.7, 3)
    with pytest.raises(CheckError):
        checks.check_noise_scaling(0.7 ** 4 * clean + 1e-12, clean, 0.7, 4)


def test_swap():
    checks.check_swap_probabilities({(0, 0): [0.25] * 4,
                                     (1, 0): [0.5, 0.5, 0.0, 0.0]})
    with pytest.raises(CheckError):
        checks.check_swap_probabilities({(0, 0): [0.25, 0.25, 0.25, 0.26]})
    with pytest.raises(CheckError):
        checks.check_swap_probabilities({(0, 1): [0.6, 0.5, -0.1, 0.0]})
    chi = np.eye(8, dtype=complex) / 8
    checks.check_density(chi)
    with pytest.raises(CheckError):
        checks.check_density(chi * 1.01)
    skew = chi.copy()
    skew[0, 1] = 1e-3
    with pytest.raises(CheckError):
        checks.check_density(skew)
    not_psd = chi.copy()
    not_psd[0, 0] += 0.2
    not_psd[1, 1] -= 0.2
    with pytest.raises(CheckError):
        checks.check_density(not_psd)


def test_lhv_rows():
    r = 0.3
    checks.check_lhv_row({"r": r, "trilocal_score": 1.0, "i0": r ** 3,
                          "i1": (1 - r) ** 3})
    for key, value in (("trilocal_score", 1.0 + 1e-9), ("i0", r ** 2),
                       ("i1", (1 - r) ** 3 + 1e-10)):
        row = {"r": r, "trilocal_score": 1.0, "i0": r ** 3,
               "i1": (1 - r) ** 3}
        row[key] = value
        with pytest.raises(CheckError):
            checks.check_lhv_row(row)


def test_best_pair_score_ignores_rounding_residue():
    table = np.zeros((2, 2, 2))
    table[0, 1, 0] = 0.125
    table[1, 0, 1] = 3e-17
    assert checks.best_pair_score(table, 3) == pytest.approx(0.5)
    table[1, 0, 1] = 0.001
    assert checks.best_pair_score(table, 3) == pytest.approx(0.6)
