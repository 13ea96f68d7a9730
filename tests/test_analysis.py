"""Tests for separability criteria, negativity, and Bell functionals."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlocality.analysis import (BellFunctional, bell_evaluate,
                                mermin_functional, negativity,
                                parse_bell_functional, separability_check,
                                tripartite_behavior)
from nlocality.linalg import kron
from nlocality.measurements import bloch_observable
from nlocality.states import ghz_n_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_separability_maximally_mixed():
    report = separability_check(np.eye(8) / 8)
    assert report.criterion1_satisfied
    assert report.criterion2_satisfied
    assert not report.entangled
    assert abs(report.criterion1_rhs - 1 / 8) < 1e-12


def test_separability_detects_ghz():
    ghz = ghz_n_state(3)
    report = separability_check(np.outer(ghz, ghz.conj()))
    assert not report.criterion1_satisfied
    assert report.entangled


def test_separability_input_validation():
    with pytest.raises(ValueError):
        separability_check(np.eye(4) / 4)
    with pytest.raises(ValueError):
        separability_check(np.eye(8))


def test_separability_ignores_rounding_residue_on_diagonal():
    rho = np.diag([0.3, 0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2]).astype(complex)
    rho[1, 1] += 1e-17
    assert separability_check(rho).criterion1_rhs == 0.0


def test_negativity_mixed_and_bell():
    assert negativity(np.eye(8) / 8, 3, 0) == 0.0
    bell = ghz_n_state(2)
    rho = np.outer(bell, bell.conj())
    assert abs(negativity(rho, 2, 0) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        negativity(rho, 2, 2)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_negativity_local_unitary_invariant(seed):
    rng = np.random.default_rng(seed)
    ghz = ghz_n_state(3)
    rho = np.outer(ghz, ghz.conj())

    def haar_unitary():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    u = kron(haar_unitary(), haar_unitary(), haar_unitary())
    rotated = u @ rho @ u.conj().T
    for cut in range(3):
        assert abs(negativity(rotated, 3, cut)
                   - negativity(rho, 3, cut)) < 1e-10


def make_functional_doc():
    return {"scenario": [3, 2, 2], "bound": 2.0,
            "terms": [{"a": 0, "b": 0, "c": 0, "x": 0, "y": 0, "z": 0,
                       "coeff": 1.0}]}


def test_parse_functional_roundtrip():
    func = parse_bell_functional(json.dumps(make_functional_doc()))
    assert func.bound == 2.0
    assert func.coefficients[(0, 0, 0, 0, 0, 0)] == 1.0


def test_parse_functional_rejects_unknown_fields():
    doc = make_functional_doc()
    doc["extra"] = 1
    with pytest.raises(ValueError):
        parse_bell_functional(json.dumps(doc))
    doc = make_functional_doc()
    doc["terms"][0]["weird"] = 1
    with pytest.raises(ValueError):
        parse_bell_functional(json.dumps(doc))


def test_parse_functional_rejects_missing_and_bad_scenario():
    doc = make_functional_doc()
    del doc["bound"]
    with pytest.raises(ValueError):
        parse_bell_functional(json.dumps(doc))
    doc = make_functional_doc()
    doc["scenario"] = [2, 2, 2]
    with pytest.raises(ValueError):
        parse_bell_functional(json.dumps(doc))
    with pytest.raises(ValueError):
        parse_bell_functional("not json")


def test_zero_functional_not_violated():
    func = BellFunctional((3, 2, 2), 0.0, {})
    table = np.full((2,) * 6, 1.0 / 8)
    value, violated = bell_evaluate(table, func)
    assert value == 0.0
    assert not violated


def test_bell_evaluate_is_linear():
    func = mermin_functional()
    rng = np.random.default_rng(5)
    t1 = rng.random((2,) * 6)
    t2 = rng.random((2,) * 6)
    v1, _ = bell_evaluate(t1, func)
    v2, _ = bell_evaluate(t2, func)
    v12, _ = bell_evaluate(0.25 * t1 + 0.75 * t2, func)
    assert abs(v12 - (0.25 * v1 + 0.75 * v2)) < 1e-10


def test_mermin_violated_by_ghz():
    ghz = ghz_n_state(3)
    rho = np.outer(ghz, ghz.conj())
    obs = [(SX, SY)] * 3
    table = tripartite_behavior(rho, obs)
    value, violated = bell_evaluate(table, mermin_functional())
    assert abs(value - 4.0) < 1e-10
    assert violated


def test_tripartite_behavior_normalized():
    rho = np.eye(8) / 8
    obs = [(bloch_observable(0.3, 0.4), bloch_observable(1.0, 2.0))] * 3
    table = tripartite_behavior(rho, obs)
    assert np.allclose(table.reshape(8, 8).sum(axis=1), 1.0, atol=1e-10)


def loop_tripartite_behavior(rho, observables):
    """Reference: the Born rule entry by entry, one Kronecker product of
    projectors and one trace per (x, y, z, a, b, c)."""
    eye = np.eye(2, dtype=complex)
    table = np.empty((2,) * 6)
    for x, y, z, a, b, c in np.ndindex(*(2,) * 6):
        ops = [observables[0][x], observables[1][y], observables[2][z]]
        pis = [(eye + (-1) ** o * op) / 2 for o, op in zip((a, b, c), ops)]
        table[x, y, z, a, b, c] = np.real(np.trace(rho @ kron(*pis)))
    return table


def test_tripartite_behavior_matches_loop():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        obs = [tuple(bloch_observable(*rng.uniform(0, 2 * np.pi, 2))
                     for _ in range(2)) for _ in range(3)]
        assert np.abs(tripartite_behavior(rho, obs)
                      - loop_tripartite_behavior(rho, obs)).max() <= 1e-12
