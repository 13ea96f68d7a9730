"""Tests for Bloch observables and partial GHZ measurements."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlocality.measurements import (balanced_groupings,
                                    bloch_observable, coherent_groupings,
                                    ghz_basis_vector, ghz_basis_vector_n,
                                    parse_grouping, partial_ghz_observable,
                                    table1_settings)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_bloch_cardinal_directions():
    assert np.allclose(bloch_observable(0.0, 0.0), SZ)
    assert np.allclose(bloch_observable(np.pi / 2, 0.0), SX)
    assert np.allclose(bloch_observable(np.pi / 2, np.pi / 2), SY)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
def test_bloch_is_traceless_involution(theta, phi):
    m = bloch_observable(theta, phi)
    assert np.allclose(m, m.conj().T)
    assert abs(np.trace(m)) < 1e-12
    assert np.allclose(m @ m, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ghz_basis_orthonormal(n):
    vectors = [ghz_basis_vector_n(m, flips)
               for m in (0, 1)
               for flips in itertools.product((0, 1), repeat=n - 1)]
    gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
    assert np.allclose(gram, np.eye(2 ** n), atol=1e-12)


def test_ghz_basis_special_vectors():
    ghz_plus = np.zeros(8)
    ghz_plus[0] = ghz_plus[7] = 1 / np.sqrt(2)
    ghz_minus = np.zeros(8)
    ghz_minus[0], ghz_minus[7] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    assert np.allclose(ghz_basis_vector(0, 0, 0), ghz_plus)
    assert np.allclose(ghz_basis_vector(1, 0, 0), ghz_minus)
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(ghz_basis_vector_n(0, (0,)), bell)
    four = ghz_basis_vector_n(0, (0, 0, 0))
    assert np.allclose(four[0], 1 / np.sqrt(2))
    assert np.allclose(four[15], 1 / np.sqrt(2))


def test_partial_ghz_observable_is_involution():
    for grouping in balanced_groupings(3)[:6]:
        obs = partial_ghz_observable(grouping)
        assert np.allclose(obs, obs.conj().T)
        assert np.allclose(obs @ obs, np.eye(8), atol=1e-12)
        eigs = np.linalg.eigvalsh(obs)
        assert np.allclose(np.abs(eigs), 1.0)


def test_partial_ghz_observable_is_built_once_per_grouping():
    g1 = parse_grouping("000,001,010,100")
    g2 = parse_grouping("000,001,010,100|011,101,110,111")
    assert g1 == g2 and g1 is not g2
    obs = partial_ghz_observable(g1)
    assert partial_ghz_observable(g2) is obs
    assert not obs.flags.writeable
    with pytest.raises(ValueError):
        obs[0, 0] = 0.0
    expected = np.zeros((8, 8), dtype=complex)
    for lbl in itertools.product((0, 1), repeat=3):
        v = ghz_basis_vector_n(lbl[0], lbl[1:])
        sign = 1.0 if lbl in g1.plus_set else -1.0
        expected += sign * np.outer(v, v.conj())
    assert np.array_equal(obs, expected)


def test_table1_groupings():
    b1, b2, c1, c2 = table1_settings()
    assert b1.plus_set == frozenset({(0, 0, 0), (0, 0, 1), (0, 1, 0),
                                     (1, 0, 0)})
    assert b2.plus_set == frozenset({(0, 0, 0), (0, 0, 1), (1, 1, 0),
                                     (0, 1, 1)})
    assert c2.plus_set == frozenset({(1, 0, 1), (1, 1, 0), (0, 0, 0),
                                     (0, 1, 1)})
    assert b1 == c1
    # explicit sign pattern of the B1 observable
    expected = sum(np.outer(v, v.conj()) for v in
                   (ghz_basis_vector(0, 0, 0), ghz_basis_vector(0, 0, 1),
                    ghz_basis_vector(0, 1, 0), ghz_basis_vector(1, 0, 0)))
    expected = 2 * expected - np.eye(8)
    assert np.allclose(partial_ghz_observable(b1), expected)


def test_grouping_partition_invariants():
    g = parse_grouping("000,001|010,011,100,101,110,111")
    assert g.plus_set | g.minus_set == frozenset(
        itertools.product((0, 1), repeat=3))
    assert not g.plus_set & g.minus_set
    assert not g.is_balanced()


def test_parse_grouping_errors():
    with pytest.raises(ValueError):
        parse_grouping("000,001,010,011,100,101,110,111")
    with pytest.raises(ValueError):
        parse_grouping("000|001")  # minus not the complement
    with pytest.raises(ValueError):
        parse_grouping("00a")


def test_parse_grouping_complement_default():
    g = parse_grouping("000")
    assert g.plus_set == frozenset({(0, 0, 0)})
    assert len(g.minus_set) == 7


def test_grouping_label_encoding():
    # labels are (m, flips): the first bit carries the GHZ sign sector
    g = parse_grouping("000,001,010,100")
    assert g.to_string().startswith("000,001,010,100")


def test_balanced_and_coherent_counts():
    balanced = balanced_groupings(3)
    assert len(balanced) == 35
    assert all(g.is_balanced() for g in balanced)
    coherent = coherent_groupings(3)
    assert len(coherent) == 8
    assert all(g.is_coherent() and g.is_balanced() for g in coherent)
    b1, b2, c1, c2 = table1_settings()
    assert not b1.is_coherent()
    assert b2.is_coherent()
    assert c2.is_coherent()
