"""Tests for classical reference models."""

import numpy as np
import pytest

from nlocality.lhv import (all_deterministic_strategies, appendix_b_behavior,
                           deterministic_behavior, enumerate_deterministic,
                           product_behavior, product_ivalues)
from nlocality.network import ivalue_table, local_score, trilocal_score


def test_strategy_count():
    assert len(all_deterministic_strategies()) == 1024


def test_constant_output_strategy():
    strategy = (((0, 0),) * 5)
    beh = deterministic_behavior(strategy)
    table = ivalue_table(beh)
    assert np.allclose(table[..., 0], 1.0)
    assert np.allclose(table[..., 1], 0.0)
    assert abs(trilocal_score(beh).score - 1.0) < 1e-12
    assert abs(local_score(beh).score - 1.0) < 1e-12


@pytest.mark.parametrize("r", np.linspace(0.0, 1.0, 11))
def test_saturating_model_ivalues(r):
    table = ivalue_table(appendix_b_behavior(r))
    assert np.allclose(table[..., 0], r ** 3, atol=1e-12)
    assert np.allclose(table[..., 1], (1 - r) ** 3, atol=1e-12)
    # the classical mixture never beats the local bound either
    assert r ** 3 + (1 - r) ** 3 <= 1.0 + 1e-12


def test_saturating_model_scores_one():
    for r in (0.0, 0.25, 0.5, 1.0):
        assert abs(trilocal_score(appendix_b_behavior(r)).score - 1.0) < 1e-12


def test_product_ivalues_match_behavior():
    rng = np.random.default_rng(7)
    for _ in range(5):
        responses = []
        for _ in range(5):
            p0 = rng.uniform(0.0, 1.0, 2)
            responses.append(np.stack([p0, 1.0 - p0], axis=1))
        table = ivalue_table(product_behavior(responses))
        assert np.allclose(product_ivalues(responses), table, atol=1e-12)


def test_saturating_model_range_error():
    with pytest.raises(ValueError):
        appendix_b_behavior(1.5)


def test_enumeration_maxima():
    best_local, strat_local = enumerate_deterministic("local")
    assert best_local == 1.0
    assert strat_local is not None
    best_tri, _ = enumerate_deterministic("trilocal")
    assert best_tri <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        enumerate_deterministic("other")
