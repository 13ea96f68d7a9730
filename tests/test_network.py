"""Tests for network assembly, behaviors, scores, and swapped states."""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlocality import network
from nlocality.cli import main
from nlocality.linalg import kron, partial_trace
from nlocality.measurements import (PAULIS, BlochObservable, GHZGrouping,
                                    all_labels, parse_grouping,
                                    partial_ghz_observable, table1_settings)
from nlocality.network import (Behavior, NLocalNetwork, NLocalSettings,
                               SettingsBundle, TrilocalNetwork,
                               _dense_behavior, _restricted_score, assemble,
                               behavior, i_value,
                               ivalue_table, local_score, nlocal_behavior,
                               nlocal_score, nlocal_transfers, swapped_state,
                               transfer_ivalues, trilocal_score)
from nlocality.optimize import (OptimizerConfig, default_nlocal_groupings,
                                maximize_nlocal, maximize_trilocal,
                                visibility_threshold)
from nlocality.states import depolarized_ghz, gghz_state, ghz_n_state

SX_PAIR = (BlochObservable(np.pi / 2, 0.0), BlochObservable(np.pi / 2, 0.0))


def table1_bundle(a=SX_PAIR, d=SX_PAIR, t=SX_PAIR):
    b1, b2, c1, c2 = table1_settings()
    return SettingsBundle(a, (b1, b2), (c1, c2), d, t)


def random_bundle(rng):
    def pair():
        return (BlochObservable(rng.uniform(0, np.pi),
                                rng.uniform(0, 2 * np.pi)),
                BlochObservable(rng.uniform(0, np.pi),
                                rng.uniform(0, 2 * np.pi)))

    b1, b2, c1, c2 = table1_settings()
    return SettingsBundle(pair(), (b1, b2), (c1, c2), pair(), pair())


def test_assemble_maximally_mixed():
    mixed = np.eye(8) / 8
    net = TrilocalNetwork.from_states(mixed, mixed, mixed)
    assert np.allclose(assemble(net), np.eye(512) / 512)


def test_assemble_computational_product():
    zero = np.zeros((8, 8))
    zero[0, 0] = 1.0
    net = TrilocalNetwork.from_states(zero, zero, zero)
    expected = np.zeros((512, 512))
    expected[0, 0] = 1.0
    assert np.allclose(assemble(net), expected)


def test_behavior_is_normalized_distribution():
    net = TrilocalNetwork.from_shared_state(gghz_state(0.5))
    beh = behavior(net, random_bundle(np.random.default_rng(0)))
    probs = beh.probabilities
    assert probs.shape == (2,) * 10
    assert np.all(probs >= -1e-12)
    totals = probs.reshape(32, 32).sum(axis=1)
    assert np.allclose(totals, 1.0, atol=1e-10)


def test_pure_and_dense_paths_agree():
    state = gghz_state(0.6)
    rho = np.outer(state, state.conj())
    bundle = random_bundle(np.random.default_rng(1))
    pure = behavior(TrilocalNetwork.from_role_states(state, state, state),
                    bundle)
    dense = behavior(TrilocalNetwork.from_role_states(rho, rho, rho), bundle)
    assert np.allclose(pure.probabilities, dense.probabilities, atol=1e-12)


def test_table1_all_x_ivalue():
    net = TrilocalNetwork.from_shared_state(ghz_n_state(3))
    beh = behavior(net, table1_bundle())
    assert abs(i_value(beh, 0, 0, 0).value - 0.5) < 1e-12


def test_uniform_behavior_has_zero_ivalues():
    probs = np.full((2,) * 10, 1.0 / 32)
    beh = Behavior(probs, (0, 3, 4), (1, 2))
    assert np.allclose(ivalue_table(beh), 0.0, atol=1e-14)
    assert trilocal_score(beh).score < 1e-6


def test_scores_monotone_in_root():
    net = TrilocalNetwork.from_shared_state(gghz_state(0.7))
    beh = behavior(net, random_bundle(np.random.default_rng(2)))
    tri = trilocal_score(beh)
    loc = local_score(beh)
    table = ivalue_table(beh)
    assert np.all(np.abs(table) <= 1.0 + 1e-12)
    # cube roots can only grow sub-unit magnitudes
    assert tri.score >= loc.score - 1e-12


def test_swapped_state_mixture_recovers_marginal():
    net = TrilocalNetwork.from_shared_state(gghz_state(0.5))
    bundle = random_bundle(np.random.default_rng(3))
    mixture = np.zeros((8, 8), dtype=complex)
    total = 0.0
    for b_out, c_out in itertools.product((0, 1), repeat=2):
        chi, prob = swapped_state(net, bundle, 0, b_out, 1, c_out)
        mixture += prob * chi
        total += prob
    assert abs(total - 1.0) < 1e-10
    marginal = partial_trace(assemble(net), 9, {0, 7, 8})
    assert np.allclose(mixture, marginal, atol=1e-10)


def test_swapped_state_full_ghz_projection():
    g = parse_grouping("000")
    net = TrilocalNetwork.from_shared_state(ghz_n_state(3))
    bundle = SettingsBundle(SX_PAIR, (g, g), (g, g), SX_PAIR, SX_PAIR)
    chi, prob = swapped_state(net, bundle, 0, 0, 0, 0)
    assert abs(prob - 1 / 16) < 1e-12
    assert abs(abs(chi[0, 7]) - 0.5) < 1e-12
    assert abs(np.real(np.trace(chi @ chi)) - 1.0) < 1e-10


def test_swapped_state_null_event_raises():
    zero = np.zeros(8)
    zero[0] = 1.0
    net = TrilocalNetwork.from_shared_state(zero)
    # |000> has support only on the f=00 GHZ sector, so the minus outcome
    # of a grouping holding both sector states is a null event
    g = parse_grouping("000,100")
    bundle = SettingsBundle(SX_PAIR, (g, g), (g, g), SX_PAIR, SX_PAIR)
    with pytest.raises(ValueError):
        swapped_state(net, bundle, 0, 1, 0, 1)


# groupings whose size is not the network's: n = 4 and n = 2 pairs, and
# three n = 3 pairs where the n = 3 network has two intermediates
WRONG_SIZE_GROUPINGS = {
    "n4": (default_nlocal_groupings(4)[:2], "grouping of n = 4"),
    "n2": (default_nlocal_groupings(2) * 2, "grouping of n = 2"),
    "three-pairs": (default_nlocal_groupings(3) + default_nlocal_groupings(3)
                    [:1], "3 grouping pairs on a network of n = 3"),
}


@pytest.mark.parametrize("groupings, message",
                         WRONG_SIZE_GROUPINGS.values(),
                         ids=WRONG_SIZE_GROUPINGS.keys())
def test_groupings_of_the_wrong_size_are_rejected(groupings, message):
    net = NLocalNetwork.from_states(3, [MIXED8] * 3)
    settings = NLocalSettings((SX_PAIR,) * 3, groupings)
    with pytest.raises(ValueError, match=message):
        nlocal_behavior(net, settings)
    with pytest.raises(ValueError, match=message):
        nlocal_transfers(net, settings)
    with pytest.raises(ValueError, match=message):
        maximize_nlocal(net, OptimizerConfig(restarts=1), groupings)
    if len(groupings) == 2:
        bundle = SettingsBundle(SX_PAIR, groupings[0], groupings[1], SX_PAIR,
                                SX_PAIR)
        with pytest.raises(ValueError, match=message):
            behavior(net, bundle)
        with pytest.raises(ValueError, match=message):
            swapped_state(net, bundle, 0, 0, 0, 0)


def test_nlocal_network_validation():
    with pytest.raises(ValueError):
        NLocalNetwork.from_states(9, [ghz_n_state(9)] * 9)
    with pytest.raises(ValueError):
        NLocalNetwork.from_states(3, [ghz_n_state(3)] * 2)


MIXED8 = np.eye(8) / 8


@pytest.mark.parametrize("source", [
    np.eye(4) / 4,
    np.ones(4) / 2,
    MIXED8 + 1e-6 * np.triu(np.ones((8, 8)), 1),
    np.eye(8) / 7,
    np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]),
], ids=["matrix-shape", "vector-shape", "non-hermitian", "trace",
        "not-positive"])
def test_from_states_rejects_invalid_sources(source):
    with pytest.raises(ValueError):
        NLocalNetwork.from_states(3, [source, MIXED8, MIXED8])


def test_from_states_checks_each_distinct_source_once(monkeypatch):
    real = network._as_density
    checked = []

    def as_density(state, dim):
        checked.append(state)
        return real(state, dim)

    monkeypatch.setattr(network, "_as_density", as_density)
    rho = depolarized_ghz(0.9)
    net = NLocalNetwork.from_states(3, [rho, rho, MIXED8])
    assert len(checked) == 2
    assert net.source_states[0] is net.source_states[1]
    # equal but distinct objects are each checked
    NLocalNetwork.from_states(3, [rho, rho.copy(), rho.copy()])
    assert len(checked) == 5
    # a bad state is caught however often it is passed
    with pytest.raises(ValueError):
        NLocalNetwork.from_states(3, [np.eye(8) / 7] * 3)


def test_source_coefficients_are_computed_once_per_network(monkeypatch):
    rng = np.random.default_rng(3)
    rho, other = random_density(rng, 8), random_density(rng, 8)
    net = NLocalNetwork.from_states(3, [rho, rho, other])
    fresh = NLocalNetwork.from_states(3, [rho.copy(), rho.copy(), other])
    b1, b2, c1, c2 = table1_settings()
    choices = [[network._identity_terms(3)]
               + [network._grouping_terms(g) for g in pair]
               for pair in ((b1, b2), (c1, c2))]
    expected = network._pauli_table(fresh, choices)
    real = network._pauli_coefficients
    sources = []

    def coefficients(op, n):
        if any(op is s for s in net.source_states):
            sources.append(op)
        return real(op, n)

    monkeypatch.setattr(network, "_pauli_coefficients", coefficients)
    for _ in range(3):
        assert np.array_equal(network._pauli_table(net, choices), expected)
    swapped_state(net, SettingsBundle(SX_PAIR, (b1, b2), (c1, c2), SX_PAIR,
                                      SX_PAIR), 0, 0, 1, 1)
    # one computation for each of the two distinct source states
    assert len(sources) == 2


def test_nlocal_behavior_normalized():
    net = NLocalNetwork.from_states(2, [ghz_n_state(2)] * 2)
    b1, _, _, b2 = table1_settings()
    g1 = parse_grouping("00,01")
    g2 = parse_grouping("00,11")
    settings = NLocalSettings((SX_PAIR, SX_PAIR), ((g1, g2),))
    beh = nlocal_behavior(net, settings)
    probs = beh.probabilities
    assert probs.shape == (2,) * 6
    totals = probs.reshape(8, 8).sum(axis=1)
    assert np.allclose(totals, 1.0, atol=1e-10)
    assert np.all(probs >= -1e-12)


def test_nlocal_mixed_sources_accepted():
    net = NLocalNetwork.from_states(3, [depolarized_ghz(0.9)] * 3)
    b1, b2, c1, c2 = table1_settings()
    settings = NLocalSettings((SX_PAIR, SX_PAIR, SX_PAIR),
                              ((b1, b2), (c1, c2)))
    beh = nlocal_behavior(net, settings)
    assert nlocal_score(beh).score <= 2.0


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g + g.conj().T


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_coefficients_match_kronecker_basis(n):
    op = random_hermitian(np.random.default_rng(20 + n), 2 ** n)
    # Tr(op s_p1 x ... x s_pn) = sum(op * (s_p1 x ... x s_pn)^T), strings in
    # product order with p_1 the most significant
    reference = np.array([np.sum(op * kron(*ps).T).real
                          for ps in itertools.product(PAULIS, repeat=n)])
    coef = network._pauli_coefficients(op, n)
    assert coef.shape == (4,) * n
    assert np.abs(coef.ravel() - reference).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_operators_invert_pauli_coefficients(n):
    rng = np.random.default_rng(30 + n)
    ops = [random_hermitian(rng, 2 ** n) for _ in range(2)]
    table = np.array([network._pauli_coefficients(op, n) for op in ops])
    # R^T = sum_j Tr(op s_j) s_j / 2^n = op, for each leading entry
    back = network._operators(table, n)
    assert back.shape == (2, 2 ** n, 2 ** n)
    for r, op in zip(back, ops):
        assert np.abs(r.T - op).max() <= 1e-14


def test_nlocal_behavior_is_capped_before_it_allocates(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(network, "_pauli_table", refuse)
    net = NLocalNetwork.from_states(7, [ghz_n_state(7)] * 7)
    settings_ = NLocalSettings((SX_PAIR,) * 7, default_nlocal_groupings(7))
    with pytest.raises(ValueError, match="limit n <= 6"):
        nlocal_behavior(net, settings_)


def dense_swapped_state(net, settings_, y, b_out, z, c_out):
    """(I +- O)/2 projectors applied to the dense 512x512 state."""
    eye8 = np.eye(8)
    pi_b = (eye8 + (-1) ** b_out * partial_ghz_observable(settings_.b[y])) / 2
    pi_c = (eye8 + (-1) ** c_out * partial_ghz_observable(settings_.c[z])) / 2
    proj = kron(np.eye(2), pi_b, pi_c, np.eye(2), np.eye(2))
    sub = proj @ assemble(net) @ proj
    prob = float(np.real(np.trace(sub)))
    return partial_trace(sub, 9, {0, 7, 8}) / prob, prob


def assert_valid_behavior(probs, p):
    assert np.all(probs >= -1e-12)
    totals = probs.reshape(2 ** p, 2 ** p).sum(axis=1)
    assert np.allclose(totals, 1.0, atol=1e-12)
    # no-signalling: summing out one party's outcome leaves a marginal
    # that does not depend on that party's setting
    for i in range(p):
        marginal = probs.sum(axis=p + i)
        assert np.abs(np.diff(marginal, axis=i)).max() <= 1e-12


def all_groupings(n):
    """Every nonempty proper plus set of the 2^n GHZ labels."""
    labels = all_labels(n)
    return [GHZGrouping(frozenset(plus), n)
            for size in range(1, len(labels))
            for plus in itertools.combinations(labels, size)]


ANGLES = st.floats(0.0, 2 * np.pi)
GROUPINGS = st.sampled_from(all_groupings(3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projector_terms_match_their_transform(n):
    """The outcome projectors' terms, derived from the observable's, are
    those of the transformed (I +- O)/2, unbalanced groupings included."""
    groupings = all_groupings(n)
    if n == 4:
        groupings = groupings[::997]
    for g in groupings:
        obs = partial_ghz_observable(g)
        for outcome in (0, 1):
            proj = (np.eye(2 ** n) + (-1.0) ** outcome * obs) / 2
            coef = network._pauli_coefficients(proj, n) / 2 ** n
            rows = np.argwhere(np.abs(coef) > network.PAULI_TERM_TOL)
            got_coef, got_rows = network._grouping_terms(g, outcome)
            assert np.array_equal(got_rows, rows)
            assert np.abs(got_coef - coef[tuple(rows.T)]).max() <= 1e-15


def test_swapped_states_transform_each_grouping_once(monkeypatch):
    rng = np.random.default_rng(8)
    net = TrilocalNetwork.from_shared_state(random_density(rng, 8))
    b1, b2, c1, c2 = table1_settings()
    c1 = parse_grouping("000,001,011,111")
    bundle = SettingsBundle(SX_PAIR, (b1, b2), (c1, c2), SX_PAIR, SX_PAIR)
    network._grouping_terms.cache_clear()
    real = network._pauli_coefficients
    transformed = []

    def coefficients(op, n):
        transformed.append(op)
        return real(op, n)

    monkeypatch.setattr(network, "_pauli_coefficients", coefficients)
    for y, b_out, z, c_out in itertools.product((0, 1), repeat=4):
        swapped_state(net, bundle, y, b_out, z, c_out)
    # one transform per distinct grouping and one for the shared source
    assert len(transformed) == 5


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       angles=st.lists(ANGLES, min_size=12, max_size=12),
       groupings=st.lists(GROUPINGS, min_size=4, max_size=4))
def test_engine_matches_dense_reference(seed, angles, groupings):
    rng = np.random.default_rng(seed)
    net = TrilocalNetwork.from_role_states(
        *(random_density(rng, 8) for _ in range(3)))
    pairs = [(BlochObservable(*angles[i:i + 2]),
              BlochObservable(*angles[i + 2:i + 4])) for i in (0, 4, 8)]
    bundle = SettingsBundle(pairs[0], tuple(groupings[:2]),
                            tuple(groupings[2:]), pairs[1], pairs[2])
    ref = _dense_behavior(net, bundle)
    beh = behavior(net, bundle)
    assert np.abs(beh.probabilities - ref.probabilities).max() <= 1e-12
    assert_valid_behavior(beh.probabilities, 5)
    nlocal = bundle.nlocal()
    ivals = transfer_ivalues(3, nlocal_transfers(net, nlocal),
                             np.array(nlocal.extreme_operators()))
    assert np.abs(ivals - ivalue_table(ref)).max() <= 1e-12
    assert np.abs(ivals).max() <= 1.0 + 1e-12
    assert local_score(beh).score <= 2.0
    for y, z, b_out, c_out in itertools.product((0, 1), repeat=4):
        chi_ref, prob_ref = dense_swapped_state(net, bundle, y, b_out, z,
                                                c_out)
        chi, prob = swapped_state(net, bundle, y, b_out, z, c_out)
        assert abs(prob - prob_ref) <= 1e-12
        assert np.abs(chi - chi_ref).max() <= 1e-12


# with these groupings I[0, 0, k] = -I[0, 1, k] exactly on a shared
# depolarized GHZ source, so the best score is reached by two tuples
TIED_GROUPINGS = ("000,001,010,100|011,101,110,111",
                  "000,001,110,111|010,011,100,101",
                  "000,011,101,110|001,010,100,111",
                  "000,001,010,100|011,101,110,111")


def test_tied_argmax_is_the_same_on_both_engines():
    net = TrilocalNetwork.from_shared_state(depolarized_ghz(0.8))
    b1, b2, c1, c2 = (parse_grouping(g) for g in TIED_GROUPINGS)
    rng = np.random.default_rng(0)
    for _ in range(10):
        pairs = [(BlochObservable(*rng.uniform(0, 2 * np.pi, 2)),
                  BlochObservable(*rng.uniform(0, 2 * np.pi, 2)))
                 for _ in range(3)]
        bundle = SettingsBundle(pairs[0], (b1, b2), (c1, c2), pairs[1],
                                pairs[2])
        nlocal = bundle.nlocal()
        engine = transfer_ivalues(3, nlocal_transfers(net, nlocal),
                                  np.array(nlocal.extreme_operators()))
        dense = ivalue_table(_dense_behavior(net, bundle))
        assert np.abs(engine - dense).max() <= 1e-12
        assert np.abs(np.abs(engine[0, 0]) - np.abs(engine[0, 1])).max() \
            <= 1e-15
        for root in (3, 1):
            got = _restricted_score(engine, (0, 1), root, share_tail=False)
            ref = enumerated_score(dense, (0, 1), root, share_tail=False)
            assert abs(got[0] - ref[0]) <= 1e-12
            assert got[1:] == ref[1:]


def enumerated_score(ivals, coherent_mask, root, share_tail=True):
    """Reference for _restricted_score: every scored pair of tuples in
    product order, the first within ARGMAX_TIE_TOL of the best winning."""
    a = np.abs(ivals)
    a = np.where(a < network.ZERO_IVALUE_TOL, 0.0, a)
    tuples = [t for t in itertools.product((0, 1), repeat=ivals.ndim - 1)
              if t[0] in coherent_mask]
    values = [(a[t0 + (0,)] ** (1.0 / root) + a[t1 + (1,)] ** (1.0 / root),
               t0, t1)
              for t0 in tuples for t1 in tuples
              if not share_tail or t0[1:] == t1[1:]]
    best = max(val for val, _, _ in values)
    _, t0, t1 = next(entry for entry in values
                     if entry[0] >= best - network.ARGMAX_TIE_TOL)
    return float(best), t0, t1


def score_test_tables(rng, n, count):
    """Random I tables, and tables whose |I| are exactly tied, tied up to
    1e-14, or near the zero cut-off of 1e-14."""
    shape = (2,) * n
    levels = np.array([0.0, 0.125, 0.25, 0.5, 1.0])
    tiny = np.array([0.0, 3e-15, 9.9e-15, 1e-14, 1.01e-14, 2e-14, 0.25])
    for _ in range(count):
        signs = rng.choice((-1.0, 1.0), shape)
        tied = signs * rng.choice(levels, shape)
        yield rng.normal(size=shape)
        yield tied
        yield tied + 1e-14 * rng.normal(size=shape)
        yield signs * rng.choice(tiny, shape)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("mask", [(0, 1), (0,), (1,)])
@pytest.mark.parametrize("share_tail", [True, False])
def test_score_kernel_matches_enumeration(n, mask, share_tail):
    rng = np.random.default_rng(100 * n + 10 * len(mask) + share_tail)
    for table in score_test_tables(rng, n, 100):
        for root in sorted({1, 3, n}):
            assert _restricted_score(table, mask, root, share_tail) \
                == enumerated_score(table, mask, root, share_tail)


def test_literal_and_role_source_orders_agree():
    rng = np.random.default_rng(4)
    states = [random_density(rng, 8) for _ in range(3)]
    literal = [states[0]] + [network.permute_qubits(s, (2, 0, 1))
                             for s in states[1:]]
    bundle = random_bundle(rng)
    by_role = behavior(TrilocalNetwork.from_role_states(*states), bundle)
    by_literal = behavior(TrilocalNetwork.from_states(*literal), bundle)
    assert np.array_equal(by_role.probabilities, by_literal.probabilities)


def loop_behavior_from_expectations(expect, p):
    """One Walsh transform per setting tuple: the loop reference."""
    idx = np.arange(2 ** p)
    walsh = np.array([[(-1.0) ** bin(o & s).count("1") for s in idx]
                      for o in idx])
    probs = np.empty((2,) * (2 * p))
    for setting in itertools.product((0, 1), repeat=p):
        sel = expect
        for axis, x in enumerate(setting):
            sel = np.take(sel, (0, 1 + x), axis=axis)
        vec = np.real(sel.reshape(-1))
        probs[setting] = (walsh @ vec / 2 ** p).reshape((2,) * p)
    return probs


@pytest.mark.parametrize("p", [3, 5, 7])
def test_behavior_from_expectations_matches_loop(p):
    rng = np.random.default_rng(p)
    expect = rng.normal(size=(3,) * p) + 1j * rng.normal(size=(3,) * p)
    fast = network._behavior_from_expectations(expect, p)
    reference = loop_behavior_from_expectations(expect, p)
    assert np.abs(fast - reference).max() <= 2 ** p * np.finfo(float).eps


def test_nlocal_behavior_n4_matches_transfers():
    rng = np.random.default_rng(6)
    net = NLocalNetwork.from_states(
        4, [random_density(rng, 16) for _ in range(4)])
    pairs = tuple((BlochObservable(*rng.uniform(0, np.pi, 2)),
                   BlochObservable(*rng.uniform(0, np.pi, 2)))
                  for _ in range(4))
    settings_ = NLocalSettings(pairs, default_nlocal_groupings(4))
    beh = nlocal_behavior(net, settings_)
    assert beh.probabilities.shape == (2,) * 14
    totals = beh.probabilities.reshape(2 ** 7, 2 ** 7).sum(axis=1)
    assert np.allclose(totals, 1.0, atol=1e-12)
    ivals = transfer_ivalues(4, nlocal_transfers(net, settings_),
                             np.array(settings_.extreme_operators()))
    assert np.abs(ivalue_table(beh) - ivals).max() <= 1e-12


def state_vector_reference(sources, settings_):
    """Transfers and behavior of a network of pure sources, computed on its
    2^(n^2)-amplitude state vector: each intermediate operator is applied
    by tensordot and the extremes are left open.

    Axis i * n + w of the state tensor is wire w of source i, so extreme
    A_(i+1) is axis i * n and intermediate B_j holds axes i * n + j.
    """
    n = len(sources)
    psi = functools.reduce(np.multiply.outer, sources).reshape((2,) * n * n)
    extremes = [i * n for i in range(n)]
    int_ops = settings_.intermediate_operators()

    def apply(op, phi, j):
        wires = [i * n + j for i in range(n)]
        op_t = np.asarray(op).reshape((2,) * (2 * n))
        out = np.tensordot(op_t, phi, axes=(list(range(n, 2 * n)), wires))
        return np.moveaxis(out, list(range(n)), wires)

    def on_extremes(phi):
        # Tr over the intermediates of |phi><psi|
        flat = [np.moveaxis(v, extremes, list(range(n))).reshape(2 ** n, -1)
                for v in (phi, psi)]
        return flat[0] @ flat[1].conj().T

    transfers = np.empty((2,) * (n - 1) + (2 ** n, 2 ** n), dtype=complex)
    for y in itertools.product((0, 1), repeat=n - 1):
        phi = psi
        for j, yj in enumerate(y):
            phi = apply(int_ops[j][yj], phi, j + 1)
        transfers[y] = on_extremes(phi).T
    # extreme projectors (I +- A_x)/2, axes (x, a, row, col)
    ext = [np.array([[(np.eye(2) + (-1) ** a * op) / 2 for a in (0, 1)]
                     for op in pair]) for pair in settings_.extreme_operators()]
    m = n - 1
    probs = np.empty((2,) * (2 * m + 2 * n))  # axes (y, b, x, a)
    for y in itertools.product((0, 1), repeat=m):
        for b in itertools.product((0, 1), repeat=m):
            phi = psi
            for j in range(m):
                proj = (np.eye(2 ** n) + (-1) ** b[j] * int_ops[j][y[j]]) / 2
                phi = apply(proj, phi, j + 1)
            t = on_extremes(phi).reshape((2,) * (2 * n))
            # Tr[M kron(projectors)]: one party at a time, row with column
            for i in range(n):
                t = np.tensordot(t, ext[i], axes=([0, n - i], [3, 2]))
            # axes (x_1, a_1, ..., x_n, a_n) -> (x, a)
            probs[y + b] = np.real(t).transpose(list(range(0, 2 * n, 2))
                                                + list(range(1, 2 * n, 2)))
    to_party_order = (list(range(2 * m, 2 * m + n)) + list(range(m))
                      + list(range(2 * m + n, 2 * m + 2 * n))
                      + list(range(m, 2 * m)))
    return transfers, probs.transpose(to_party_order)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_engine_matches_state_vector_reference(n):
    rng = np.random.default_rng(10 + n)
    sources = [rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
               for _ in range(n)]
    sources = [v / np.linalg.norm(v) for v in sources]
    groupings = all_groupings(n)
    pairs = tuple((BlochObservable(*rng.uniform(0, 2 * np.pi, 2)),
                   BlochObservable(*rng.uniform(0, 2 * np.pi, 2)))
                  for _ in range(n))
    settings_ = NLocalSettings(pairs, tuple(
        tuple(groupings[k] for k in rng.choice(len(groupings), 2))
        for _ in range(n - 1)))
    transfers, probs = state_vector_reference(sources, settings_)
    net = NLocalNetwork.from_states(n, sources)
    assert np.abs(nlocal_transfers(net, settings_) - transfers).max() <= 1e-12
    beh = nlocal_behavior(net, settings_)
    assert np.abs(beh.probabilities - probs).max() <= 1e-12


def test_no_production_path_builds_the_dense_state(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the dense network state was built")

    monkeypatch.setattr(network, "assemble", refuse)
    monkeypatch.setattr(network, "_dense_behavior", refuse)
    b1, b2, c1, c2 = table1_settings()
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps({
        "a": [[0.3, 0.1], [1.2, 2.0]], "b": [b1.to_string(), b2.to_string()],
        "c": [c1.to_string(), c2.to_string()],
        "d": [[0.5, 0.7], [2.1, 0.4]], "t": [[1.0, 3.0], [0.2, 5.0]]}))
    runs = [["violation", "--family", "depolarized", "--epsilon", "0.9",
             "--settings", "file", "--settings-file", str(settings_path)],
            ["swap", "--family", "amplitude", "--gamma", "0.2"],
            ["nlocal", "--n", "3", "--restarts", "1", "--seed", "0"]]
    for i, argv in enumerate(runs):
        assert main(argv + ["--output", str(tmp_path / ("%d.json" % i))]) == 0
    cfg = OptimizerConfig(restarts=1, seed=0)
    assert maximize_trilocal(("gghz", {"alpha": 0.5}), cfg).score > 0
    assert visibility_threshold("depolarized", cfg).bracket_width <= 1e-4
