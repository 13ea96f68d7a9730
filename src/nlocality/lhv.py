"""Classical reference models: the saturating trilocal model and
exhaustive deterministic-strategy enumeration.

Each model is given by per-party response tables P_i(o | x), indexed
[x, o], parties in trilocal order (A, B, C, D, T).  Behaviors and I-values
are products of those tables, so no I-value is the difference of rounded
probabilities.
"""

import functools
import itertools

import numpy as np

from .network import (Behavior, TRILOCAL_EXTREMES, TRILOCAL_INTERMEDIATES,
                      _restricted_score)


def product_behavior(responses):
    """Behavior P(a,b,c,d,e | x,y,z,w,u) = prod_i P_i(o_i | x_i)."""
    p = len(responses)
    # axes (x_1, o_1, ..., x_p, o_p) -> (x_1..x_p, o_1..o_p)
    probs = functools.reduce(np.multiply.outer, responses).transpose(
        *range(0, 2 * p, 2), *range(1, 2 * p, 2))
    return Behavior(probs, TRILOCAL_EXTREMES, TRILOCAL_INTERMEDIATES)


def product_ivalues(responses):
    """I-values of `product_behavior(responses)`, indexed (y, z, k).

    With E_i(x) = P_i(0|x) - P_i(1|x) the correlator is prod_i E_i(x_i), so
    I_{y,z,k} = E_B(y) E_C(z) prod over extremes of (E(0) + (-1)^k E(1))/2.
    """
    e = [p[:, 0] - p[:, 1] for p in responses]
    ext = [e[i] for i in TRILOCAL_EXTREMES]
    m = functools.reduce(np.multiply, [(x[0] + x[1]) / 2 for x in ext])
    d = functools.reduce(np.multiply, [(x[0] - x[1]) / 2 for x in ext])
    inter = np.multiply.outer(*[e[i] for i in TRILOCAL_INTERMEDIATES])
    return np.stack([inter * m, inter * d], axis=-1)


def appendix_b_responses(r):
    """Response tables of the explicit trilocal model saturating the bound.

    Shared variables lambda_i are point masses at 0; each extreme party
    holds an extra bit tau_i that is 0 with probability r.  Outputs:
    a = tau1 * x, d = tau2 * w, e = tau3 * u, and b = c = 0 regardless of
    settings.  This yields I_{i1,i2,0} = r^3 and I_{j1,j2,1} = (1-r)^3 for
    every index tuple, so the trilocal score is exactly 1 for all r.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    # P(out | setting): out = tau * setting for an extreme party, 0 for B, C
    ext = np.array([[1.0, 0.0], [r, 1.0 - r]])
    silent = np.array([[1.0, 0.0], [1.0, 0.0]])
    return [ext, silent, silent, ext, ext]


def appendix_b_behavior(r):
    return product_behavior(appendix_b_responses(r))


def all_deterministic_strategies():
    """All 4^5 = 1024 deterministic strategies.

    A strategy assigns each of the five parties an output map {0,1}->{0,1},
    encoded as the pair (output at input 0, output at input 1).
    """
    maps = list(itertools.product((0, 1), repeat=2))
    return list(itertools.product(maps, repeat=5))


def _deterministic_responses(strategy):
    """Response tables with P_i(o | x) = 1 for o = strategy[i][x]."""
    return [np.eye(2)[list(party)] for party in strategy]


def deterministic_behavior(strategy):
    return product_behavior(_deterministic_responses(strategy))


def enumerate_deterministic(scoring="trilocal"):
    """Exact maximum of a score over all deterministic strategies."""
    roots = {"trilocal": 3, "local": 1}
    if scoring not in roots:
        raise ValueError("scoring must be 'trilocal' or 'local'")
    best, best_strategy = -np.inf, None
    for strategy in all_deterministic_strategies():
        table = product_ivalues(_deterministic_responses(strategy))
        score = _restricted_score(table, (0, 1), roots[scoring],
                                  share_tail=False)[0]
        if score > best:
            best, best_strategy = score, strategy
    return best, best_strategy
