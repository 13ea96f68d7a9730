"""The network engine: exact Born-rule behaviors, I-values and scores.

The n-local star network has n sources of n qubits, n extreme parties
A_1..A_n and n-1 intermediates B_1..B_{n-1}; source i sends qubit 0 to A_i
and qubit j to B_j.  The network state is never built.  `_pauli_table`
gives the real correlation tensor T[c, j_1..j_n] = <O_c x s_j1 x ... x
s_jn> for every tuple c of intermediate operator choices (the identity or
one of its observables) and every Pauli string j on the extremes.  Every
intermediate operator is diagonal in the GHZ basis and so a short sum of
Pauli strings, each putting one Pauli on one wire of every source, and T is
a sum over term tuples of outer products of per-source Pauli coefficients
(Tavakoli et al., PRA 90, 062109 (2014)).  At n = 4 a table takes
milliseconds.  The optimizer reads its X, Y, Z coordinates, behaviors
contract each extreme with I, A_0 or A_1 in Pauli coordinates, and the
transfers and swapped states convert it to operators on the extremes.

The trilocal scenario is the n = 3 case.  Its three sources of three
qubits feed five parties in the order A (1 qubit), B (3), C (3), D (1),
T (1): (A, D, T) are the extremes A_1..A_3 and (B, C) the intermediates
B_1, B_2, so the two party orders differ by the permutation [0, 3, 4, 1, 2]
(its own inverse).  `assemble` and `_dense_behavior` build the dense
512 x 512 state and apply the Born rule to it; they are the independent
reference the engine is tested against, and no other path calls them.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (HERMITICITY_TOL, hermitian_eigenvalues, kron, normalized,
                     permute_qubits)
from .measurements import PAULIS, partial_ghz_observable
from .states import TRACE_TOL

# destination wire in party order [A | B | C | D | T] of each source qubit,
# sources in role order (A, B1, C1 | D, B2, C2 | T, B3, C3)
WIRING = (0, 1, 4, 7, 2, 5, 8, 3, 6)
# trilocal party order (A, B, C, D, T) <-> n-local order (A, D, T, B, C)
TRILOCAL_ORDER = (0, 3, 4, 1, 2)

# network sizes n the engine accepts
SUPPORTED_N = (2, 3, 4)
NULL_EVENT_TOL = 1e-12
ZERO_IVALUE_TOL = 1e-14
# scores this close to the best are ties when the arg-max tuples are chosen
ARGMAX_TIE_TOL = 1e-12
# an operator diagonal in the GHZ basis is a signed sum of stabilizer-state
# projectors, so its Pauli coefficients are multiples of 2^-n: this cut
# drops rounding residue only
PAULI_TERM_TOL = 1e-12


def _as_density(state, dim):
    """A source density matrix from a state vector (normalized here) or a
    density matrix, which must be Hermitian, of unit trace and positive."""
    state = np.asarray(state, dtype=complex)
    if state.shape == (dim,):
        v = normalized(state)
        return np.outer(v, v.conj())
    if state.shape != (dim, dim):
        raise ValueError("source state of shape %s, expected (%d,) or "
                         "(%d, %d)" % (state.shape, dim, dim, dim))
    eigs = hermitian_eigenvalues(state)
    if abs(np.trace(state) - 1.0) > TRACE_TOL:
        raise ValueError("source state has trace %r, not 1"
                         % complex(np.trace(state)))
    if eigs[0] < -HERMITICITY_TOL:
        raise ValueError("source state has eigenvalue %g < 0" % eigs[0])
    return state


# ---------------------------------------------------------------------------
# Behavior


@dataclass(frozen=True)
class Behavior:
    """Conditional probability table of a network scenario.

    `probabilities` has one binary axis per party for settings followed by
    one binary axis per party for outcomes, parties in a fixed order;
    `extreme_parties` / `intermediate_parties` give the positions of the
    two party kinds within that order.
    """

    probabilities: np.ndarray
    extreme_parties: tuple
    intermediate_parties: tuple

    @property
    def num_parties(self):
        return len(self.extreme_parties) + len(self.intermediate_parties)


@dataclass(frozen=True)
class IValue:
    indices: tuple
    k: int
    value: float


@dataclass(frozen=True)
class ScoreReport:
    """Best inequality value with the arg-max index tuples.

    `tuple_k0` / `tuple_k1` are the intermediate-setting tuples of the two
    I-values entering the best inequality; `i_values` is the full table
    indexed by those tuples plus the parity bit k.
    """

    score: float
    tuple_k0: tuple
    tuple_k1: tuple
    i_values: np.ndarray
    root: int


def correlator_table(behavior):
    """Full correlators <prod (-1)^outcome> for every setting tuple."""
    p = behavior.num_parties
    table = behavior.probabilities.reshape(2 ** p, 2 ** p)
    signs = np.array([(-1.0) ** bin(o).count("1") for o in range(2 ** p)])
    return (table @ signs).reshape((2,) * p)


def ivalue_table(behavior):
    """I-values indexed by intermediate setting tuple then parity bit k.

    I_{i_vec, k} = (1/2^n) sum over extreme settings of
    (-1)^(k * sum of extreme settings) * correlator.
    """
    corr = correlator_table(behavior)
    n_ext = len(behavior.extreme_parties)
    order = list(behavior.extreme_parties) + list(behavior.intermediate_parties)
    corr = np.transpose(corr, order)
    flat = corr.reshape(2 ** n_ext, -1)
    signs = np.array([(-1.0) ** bin(x).count("1") for x in range(2 ** n_ext)])
    i0 = flat.sum(axis=0) / 2 ** n_ext
    i1 = (signs @ flat) / 2 ** n_ext
    shape = (2,) * len(behavior.intermediate_parties)
    return np.stack([i0.reshape(shape), i1.reshape(shape)], axis=-1)


def nlocal_i_value(behavior_, indices, k):
    table = ivalue_table(behavior_)
    return IValue(tuple(indices), k, float(table[tuple(indices) + (k,)]))


def i_value(behavior, i1, i2, k):
    """Single trilocal I-value I_{i1, i2, k}."""
    return nlocal_i_value(behavior, (i1, i2), k)


def _pair_structure(rows, coherent_mask, share_tail):
    """The I-value pairs the designed inequality scores, as (order, groups)
    over rows y numbering the intermediate setting tuples in product order:
    order lists the scored rows (first index in coherent_mask) with their
    group g, and a pair takes both rows from one groups[g], which holds the
    scored rows sharing the remaining indices with share_tail, else all."""
    half = rows // 2
    order = [(y, y % half if share_tail else 0) for y in range(rows)
             if y // half in coherent_mask]
    groups = [[y for y, g in order if g == h]
              for h in range(half if share_tail else 1)]
    return order, groups


def _best_pair(a0, a1, pairs, root):
    """Best pair (y0, y1) of a _pair_structure, worth |I_{y0, 0}|^(1/root)
    + |I_{y1, 1}|^(1/root) with a0[y] = |I_{y, 0}|, a1[y] = |I_{y, 1}| and
    |I| below ZERO_IVALUE_TOL counted as 0.  Returns (score, y0, y1): the
    best value and the first pair in product order within ARGMAX_TIE_TOL of
    it, so that I-values tied in magnitude give the same arg-max whatever
    their rounding residue."""
    order, groups = pairs
    inv_root = 1.0 / root

    def term(x):
        return x ** inv_root if x >= ZERO_IVALUE_TOL else 0.0

    # a power is monotone: a group's best k = 1 term is that of its max
    tops = [term(max(map(a1.__getitem__, g))) for g in groups]
    totals = [term(a0[y]) + tops[g] for y, g in order]
    best = max(totals)
    cut = best - ARGMAX_TIE_TOL
    i = 0
    while totals[i] < cut:
        i += 1
    y0, g = order[i]
    first = term(a0[y0])
    for y1 in groups[g]:
        if first + term(a1[y1]) >= cut:
            return best, y0, y1


def _restricted_score(ivals, coherent_mask, root, share_tail=True):
    """(score, tuple_k0, tuple_k1) of an I table indexed by the
    intermediate setting tuple then k, as _best_pair picks them over the
    _pair_structure of (coherent_mask, share_tail); without share_tail all
    index tuples are free (the plain score families)."""
    a0, a1 = np.abs(ivals).reshape(-1, 2).T.tolist()
    pairs = _pair_structure(len(a0), coherent_mask, share_tail)
    best, y0, y1 = _best_pair(a0, a1, pairs, root)
    t0, t1 = np.transpose(np.unravel_index([y0, y1], ivals.shape[:-1]))
    return best, tuple(map(int, t0)), tuple(map(int, t1))


def _behavior_score(behavior, root):
    ivals = ivalue_table(behavior)
    score, t0, t1 = _restricted_score(ivals, (0, 1), root, share_tail=False)
    return ScoreReport(score, t0, t1, ivals, root)


def trilocal_score(behavior):
    """Max over all tuples of |I_{i,0}|^(1/n) + |I_{j,1}|^(1/n), n extremes."""
    return _behavior_score(behavior, len(behavior.extreme_parties))


def local_score(behavior):
    """Max over all tuples of |I_{i,0}| + |I_{j,1}|."""
    return _behavior_score(behavior, 1)


nlocal_score = trilocal_score
nlocal_local_score = local_score


def _behavior_from_expectations(expect, p):
    """P(outcomes | settings) from the expectations of all operator subsets.

    expect is indexed per party by 0 (identity), 1 (observable at setting
    0) or 2 (observable at setting 1);
    P = 2^-p * sum over party subsets S of (-1)^(outcomes . S) <prod_S O_i>.
    """
    t = np.real(expect)
    # per party, (setting x, subset bit s) picks I or O_x, and the sign
    # transform over s turns subsets into outcomes
    pick = np.array([[0, 1], [0, 2]])
    signs = np.array([[1.0, 1.0], [1.0, -1.0]]) / 2
    for _ in range(p):
        t = np.tensordot(np.take(t, pick, axis=0), signs, axes=([1], [1]))
        t = np.moveaxis(t, 0, -2)
    # axes (x_1, o_1, ..., x_p, o_p) -> (x_1..x_p, o_1..o_p)
    return t.transpose(list(range(0, 2 * p, 2)) + list(range(1, 2 * p, 2)))


# ---------------------------------------------------------------------------
# n-local networks


@dataclass(frozen=True)
class NLocalNetwork:
    """n sources of n qubits; source qubit 0 feeds extreme A_i, qubit j
    feeds intermediate B_j.  Source states are given in that role order."""

    n: int
    source_states: tuple

    @staticmethod
    def from_states(n, states):
        if n not in SUPPORTED_N:
            raise ValueError("supported network sizes are n in %s"
                             % set(SUPPORTED_N))
        states = tuple(states)
        if len(states) != n:
            raise ValueError("expected %d source states" % n)
        return NLocalNetwork(n, tuple(_as_density(s, 2 ** n)
                                      for s in states))


@dataclass(frozen=True)
class NLocalSettings:
    """Bloch pairs for the n extremes, grouping pairs for the n-1
    intermediates (labels are n-bit tuples)."""

    extremes: tuple
    intermediates: tuple

    def extreme_operators(self):
        return [[o.matrix() for o in pair] for pair in self.extremes]

    def intermediate_operators(self):
        return [[partial_ghz_observable(g) for g in pair]
                for pair in self.intermediates]


@functools.lru_cache(maxsize=None)
def _pauli_strings(n):
    """The transposed Pauli strings s_p1^T x ... x s_pn^T (index 0..3 for
    I, X, Y, Z), p_1 the most significant, shape (4^n, 2^n, 2^n): the
    basis of the Pauli transform, since Tr(A s) = sum(A * s^T)."""
    return np.array([kron(*ps) for ps in
                     itertools.product(PAULIS.transpose(0, 2, 1), repeat=n)])


def _pauli_coefficients(op, n):
    """Tr(op s_p1 x ... x s_pn) of an n-qubit Hermitian operator for every
    Pauli string p, real, axes (p_1..p_n)."""
    flat = _pauli_strings(n).reshape(4 ** n, -1) @ np.ravel(op)
    return flat.real.reshape((4,) * n)


def _pauli_terms(op, n):
    """Nonzero coefficients Tr(op s_p) / 2^n of an n-qubit operator (None
    for identity) with their Pauli index rows p, shape (terms, n)."""
    if op is None:
        return np.ones(1), np.zeros((1, n), dtype=int)
    coef = _pauli_coefficients(op, n) / 2 ** n
    rows = np.argwhere(np.abs(coef) > PAULI_TERM_TOL)
    return coef[tuple(rows.T)], rows


def _pauli_table(net, choices):
    """The real T[c_1..c_{n-1}, j_1..j_n] = <O_c x s_j1 x ... x s_jn>:
    choices[j] lists the operators (None for identity) of intermediate
    B_{j+1}, O_c is the product of the chosen ones and s_ji is Pauli j_i on
    extreme A_i.

    Each intermediate operator is a sum of Pauli strings whose qubit i sits
    on source i, so with F_i[p, j] the Pauli coefficients of source i (p on
    its intermediate wires, j on its extreme wire, moved last), T[c] is a
    sum over term tuples of prod_j coef_j * outer_i F_i[p_(1,i)..p_(n-1,i)].
    """
    n = net.n
    sources = [np.moveaxis(_pauli_coefficients(s, n), 0, -1)
               for s in net.source_states]
    terms = [[_pauli_terms(op, n) for op in ops] for ops in choices]
    shape = tuple(len(c) for c in choices)
    out = np.empty(shape + (4 ** (n - 1), 4))
    for idx in itertools.product(*map(range, shape)):
        coefs, rows = zip(*(t[c] for t, c in zip(terms, idx)))
        # one flat axis k over the term tuples: gather each source's
        # coefficients at its Pauli indices, grow the outer product one
        # source at a time and sum the last source out with a matrix product
        grid = [np.ix_(*(r[:, i] for r in rows)) for i in range(n)]
        x = functools.reduce(np.multiply.outer, coefs).reshape(-1, 1)
        for i in range(n - 1):
            g = sources[i][grid[i]].reshape(-1, 1, 4)
            x = (x[:, :, None] * g).reshape(len(g), -1)
        out[idx] = x.T @ sources[-1][grid[-1]].reshape(-1, 4)
    return out.reshape(shape + (4,) * n)


def _operators(table, n):
    """The operators R[c] on the extremes of a _pauli_table, such that the
    expectation of O_c times extreme observables E is sum(R[c] * kron(E)):
    R[c]^T = sum_j T[c, j] s_j1 x ... x s_jn / 2^n."""
    flat = table.reshape(-1, 4 ** n) @ _pauli_strings(n).reshape(4 ** n, -1)
    return (flat / 2 ** n).reshape(table.shape[:-n] + (2 ** n, 2 ** n))


def nlocal_behavior(net, settings):
    """Behavior with parties ordered (A_1..A_n, B_1..B_{n-1})."""
    n = net.n
    p = 2 * n - 1
    t = _pauli_table(net, [[None] + ops for ops in
                           settings.intermediate_operators()])
    for pair in settings.extreme_operators():
        # Pauli coordinates Tr(E s_j) / 2 of I, A_0 and A_1
        rows = [_pauli_coefficients(e, 1) / 2 for e in [np.eye(2)] + pair]
        t = np.tensordot(t, rows, axes=([n - 1], [1]))
    # axes (B_1..B_{n-1}, A_1..A_n) -> party order
    expect = np.moveaxis(t, range(n - 1), range(n, p))
    probs = _behavior_from_expectations(expect, p)
    return Behavior(probs, tuple(range(n)), tuple(range(n, p)))


def nlocal_transfers(net, settings):
    """Transfer operators on the extremes for every intermediate setting.

    Returns an array R indexed by the intermediate setting tuple with
    R[y_vec] a 2^n x 2^n operator such that the full correlator is
    sum_ab R[y_vec][a, b] * (A_{x_1} x ... x A_{x_n})[a, b].
    """
    return _operators(_pauli_table(net, settings.intermediate_operators()),
                      net.n)


def transfer_ivalues(n, transfers, ext_obs):
    """I-value table from transfer operators and stacked extreme observables.

    ext_obs has shape (n, 2, 2, 2): party, setting, then the 2x2 matrix.
    Returns an array indexed by intermediate tuple then parity bit k.
    """
    # axes: y_1..y_{n-1}, ket a_1..a_n, bra b_1..b_n; contract one party at
    # a time (the matrix-form reference: the optimizer and the reports read
    # the Pauli coordinates of _pauli_table instead)
    t = transfers.reshape((2,) * (n - 1) + (2,) * (2 * n))
    for i in range(n):
        t = np.tensordot(t, ext_obs[i], axes=([n - 1, 2 * n - 1 - i], [1, 2]))
    corr = np.real(t)
    flat = corr.reshape(-1, 2 ** n)
    signs = np.array([(-1.0) ** bin(x).count("1") for x in range(2 ** n)])
    i0 = flat.sum(axis=1) / 2 ** n
    i1 = (flat @ signs) / 2 ** n
    shape = (2,) * (n - 1)
    return np.stack([i0.reshape(shape), i1.reshape(shape)], axis=-1)


# ---------------------------------------------------------------------------
# Trilocal network: the n = 3 case


class TrilocalNetwork:
    """Constructors of the trilocal network, an n = 3 NLocalNetwork."""

    @staticmethod
    def from_states(s1, s2, s3):
        """Sources in literal order (rho_AB1C1, rho_B2C2D, rho_B3C3T)."""
        to_role = (1, 2, 0)
        return TrilocalNetwork.from_role_states(
            s1,
            permute_qubits(np.asarray(s2, dtype=complex), to_role),
            permute_qubits(np.asarray(s3, dtype=complex), to_role))

    @staticmethod
    def from_role_states(s1, s2, s3):
        """Sources in role order (extreme wire, B wire, C wire)."""
        return NLocalNetwork.from_states(3, (s1, s2, s3))

    @staticmethod
    def from_shared_state(state):
        """All three sources emit the same role-ordered state."""
        return TrilocalNetwork.from_role_states(state, state, state)


@dataclass(frozen=True)
class SettingsBundle:
    """Two observables per party: Bloch pairs for A, D, T and GHZ groupings
    for B and C."""

    a: tuple
    b: tuple
    c: tuple
    d: tuple
    t: tuple

    def nlocal(self):
        """The same settings in n-local order (A, D, T | B, C)."""
        return NLocalSettings((self.a, self.d, self.t), (self.b, self.c))


TRILOCAL_EXTREMES = (0, 3, 4)
TRILOCAL_INTERMEDIATES = (1, 2)


def behavior(net, settings):
    """Exact Born-rule behavior P(a,b,c,d,e | x,y,z,w,u)."""
    probs = nlocal_behavior(net, settings.nlocal()).probabilities
    axes = list(TRILOCAL_ORDER) + [5 + i for i in TRILOCAL_ORDER]
    return Behavior(probs.transpose(axes), TRILOCAL_EXTREMES,
                    TRILOCAL_INTERMEDIATES)


def swap_table(net, settings, y, z):
    """Reduced operators of (I or O_y) on B times (I or O_z) on C, indexed
    [identity/observable on B, identity/observable on C]; every outcome
    pair (b, c) of the settings (y, z) conditions on this one table."""
    ob = partial_ghz_observable(settings.b[y])
    oc = partial_ghz_observable(settings.c[z])
    return _operators(_pauli_table(net, [[None, ob], [None, oc]]), 3)


def swapped_state_from_table(r, b_out, c_out):
    """Conditional state of (A, D, T) and its probability for outcomes
    (b_out, c_out), given the swap_table r of their settings."""
    # the projectors (I +- O)/2 act on B and C only, so the unnormalized
    # state is the signed sum of the four (I or O_y) x (I or O_z) entries,
    # transposed since R[a, b] pairs with observable entry [a, b]
    sb, sc = (-1.0) ** b_out, (-1.0) ** c_out
    sub = (r[0, 0] + sb * r[1, 0] + sc * r[0, 1] + sb * sc * r[1, 1]).T / 4
    prob = float(np.real(np.trace(sub)))
    if prob < NULL_EVENT_TOL:
        raise ValueError("conditioning on a null event (probability %g)" % prob)
    return sub / prob, prob


def swapped_state(net, settings, y, b_out, z, c_out):
    """Conditional state of (A, D, T) given intermediate settings/outcomes.

    Returns (chi, probability); raises on conditioning on a null event.
    """
    return swapped_state_from_table(swap_table(net, settings, y, z), b_out,
                                    c_out)


# ---------------------------------------------------------------------------
# Dense reference


def assemble(net):
    """The 512x512 state of an n = 3 network in party order [A|B|C|D|T]."""
    return permute_qubits(kron(*net.source_states), WIRING)


def _dense_behavior(net, settings):
    """Born-rule behavior of the trilocal network from its dense state."""
    s = settings
    party_ops = [[o.matrix() for o in s.a],
                 [partial_ghz_observable(g) for g in s.b],
                 [partial_ghz_observable(g) for g in s.c],
                 [o.matrix() for o in s.d], [o.matrix() for o in s.t]]
    p = len(party_ops)
    rho_t = assemble(net).reshape((2, 8, 8, 2, 2) * 2)
    expect = np.empty((3,) * p, dtype=complex)
    for combo in itertools.product((0, 1, 2), repeat=p):
        bra = list(range(p))
        ket = [i + p if combo[i] else i for i in range(p)]
        args = [rho_t, bra + ket]
        for i, ch in enumerate(combo):
            if ch:
                args += [np.asarray(party_ops[i][ch - 1], dtype=complex),
                         [ket[i], bra[i]]]
        expect[combo] = np.einsum(*args, [], optimize=True)
    probs = _behavior_from_expectations(expect, p)
    return Behavior(probs, TRILOCAL_EXTREMES, TRILOCAL_INTERMEDIATES)
