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
transfers convert it to operators on the extremes.  A swapped state is the
table of one operator choice per intermediate, its outcome projector
(I +- O)/2, read as an operator on the extremes.

Both directions of the Pauli transform (an operator to its coordinates,
`_pauli_coefficients`, and a table to operators, `_operators`) act on one
wire at a time with the 4 x 4 matrix `_WIRE` of transposed Paulis, so no
4^n-string basis is held and n runs up to 8 (SUPPORTED_N).  A behavior
holds 4^(2n-1) probabilities and is built for n <= MAX_BEHAVIOR_N only.

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
SUPPORTED_N = tuple(range(2, 9))
# largest n whose behavior, 4^(2n-1) probabilities (32 MiB at n = 6,
# 512 MiB at n = 7), is built
MAX_BEHAVIOR_N = 6
NULL_EVENT_TOL = 1e-12
ZERO_IVALUE_TOL = 1e-14
# scores this close to the best are ties when the arg-max tuples are chosen
ARGMAX_TIE_TOL = 1e-12
# an operator diagonal in the GHZ basis is a signed sum of stabilizer-state
# projectors, so the Pauli coefficients of an observable are multiples of
# 2^-n and those of an outcome projector (I +- O)/2 of 2^-(n+1): this cut
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


def _parity_signs(bits):
    """(-1)^(number of ones) of every bits-bit integer, in order."""
    return np.array([(-1.0) ** bin(x).count("1") for x in range(2 ** bits)])


def ivalue_table(behavior):
    """I-values indexed by intermediate setting tuple then parity bit k.

    I_{i_vec, k} = (1/2^n) sum over extreme settings of
    (-1)^(k * sum of extreme settings) * <prod (-1)^outcome>.
    """
    p = behavior.num_parties
    table = behavior.probabilities.reshape(2 ** p, 2 ** p)
    corr = (table @ _parity_signs(p)).reshape((2,) * p)
    n_ext = len(behavior.extreme_parties)
    order = list(behavior.extreme_parties) + list(behavior.intermediate_parties)
    flat = np.transpose(corr, order).reshape(2 ** n_ext, -1)
    i0 = flat.sum(axis=0) / 2 ** n_ext
    i1 = (_parity_signs(n_ext) @ flat) / 2 ** n_ext
    shape = (2,) * len(behavior.intermediate_parties)
    return np.stack([i0.reshape(shape), i1.reshape(shape)], axis=-1)


def i_value(behavior, i1, i2, k):
    """Single trilocal I-value I_{i1, i2, k}."""
    return IValue((i1, i2), k, float(ivalue_table(behavior)[i1, i2, k]))


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
        """Checks each distinct state object once: a state passed for
        several sources becomes one density matrix they all share."""
        if n not in SUPPORTED_N:
            raise ValueError("supported network sizes are n = %d..%d, not %r"
                             % (SUPPORTED_N[0], SUPPORTED_N[-1], n))
        states = tuple(states)
        if len(states) != n:
            raise ValueError("expected %d source states" % n)
        return NLocalNetwork(n, _once_per_object(
            lambda s: _as_density(s, 2 ** n), states))

    @functools.cached_property
    def _source_coefficients(self):
        """Per source, its Pauli coefficients with the extreme wire's index
        moved last (computed once per network and per distinct source)."""
        return _once_per_object(
            lambda s: np.moveaxis(_pauli_coefficients(s, self.n), 0, -1),
            self.source_states)


def _once_per_object(fn, items):
    """(fn(item) for item in items), calling fn once per distinct object."""
    done = {}
    for item in items:
        if id(item) not in done:
            done[id(item)] = fn(item)
    return tuple(done[id(item)] for item in items)


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


# _WIRE[p, 2a + b] = s_p[b, a]: one wire's Pauli transform, since
# Tr(A s_p) = sum_ab A[a, b] s_p[b, a]
_WIRE = PAULIS.transpose(0, 2, 1).reshape(4, 4)


def _per_wire(x, m, n):
    """x with the 4 x 4 matrix m applied to each of its n leading wires (of
    4 values each): each pass contracts the leading wire and rotates it
    last, so after n passes the wires are back in order."""
    for _ in range(n):
        x = (m @ x.reshape(4, -1)).T
    return x


def _pauli_coefficients(op, n):
    """Tr(op s_p1 x ... x s_pn) of an n-qubit Hermitian operator for every
    Pauli string p, real, axes (p_1..p_n): op's axes are ordered in wire
    pairs (a_1, b_1, ..., a_n, b_n) and each pair is contracted with _WIRE,
    one wire at a time."""
    pairs = op.reshape((2,) * (2 * n)).transpose(
        sum(zip(range(n), range(n, 2 * n)), ()))
    return _per_wire(pairs.ravel(), _WIRE, n).real.reshape((4,) * n)


def _identity_terms(n):
    """The one Pauli term of the n-qubit identity: coefficient 1 on I..I."""
    return np.ones(1), np.zeros((1, n), dtype=int)


# room for every three-qubit grouping with both of its outcomes
@functools.lru_cache(maxsize=768)
def _grouping_terms(g, outcome=None):
    """Nonzero coefficients Tr(P s_p) / 2^n with their Pauli index rows p,
    shape (terms, n), of grouping g's observable O (outcome None) or of
    its outcome projector P = (I +- O)/2 (outcome 0 or 1, sign (-1)^outcome).

    Only the observable is transformed; with c its coefficients, the
    projector's are 1/2 (1 +- c_I) on the identity and +-c/2 on every other
    string.  Equal groupings share read-only arrays.
    """
    n = g.n
    if outcome is None:
        coef = _pauli_coefficients(partial_ghz_observable(g), n) / 2 ** n
        rows = np.argwhere(np.abs(coef) > PAULI_TERM_TOL)
        coef = coef[tuple(rows.T)]
    else:
        obs_coef, obs_rows = _grouping_terms(g)
        half = 0.5 if outcome == 0 else -0.5
        ident = not obs_rows[0].any()
        c_id = obs_coef[0] if ident else 0.0
        coef = np.concatenate(([0.5 + half * c_id], half * obs_coef[ident:]))
        rows = np.concatenate((np.zeros((1, n), dtype=int), obs_rows[ident:]))
    for a in (coef, rows):
        a.flags.writeable = False
    return coef, rows


def _pauli_table(net, choices):
    """The real T[c_1..c_{n-1}, j_1..j_n] = <O_c x s_j1 x ... x s_jn>:
    choices[j] lists the Pauli terms (_identity_terms or _grouping_terms)
    of the operators of intermediate B_{j+1}, O_c is the product of the
    chosen ones and s_ji is Pauli j_i on extreme A_i.

    Each intermediate operator is a sum of Pauli strings whose qubit i sits
    on source i, so with F_i[p, j] the Pauli coefficients of source i (p on
    its intermediate wires, j on its extreme wire, moved last), T[c] is a
    sum over term tuples of prod_j coef_j * outer_i F_i[p_(1,i)..p_(n-1,i)].
    """
    n = net.n
    if len(choices) != n - 1:
        raise ValueError("%d grouping pairs on a network of n = %d, not "
                         "n - 1 = %d" % (len(choices), n, n - 1))
    for terms in choices:
        for _, rows in terms:
            if rows.shape[1] != n:
                raise ValueError("a grouping of n = %d on a network of n = %d"
                                 % (rows.shape[1], n))
    sources = net._source_coefficients
    shape = tuple(len(c) for c in choices)
    out = np.empty(shape + (4 ** (n - 1), 4))
    for idx in itertools.product(*map(range, shape)):
        coefs, rows = zip(*(t[c] for t, c in zip(choices, idx)))
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
    R[c]^T = sum_j T[c, j] s_j1 x ... x s_jn / 2^n, built one wire at a
    time with _WIRE^T, whose entry [2a + b, j] is s_j[b, a]."""
    lead = table.shape[:-n]
    flat = _per_wire(table.reshape(-1, 4 ** n).T, _WIRE.T, n) / 2 ** n
    # axes (c, a_1, b_1, ..., a_n, b_n) -> (c, a_1..a_n, b_1..b_n)
    pairs = flat.reshape((-1,) + (2,) * (2 * n))
    order = [0] + list(range(1, 2 * n, 2)) + list(range(2, 2 * n + 1, 2))
    return pairs.transpose(order).reshape(lead + (2 ** n, 2 ** n))


def nlocal_behavior(net, settings):
    """Behavior with parties ordered (A_1..A_n, B_1..B_{n-1}); n is at
    most MAX_BEHAVIOR_N."""
    n = net.n
    if n > MAX_BEHAVIOR_N:
        raise ValueError("a behavior holds 4^(2n-1) probabilities: n = %d "
                         "exceeds the limit n <= %d" % (n, MAX_BEHAVIOR_N))
    p = 2 * n - 1
    t = _pauli_table(net, [[_identity_terms(n)]
                           + [_grouping_terms(g) for g in pair]
                           for pair in settings.intermediates])
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
    choices = [[_grouping_terms(g) for g in pair]
               for pair in settings.intermediates]
    return _operators(_pauli_table(net, choices), net.n)


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
    i0 = flat.sum(axis=1) / 2 ** n
    i1 = (flat @ _parity_signs(n)) / 2 ** n
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


class NullEventError(ValueError):
    """A swapped state conditioned on an event of probability zero."""


def swapped_state(net, settings, y, b_out, z, c_out):
    """Conditional state of (A, D, T) given intermediate settings/outcomes.

    Returns (chi, probability); raises on conditioning on a null event.
    """
    # the outcome projectors (I +- O)/2 are the only operators on B and C;
    # the table's one entry R is the unnormalized state, transposed since
    # R[a, b] pairs with observable entry [a, b]
    choices = [[_grouping_terms(settings.b[y], b_out)],
               [_grouping_terms(settings.c[z], c_out)]]
    sub = _operators(_pauli_table(net, choices), 3)[0, 0].T
    prob = float(np.real(np.trace(sub)))
    if prob < NULL_EVENT_TOL:
        raise NullEventError("conditioning on a null event (probability %g)"
                             % prob)
    return sub / prob, prob


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
