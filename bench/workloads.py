"""The benchmark's workloads: inputs drawn from a seed, operations, checks.

A workload is built once per run (set-up) into a list of operations.  An
operation's `run` is what the benchmark times: a call of `nlocality.cli.main`
in-process, or of the library where no command exists.  Its `check` reads
the output, compares it with `checks`, and returns the number of objective
evaluations the output reports (0 where it reports none).

Library functions are looked up on their module at call time
(`network.behavior`, not a name imported here), so that the traced run's
wrappers see the benchmark's calls.
"""

import json
import os

import numpy as np

import checks
from nlocality import analysis, cli, measurements, network, optimize

# Restart counts.  A single trilocal restart reaches its closed form within
# 1e-3 with probability 0.375-0.575 depending on the family and point (40
# restarts per point), an n = 2 restart reaches sqrt 2 with probability 0.7
# (30) and an n = 3 restart 2^(1/3) with probability 0.51 (100).  The counts
# below keep the chance that every restart of one operation misses under
# 3e-6 at each problem's lowest measured rate (see README.md).  The gGHZ
# maximization runs at the CLI default of 50 restarts.
BISEPARABLE_RESTARTS = 28
GHZ_SYMMETRIC_RESTARTS = 20
LOCAL_RESTARTS = 8
NLOCAL_RESTARTS = {2: 12, 3: 20}
# threshold restarts per grid or bisection point, plus one warm start; see
# README.md for why damping needs more than depolarizing noise
THRESHOLD_RESTARTS = {"depolarized": 3, "amplitude": 8}
THRESHOLD_TARGETS = {"depolarized": checks.DEPOLARIZED_THRESHOLD,
                     "amplitude": checks.DAMPING_THRESHOLD}


class OperationFailed(RuntimeError):
    """The program refused or aborted an operation."""


class Operation:
    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _num(x):
    # repr of a Python float round-trips exactly through argparse
    return repr(float(x))


class _Cli:
    """Runs `nlocality.cli.main` with one worker, reading the JSON report."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def op(self, name, argv, check):
        self.count += 1
        path = os.path.join(self.workdir, "report-%02d.json" % self.count)

        def run():
            rc = cli.main(list(argv) + ["--workers", "1", "--output", path])
            if rc != 0:
                raise OperationFailed("%s exited with %d" % (name, rc))
            return path

        def read_and_check(report_path):
            with open(report_path, "r", encoding="utf-8") as fh:
                return check(json.load(fh))

        return Operation(name, run, read_and_check)


def _evaluations(report):
    return int(report["timings"].get("objective_evaluations", 0))


def _random_grouping(rng, n):
    """A random balanced split of the 2^n GHZ labels, as a literal."""
    labels = ["".join(str((v >> (n - 1 - b)) & 1) for b in range(n))
              for v in range(2 ** n)]
    order = rng.permutation(2 ** n)
    plus = sorted(labels[i] for i in order[:2 ** (n - 1)])
    minus = sorted(labels[i] for i in order[2 ** (n - 1):])
    return ",".join(plus) + "|" + ",".join(minus)


def _random_angles(rng):
    return [[float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))]
            for _ in range(2)]


def _random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _seeds(rng, k):
    return [int(s) for s in rng.integers(0, 2 ** 31, size=k)]


# ---------------------------------------------------------------------------
# violation: optimizer-bound maximizations on pure or near-pure sources


def _check_violation(bound, tol):
    def check(report):
        row = report["results"][0]
        checks.check_score(row["score"], bound, tol)
        table = checks.ivalue_array(row["i_values"])
        checks.check_ivalue_range(table)
        checks.check_score_from_ivalues(row["score"], table,
                                        row["argmax_tuple"])
        checks.check_local_bound(row["local_score"])
        return _evaluations(report)
    return check


def _check_scan(report):
    rows = report["results"]
    if len(rows) != 2:
        raise checks.CheckError("scan returned %d rows, expected 2"
                                % len(rows))
    for row in rows:
        bound = checks.ghz_symmetric_bound(row["p1"])
        checks.check_score(row["score"], bound, checks.CLOSED_FORM_TOL)
        checks.check_equal("reported closed form", row["closed_form"], bound,
                           1e-12)
    return _evaluations(report)


def _check_nlocal(n):
    def check(report):
        row = report["results"][0]
        checks.check_score(row["score"], checks.ghz_nlocal_bound(n),
                           checks.CLOSED_FORM_TOL)
        return _evaluations(report)
    return check


def violation(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    alpha = rng.uniform(0.3, 0.7)
    eta = rng.uniform(0.45, 0.75)
    sigma1 = rng.uniform(0.3, 0.6)
    p2 = rng.uniform(0.3, 0.42)
    p1 = rng.uniform(0.25, min(0.4, 1 / 8 + np.sqrt(3) / 2 * p2 - 1e-3))
    local_alpha = rng.uniform(0.3, np.pi / 4)
    s = _seeds(rng, 6)
    c = _Cli(workdir)

    gghz = ["violation", "--family", "gghz", "--alpha", _num(alpha),
            "--settings", "optimize", "--seed", str(s[0])]
    bisep = ["violation", "--family", "biseparable", "--eta", _num(eta),
             "--sigma1", _num(sigma1), "--settings", "optimize",
             "--restarts", str(BISEPARABLE_RESTARTS), "--seed", str(s[1])]
    scan = ["scan", "--family", "ghz-symmetric",
            "--grid", "p1=%s:%s:2" % (_num(p1), _num(-p1)), "--p2", _num(p2),
            "--restarts", str(GHZ_SYMMETRIC_RESTARTS), "--seed", str(s[2])]
    local_cfg = optimize.OptimizerConfig(restarts=LOCAL_RESTARTS, seed=s[3],
                                         workers=1)

    def run_local():
        return optimize.maximize_local(("gghz", {"alpha": local_alpha}),
                                       local_cfg)

    def check_local(result):
        checks.check_local_bound(result.score)
        return result.evaluations

    ops = [
        c.op("violation gghz", gghz,
             _check_violation(checks.gghz_bound(alpha),
                              checks.CLOSED_FORM_TOL_FULL)),
        c.op("violation biseparable", bisep,
             _check_violation(checks.biseparable_bound(eta, sigma1),
                              checks.CLOSED_FORM_TOL)),
        c.op("scan ghz-symmetric", scan, _check_scan),
        Operation("maximize_local gghz", run_local, check_local),
    ]
    for n, seed_n in zip((2, 3), s[4:]):
        argv = ["nlocal", "--n", str(n), "--restarts",
                str(NLOCAL_RESTARTS[n]), "--seed", str(seed_n)]
        ops.append(c.op("nlocal n=%d" % n, argv, _check_nlocal(n)))
    return ops


# ---------------------------------------------------------------------------
# threshold: noise-threshold bisection on mixed sources


def threshold(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    c = _Cli(workdir)
    ops = []
    for family, s in zip(THRESHOLD_RESTARTS, _seeds(rng, 2)):
        target = THRESHOLD_TARGETS[family]

        def check(report, target=target):
            checks.check_threshold(report["results"][0], target)
            return 0

        argv = ["threshold", "--family", family, "--mode", "joint",
                "--restarts", str(THRESHOLD_RESTARTS[family]),
                "--seed", str(s)]
        ops.append(c.op("threshold %s" % family, argv, check))
    return ops


# ---------------------------------------------------------------------------
# engines: exact simulation, no optimizer


def _check_replay(report):
    row = report["results"][0]
    table = checks.ivalue_array(row["i_values"])
    checks.check_ivalue_range(table)
    checks.check_equal("trilocal score over all tuples",
                       row["trilocal_score_all_tuples"],
                       checks.best_pair_score(table, 3), 1e-12)
    checks.check_equal("local score", row["local_score"],
                       checks.best_pair_score(table, 1), 1e-12)
    return table


def engines(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    c = _Cli(workdir)
    ops = []

    # violation --settings file: dense behaviors of a depolarized source and
    # of its noiseless version under one random settings bundle
    bundle = {"a": _random_angles(rng), "d": _random_angles(rng),
              "t": _random_angles(rng),
              "b": [_random_grouping(rng, 3) for _ in range(2)],
              "c": [_random_grouping(rng, 3) for _ in range(2)]}
    settings_path = os.path.join(workdir, "settings.json")
    with open(settings_path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh)
    epsilon = rng.uniform(0.5, 0.95)
    noisy = []

    def check_noisy(report):
        noisy[:] = [_check_replay(report)]
        return 0

    def check_clean(report):
        checks.check_noise_scaling(noisy.pop(), _check_replay(report),
                                   epsilon, 3)
        return 0

    for eps, check in ((epsilon, check_noisy), (1.0, check_clean)):
        argv = ["violation", "--family", "depolarized", "--epsilon", _num(eps),
                "--settings", "file", "--settings-file", settings_path]
        ops.append(c.op("violation replay epsilon=%.3f" % eps, argv, check))

    # dense behavior against the factored n = 3 engine, random mixed sources
    sources3 = [_random_density(rng, 8) for _ in range(3)]
    ext = [tuple(measurements.BlochObservable(*angle)
                 for angle in _random_angles(rng)) for _ in range(3)]
    b_pair = tuple(measurements.parse_grouping(_random_grouping(rng, 3))
                   for _ in range(2))
    c_pair = tuple(measurements.parse_grouping(_random_grouping(rng, 3))
                   for _ in range(2))
    tri_settings = network.SettingsBundle(ext[0], b_pair, c_pair, ext[1],
                                          ext[2])
    n3_settings = network.NLocalSettings(tuple(ext), (b_pair, c_pair))
    dense = []

    def run_dense():
        net = network.TrilocalNetwork.from_role_states(*sources3)
        return network.behavior(net, tri_settings)

    def check_dense(beh):
        checks.check_behavior(beh.probabilities, 5)
        dense[:] = [beh.probabilities]
        return 0

    def run_factored():
        net = network.NLocalNetwork.from_states(3, sources3)
        return network.nlocal_behavior(net, n3_settings)

    def check_factored(beh):
        checks.check_behavior(beh.probabilities, 5)
        checks.check_behaviors_agree(beh.probabilities, dense[0])
        return 0

    ops.append(Operation("behavior dense n=3", run_dense, check_dense))
    ops.append(Operation("nlocal_behavior n=3", run_factored, check_factored))

    # n = 4 transfers of random mixed sources and of their noisy versions
    sources4 = [_random_density(rng, 16) for _ in range(4)]
    visibility = rng.uniform(0.5, 0.95)
    noisy4 = [visibility * rho + (1 - visibility) * np.eye(16) / 16
              for rho in sources4]
    n4_settings = network.NLocalSettings(
        tuple(tuple(measurements.BlochObservable(*angle)
                    for angle in _random_angles(rng)) for _ in range(4)),
        tuple(tuple(measurements.parse_grouping(_random_grouping(rng, 4))
                    for _ in range(2)) for _ in range(3)))
    ext4 = np.array(n4_settings.extreme_operators())
    clean4 = []

    def transfers_op(states):
        def run():
            net = network.NLocalNetwork.from_states(4, states)
            transfers = network.nlocal_transfers(net, n4_settings)
            return network.transfer_ivalues(4, transfers, ext4)
        return run

    def check_clean4(ivals):
        checks.check_ivalue_range(ivals)
        clean4[:] = [ivals]
        return 0

    def check_noisy4(ivals):
        checks.check_ivalue_range(ivals)
        checks.check_noise_scaling(ivals, clean4.pop(), visibility, 4)
        return 0

    ops.append(Operation("nlocal_transfers n=4", transfers_op(sources4),
                         check_clean4))
    ops.append(Operation("nlocal_transfers n=4 noisy", transfers_op(noisy4),
                         check_noisy4))

    # swap diagnostics: the CLI on a damped family point, and swapped_state
    # followed by the analysis module on the random mixed n = 3 sources
    gamma = rng.uniform(0.05, 0.3)
    argv = ["swap", "--family", "amplitude", "--gamma", _num(gamma),
            "--b-groupings", _random_grouping(rng, 3),
            _random_grouping(rng, 3),
            "--c-groupings", _random_grouping(rng, 3),
            _random_grouping(rng, 3)]

    def check_swap_report(report):
        probs = {}
        for row in report["results"]:
            probs.setdefault((row["y"], row["z"]), []).append(
                row["probability"])
            if not row.get("null_event") and min(row["negativity"]) < 0:
                raise checks.CheckError("negative negativity %r"
                                        % row["negativity"])
        checks.check_swap_probabilities(probs)
        return 0

    ops.append(c.op("swap amplitude", argv, check_swap_report))

    def run_swapped():
        net = network.TrilocalNetwork.from_role_states(*sources3)
        out = []
        for y in (0, 1):
            for z in (0, 1):
                for b in (0, 1):
                    for cc in (0, 1):
                        chi, prob = network.swapped_state(net, tri_settings,
                                                          y, b, z, cc)
                        negs = [analysis.negativity(chi, 3, cut)
                                for cut in range(3)]
                        sep = analysis.separability_check(chi)
                        out.append((y, z, chi, prob, negs, sep))
        return out

    def check_swapped(out):
        probs = {}
        for y, z, chi, prob, negs, sep in out:
            checks.check_density(chi)
            probs.setdefault((y, z), []).append(prob)
            if min(negs) < 0 or not np.isfinite(sep.criterion1_rhs):
                raise checks.CheckError("bad diagnostics %r %r" % (negs, sep))
        checks.check_swap_probabilities(probs)
        return 0

    ops.append(Operation("swapped_state + analysis", run_swapped,
                         check_swapped))

    # the saturating classical model on a random r grid
    r_lo, r_hi = rng.uniform(0.0, 0.2), rng.uniform(0.8, 1.0)

    def check_lhv(report):
        rows = report["results"]
        if len(rows) != 21:
            raise checks.CheckError("lhv-check returned %d rows" % len(rows))
        for row in rows:
            checks.check_lhv_row(row)
        return 0

    ops.append(c.op("lhv-check", ["lhv-check", "--r-grid",
                                  "%s:%s:21" % (_num(r_lo), _num(r_hi))],
                    check_lhv))
    return ops


WORKLOADS = {"violation": violation, "threshold": threshold,
             "engines": engines}
# workloads whose every optimizer result reports its objective evaluations
EVALUATIONS_REPORTED = {"violation"}
