"""Command-line front end.

Subcommands: violation, scan, threshold, swap, lhv-check, nlocal.
Reports are JSON objects {version, config, results, timings}; scans can
also be emitted as CSV.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

import argparse
import csv
import functools
import io
import itertools
import json
import sys

import numpy as np

from . import __version__, families
from .analysis import (bell_evaluate, negativity, parse_bell_functional,
                       separability_check, tripartite_behavior)
from .lhv import appendix_b_responses, product_ivalues
from .measurements import BlochObservable, parse_grouping
from .network import (SUPPORTED_N, NLocalNetwork, SettingsBundle,
                      TrilocalNetwork, _restricted_score, swapped_state)
from .optimize import (_THRESHOLD_FAMILIES, NoBracketError, OptimizerConfig,
                       _correlations, _ivalues, maximize_nlocal,
                       maximize_trilocal, visibility_threshold)
from .states import ghz_n_state

EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3
FORMATS = ("json", "csv")
SETTINGS_MODES = ("table1", "optimize", "file")


class ConfigError(Exception):
    pass


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; command-line "
                        "flags override fields of the same name")
    parser.add_argument("--output", help="write the report to this path")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default json)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--restarts", type=int, default=None)
    parser.add_argument("--max-iterations", type=int, default=None,
                        dest="max_iterations",
                        help="BFGS iterations per restart (default 2000)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="relative score change of one BFGS iteration "
                             "that ends a restart (default 1e-9)")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted and echoed in the report config; "
                             "restarts always run serially")


def _add_family(parser):
    parser.add_argument("--family",
                        choices=sorted(families.FAMILY_PARAMS), default=None)
    names = dict.fromkeys(itertools.chain(*families.FAMILY_PARAMS.values()))
    for name in names:
        parser.add_argument("--" + name, type=float, default=None)


# one parser serves every main call in a process: parse_args leaves it
# unchanged and returns a fresh namespace
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlocality",
        description="Simulate and analyze n-local quantum network scenarios")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("violation", help="optimize and report inequality "
                       "scores for a state family")
    _add_common(p)
    _add_family(p)
    p.add_argument("--settings", choices=SETTINGS_MODES, default=None,
                   help="optimize the extreme angles (default; table1 is "
                        "an alias of optimize) or replay a settings file")
    p.add_argument("--settings-file", default=None,
                   help="JSON settings bundle (used with --settings file)")

    p = sub.add_parser("scan", help="score a parameter grid")
    _add_common(p)
    _add_family(p)
    p.add_argument("--grid", action="append", default=None,
                   metavar="NAME=START:STOP:STEPS",
                   help="grid over one parameter; repeat for a product grid")

    p = sub.add_parser("threshold", help="locate a noise threshold")
    _add_common(p)
    _add_family(p)
    p.add_argument("--mode", choices=("joint", "single"), default=None)

    p = sub.add_parser("swap", help="conditional swapped-state diagnostics")
    _add_common(p)
    _add_family(p)
    p.add_argument("--b-groupings", nargs=2, default=None,
                   metavar="GROUPING", help="grouping literals for B")
    p.add_argument("--c-groupings", nargs=2, default=None,
                   metavar="GROUPING", help="grouping literals for C")
    p.add_argument("--allow-unbalanced", action="store_true", default=None,
                   dest="allow_unbalanced")
    p.add_argument("--functional", default=None,
                   help="Bell functional JSON file to evaluate on each "
                        "swapped state")

    p = sub.add_parser("lhv-check", help="evaluate the saturating classical "
                       "model on an r grid")
    _add_common(p)
    p.add_argument("--r-grid", default=None, metavar="START:STOP:STEPS")

    p = sub.add_parser("nlocal", help="optimize an n-local network")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, choices=SUPPORTED_N,
                   help="network size: n sources of n qubits, n = %d..%d "
                        "(default 3)" % (SUPPORTED_N[0], SUPPORTED_N[-1]))
    p.add_argument("--epsilon", type=float, default=None,
                   help="per-source depolarizing visibility (default: pure)")
    return parser


def _merge_config(args):
    """File config as base, command-line flags override, defaults last."""
    cfg = {}
    if getattr(args, "config", None):
        cfg = _read_file(args.config, "config file", json.loads)
        if not isinstance(cfg, dict):
            raise ConfigError("config file must contain an object")
    names = set(vars(args)) - {"config", "command"}
    unknown = set(cfg) - names
    if unknown:
        raise ConfigError("unknown config fields for %s: %s"
                          % (args.command, sorted(unknown)))
    merged = dict(cfg)
    for key, value in vars(args).items():
        if key in ("config",) or value is None:
            continue
        merged[key] = value
    return merged


def _read_file(path, what, parse):
    """parse(text) of a file; a file that cannot be read or is not JSON is
    a configuration error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read %s: %s" % (what, exc))


def _integer(opts, key, default):
    value = opts.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s must be an integer, not %r" % (key, value))
    return value


def _number(opts, key, default):
    value = opts.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("%s must be a number, not %r" % (key, value))
    return float(value)


def _string(opts, key):
    value = opts.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError("%s must be a string, not %r" % (key, value))
    return value


def _boolean(opts, key, default):
    value = opts.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError("%s must be true or false, not %r" % (key, value))
    return value


def _choice(opts, key, choices, default):
    value = opts.get(key, default)
    if value not in choices:
        raise ConfigError("%s must be one of %s, not %r"
                          % (key, ", ".join(choices), value))
    return value


def _optimizer_config(opts):
    return OptimizerConfig(
        restarts=_integer(opts, "restarts", 50),
        max_iterations=_integer(opts, "max_iterations", 2000),
        tolerance=_number(opts, "tolerance", 1e-9),
        seed=_integer(opts, "seed", 0),
        workers=_integer(opts, "workers", 1))


def _family_name(opts):
    family = opts.get("family")
    if not family:
        raise ConfigError("--family is required")
    if not isinstance(family, str) or family not in families.FAMILY_PARAMS:
        raise ConfigError("unknown family %r" % (family,))
    return family


def _given_params(opts, family):
    """The parameters of family that opts sets, as floats."""
    return {name: _number(opts, name, None)
            for name in families.FAMILY_PARAMS.get(family, ())
            if opts.get(name) is not None}


def _family_point(opts):
    """(family, params, state); raises ValueError on an invalid point,
    which main reports as such."""
    family = _family_name(opts)
    params = _given_params(opts, family)
    return family, params, families.family_state(family, params)


def _resolved_config(opts, cfg, extra=None):
    out = {"seed": cfg.seed, "restarts": cfg.restarts,
           "max_iterations": cfg.max_iterations, "tolerance": cfg.tolerance,
           "workers": cfg.workers}
    for key in ("family", "command", "format", "mode", "settings"):
        if opts.get(key) is not None:
            out[key] = opts[key]
    out.update(_given_params(opts, opts.get("family")))
    if extra:
        out.update(extra)
    return out


def _report(config, results, timings):
    return {"version": __version__, "config": config, "results": results,
            "timings": timings}


def _grouping_strings(pair):
    return [g.to_string() for g in pair]


def _bundle_json(bundle):
    return {
        "a": [[o.theta, o.phi] for o in bundle.a],
        "b": _grouping_strings(bundle.b),
        "c": _grouping_strings(bundle.c),
        "d": [[o.theta, o.phi] for o in bundle.d],
        "t": [[o.theta, o.phi] for o in bundle.t],
    }


def _bundle_from_json(doc):
    known = {"a", "b", "c", "d", "t"}
    extra = set(doc) - known
    if extra:
        raise ConfigError("unknown settings fields: %s" % sorted(extra))

    def angles(key):
        return tuple(BlochObservable(float(t), float(p)) for t, p in doc[key])

    def groupings(key):
        return tuple(parse_grouping(s) for s in doc[key])

    try:
        return SettingsBundle(a=angles("a"), b=groupings("b"),
                              c=groupings("c"), d=angles("d"), t=angles("t"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("malformed settings file: %s" % exc)


def _ivalue_rows(table):
    return [{"i1": i1, "i2": i2, "k": k, "value": float(table[i1, i2, k])}
            for i1, i2, k in itertools.product((0, 1), repeat=3)]


def _scores(table):
    """(score, tuple_k0, tuple_k1) over all tuples for roots 3 and 1."""
    return tuple(_restricted_score(table, (0, 1), root, share_tail=False)
                 for root in (3, 1))


def cmd_violation(opts):
    family, params, state = _family_point(opts)
    cfg = _optimizer_config(opts)
    settings_mode = _choice(opts, "settings", SETTINGS_MODES, "optimize")
    result = {}
    if settings_mode == "file":
        path = _string(opts, "settings_file")
        if not path:
            raise ConfigError("--settings-file is required with "
                              "--settings file")
        bundle = _bundle_from_json(_read_file(path, "settings file",
                                              json.loads))
        net = TrilocalNetwork.from_shared_state(state)
        settings = bundle.nlocal()
        corr = _correlations(net, settings.intermediates)
        angles = [(o.theta, o.phi) for pair in settings.extremes for o in pair]
        table = _ivalues(corr, np.ravel(angles))[0].reshape(2, 2, 2)
        evaluations = 0
    else:
        # table1 is an alias of optimize
        opt = maximize_trilocal((family, params), cfg)
        bundle, table = opt.settings, opt.i_values
        evaluations = opt.evaluations
        result["argmax_tuple"] = [list(opt.tuple_k0), list(opt.tuple_k1)]
    tri, loc = _scores(table)
    score = tri[0] if settings_mode == "file" else opt.score
    result.update({
        "family": family, "params": params,
        "settings": _bundle_json(bundle),
        "i_values": _ivalue_rows(table),
        "score": float(score),
        "trilocal_score_all_tuples": tri[0],
        "trilocal_argmax": [list(tri[1]), list(tri[2])],
        "local_score": loc[0],
        "local_argmax": [list(loc[1]), list(loc[2])],
        "verdict": ("nontrilocal" if score > 1 + 1e-9
                    else "no violation found"),
        "local_verdict": ("nonlocal" if loc[0] > 1 + 1e-9
                          else "no violation found"),
    })
    config = _resolved_config(opts, cfg, {"settings": settings_mode})
    return _report(config, [result], {"objective_evaluations": evaluations})


def _parse_grid_spec(spec):
    try:
        name, rng = spec.split("=")
        start, stop, steps = rng.split(":")
        return name.strip(), float(start), float(stop), int(steps)
    except ValueError:
        raise ConfigError("bad grid spec %r (want NAME=START:STOP:STEPS)"
                          % spec)


def cmd_scan(opts):
    family = _family_name(opts)
    cfg = _optimizer_config(opts)
    specs = opts.get("grid")
    if not specs:
        raise ConfigError("at least one --grid is required")
    if not isinstance(specs, list) or not all(isinstance(spec, str)
                                              for spec in specs):
        raise ConfigError("grid must be a list of NAME=START:STOP:STEPS "
                          "strings, not %r" % (specs,))
    axes = []
    for spec in specs:
        name, start, stop, steps = _parse_grid_spec(spec)
        if name not in families.FAMILY_PARAMS[family]:
            raise ConfigError("parameter %r not in family %r" % (name, family))
        if steps < 1:
            raise ConfigError("empty grid for %r" % name)
        axes.append((name, np.linspace(start, stop, steps)))
    names = [name for name, _ in axes]
    fixed = {name: value for name, value in _given_params(opts, family).items()
             if name not in names}
    rows = []
    evaluations = 0
    # the first --grid varies slowest
    for point in itertools.product(*(values for _, values in axes)):
        params = dict(fixed, **dict(zip(names, map(float, point))))
        opt = maximize_trilocal((family, params), cfg)
        evaluations += opt.evaluations
        row = dict(params)
        row["score"] = float(opt.score)
        try:
            row["closed_form"] = families.closed_form_bound(family, params)
        except ValueError:
            pass
        rows.append(row)
    config = _resolved_config(opts, cfg, {"grid": specs})
    return _report(config, rows, {"objective_evaluations": evaluations})


def cmd_threshold(opts):
    family = _family_name(opts)
    if family not in _THRESHOLD_FAMILIES:
        raise ConfigError("threshold families: %s"
                          % ", ".join(_THRESHOLD_FAMILIES))
    cfg = _optimizer_config(opts)
    mode = opts.get("mode", "joint") or "joint"
    res = visibility_threshold(family, cfg, mode=mode)
    result = {"family": family, "parameter": res.parameter,
              "critical_value": res.critical_value,
              "bracket_width": res.bracket_width,
              "score_below": res.score_below,
              "score_above": res.score_above}
    config = _resolved_config(opts, cfg, {"mode": mode})
    return _report(config, [result], {})


def _grouping_pair(opts, key, default):
    """The groupings of the two literals in opts[key], or default if unset;
    a config file can hold any JSON value there."""
    value = opts.get(key)
    if value is None:
        return default
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(s, str) for s in value)):
        raise ConfigError("%s must be a list of two grouping strings, not %r"
                          % (key, value))
    return tuple(parse_grouping(s) for s in value)


def cmd_swap(opts):
    family, params, state = _family_point(opts)
    cfg = _optimizer_config(opts)
    net = TrilocalNetwork.from_shared_state(state)
    b_pair, c_pair = families.family_groupings(family)
    allow_unbalanced = _boolean(opts, "allow_unbalanced", False)
    b_pair = _grouping_pair(opts, "b_groupings", b_pair)
    c_pair = _grouping_pair(opts, "c_groupings", c_pair)
    for g in tuple(b_pair) + tuple(c_pair):
        if not g.is_balanced() and not allow_unbalanced:
            raise ConfigError("unbalanced grouping %r requires "
                              "--allow-unbalanced" % g.to_string())
    probe = BlochObservable(0.0, 0.0)
    bundle = SettingsBundle(a=(probe, probe), b=tuple(b_pair),
                            c=tuple(c_pair), d=(probe, probe),
                            t=(probe, probe))
    functional = None
    path = _string(opts, "functional")
    if path:
        functional = _read_file(path, "functional file",
                                parse_bell_functional)
        sx = BlochObservable(np.pi / 2, 0.0).matrix()
        sy = BlochObservable(np.pi / 2, np.pi / 2).matrix()
    rows = []
    any_entangled = False
    for y, z, b_out, c_out in itertools.product((0, 1), repeat=4):
        row = {"y": y, "b": b_out, "z": z, "c": c_out}
        try:
            chi, prob = swapped_state(net, bundle, y, b_out, z, c_out)
        except ValueError:
            rows.append(dict(row, probability=0.0, null_event=True))
            continue
        sep = separability_check(chi)
        row.update({
            "probability": prob,
            "negativity": [negativity(chi, 3, cut) for cut in range(3)],
            "criterion1": {"lhs": sep.criterion1_lhs,
                           "rhs": sep.criterion1_rhs,
                           "satisfied": sep.criterion1_satisfied},
            "criterion2": {"lhs": sep.criterion2_lhs,
                           "rhs": sep.criterion2_rhs,
                           "satisfied": sep.criterion2_satisfied},
            "entangled_by_criteria": sep.entangled,
        })
        if functional is not None:
            value, violated = bell_evaluate(
                tripartite_behavior(chi, [(sx, sy)] * 3), functional)
            row["functional_value"] = value
            row["functional_violated"] = violated
        any_entangled = any_entangled or sep.entangled
        rows.append(row)
    config = _resolved_config(opts, cfg, {
        "b_groupings": _grouping_strings(b_pair),
        "c_groupings": _grouping_strings(c_pair)})
    return _report(config, rows, {"any_entangled_by_criteria": any_entangled})


def cmd_lhv_check(opts):
    cfg = _optimizer_config(opts)
    spec = _string(opts, "r_grid") or "0:1:21"
    try:
        start, stop, steps = spec.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError:
        raise ConfigError("bad --r-grid %r (want START:STOP:STEPS)" % spec)
    if steps < 1:
        raise ConfigError("empty --r-grid %r" % spec)
    grid = np.linspace(start, stop, steps)
    rows = []
    for r in grid:
        table = product_ivalues(appendix_b_responses(float(r)))
        tri, loc = _scores(table)
        rows.append({"r": float(r),
                     "trilocal_score": tri[0],
                     "local_score": loc[0],
                     "i0": float(table[0, 0, 0]),
                     "i1": float(table[0, 0, 1])})
    config = _resolved_config(opts, cfg, {"r_grid": spec})
    return _report(config, rows, {})


def cmd_nlocal(opts):
    cfg = _optimizer_config(opts)
    n = _integer(opts, "n", 3)
    epsilon = opts.get("epsilon")
    if epsilon is not None:
        epsilon = _number(opts, "epsilon", None)

    def source():
        g = ghz_n_state(n)
        if epsilon is None:
            return g
        return (epsilon * np.outer(g, g.conj())
                + (1 - epsilon) * np.eye(2 ** n) / 2 ** n)

    # a generator: from_states rejects an unsupported n before any source
    # of 2^n x 2^n entries is built
    net = NLocalNetwork.from_states(n, (source() for _ in range(n)))
    opt = maximize_nlocal(net, cfg)
    result = {"n": n, "source": "ghz" if epsilon is None else "depolarized",
              "score": float(opt.score),
              "argmax_tuple": [list(opt.tuple_k0), list(opt.tuple_k1)],
              "verdict": ("non-n-local" if opt.score > 1 + 1e-9
                          else "no violation found")}
    if epsilon is not None:
        result["epsilon"] = epsilon
    config = _resolved_config(opts, cfg, {"n": n})
    return _report(config, [result],
                   {"objective_evaluations": opt.evaluations})


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError("not JSON serializable: %r" % type(obj))


def _to_csv(report):
    rows = report["results"]
    if not rows:
        return ""
    keys = []
    for row in rows:
        for key in row:
            if key not in keys and not isinstance(row[key], (dict, list)):
                keys.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in keys})
    return buf.getvalue()


def _emit(report, fmt, path):
    if fmt == "csv":
        text = _to_csv(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True,
                          default=_json_default) + "\n"
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("cannot write report: %s" % exc)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "violation": cmd_violation,
    "scan": cmd_scan,
    "threshold": cmd_threshold,
    "swap": cmd_swap,
    "lhv-check": cmd_lhv_check,
    "nlocal": cmd_nlocal,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_config(args)
        opts["command"] = args.command
        fmt = _choice(opts, "format", FORMATS, "json")
        path = _string(opts, "output")
        _emit(_COMMANDS[args.command](opts), fmt, path)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NoBracketError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
