"""Command-line front end.

Subcommands: violation, scan, threshold, swap, lhv-check, nlocal.
Reports are JSON objects {version, config, results, timings}; scans can
also be emitted as CSV.  A --config file's fields are checked once, each
against the parser action of its flag.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

import argparse
import csv
import dataclasses
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
from .network import (SUPPORTED_N, NLocalNetwork, NullEventError,
                      SettingsBundle, TrilocalNetwork, _restricted_score,
                      swapped_state)
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
    # the search sets the family's noise parameter itself
    p.add_argument("--family", choices=tuple(_THRESHOLD_FAMILIES),
                   default=None)
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


@functools.cache
def _config_actions(command):
    """command's parser actions by dest: the fields a config file may set."""
    commands, = (a for a in build_parser()._actions if a.dest == "command")
    return {a.dest: a for a in commands.choices[command]._actions
            if a.dest not in ("help", "config")}


# a flag's type: the JSON values a config file may give for it, and their name
_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
          None: (str, "a string")}


def _config_value(action, value):
    """A config file's value for action's flag, checked as a value that
    flag could have given (a number of a float flag becomes a float)."""
    is_list = isinstance(value, list) and all(isinstance(s, str)
                                              for s in value)
    if action.nargs == 0:  # store_true
        fits, want = isinstance(value, bool), "true or false"
    elif action.nargs == 2:
        fits = is_list and len(value) == 2
        want = "a list of two %s strings" % action.metavar.lower()
    elif isinstance(action, argparse._AppendAction):
        fits = is_list and len(value) > 0
        want = "a list of %s strings" % action.metavar
    else:
        kinds, want = _TYPES[action.type]
        fits = isinstance(value, kinds) and not isinstance(value, bool)
    if action.choices is not None:
        fits = fits and value in action.choices
        want = "one of " + ", ".join(map(str, action.choices))
    if not fits:
        raise ConfigError("%s must be %s, not %r" % (action.dest, want, value))
    return float(value) if action.type is float else value


def _merge_config(args):
    """File config as base, each value checked against its flag's action;
    command-line flags override."""
    cfg = {}
    if args.config:
        cfg = _read_file(args.config, "config file", json.loads)
        if not isinstance(cfg, dict):
            raise ConfigError("config file must contain an object")
    actions = _config_actions(args.command)
    unknown = set(cfg) - set(actions)
    if unknown:
        raise ConfigError("unknown config fields for %s: %s"
                          % (args.command, sorted(unknown)))
    merged = {key: _config_value(actions[key], value)
              for key, value in cfg.items()}
    merged.update((key, value) for key, value in vars(args).items()
                  if key != "config" and value is not None)
    return merged


def _read_file(path, what, parse):
    """parse(text) of a file; a file that cannot be read or is not JSON is
    a configuration error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read %s: %s" % (what, exc))


def _optimizer_config(opts):
    return OptimizerConfig(**{f.name: opts[f.name]
                              for f in dataclasses.fields(OptimizerConfig)
                              if f.name in opts})


def _family_name(opts):
    if "family" not in opts:
        raise ConfigError("--family is required")
    return opts["family"]


def _given_params(opts, family):
    """The parameters of family that opts sets."""
    return {name: opts[name] for name in families.FAMILY_PARAMS.get(family, ())
            if name in opts}


def _family_point(opts):
    """(family, params, state); raises ValueError on an invalid point,
    which main reports as such."""
    family = _family_name(opts)
    params = _given_params(opts, family)
    return family, params, families.family_state(family, params)


def _resolved_config(opts, cfg, extra=None):
    out = dataclasses.asdict(cfg)
    out.update((key, opts[key]) for key in
               ("family", "command", "format", "mode", "settings")
               if key in opts)
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
    """The SettingsBundle of a settings file's JSON document: an object
    giving each party a list of its two settings."""
    if not isinstance(doc, dict):
        raise ConfigError("malformed settings file: want an object with "
                          "fields a, b, c, d, t, not %r" % (doc,))
    extra = set(doc) - set("abcdt")
    if extra:
        raise ConfigError("unknown settings fields: %s" % sorted(extra))

    def two(key):
        value = doc.get(key)
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError("malformed settings file: %s must list two "
                              "settings, not %r" % (key, value))
        parse = parse_grouping if key in "bc" else (
            lambda angles: BlochObservable(*map(float, angles)))
        try:
            return tuple(map(parse, value))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError("malformed settings file: %s %r: %s"
                              % (key, value, exc))

    return SettingsBundle(*map(two, "abcdt"))


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
    settings_mode = opts.get("settings", "optimize")
    result = {}
    if settings_mode == "file":
        path = opts.get("settings_file")
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
    axes = {}
    for spec in specs:
        name, start, stop, steps = _parse_grid_spec(spec)
        if name not in families.FAMILY_PARAMS[family]:
            raise ConfigError("parameter %r not in family %r" % (name, family))
        if name in axes:
            raise ConfigError("parameter %r is in two grids" % name)
        if steps < 1:
            raise ConfigError("empty grid for %r" % name)
        axes[name] = np.linspace(start, stop, steps)
    fixed = {name: value for name, value in _given_params(opts, family).items()
             if name not in axes}
    rows = []
    evaluations = 0
    # the first --grid varies slowest
    for point in itertools.product(*axes.values()):
        params = dict(fixed, **dict(zip(axes, map(float, point))))
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
    cfg = _optimizer_config(opts)
    mode = opts.get("mode", "joint")
    res = visibility_threshold(family, cfg, mode=mode)
    result = {"family": family, "parameter": res.parameter,
              "critical_value": res.critical_value,
              "bracket_width": res.bracket_width,
              "score_below": res.score_below,
              "score_above": res.score_above}
    config = _resolved_config(opts, cfg, {"mode": mode})
    return _report(config, [result], {})


def cmd_swap(opts):
    family, params, state = _family_point(opts)
    cfg = _optimizer_config(opts)
    net = TrilocalNetwork.from_shared_state(state)
    b_pair, c_pair = families.family_groupings(family)
    if "b_groupings" in opts:
        b_pair = tuple(map(parse_grouping, opts["b_groupings"]))
    if "c_groupings" in opts:
        c_pair = tuple(map(parse_grouping, opts["c_groupings"]))
    for g in b_pair + c_pair:
        if not g.is_balanced() and not opts.get("allow_unbalanced"):
            raise ConfigError("unbalanced grouping %r requires "
                              "--allow-unbalanced" % g.to_string())
    probe = BlochObservable(0.0, 0.0)
    bundle = SettingsBundle(a=(probe, probe), b=b_pair, c=c_pair,
                            d=(probe, probe), t=(probe, probe))
    functional = None
    path = opts.get("functional")
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
        except NullEventError:
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
    spec = opts.get("r_grid") or "0:1:21"
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
    n = opts.get("n", 3)
    epsilon = opts.get("epsilon")

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
        _emit(_COMMANDS[args.command](opts), opts.get("format", "json"),
              opts.get("output"))
    except (ConfigError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NoBracketError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
