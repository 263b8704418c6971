"""Command line front end.

Subcommands: ``simulate`` runs a seeded local session, ``analyze``
prints closed-form channel statistics, ``distill`` selects and runs
key-distillation parameters, ``threshold`` scans the feasibility
frontier, ``verify`` runs the built-in consistency suites and
``netrun`` launches one networked role.

Every setting is declared once, in ``SETTINGS``, which gives its flag,
its config key and its type.  Every subcommand takes ``--config FILE``,
a JSON object keyed by setting name: the flag without its dashes, with
underscores inside (``sample_fraction``, not ``sample-fraction``).  A
value must have the setting's type, and null is allowed only where the
built-in default is None.  Explicit flags win over the file, which wins
over built-ins.
Exit status is 0 on success, 2 for an expected negative outcome (the
continuation condition failed, no feasible parameters), 1 on errors or
verification mismatch.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import fields

import numpy as np

from . import verify as verify_mod
from .analysis import analysis_report, bell_distribution, error_matrix
from .channels import UnsupportedModelError, resolve_channel
from .distill import (
    DistillBudget,
    DistillParams,
    check_secure_condition,
    ep_recursion,
    majority_stage,
    sample_labeled_key,
    select_params,
    simulate_distillation,
)
from .field import field_spec
from .netrun import RoleConfig, run_role
from .netrun.roles import ROLES
from .protocol import SessionConfig, run_session
from .threshold import e_max_scan

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_EXPECTED_FAIL = 2


def _defaults(source, *names: str) -> dict:
    """Name -> default of a function's or a dataclass's ``__init__`` parameters.

    The one source of built-ins; ``names`` picks some of them, in order.
    """
    found = {p.name: p.default for p in inspect.signature(source).parameters.values()}
    return {name: found[name] for name in names} if names else found


def _from_merged(cls, merged: dict):
    """Build ``cls`` from the merged settings named by its fields."""
    return cls(**{f.name: merged[f.name] for f in fields(cls)})


# The one place settings are declared: each subcommand's settings in flag
# order, name -> built-in default.  A setting's flag is --name-with-dashes,
# its config key is its name, and both take the type ``_kind`` gives it.
SETTINGS = {
    "simulate": _defaults(SessionConfig),
    "analyze": _defaults(SessionConfig, "n", "channel"),
    "distill": {
        "matrix": None,
        "channel": None,
        **_defaults(SessionConfig, "n"),
        "auto_params": False,
        "k": None,
        "r": None,
        **_defaults(DistillBudget),
        "count": None,
        "seed": 0,
    },
    "threshold": {**_defaults(SessionConfig, "n"), **_defaults(e_max_scan, "grid")},
    "verify": _defaults(verify_mod.run_all),
    "netrun": {
        "role": None,
        **_defaults(SessionConfig),
        "k": 0,
        "r": 1,
        "listen": None,
        "connect_alice": None,
        "connect_bob": None,
    },
}

# Types of the settings whose built-in is None; the others are strings.
_NONE_TYPES = {"k": int, "r": int, "count": int}

# Help line of each flag, by setting or output name
_HELP = {
    "n": "field degree, 2..8",
    "rounds": "transmission rounds",
    "channel": "channel string, e.g. z_flip:0.3",
    "sample_fraction": "fraction of sifted rounds revealed",
    "seed": "master seed",
    "matrix": "p_i,p_x,p_y,p_z",
    "auto_params": "search for the smallest workable depth",
    "k": "pumping depth",
    "r": "majority block size (odd)",
    "count": "also run this many sampled labels",
    "samples": "random draws per sampled suite",
    "listen": "host:port to listen on",
    "connect_alice": "host:port of alice",
    "connect_bob": "host:port of bob",
    "config": "JSON file of setting defaults",
    "round_log": "write per-round CSV here",
    "csv": "write per-slice rows here",
    "json": "write the JSON report here ('-' for stdout)",
    "report": "write the JSON role report here ('-' for stdout)",
}


def _kind(name: str, default) -> type:
    """The type of a setting: its built-in's type, or its ``_NONE_TYPES`` entry."""
    return _NONE_TYPES.get(name, str) if default is None else type(default)


def _config_value_ok(name: str, default, value) -> bool:
    """Whether a config value has its setting's type; null only for a None built-in."""
    if value is None:
        return default is None
    kind = _kind(name, default)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if name == "matrix":
        # a config may also give --matrix's four entries as a list
        return isinstance(value, (str, list))
    return isinstance(value, (int, float) if kind is float else kind)


def _layer(args: argparse.Namespace) -> dict:
    """Built-in defaults, overridden by --config JSON, then by flags."""
    settings = SETTINGS[args.command]
    merged = dict(settings)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - set(settings)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if not _config_value_ok(key, settings[key], value):
                raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
        merged.update(data)
    for key in settings:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def _dump_json(data: dict, path: str) -> None:
    if path == "-":
        json.dump(data, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_rate(name: str, est) -> str:
    if est.rate is None:
        return f"{name}: n/a (no trials)"
    return (
        f"{name}: {est.rate:.6f}  [{est.low:.6f}, {est.high:.6f}]"
        f"  ({est.successes}/{est.trials})"
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    merged = _layer(args)
    out = run_session(_from_merged(SessionConfig, merged))
    stats = out.stats
    if args.round_log:
        with open(args.round_log, "w", encoding="utf-8", newline="") as fh:
            out.log.to_csv(fh)
    quiet = args.json == "-"
    if not quiet:
        print(
            f"rounds: {stats.rounds}  sifted: {stats.sifted_count}"
            f"  sampled: {stats.sample_count}"
        )
        if stats.status != "ok":
            print(f"status: {stats.status}")
        else:
            print(_format_rate("e_b", stats.e_b))
            print(_format_rate("e_b_all", stats.e_b_all))
            print(_format_rate("e_c", stats.e_c))
            lhs = stats.condition_lhs
            shown = "n/a" if lhs is None else f"{lhs:.6f}"
            print(f"continuation lhs: {shown}  (< 1/2 to continue)")
            print(f"verdict: {'continue' if stats.condition_pass else 'abort'}")
            print(f"key bits: {stats.key_length}")
    if args.json:
        _dump_json({"config": merged, "stats": stats.to_json_dict()}, args.json)
    if stats.status != "ok":
        return EXIT_ERROR
    return EXIT_PASS if stats.condition_pass else EXIT_EXPECTED_FAIL


def cmd_analyze(args: argparse.Namespace) -> int:
    merged = _layer(args)
    spec = field_spec(merged["n"])
    model = resolve_channel(merged["channel"], spec)
    report = analysis_report(model)
    quiet = args.json == "-"
    if not quiet:
        print(f"channel: {merged['channel']}  (n={spec.n}, kind={report['kind']})")
        if report["kind"] == "unitary":
            for key, value in sorted(report["outcome_table"].items()):
                if value:
                    print(f"  outcome {key}: {value:.6g}")
        e_b = report.get("e_b")
        print(f"e_b: {'n/a' if e_b is None else format(e_b, '.6g')}")
        print(f"e_c: {report['e_c']:.6g}")
        if "error_matrix" in report:
            m = report["error_matrix"]
            print(
                "error matrix: "
                f"p_i={m['p_i']:.6g} p_x={m['p_x']:.6g} "
                f"p_y={m['p_y']:.6g} p_z={m['p_z']:.6g}"
            )
        if "distill_lhs" in report:
            word = "pass" if report["distill_pass"] else "fail"
            print(f"distill condition: lhs={report['distill_lhs']:.6g} ({word})")
        if "continuation_lhs" in report:
            word = "pass" if report["continuation_pass"] else "fail"
            print(
                f"continuation condition: lhs={report['continuation_lhs']:.6g} ({word})"
            )
    if args.json:
        _dump_json(report, args.json)
    return EXIT_PASS


def _distill_matrix(merged: dict):
    if merged["matrix"] is not None and merged["channel"] is not None:
        raise ValueError("give either --matrix or --channel, not both")
    if merged["matrix"] is not None:
        raw = merged["matrix"]
        parts = raw.split(",") if isinstance(raw, str) else list(raw)
        if len(parts) != 4:
            raise ValueError("matrix needs four comma-separated entries")
        return tuple(float(p) for p in parts)
    if merged["channel"] is None:
        raise ValueError("distill needs --matrix or --channel")
    model = resolve_channel(merged["channel"], field_spec(merged["n"]))
    if model.has_intercept():
        raise UnsupportedModelError(
            "distill --channel needs a unitary-mixture channel;"
            " give an intercept channel's error matrix with --matrix"
        )
    return error_matrix(bell_distribution(model))


def cmd_distill(args: argparse.Namespace) -> int:
    merged = _layer(args)
    matrix = _distill_matrix(merged)
    budget = _from_merged(DistillBudget, merged)
    m = ep_recursion(matrix, 0)
    report: dict = {
        "matrix": list(m.as_floats()),
        "secure_condition": check_secure_condition(m),
    }
    quiet = args.json == "-"
    feasible = True
    params = None
    if merged["auto_params"]:
        outcome = select_params(m, budget)
        report["selection"] = outcome.to_json_dict()
        feasible = outcome.feasible
        params = outcome.params
        if not quiet:
            if outcome.feasible:
                x_fail = outcome.x_fail
                z_fail = outcome.z_fail
                word = "yes" if outcome.meets_target else "no"
                print(f"selected: k={params.k} r={params.r}")
                print(f"x_fail: {x_fail:.6g}  z_fail: {z_fail:.6g}")
                print(
                    f"meets css target {budget.css_target}: {word}"
                    f"  (sum {x_fail + z_fail:.6g})"
                )
            else:
                print(f"no feasible parameters up to k_max={budget.k_max}")
    else:
        if merged["k"] is None or merged["r"] is None:
            raise ValueError("distill needs --auto-params or both --k and --r")
        params = DistillParams(merged["k"], merged["r"])
        pumped = ep_recursion(m, params.k)
        x_fail, z_fail = majority_stage(pumped, params.r)
        report["manual"] = {
            "k": params.k,
            "r": params.r,
            "pumped_matrix": list(pumped.as_floats()),
            "x_fail": x_fail,
            "z_fail": z_fail,
        }
        if not quiet:
            print(f"params: k={params.k} r={params.r}")
            print(
                "pumped matrix: "
                + " ".join(f"{v:.6g}" for v in pumped.as_floats())
            )
            print(f"x_fail: {x_fail:.6g}  z_fail: {z_fail:.6g}")
    if merged["count"] is not None and params is not None and feasible:
        rng = np.random.default_rng(merged["seed"])
        keys = sample_labeled_key(m, merged["count"], rng)
        run = simulate_distillation(keys, params, rng, matrix=m)
        report["run"] = run.to_json_dict()
        if not quiet:
            rate = run.disagreement_rate
            shown = "n/a" if rate is None else f"{rate:.6g}"
            print(
                f"run: {run.input_length} labels -> {run.survivor_count} survivors"
                f" -> {run.n_blocks} blocks, disagreement {shown}"
            )
    if args.json:
        _dump_json(report, args.json)
    return EXIT_PASS if feasible else EXIT_EXPECTED_FAIL


def cmd_threshold(args: argparse.Namespace) -> int:
    merged = _layer(args)
    result = e_max_scan(merged["n"], grid=merged["grid"])
    report = result.to_json_dict()
    quiet = args.json == "-"
    if not quiet:
        print(
            f"n={result.n} grid={result.grid}: e_max = {result.e_max:.6f}"
            f"  (resolution {result.resolution:.6g})"
        )
        statuses = report["statuses"]
        for status in sorted(statuses):
            print(f"  {status}: {statuses[status]} slices")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            result.to_csv(fh)
    if args.json:
        _dump_json(report, args.json)
    return EXIT_PASS


def cmd_verify(args: argparse.Namespace) -> int:
    merged = _layer(args)
    results = verify_mod.run_all(samples=merged["samples"], seed=merged["seed"])
    for suite in results:
        print(suite.line())
    if all(suite.passed for suite in results):
        print("all checks passed")
        return EXIT_PASS
    print("verification FAILED")
    return EXIT_ERROR


def cmd_netrun(args: argparse.Namespace) -> int:
    merged = _layer(args)
    if merged["role"] is None:
        raise ValueError("netrun needs --role alice|bob|eve")
    cfg = RoleConfig(
        role=merged["role"],
        session=_from_merged(SessionConfig, merged),
        params=DistillParams(merged["k"], merged["r"]),
        listen=merged["listen"],
        connect_alice=merged["connect_alice"],
        connect_bob=merged["connect_bob"],
    )
    report = run_role(cfg)
    quiet = args.report == "-"
    if not quiet:
        print(f"role: {report.role}  status: {report.status}")
        if report.abort_sent:
            print(f"abort sent: {report.abort_sent}")
        shared = report.shared or {}
        if "sifted" in shared:
            print(f"rounds: {shared['rounds']}  sifted: {shared['sifted']}")
        if "e_b" in shared:
            s, t = shared["e_b"]
            rate = "n/a" if not t else f"{s / t:.6f}"
            print(f"sample e_b: {rate}  ({s}/{t})")
        if "condition_pass" in shared:
            verdict = "continue" if shared["condition_pass"] else "abort"
            print(f"verdict: {verdict}")
        if "survivors" in shared:
            print(
                f"survivors: {shared['survivors']}  blocks: {shared['blocks']}"
                f"  disagreements: {shared['disagreements']}"
            )
        if report.final_key is not None:
            print(f"final key bits: {len(report.final_key)}")
    if args.report:
        _dump_json(report.to_json_dict(), args.report)
    return report.exit_code


# Per subcommand: handler, help line and output flags.
_COMMANDS = {
    "simulate": (cmd_simulate, "run one seeded local session", ("round_log", "json")),
    "analyze": (cmd_analyze, "closed-form channel statistics", ("json",)),
    "distill": (cmd_distill, "select and run distillation parameters", ("json",)),
    "threshold": (cmd_threshold, "feasibility frontier scan", ("csv", "json")),
    "verify": (cmd_verify, "built-in consistency suites", ()),
    "netrun": (cmd_netrun, "launch one networked role", ("report",)),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, its setting flags generated from ``SETTINGS``."""
    parser = argparse.ArgumentParser(
        prog="quditqkd",
        description="qudit prepare-and-measure key distribution workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, about, outputs) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        settings = SETTINGS[command]
        # --config and the output flags are strings, like a None setting
        for name in (*settings, "config", *outputs):
            kind = _kind(name, settings.get(name))
            if kind is bool:
                how = {"action": argparse.BooleanOptionalAction}
            else:
                how = {"type": kind, "choices": ROLES if name == "role" else None}
            p.add_argument("--" + name.replace("_", "-"), help=_HELP.get(name), **how)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad channels, short keys, bad JSON too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
