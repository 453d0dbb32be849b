"""Command-line front end.

Subcommands: generate, sample, simulate, fit, mc, identify-demo,
diagnostics. Settings come from an INI-style config file (one section
per subcommand) with command-line flags taking precedence; every run
writes the fully resolved settings next to its outputs.

Exit codes: 0 success, 2 validation error, 3 computational error.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import os
import sys

from . import estimation, graph as graphmod, identification, model, montecarlo, sampling
from .errors import ComputationError, ValidationError
from .model import ModelParams
from .montecarlo import ExperimentCell

_MODEL_DEFAULTS = {
    "beta0": 0.0,
    "beta1": 1.0,
    "beta2": 1.5,
    "sigma2_eps": 1.0,
    "x_mean": 3.0,
    "x_sd": 1.5,
}

# per-subcommand settings: key -> (parser, default); None default = required
_SCHEMAS = {
    "generate": {
        "n": (int, None),
        "p": (float, None),
        "seed": (int, 0),
        "allow_disconnected": (bool, False),
        "max_attempts": (int, 1000),
    },
    "sample": {
        "graph": (str, None),
        "data": (str, ""),
        "n_sample": (int, 0),
        "f": (float, 0.0),
        "seed": (int, 0),
    },
    "simulate": {
        "n": (int, None),
        "p": (float, None),
        "f": (float, None),
        "seed": (int, 0),
        "allow_disconnected": (bool, False),
        "max_attempts": (int, 1000),
        **{k: (float, v) for k, v in _MODEL_DEFAULTS.items()},
    },
    "fit": {
        "sample": (str, None),
        "edges": (str, None),
        "level": (float, 0.95),
        "use_t": (bool, False),
    },
    "mc": {
        "n_pop": (str, None),  # comma-separated lists define the grid
        "density": (str, None),
        "fraction": (str, None),
        "reps": (int, 1000),
        "level": (float, 0.95),
        "seed": (int, 0),
        "workers": (int, 1),
        "fixed_graph": (bool, False),
        "allow_disconnected": (bool, False),
        "save_records": (bool, False),
        **{k: (float, v) for k, v in _MODEL_DEFAULTS.items()},
    },
    "identify-demo": {
        "n": (int, 50),
        "p": (float, 0.1),
        "f": (float, 0.4),
        "seed": (int, 0),
        "j": (int, -1),
        "l": (int, -1),
        "x_u1": (str, ""),
        "x_u2": (str, ""),
        **{k: (float, v) for k, v in _MODEL_DEFAULTS.items()},
    },
    "diagnostics": {
        "sample": (str, None),
        "edges": (str, None),
    },
}


def _parse_bool(raw: str) -> bool:
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"not a boolean: {raw!r}")


def _resolve(command: str, config_path: str, overrides: dict) -> dict:
    """Merge defaults, config-file section and CLI overrides, validating keys."""
    schema = _SCHEMAS[command]
    values = {k: d for k, (_, d) in schema.items()}
    if config_path:
        cp = configparser.ConfigParser()
        if not cp.read(config_path):
            raise ValidationError(f"cannot read config file {config_path}")
        if cp.has_section(command):
            for key, raw in cp.items(command):
                if key not in schema:
                    raise ValidationError(
                        f"unknown key {key!r} in config section [{command}]"
                    )
                typ = schema[key][0]
                values[key] = _parse_bool(raw) if typ is bool else typ(raw)
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    missing = [k for k, v in values.items() if v is None]
    if missing:
        raise ValidationError(f"missing required setting(s): {', '.join(missing)}")
    if values.get("seed", 0) < 0:
        raise ValidationError("seed must be nonnegative")
    return values


def _echo_config(command: str, values: dict, out_dir: str) -> None:
    with open(os.path.join(out_dir, "run_config.txt"), "w") as fh:
        fh.write(f"[{command}]\n")
        for key in sorted(values):
            fh.write(f"{key} = {values[key]}\n")


def _model_params(v: dict) -> ModelParams:
    return ModelParams(v["beta0"], v["beta1"], v["beta2"], v["sigma2_eps"])


def _parse_list(raw: str, typ):
    try:
        return [typ(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"malformed list value {raw!r}")


def _instance(v: dict):
    """`simulate` and `identify-demo`: the shared builder under seed prefix (seed,)."""
    return montecarlo.build_instance(
        (v["seed"],), v["n"], v["p"], v["f"], _model_params(v), v["x_mean"], v["x_sd"],
        allow_disconnected=v.get("allow_disconnected", False),
        max_attempts=v.get("max_attempts", 1000),
    )


def _write_json(out: str, name: str, report: dict) -> None:
    """Write `report` to out/name as strict JSON; NaN or Infinity exits 3, writing nothing."""
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ComputationError(f"{name}: non-finite result ({exc})") from None
    with open(os.path.join(out, name), "w") as fh:
        fh.write(text + "\n")


def _cmd_generate(v: dict, out: str) -> None:
    g = montecarlo.draw_graph(
        (v["seed"],), v["n"], v["p"], v["allow_disconnected"], v["max_attempts"]
    )
    graphmod.write_edge_list(g, os.path.join(out, "graph.edges"))


def _cmd_sample(v: dict, out: str) -> None:
    g = graphmod.read_edge_list(v["graph"])
    x = y = None
    if v["data"]:
        x, y = model.read_unit_csv(v["data"])
    if bool(v["n_sample"]) == bool(v["f"]):
        raise ValidationError("specify exactly one of n_sample or f")
    n = v["n_sample"] or sampling.sample_size(g.n_vertices, v["f"])
    rng = montecarlo.stream((v["seed"],), montecarlo.STREAM_SAMPLING)
    s = sampling.rns_sample(g, n, rng, x, y)
    sampling.write_sample_csv(s, os.path.join(out, "sample.csv"))
    graphmod.write_edge_list(s.g_r, os.path.join(out, "sample.edges"), tags=("sample",))


def _cmd_simulate(v: dict, out: str) -> None:
    g, x, y, s = _instance(v)
    graphmod.write_edge_list(g, os.path.join(out, "graph.edges"))
    model.write_unit_csv(x, y, os.path.join(out, "population.csv"))
    sampling.write_sample_csv(s, os.path.join(out, "sample.csv"))
    graphmod.write_edge_list(s.g_r, os.path.join(out, "sample.edges"), tags=("sample",))


def _cmd_fit(v: dict, out: str) -> None:
    g_r = graphmod.read_edge_list(v["edges"])
    s = sampling.read_sample_csv(v["sample"], g_r)
    fit = estimation.fit_corrected(s, level=v["level"], use_t=v["use_t"])
    _write_json(out, "fit.json", fit.to_dict())


def _cmd_mc(v: dict, out: str) -> None:
    params = _model_params(v)
    cells = [
        ExperimentCell(
            n_pop=n, density=p, fraction=f, params=params,
            x_mean=v["x_mean"], x_sd=v["x_sd"], reps=v["reps"], level=v["level"],
            master_seed=v["seed"], fixed_graph=v["fixed_graph"],
            allow_disconnected=v["allow_disconnected"],
        )
        for n, p, f in itertools.product(
            _parse_list(v["n_pop"], int),
            _parse_list(v["density"], float),
            _parse_list(v["fraction"], float),
        )
    ]
    # a cell that cannot be computed (every replication failed, or no
    # connected fixed graph) does not stop the grid: the completed cells are
    # written, the records of a cell whose every replication failed too, and
    # the failures reported together
    results, failed = [], []
    for idx, cell in enumerate(cells):
        try:
            records = montecarlo.run_reps(cell, workers=v["workers"])
            if v["save_records"]:
                montecarlo.write_records_csv(
                    cell, records, os.path.join(out, f"records_cell{idx}.csv")
                )
            results.append((cell, montecarlo.summarize(cell, records)))
        except ComputationError as exc:
            failed.append(f"N={cell.n_pop}, p={cell.density}, f={cell.fraction}: {exc}")
    montecarlo.write_grid_csv(results, os.path.join(out, "results.csv"))
    if failed:
        raise ComputationError(
            f"{len(failed)} of {len(cells)} cells failed: " + "; ".join(failed)
        )


def _cmd_identify_demo(v: dict, out: str) -> None:
    *_, s = _instance(v)
    params = _model_params(v)
    x_u1 = float(v["x_u1"]) if v["x_u1"] != "" else None
    x_u2 = float(v["x_u2"]) if v["x_u2"] != "" else None
    if v["j"] >= 0 and v["l"] >= 0:
        pair = identification.build_swap_pair(s, v["j"], v["l"], x_u1, x_u2)
    else:
        pair = identification.find_witness(s, x_u1, x_u2)
    if pair is None:
        report = {"verdict": "NO_WITNESS_AVAILABLE"}
    else:
        ll_a, ll_b = identification.log_likelihoods(pair, s.y_obs, params)
        report = {
            "verdict": "NOT_IDENTIFIED_WITNESS_FOUND",
            "j": pair.j, "l": pair.l,
            "d_j": pair.d_j, "d_l": pair.d_l,
            "x_u1": pair.x_u1, "x_u2": pair.x_u2,
            "log_likelihood_a": ll_a,
            "log_likelihood_b": ll_b,
            "likelihood_gap": abs(ll_a - ll_b),
            "mean_sum_gap": identification.mean_sum_gap(pair, params),
            "compatible_a": identification.is_compatible(pair.a, s),
            "compatible_b": identification.is_compatible(pair.b, s),
        }
    _write_json(out, "witness.json", report)


def _cmd_diagnostics(v: dict, out: str) -> None:
    g_r = graphmod.read_edge_list(v["edges"])
    s = sampling.read_sample_csv(v["sample"], g_r)
    _write_json(out, "diagnostics.json",
                estimation.diagnostics(estimation.build_observed_design(s), s))


_HANDLERS = {
    "generate": _cmd_generate,
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "mc": _cmd_mc,
    "identify-demo": _cmd_identify_demo,
    "diagnostics": _cmd_diagnostics,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netpeer",
        description="Peer-effects estimation on randomly sampled networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        sp = sub.add_parser(command)
        sp.add_argument("--config", default="", help="INI config file")
        sp.add_argument("--out", default=".", help="output directory")
        for key, (typ, _) in schema.items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                sp.add_argument(flag, dest=key, action="store_const", const=True,
                                default=None)
            else:
                sp.add_argument(flag, dest=key, type=typ, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        overrides = {k: getattr(args, k) for k in _SCHEMAS[command]}
        values = _resolve(command, args.config, overrides)
        os.makedirs(args.out, exist_ok=True)
        _echo_config(command, values, args.out)
        _HANDLERS[command](values, args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
