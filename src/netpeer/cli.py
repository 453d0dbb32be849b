"""Command-line front end.

Subcommands: sample, simulate, fit, mc, identify-demo, diagnostics.
Settings come from an INI-style config file (one section per subcommand)
with command-line flags taking precedence; one parser per setting reads
the text from either. Every run writes the resolved text next to its
outputs as run_config.txt, a config file for the same run.

Exit codes: 0 success, 2 validation error, 3 computational error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import itertools
import json
import os
import sys

from . import estimation, graph as graphmod, identification, model, montecarlo, sampling
from .errors import ComputationError, ValidationError
from .model import ModelParams
from .montecarlo import ExperimentCell

# one float setting per field of the simulated process, with the field's default
_MODEL_SETTINGS = {f.name: (float, f.default) for f in dataclasses.fields(ModelParams)}


def _boolean(text: str) -> bool:
    """configparser's words: 1/true/yes/on and 0/false/no/off, in any case."""
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _comma_list(item):
    """Parser of a comma-separated list; every item must parse, so none is empty."""
    return lambda text: [item(tok) for tok in text.split(",")]


_REQUIRED = object()  # the default of a setting that has none

# per-subcommand settings: key -> (parser, default)
_SCHEMAS = {
    "sample": {
        "graph": (str, _REQUIRED),
        "data": (str, _REQUIRED),
        "f": (float, _REQUIRED),
        "seed": (int, 0),
    },
    "simulate": {
        "n": (int, _REQUIRED),
        "p": (float, _REQUIRED),
        "f": (float, _REQUIRED),
        "seed": (int, 0),
        **_MODEL_SETTINGS,
    },
    "fit": {
        "sample": (str, _REQUIRED),
        "edges": (str, _REQUIRED),
        "level": (float, 0.95),
        "use_t": (_boolean, False),
    },
    "mc": {
        "n_pop": (_comma_list(int), _REQUIRED),  # the grid is their product
        "density": (_comma_list(float), _REQUIRED),
        "fraction": (_comma_list(float), _REQUIRED),
        "reps": (int, 1000),
        "level": (float, 0.95),
        "seed": (int, 0),
        "workers": (int, 1),
        "fixed_graph": (_boolean, False),
        "save_records": (_boolean, False),
        **_MODEL_SETTINGS,
    },
    "identify-demo": {
        "n": (int, 50),
        "p": (float, 0.1),
        "f": (float, 0.4),
        "seed": (int, 0),
        **_MODEL_SETTINGS,
    },
    "diagnostics": {
        "sample": (str, _REQUIRED),
        "edges": (str, _REQUIRED),
    },
}


def _read_config(command: str, path: str) -> dict:
    """The [command] section of an INI file as text; a file that is not one exits 2."""
    # no header line spells a name with a newline: [DEFAULT] is an ordinary section
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc.strerror}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser messages span lines; the error is one line
        raise ValidationError(f"config file {path}: {' '.join(str(exc).split())}") from None
    section = dict(cp.items(command)) if cp.has_section(command) else {}
    unknown = sorted(section.keys() - _SCHEMAS[command].keys())
    if unknown:
        raise ValidationError(f"unknown key {unknown[0]!r} in config section [{command}]")
    return section


def _resolve(command: str, config_path: str | None, flags: dict) -> tuple:
    """(text, values) of every setting, flags over the config file.

    Each given text is parsed once. An empty or absent text means the
    default.
    """
    given = _read_config(command, config_path) if config_path else {}
    given.update((k, t) for k, t in flags.items() if t is not None)
    text, values = {}, {}
    for key, (parse, default) in _SCHEMAS[command].items():
        raw = given.get(key, "").strip()
        try:
            values[key] = parse(raw) if raw else default
        except (KeyError, ValueError):  # how a parser rejects its text
            raise ValidationError(f"{key}: invalid value {raw!r}") from None
        text[key] = raw or str(default)
    missing = [k for k, v in values.items() if v is _REQUIRED]
    if missing:
        raise ValidationError(f"missing required setting(s): {', '.join(missing)}")
    if values.get("seed", 0) < 0:
        raise ValidationError("seed must be nonnegative")
    return text, values


def _echo_config(command: str, text: dict, out_dir: str) -> None:
    """Make out_dir and write run_config.txt, the resolved text: a --config for the run."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot create output directory {out_dir}: {exc.strerror}") from None
    with open(os.path.join(out_dir, "run_config.txt"), "w") as fh:
        fh.write(f"[{command}]\n")
        for key in sorted(text):
            fh.write(f"{key} = {text[key]}\n")


def _model_params(v: dict) -> ModelParams:
    return ModelParams(**{key: v[key] for key in _MODEL_SETTINGS})


def _instance(v: dict):
    """`simulate` and `identify-demo`: params, the graph draw, the population, the sample."""
    # before the graph draw; a bad n is reported as the graph's, not the sample's
    params = _model_params(v)
    graphmod.check_er_size(v["n"], v["p"])
    sampling.check_sample_size(sampling.sample_size(v["n"], v["f"]), v["n"])
    prefix = (v["seed"],)
    g = montecarlo.draw_graph(prefix, v["n"], v["p"])
    x, y = montecarlo.populate(prefix, g, params)
    return params, g, x, y, montecarlo.draw_sample(prefix, g, v["f"], x, y)


def _write_json(out: str, name: str, report: dict) -> None:
    """Write `report` to out/name as strict JSON; NaN or Infinity exits 3, writing nothing."""
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ComputationError(f"{name}: non-finite result ({exc})") from None
    with open(os.path.join(out, name), "w") as fh:
        fh.write(text + "\n")


def _cmd_sample(v: dict, out: str) -> None:
    g = graphmod.read_edge_list(v["graph"])
    x, y = model.read_unit_csv(v["data"])
    if x.size != g.n_vertices:
        raise ValidationError(
            f"{v['data']} has {x.size} units but {v['graph']} has {g.n_vertices} vertices")
    s = montecarlo.draw_sample((v["seed"],), g, v["f"], x, y)
    sampling.write_sample_csv(s, os.path.join(out, "sample.csv"))
    graphmod.write_edge_list(s.g_r, os.path.join(out, "sample.edges"), tags=("sample",))


def _cmd_simulate(v: dict, out: str) -> None:
    _, g, x, y, s = _instance(v)
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
            n_pop=n, density=p, fraction=f, params=params, reps=v["reps"],
            level=v["level"], master_seed=v["seed"], fixed_graph=v["fixed_graph"],
        )
        for n, p, f in itertools.product(v["n_pop"], v["density"], v["fraction"])
    ]
    # the settings, then every output file: a file that cannot be written exits 2
    # before the first replication, not after the grid. Each gets its header,
    # flushed on close, since a full disk opens a file but fails its first write
    montecarlo.check_workers(v["workers"])
    montecarlo.write_grid_csv([], os.path.join(out, "results.csv"))
    if v["save_records"]:
        for idx in range(len(cells)):
            montecarlo.write_records_csv([], os.path.join(out, f"records_cell{idx}.csv"))
    # a cell that cannot be computed (every replication failed, say) does not
    # stop the grid: the completed cells are written, the records of a cell
    # whose every replication failed too, and the failures reported together
    results, failed = [], []
    for idx, cell in enumerate(cells):
        try:
            records = montecarlo.run_reps(cell, workers=v["workers"])
            if v["save_records"]:
                path = os.path.join(out, f"records_cell{idx}.csv")
                montecarlo.write_records_csv(records, path)
            results.append((cell, montecarlo.summarize(cell, records)))
        except ComputationError as exc:
            failed.append(f"N={cell.n_pop}, p={cell.density}, f={cell.fraction}: {exc}")
    montecarlo.write_grid_csv(results, os.path.join(out, "results.csv"))
    if failed:
        raise ComputationError(
            f"{len(failed)} of {len(cells)} cells failed: " + "; ".join(failed)
        )


def _cmd_identify_demo(v: dict, out: str) -> None:
    params, *_, s = _instance(v)
    pair = identification.find_witness(s)
    if pair is not None:
        ll_a, ll_b = identification.log_likelihoods(pair, s.y_obs, params)
        # equal likelihoods (beta2 = 0, say) witness nothing; a nan gap, from
        # two -inf likelihoods, is not 0 and reaches the strict-JSON exit 3
        if abs(ll_a - ll_b) == 0.0:
            pair = None
    if pair is None:
        report = {"verdict": "NO_WITNESS_AVAILABLE"}
    else:
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
    _write_json(out, "diagnostics.json", estimation.diagnostics(s))


_HANDLERS = {
    "sample": _cmd_sample, "simulate": _cmd_simulate, "fit": _cmd_fit, "mc": _cmd_mc,
    "identify-demo": _cmd_identify_demo, "diagnostics": _cmd_diagnostics,
}


@functools.cache  # parse_args keeps no state, so one parser serves every main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netpeer",
        description="Peer-effects estimation on randomly sampled networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--out", default=".", help="output directory")
        # every flag is text for the setting's parser; a boolean flag reads "True"
        for key, (parse, _) in schema.items():
            kind = {"action": "store_const", "const": "True"} if parse is _boolean else {}
            sp.add_argument("--" + key.replace("_", "-"), dest=key, **kind)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        flags = {k: getattr(args, k) for k in _SCHEMAS[command]}
        text, values = _resolve(command, args.config, flags)
        _echo_config(command, text, args.out)
        _HANDLERS[command](values, args.out)
    except (ValidationError, ComputationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    except OSError as exc:  # inputs are read as ValidationError: an output write failed
        # a write that fails on flush (a full disk) names no file
        where = exc.filename or f"to output directory {args.out}"
        print(f"error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
