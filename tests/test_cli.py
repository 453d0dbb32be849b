import csv
import errno
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netpeer
from netpeer import estimation, graph as graphmod, model, montecarlo, sampling
from netpeer.cli import _SCHEMAS, _resolve, main
from netpeer.errors import ValidationError
from netpeer.model import ModelParams
from netpeer.montecarlo import ExperimentCell, draw_sample, populate

from oracles import critical_value, read_records_csv


def run(args):
    return main([str(a) for a in args])


def strict_json(path):
    """Parse a JSON file, refusing the NaN and Infinity extensions."""
    def refuse(token):
        raise ValueError(f"{path}: non-finite number {token}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def digests(root, names):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


class TestSimulateGraph:
    """simulate's graph.edges is montecarlo.draw_graph((seed,), n, p), as written."""

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--n", 80, "--p", 0.08, "--f", 0.5, "--seed", 5,
                        "--out", out]) == 0
        graphmod.write_edge_list(montecarlo.draw_graph((5,), 80, 0.08), tmp_path / "drawn")
        assert (a / "graph.edges").read_bytes() == (b / "graph.edges").read_bytes() == \
            (tmp_path / "drawn").read_bytes()

    def test_roundtrip_readable(self, tmp_path):
        assert run(["simulate", "--n", 60, "--p", 0.1, "--f", 0.5, "--seed", 1,
                    "--out", tmp_path]) == 0
        g = graphmod.read_edge_list(tmp_path / "graph.edges")
        assert g.n_vertices == 60

    def test_single_vertex_exits_0(self, tmp_path, capsys):
        # its one vertex is isolated: a graph with no edge, and a unit with no peer term
        assert run(["simulate", "--n", 1, "--p", 0.5, "--f", 1, "--out", tmp_path]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "graph.edges").read_text() == "# vertices=1\n"
        x, y = model.read_unit_csv(tmp_path / "population.csv")
        noise = montecarlo.stream((0,), montecarlo.STREAM_NOISE).normal(0.0, 1.0, size=1)
        assert y.tolist() == [0.0 + 1.0 * x[0] + noise[0]]

    def test_isolated_vertices_are_written(self, tmp_path, capsys):
        # 14.85 edges expected on 100 vertices: the first draw, most of whose
        # vertices are isolated, is written as drawn
        code = run(["simulate", "--n", 100, "--p", 0.003, "--f", 0.5, "--out", tmp_path])
        assert code == 0 and capsys.readouterr().err == ""
        graphmod.write_edge_list(montecarlo.draw_graph((0,), 100, 0.003), tmp_path / "drawn")
        assert (tmp_path / "graph.edges").read_bytes() == (tmp_path / "drawn").read_bytes()
        s = sampling.read_sample_csv(tmp_path / "sample.csv",
                                     graphmod.read_edge_list(tmp_path / "sample.edges"))
        assert (s.reported_degrees == 0).sum() > s.n // 2


class TestSimulateAndFit:
    def test_fit_matches_in_process(self, tmp_path):
        assert run([
            "simulate", "--n", 300, "--p", 0.04, "--f", 0.4,
            "--seed", 11, "--out", tmp_path,
        ]) == 0
        assert run([
            "fit", "--sample", tmp_path / "sample.csv",
            "--edges", tmp_path / "sample.edges", "--out", tmp_path,
        ]) == 0
        with open(tmp_path / "fit.json") as fh:
            out = json.load(fh)

        # rebuild the same instance in process: the CLI's seed prefix is (seed,)
        g = montecarlo.draw_graph((11,), 300, 0.04)
        x, y = populate((11,), g, ModelParams(0.0, 1.0, 1.5, 1.0))
        s = draw_sample((11,), g, 0.4, x, y)
        design = estimation.build_observed_design(s)
        fit = estimation.fit_mle(design, sampling.scaling_factor(s)[0])
        assert out["beta2_corrected"] == pytest.approx(fit.beta2_corrected, abs=1e-12)
        assert out["beta_hat"][2] == pytest.approx(float(fit.beta_hat[2]), abs=1e-12)
        assert out["w_hat"] == pytest.approx(fit.w_hat, abs=1e-15)

    def test_census_fit_correction_is_identity(self, tmp_path):
        assert run([
            "simulate", "--n", 120, "--p", 0.08, "--f", 1.0,
            "--seed", 2, "--out", tmp_path,
        ]) == 0
        assert run([
            "fit", "--sample", tmp_path / "sample.csv",
            "--edges", tmp_path / "sample.edges", "--out", tmp_path,
        ]) == 0
        with open(tmp_path / "fit.json") as fh:
            out = json.load(fh)
        assert out["w_hat"] == pytest.approx(1.0, abs=1e-12)
        assert out["beta2_corrected"] == pytest.approx(out["beta_hat"][2], rel=1e-12)

    def test_one_unit_sample_passes_the_boundary(self, tmp_path, capsys):
        # round(1 * 1) = 1 unit, isolated, is the whole sample
        argv = ["simulate", "--n", 1, "--p", 0.5, "--f", 1]
        assert run([*argv, "--out", tmp_path]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "sample.csv").read_text().splitlines()
        assert [r.split(",")[:3] for r in rows[1:]] == [["0", "0", "0"]]

    def test_run_config_echo(self, tmp_path):
        assert run([
            "simulate", "--n", 100, "--p", 0.08, "--f", 0.5,
            "--seed", 9, "--out", tmp_path,
        ]) == 0
        text = (tmp_path / "run_config.txt").read_text()
        assert text.startswith("[simulate]\n")
        assert "n = 100" in text
        assert "seed = 9" in text
        assert "beta2 = 1.5" in text


class TestPinnedOutputs:
    """File bytes of simulate -> sample -> fit, pinned so a refactor cannot move them."""

    DIGESTS = {
        "sim/graph.edges": "e0888a613f815ff2b25b843df4b37708f7e1c20dfecbbf7b94914b9934b84706",
        "sim/population.csv": "b2ffc026f1193dfb009965c48c7f330b7a56ce997c5a17e3bb462d065ad02a05",
        "sim/sample.csv": "1611988788bb6be51c50e2d80c6bb6f717af1b40cc36b45249b2111b52795e57",
        "sim/sample.edges": "2ef08f2d141e53a1dd8291befa283064c99e0bb02ce2ae3d5ecc012013f1bd6c",
        # `sample` draws from the same sampling stream as `simulate`
        "rs/sample.csv": "1611988788bb6be51c50e2d80c6bb6f717af1b40cc36b45249b2111b52795e57",
        "rs/sample.edges": "2ef08f2d141e53a1dd8291befa283064c99e0bb02ce2ae3d5ecc012013f1bd6c",
        "fit/fit.json": "44efb3b85247f27e4cf85617b1cb3fdde442827dc7d6387b9c73b7e54fd549e3",
    }

    def test_simulate_sample_fit_digests(self, tmp_path):
        sim, rs = tmp_path / "sim", tmp_path / "rs"
        assert run(["simulate", "--n", 300, "--p", 0.04, "--f", 0.4,
                    "--seed", 11, "--out", sim]) == 0
        assert run(["sample", "--graph", sim / "graph.edges",
                    "--data", sim / "population.csv",
                    "--f", 0.4, "--seed", 11, "--out", rs]) == 0
        assert run(["fit", "--sample", rs / "sample.csv", "--edges", rs / "sample.edges",
                    "--out", tmp_path / "fit"]) == 0
        assert digests(tmp_path, self.DIGESTS) == self.DIGESTS

    REPORT_DIGESTS = {
        "diag/diagnostics.json":
            "1fe317b090f6f138169b47c79353e88d84b3486f428770fe93d5c0634b5d771f",
        "id/witness.json": "0a5634a4812be0dfe927d480c2c6020acf2712a9c3eaaf57552eaf81ef41f886",
    }

    def test_diagnostics_and_witness_digests(self, tmp_path):
        instance = ["--n", 300, "--p", 0.04, "--f", 0.4, "--seed", 11]
        sim = tmp_path / "sim"
        assert run(["simulate", *instance, "--out", sim]) == 0
        assert run(["diagnostics", "--sample", sim / "sample.csv",
                    "--edges", sim / "sample.edges", "--out", tmp_path / "diag"]) == 0
        assert run(["identify-demo", *instance, "--out", tmp_path / "id"]) == 0
        assert digests(tmp_path, self.REPORT_DIGESTS) == self.REPORT_DIGESTS

    MC_DIGESTS = {
        "results.csv": "15ed4ca08e01e0f93c453e44c4079d224d4b75d5f49029756a320d11af0170fb",
        "records_cell0.csv": "d971995e88084c72b4b0912925112a42c8671329cc9105503fe6b92291b3b9ac",
        "records_cell1.csv": "32012ae9b224d6199343d08b4ac9c899ad3f3572f94aceed30ca89bdaefcd8e9",
        "records_cell2.csv": "adf525f23db4220d43147b6e422e40ea9e59d4ccf65ccba57d95438b3f7b087d",
        "records_cell3.csv": "631257d99a3049048e84b28f145685894379bc0bc2965c0167d684acaffc7ee7",
    }

    @pytest.fixture(scope="class")
    def mc_grid(self, tmp_path_factory):
        """The output directory of a four-cell grid with its records."""
        out = tmp_path_factory.mktemp("mc")
        assert run(["mc", "--n-pop", "300,1000", "--density", 0.03, "--fraction", "0.2,0.8",
                    "--reps", 40, "--seed", 5, "--workers", 2, "--save-records",
                    "--out", out]) == 0
        return out

    def test_mc_grid_digests(self, mc_grid):
        # 160 reps over four cells through the worker pool; the records hold
        # ci_corrected_wald, which no other pin covers over many reps
        assert digests(mc_grid, self.MC_DIGESTS) == self.MC_DIGESTS

    def test_records_rebuild_results_csv(self, tmp_path, mc_grid):
        # the records hold every float a cell's metrics are computed from
        cells = [ExperimentCell(n_pop=n, density=0.03, fraction=f, params=ModelParams(),
                                reps=40, master_seed=5)
                 for n in (300, 1000) for f in (0.2, 0.8)]
        results = [(cell, montecarlo.summarize(
            cell, read_records_csv(mc_grid / f"records_cell{idx}.csv")))
            for idx, cell in enumerate(cells)]
        montecarlo.write_grid_csv(results, tmp_path / "results.csv")
        assert (tmp_path / "results.csv").read_bytes() == (mc_grid / "results.csv").read_bytes()


class TestSampleCommand:
    def test_sample_from_generated_graph(self, tmp_path, simulated):
        assert run([
            "sample", "--graph", simulated / "graph.edges",
            "--data", simulated / "population.csv",
            "--f", 0.3, "--seed", 4, "--out", tmp_path,
        ]) == 0
        g_r = graphmod.read_edge_list(tmp_path / "sample.edges")
        s = sampling.read_sample_csv(tmp_path / "sample.csv", g_r)
        assert s.n == 12

    def test_requires_exactly_one_size_setting(self, tmp_path, capsys, simulated):
        # f is the one size setting, and it is required
        assert run(["sample", "--graph", simulated / "graph.edges",
                    "--data", simulated / "population.csv", "--out", tmp_path]) == 2
        assert capsys.readouterr().err == "error: missing required setting(s): f\n"

    def test_requires_unit_data(self, tmp_path, capsys, simulated):
        # a sample is of a population: its graph and its units' x and y
        assert run(["sample", "--graph", simulated / "graph.edges", "--f", 0.5,
                    "--out", tmp_path]) == 2
        assert capsys.readouterr().err == "error: missing required setting(s): data\n"


class TestConfigFile:
    def test_config_supplies_settings(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulate]\nn = 70\np = 0.09\nf = 0.5\nseed = 8\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        g = graphmod.read_edge_list(tmp_path / "graph.edges")
        assert g.n_vertices == 70

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulate]\nn = 70\np = 0.09\nf = 0.5\n")
        assert run(["simulate", "--config", cfg, "--n", 40, "--out", tmp_path]) == 0
        g = graphmod.read_edge_list(tmp_path / "graph.edges")
        assert g.n_vertices == 40

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulate]\nn = 70\np = 0.09\nf = 0.5\nbogus = 1\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("command, key", [
        ("mc", "allow_disconnected"), ("simulate", "allow_disconnected"),
        ("simulate", "max_attempts"), ("sample", "n_sample"),
        ("identify-demo", "j"), ("identify-demo", "l"),
        ("identify-demo", "x_u1"), ("identify-demo", "x_u2"),
        ("fit", "level"), ("mc", "level"),
    ])
    def test_removed_setting_is_unknown(self, tmp_path, capsys, command, key):
        # simulate and mc keep the first G(N, p) draw, so no graph is redrawn
        # and there is no redraw budget, f is the one sample size
        # and identify-demo reports the first witness, fit and mc compute every
        # interval at 95%; a run_config.txt written while a setting existed
        # names it with its default, or empty
        settings = {"mc": "n_pop = 100\ndensity = 0.1\nfraction = 0.5\nreps = 2\n",
                    "simulate": "n = 40\np = 0.15\nf = 0.5\n",
                    "fit": "sample = s.csv\nedges = s.edges\n",
                    "sample": "graph = g.edges\nf = 0.5\n", "identify-demo": ""}[command]
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{command}]\n{settings}{key} = \n")
        assert run([command, "--config", cfg, "--out", tmp_path / "a"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown key {key!r} in config section [{command}]"]
        with pytest.raises(SystemExit) as info:
            run([command, "--config", cfg, "--" + key.replace("_", "-"), 1,
                 "--out", tmp_path / "b"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_generate_is_an_unknown_command(self, tmp_path, capsys):
        # retired: simulate writes the same graph.edges at the same n, p and seed
        with pytest.raises(SystemExit) as info:
            run(["generate", "--n", 50, "--p", 0.1, "--out", tmp_path / "out"])
        assert info.value.code == 2
        assert "invalid choice: 'generate'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("default", ["seed = 5\n", "n_pop = 100\n"], ids=["seed", "n_pop"])
    def test_default_section_is_ignored(self, tmp_path, default):
        # configparser would otherwise merge [DEFAULT] into every section
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[DEFAULT]\n{default}[simulate]\nn = 70\np = 0.09\nf = 0.5\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "a"]) == 0
        assert run(["simulate", "--n", 70, "--p", 0.09, "--f", 0.5, "--out", tmp_path / "b"]) == 0
        for name in ("graph.edges", "run_config.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_required_rejected(self, tmp_path):
        assert run(["simulate", "--n", 50, "--f", 0.5, "--out", tmp_path]) == 2

    def test_missing_config_file_rejected(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "nope.ini",
                    "--n", 50, "--p", 0.1, "--f", 0.5, "--out", tmp_path]) == 2

    def test_text_rules(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[sample]\ngraph = run%1.edges\ndata = pop.csv\nf = 0.5\n\n"
                       "[mc]\nn_pop = 100, 200\ndensity = 0.1\nfraction = 0.5\n"
                       "fixed_graph = On\nsave_records = no\n", encoding="utf-8")
        text, values = _resolve("sample", cfg, {"f": "0.25", "seed": ""})
        # % is literal, a flag overrides the file, an empty value means the default
        assert values == {"graph": "run%1.edges", "data": "pop.csv", "f": 0.25, "seed": 0}
        assert text == {"graph": "run%1.edges", "data": "pop.csv", "f": "0.25", "seed": "0"}
        _, values = _resolve("mc", cfg, {k: None for k in _SCHEMAS["mc"]})
        assert values["n_pop"] == [100, 200] and values["density"] == [0.1]
        assert values["fixed_graph"] is True and values["save_records"] is False

    def test_unset_settings_echo_defaults(self, tmp_path, simulated):
        assert run(["sample", "--graph", simulated / "graph.edges",
                    "--data", simulated / "population.csv", "--f", 0.5,
                    "--out", tmp_path]) == 0
        lines = (tmp_path / "run_config.txt").read_text().splitlines()
        assert {f"data = {simulated / 'population.csv'}", "f = 0.5", "seed = 0"} <= set(lines)


class TestSettingsBoundary:
    """A bad setting, from a flag or a config file, exits 2 with one `error:` line."""

    MC = ["--n-pop", 100, "--density", 0.1, "--fraction", 0.5]
    CASES = {
        "reps not an integer": (["mc", *MC], b"[mc]\nreps = abc\n"),
        "n in float notation": (["simulate", "--p", 0.5, "--f", 0.5], b"[simulate]\nn = 1e3\n"),
        "percent sign": (["identify-demo"], b"[identify-demo]\nx_mean = 5%\n"),
        "repeated section": (["mc", *MC], b"[mc]\nreps = 2\n[mc]\nseed = 3\n"),
        "not UTF-8": (["mc", *MC], b"\xff\xfe[mc]\nreps = 2\n"),
        "no section header": (["mc", *MC], b"reps = 2\n"),
        "empty n_pop": (["mc", *MC, "--n-pop", ""], None),
        "empty list item": (["mc", *MC, "--n-pop", "100,"], None),
        "bad boolean": (["mc", *MC], b"[mc]\nfixed_graph = maybe\n"),
        "n above MAX_VERTICES": (["simulate", "--n", 10**12, "--p", 0.5, "--f", 0.5], None),
        "workers 0": (["mc", *MC, "--workers", 0], None),
        "workers -3": (["mc", *MC, "--workers", -3], None),
        "expected edges above MAX_EDGES": (["simulate", "--n", 10**7, "--p", 0.5, "--f", 0.5],
                                           None),
        "reps above MAX_REPS": (["mc", *MC, "--reps", 10**20], None),
        "workers above MAX_WORKERS": (["mc", *MC, "--workers", 100_000], None),
        "mc n_pop 1": (["mc", *MC, "--n-pop", 1], None),
        "mc x_mean nan": (["mc", *MC, "--workers", 2, "--x-mean", "nan"], None),
        "mc x_mean inf": (["mc", *MC, "--workers", 2, "--x-mean", "inf"], None),
        "mc x_sd inf": (["mc", *MC, "--workers", 2], b"[mc]\nx_sd = inf\n"),
        "mc beta2 nan": (["mc", *MC, "--workers", 2, "--beta2", "nan"], None),
        "mc sigma2_eps inf": (["mc", *MC, "--workers", 2, "--sigma2-eps", "inf"], None),
        "simulate x_mean nan": (["simulate", "--n", 300, "--p", 0.03, "--f", 0.4,
                                 "--x-mean", "nan"], None),
        "simulate beta0 -inf": (["simulate", "--n", 300, "--p", 0.03, "--f", 0.4,
                                 "--beta0=-inf"], None),
        "identify-demo x_sd 0": (["identify-demo", "--x-sd", 0], None),
        "identify-demo sigma2_eps nan": (["identify-demo"], b"[identify-demo]\nsigma2_eps = nan\n"),
        # f is checked before the population is drawn
        "simulate f above 1": (["simulate", "--n", 20000, "--p", 0.001, "--f", 1.5], None),
        "simulate f 0": (["simulate", "--n", 20000, "--p", 0.001, "--f", 0], None),
        "identify-demo f 2": (["identify-demo", "--f", 2], None),
        "simulate sample of 0 units": (["simulate", "--n", 1000, "--p", 0.01, "--f", 0.0001],
                                       None),
        "simulate n 1": (["simulate", "--n", 1, "--p", 0.5, "--f", 0.4], None),
        "simulate n 0": (["simulate", "--n", 0, "--p", 0.5, "--f", 1], None),
        "simulate p above 1": (["simulate", "--n", 60, "--p", 1.5, "--f", 0.5], None),
        # the peer mean needs a neighbor, and at p = 1 it is linear in the unit's own x
        "simulate p 0": (["simulate", "--n", 60, "--p", 0, "--f", 0.5], None),
        "simulate p 1": (["simulate", "--n", 60, "--p", 1, "--f", 0.5], None),
        "identify-demo p 1": (["identify-demo", "--p", 1], None),
        "mc density 0": (["mc", *MC, "--density", 0], None),
        "mc density 1": (["mc", *MC, "--workers", 2, "--density", 1], None),
        "simulate seed -1": (["simulate", "--n", 10, "--p", 0.5, "--f", 0.5, "--seed", -1], None),
        "mc seed -3": (["mc", *MC, "--reps", 2, "--seed", -3], None),
        # round(0.2 * 10) = 2 sampled units, fewer than the fit's 4
        "mc sample of 2 units": (["mc", "--n-pop", 10, "--density", 0.5, "--fraction", 0.2],
                                 None),
        # f is sample's one size setting, and it has no default
        "sample without f": (["sample", "--graph", "graph.edges"], None),
    }
    # the cases whose error line is pinned: one density rule for every command
    DENSITY = ("simulate p above 1", "simulate p 0", "simulate p 1", "identify-demo p 1",
               "mc density 0", "mc density 1")

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bad_setting_exits_2(self, tmp_path, capsys, monkeypatch, name):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was used")

        def no_instance(*args, **kwargs):
            raise AssertionError("a population or a sample was drawn")

        def no_draw(n, p, rng):
            graphmod.check_er_size(n, p)  # the check generate_er makes before it draws
            raise AssertionError("a graph was drawn")
        monkeypatch.setattr(montecarlo, "_worker_pool", no_pool)
        monkeypatch.setattr(montecarlo, "populate", no_instance)
        monkeypatch.setattr(montecarlo, "draw_sample", no_instance)
        monkeypatch.setattr(graphmod, "generate_er", no_draw)
        argv, config = self.CASES[name]
        if config is not None:
            (tmp_path / "run.ini").write_bytes(config)
            argv = [*argv, "--config", tmp_path / "run.ini"]
        out = tmp_path / "out"
        assert run([*argv, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert name not in self.DENSITY or err == ["error: edge density must be in (0, 1)"]
        # nothing is drawn or written but the settings
        assert not out.exists() or [p.name for p in out.iterdir()] == ["run_config.txt"]

    def test_parser_keeps_no_state_between_calls(self, tmp_path, simulated, capsys):
        # main() reuses one parser per process: a flag of one call is not the next's
        files = ["--sample", simulated / "sample.csv", "--edges", simulated / "sample.edges"]
        assert run(["fit", *files, "--use-t", "--out", tmp_path / "a"]) == 0
        assert run(["fit", *files, "--out", tmp_path / "b"]) == 0
        assert "use_t = True\n" in (tmp_path / "a" / "run_config.txt").read_text()
        assert "use_t = False\n" in (tmp_path / "b" / "run_config.txt").read_text()
        with pytest.raises(SystemExit) as info:
            run(["fit", *files, "--no-such-flag", "--out", tmp_path / "c"])
        assert info.value.code == 2
        capsys.readouterr()
        assert run(["fit", *files, "--out", tmp_path / "d"]) == 0
        assert (tmp_path / "d" / "run_config.txt").read_bytes() == \
            (tmp_path / "b" / "run_config.txt").read_bytes()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        assert run(["simulate", "--n", 10, "--p", 0.5, "--f", 0.5,
                    "--out", tmp_path / "taken"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot create output directory")

    @pytest.mark.parametrize("command, name", [
        ("simulate", "run_config.txt"), ("fit", "fit.json"),
    ])
    def test_output_file_that_is_a_directory_exits_2(self, tmp_path, capsys, simulated,
                                                     command, name):
        argv = {
            "simulate": ["--n", 200, "--p", 0.05, "--f", 0.5],
            "fit": ["--sample", simulated / "sample.csv", "--edges", simulated / "sample.edges"],
        }[command]
        (tmp_path / "out" / name).mkdir(parents=True)
        assert run([command, *argv, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write {tmp_path / 'out' / name}: Is a directory"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("name", ["run_config.txt", "fit.json"])
    def test_full_disk_exits_2(self, tmp_path, capsys, simulated, name):
        # writing to /dev/full fails with ENOSPC when the file is flushed,
        # and that error names no file
        out = tmp_path / "out"
        out.mkdir()
        (out / name).symlink_to("/dev/full")
        assert run(["fit", "--sample", simulated / "sample.csv",
                    "--edges", simulated / "sample.edges", "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write to output directory {out}: "
                       f"{os.strerror(errno.ENOSPC)}"]


class TestInputMismatch:
    """Inputs that are each valid but do not fit together exit 2 with one `error:` line."""

    def assert_exits_2(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command", ["fit", "diagnostics"])
    def test_sample_without_unit_data(self, tmp_path, capsys, simulated, command):
        # the format without unit data left x or y blank or nan in every row;
        # it is refused where the file is read, not by the fit
        header, *rows = (simulated / "sample.csv").read_text().splitlines()
        for col, value in ((3, ""), (4, "nan")):
            path = tmp_path / f"sample{col}.csv"
            path.write_text("\n".join([header, *map(set_field(col, value), rows)]) + "\n")
            assert run([command, "--sample", path, "--edges", simulated / "sample.edges",
                        "--out", tmp_path / "out"]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {path}: ")

    def test_population_of_another_size(self, tmp_path, capsys, simulated):
        assert run(["simulate", "--n", 50, "--p", 0.1, "--f", 0.5, "--out", tmp_path]) == 0
        graph, data = tmp_path / "graph.edges", simulated / "population.csv"
        self.assert_exits_2(capsys, ["sample", "--graph", graph, "--data", data, "--f", 0.5,
                                     "--out", tmp_path / "out"],
                            f"{data} has 40 units but {graph} has 50 vertices")


# one valid config per subcommand; the mutations below break it line by line
CONFIGS = {
    "sample": "[sample]\ngraph = g.edges\ndata = pop.csv\nf = 0.5\nseed = 2\n",
    "simulate": "[simulate]\nn = 60\np = 0.1\nf = 0.5\nbeta2 = 1.5\nseed = 9\n",
    "fit": "[fit]\nsample = s.csv\nedges = s.edges\nuse_t = true\n",
    "mc": "[mc]\nn_pop = 100,200\ndensity = 0.1\nfraction = 0.2, 0.5\nreps = 4\n"
          "workers = 2\nsave_records = yes\n",
    "identify-demo": "[identify-demo]\nn = 40\nf = 0.5\nx_mean = 4\nx_sd = 2\nseed = 0\n",
    "diagnostics": "[diagnostics]\nsample = s.csv\nedges = s.edges\n",
}
CONFIG_TOKENS = (b"", b"abc", b"1e3", b"-1", b"0", b"nan", b"5%", b"%(n)s", b"[mc]",
                 b"[DEFAULT]", b"99999999999999999999", b",", b"0,1", b"\xff\xfe", b"=",
                 b"  indented", b"bogus = 1")

config_mutations = st.lists(
    st.tuples(
        st.sampled_from(("drop", "duplicate", "swap", "value", "insert", "truncate")),
        st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(CONFIG_TOKENS),
    ),
    min_size=1, max_size=3,
)


def mutate_config(text: str, ops) -> bytes:
    lines = text.encode().splitlines()
    for op, a, b, token in ops:
        i, j = a % len(lines), b % len(lines)
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "value":
            lines[i] = lines[i].split(b"=")[0] + b"= " + token
        elif op == "insert":
            lines.insert(j, token)
        else:
            lines[i] = lines[i][: b % (len(lines[i]) + 1)]
    return b"\n".join(lines) + b"\n"


def test_no_module_imports_scipy_stats(tmp_path):
    # in a fresh interpreter, as this one has scipy from tests/oracles.py: an
    # mc run and a default fit load no scipy module; fit --use-t loads its t quantile
    code = """if True:
        import sys
        from netpeer.cli import main
        out = sys.argv[1]
        assert main(["mc", "--n-pop", "150", "--density", "0.06", "--fraction", "0.5",
                     "--reps", "4", "--out", out + "/mc"]) == 0
        assert main(["simulate", "--n", "40", "--p", "0.15", "--f", "0.5", "--seed", "3",
                     "--out", out]) == 0
        fit = ["fit", "--sample", out + "/sample.csv", "--edges", out + "/sample.edges"]
        assert main([*fit, "--out", out + "/z"]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        assert main([*fit, "--use-t", "--out", out + "/t"]) == 0
        print("scipy.special" in sys.modules)
    """
    src = os.path.dirname(os.path.dirname(netpeer.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]
    # both critical values are scipy.stats' quantiles, the t one at n_used - 3 df
    for sub, use_t in (("z", False), ("t", True)):
        fit = strict_json(tmp_path / sub / "fit.json")
        c = critical_value(0.95, fit["n_used"] - 3 if use_t else None)
        b, se = fit["beta_hat"][2], fit["se"][2]
        assert fit["ci_naive"] == [b - c * se, b + c * se]


def test_only_montecarlo_names_a_stream():
    # the seeded streams have one owner: every other module asks it for a
    # graph, a population or a sample, never for a stream of a purpose
    src = Path(netpeer.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "montecarlo.py":
            text = path.read_text()
            assert "STREAM_" not in text and "montecarlo.stream" not in text, path.name


class TestConfigContract:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(command=st.sampled_from(sorted(CONFIGS)), ops=config_mutations,
           flag=st.tuples(st.integers(0, 10**6),
                          st.sampled_from((None, "", "abc", "-1", "2", "0.5"))))
    def test_mutated_config_resolves_or_is_invalid(self, command, ops, flag):
        # only the settings boundary runs: no handler, so no graph is drawn
        keys = sorted(_SCHEMAS[command])
        flags = dict.fromkeys(keys)
        flags[keys[flag[0] % len(keys)]] = flag[1]
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "run.ini"
            path.write_bytes(mutate_config(CONFIGS[command], ops))
            try:
                text, values = _resolve(command, path, flags)
            except ValidationError:
                return
        assert text.keys() == values.keys() == _SCHEMAS[command].keys()


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """simulate's output directory for a small instance."""
    out = tmp_path_factory.mktemp("valid")
    assert run(["simulate", "--n", 40, "--p", 0.15, "--f", 0.5,
                "--seed", 3, "--out", out]) == 0
    return out


def round_trip_argv(command, sim):
    instance = ["--n", 40, "--p", 0.15, "--seed", 3]
    return {
        "simulate": [*instance, "--f", 0.5, "--beta2", 2],
        "sample": ["--graph", sim / "graph.edges", "--data", sim / "population.csv",
                   "--f", 0.3, "--seed", 2],
        "fit": ["--sample", sim / "sample.csv", "--edges", sim / "sample.edges", "--use-t"],
        "mc": ["--n-pop", "100,120", "--density", 0.1, "--fraction", 0.5, "--reps", 3,
               "--save-records"],
        "identify-demo": [*instance, "--f", 0.5, "--x-mean", 4, "--x-sd", 2],
        "diagnostics": ["--sample", sim / "sample.csv", "--edges", sim / "sample.edges"],
    }[command]


class TestRunConfigRoundTrip:
    @pytest.mark.parametrize("command", sorted(_SCHEMAS))
    def test_run_config_reproduces_the_run(self, tmp_path, simulated, command):
        first, again = tmp_path / "first", tmp_path / "again"
        assert run([command, *round_trip_argv(command, simulated), "--out", first]) == 0
        assert run([command, "--config", first / "run_config.txt", "--out", again]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert sorted(p.name for p in again.iterdir()) == names
        assert digests(again, names) == digests(first, names)


class TestMcCommand:
    def test_small_grid(self, tmp_path):
        assert run([
            "mc", "--n-pop", "150", "--density", "0.06", "--fraction", "0.3,0.6",
            "--reps", 8, "--seed", 12, "--out", tmp_path,
        ]) == 0
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0].startswith("N,p,f,reps,estimator")
        assert len(lines) == 1 + 4  # two cells, two estimator rows each

    def test_save_records(self, tmp_path):
        assert run([
            "mc", "--n-pop", "150", "--density", "0.06", "--fraction", "0.5",
            "--reps", 4, "--save-records", "--out", tmp_path,
        ]) == 0
        assert (tmp_path / "records_cell0.csv").exists()

    @pytest.mark.parametrize("fractions, taken", [
        ("0.2", "results.csv"), ("0.2,0.8", "records_cell1.csv"),
    ])
    def test_unwritable_output_exits_2_before_any_replication(
            self, tmp_path, capsys, monkeypatch, fractions, taken):
        calls, real = [], montecarlo.run_reps

        def counted(*args, **kw):
            calls.append(args)
            return real(*args, **kw)
        monkeypatch.setattr(montecarlo, "run_reps", counted)
        (tmp_path / taken).mkdir()
        assert run([
            "mc", "--n-pop", 1000, "--density", 0.01, "--fraction", fractions,
            "--reps", 200, "--save-records", "--out", tmp_path,
        ]) == 2
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write {tmp_path / taken}: Is a directory"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("fractions, full", [
        ("0.2", "results.csv"), ("0.2,0.8", "records_cell1.csv"),
    ])
    def test_full_disk_exits_2_before_any_replication(
            self, tmp_path, capsys, monkeypatch, fractions, full):
        # /dev/full opens like any file; only a flushed write fails
        def never(*args, **kw):
            raise AssertionError("a replication ran")
        monkeypatch.setattr(montecarlo, "run_reps", never)
        (tmp_path / full).symlink_to("/dev/full")
        assert run([
            "mc", "--n-pop", 1000, "--density", 0.01, "--fraction", fractions,
            "--reps", 200, "--save-records", "--out", tmp_path,
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write to output directory {tmp_path}: "
                       f"{os.strerror(errno.ENOSPC)}"]

    def test_zero_beta2_rows_leave_relative_bias_empty(self, tmp_path):
        # a null peer effect is a cell like any other; only its relative
        # biases, which divide by beta2, are undefined
        argv = ["--n-pop", 200, "--density", 0.05, "--fraction", "0.5,0.8", "--reps", 6,
                "--seed", 3, "--beta2", 0]
        assert run(["mc", *argv, "--out", tmp_path]) == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        params = ModelParams(beta2=0.0)
        for i, f in enumerate((0.5, 0.8)):
            cell = montecarlo.ExperimentCell(200, 0.05, f, params, reps=6, master_seed=3)
            report = montecarlo.summarize(cell, montecarlo.run_reps(cell))
            assert np.isnan(report.rb_naive) and np.isnan(report.rb_corrected)
            for row, est in zip(rows[2 * i:2 * i + 2], ("naive", "corrected")):
                rmse, cov = ((report.rmse_naive, report.cov_naive) if est == "naive"
                             else (report.rmse_corrected, report.cov_corrected))
                assert row == {
                    "N": "200", "p": "0.05", "f": str(f), "reps": "6", "estimator": est,
                    "RB": "", "RMSE": f"{rmse:.10g}", "coverage": f"{cov:.10g}",
                    "mean_w_hat": f"{report.mean_w_hat:.10g}", "failed": "0",
                }

    def test_failed_cell_does_not_stop_grid(self, tmp_path, capsys):
        # at N=1000, p=10^-6 about half an edge is expected, so no sample of
        # 200 units has the 4 tied units a fit needs and every rep of that cell fails
        assert run([
            "mc", "--n-pop", "1000", "--density", "1e-6,0.01", "--fraction", "0.2",
            "--reps", 4, "--seed", 5, "--save-records", "--out", tmp_path,
        ]) == 3
        rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["1000", "0.01"]] * 2
        assert "N=1000, p=1e-06, f=0.2: all 4 replications failed" in capsys.readouterr().err
        # the failed cell's records still say why each replication failed
        failed = (tmp_path / "records_cell0.csv").read_text().splitlines()[1:]
        assert [r.split(",", 2)[:2] for r in failed] == [[str(i), "0"] for i in range(4)]
        assert all("rank-deficient design: only" in r for r in failed)
        done = (tmp_path / "records_cell1.csv").read_text().splitlines()[1:]
        assert len(done) == 4 and all(r.split(",")[1] == "1" for r in done)


class TestIdentifyDemo:
    def test_witness_found(self, tmp_path):
        assert run([
            "identify-demo", "--n", 60, "--p", 0.1, "--f", 0.4,
            "--seed", 1, "--out", tmp_path,
        ]) == 0
        with open(tmp_path / "witness.json") as fh:
            report = json.load(fh)
        assert report["verdict"] == "NOT_IDENTIFIED_WITNESS_FOUND"
        assert report["compatible_a"] and report["compatible_b"]
        assert report["likelihood_gap"] > 1e-12
        assert report["log_likelihood_a"] != report["log_likelihood_b"]

    def test_census_has_no_witness(self, tmp_path):
        assert run([
            "identify-demo", "--n", 40, "--p", 0.15, "--f", 1.0,
            "--seed", 2, "--out", tmp_path,
        ]) == 0
        with open(tmp_path / "witness.json") as fh:
            report = json.load(fh)
        assert report["verdict"] == "NO_WITNESS_AVAILABLE"

    def test_equal_likelihoods_are_no_witness(self, tmp_path):
        # with no peer effect the swapped completions have one likelihood
        assert run(["identify-demo", "--beta2", 0, "--out", tmp_path]) == 0
        assert strict_json(tmp_path / "witness.json") == {"verdict": "NO_WITNESS_AVAILABLE"}

    def test_overflowing_likelihood_exits_3_without_a_warning(self, tmp_path, capsys):
        # finite default attached values (mean +/- one sd) whose squared
        # residuals overflow float64: both likelihoods are -inf, the gap nan
        assert run(["identify-demo", "--x-mean", 1e160, "--x-sd", 1e150,
                    "--out", tmp_path]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: witness.json: non-finite result")
        assert not (tmp_path / "witness.json").exists()


class TestDiagnostics:
    def test_report_written(self, tmp_path):
        assert run([
            "simulate", "--n", 200, "--p", 0.05, "--f", 0.4,
            "--seed", 6, "--out", tmp_path,
        ]) == 0
        assert run([
            "diagnostics", "--sample", tmp_path / "sample.csv",
            "--edges", tmp_path / "sample.edges", "--out", tmp_path,
        ]) == 0
        with open(tmp_path / "diagnostics.json") as fh:
            rep = json.load(fh)
        assert 0.0 < rep["w_hat"] <= 1.0
        assert rep["n_sampled"] == 80
        assert not rep["degenerate_covariate"]
        assert rep["degree_ratio_min"] <= rep["degree_ratio_mean"] <= rep["degree_ratio_max"]

    @staticmethod
    def four_unit_sample(root, tie):
        """Four sampled units of true degree 5, with one observed tie, (0, 1), or none."""
        (root / "sample.edges").write_text("# vertices=4\n# sample\n" + "0,1\n" * tie)
        d_obs = (1, 1, 0, 0) if tie else (0, 0, 0, 0)
        (root / "sample.csv").write_text("unit_id,d_true,d_obs,x,y\n" + "".join(
            f"{u},5,{d},{x},{x + 0.5}\n" for u, d, x in zip((3, 7, 12, 40), d_obs, (1, 2, 4, 8))))
        return ["--sample", root / "sample.csv", "--edges", root / "sample.edges"]

    def test_sample_too_sparse_to_fit(self, tmp_path, capsys):
        # one observed tie: two units the fit drops, two rows it cannot fit
        files = self.four_unit_sample(tmp_path, tie=True)
        assert run(["diagnostics", *files, "--out", tmp_path / "diag"]) == 0
        rep = strict_json(tmp_path / "diag" / "diagnostics.json")
        assert (rep["dropped_count"], rep["w_hat"], rep["n_sampled"]) == (2, 0.2, 4)
        assert (rep["degree_ratio_min"], rep["degree_ratio_max"]) == (0.0, 0.2)
        capsys.readouterr()
        assert run(["fit", *files, "--out", tmp_path / "fit"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: rank-deficient design: only 2 retained rows (need at least 4)"]
        assert not (tmp_path / "fit" / "fit.json").exists()

    def test_sample_without_a_tie_exits_3(self, tmp_path, capsys):
        files = self.four_unit_sample(tmp_path, tie=False)
        assert run(["diagnostics", *files, "--out", tmp_path]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: every sampled unit is isolated in the recruitment graph"]
        assert not (tmp_path / "diagnostics.json").exists()


INPUTS = ("graph.edges", "population.csv", "sample.csv", "sample.edges")


@pytest.fixture(scope="module")
def valid_inputs(simulated):
    """The text of simulate's four output files for a small instance."""
    return {name: (simulated / name).read_text() for name in INPUTS}


def run_on_inputs(files, out):
    """sample on graph.edges + population.csv; fit and diagnostics on the sample."""
    for name, text in files.items():
        (out / name).write_text(text)
    return [
        run(["sample", "--graph", out / "graph.edges", "--data", out / "population.csv",
             "--f", 0.5, "--out", out / "resampled"]),
        run(["fit", "--sample", out / "sample.csv", "--edges", out / "sample.edges",
             "--out", out / "fit"]),
        run(["diagnostics", "--sample", out / "sample.csv",
             "--edges", out / "sample.edges", "--out", out / "diag"]),
    ]


def replace_line(text, index, edit):
    lines = text.splitlines()
    lines[index] = edit(lines[index])
    return "\n".join(lines) + "\n"


def set_field(col, value):
    def edit(line):
        fields = line.split(",")
        fields[col] = value
        return ",".join(fields)
    return edit


class TestInputBoundary:
    """Each malformed input exits 2 with one `error:` line, never a traceback."""

    CASES = {
        "short population row": ("population.csv", 3, lambda line: line.rsplit(",", 1)[0]),
        "duplicated unit_id": ("population.csv", 2, set_field(0, "0")),
        "non-integer sample id": ("sample.csv", 1, set_field(0, "0.5")),
        "non-integer d_true": ("sample.csv", 1, set_field(1, "7.9")),
        "non-integer edge endpoint": ("graph.edges", 1, lambda line: line + ".0"),
        "vertex count not an integer": ("graph.edges", 0, lambda line: "# vertices=abc"),
        "vertex count too large": ("graph.edges", 0, lambda line: "# vertices=10000000000"),
        "blank x": ("sample.csv", 2, set_field(3, "")),
        "nan x": ("sample.csv", 2, set_field(3, "nan")),
    }

    # "ignore" stands for the command line, where Python hides DeprecationWarning
    @pytest.mark.parametrize("filters", ["error", "ignore"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_malformed_file_exits_2(self, tmp_path, capsys, valid_inputs, name, filters):
        target, index, edit = self.CASES[name]
        files = dict(valid_inputs)
        files[target] = replace_line(files[target], index, edit)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter(filters)
            codes = run_on_inputs(files, tmp_path)
        # the sample command reads the population files, fit and diagnostics the sample
        expected = [2, 0, 0] if target in ("graph.edges", "population.csv") else [0, 2, 2]
        assert codes == expected
        err = capsys.readouterr().err.splitlines()
        assert len(err) == expected.count(2)
        assert all(line.startswith("error: ") for line in err)
        assert all(target in line for line in err)


class TestExtremeSettings:
    """Accepted settings at their extremes exit 0 or 3, with no warning or traceback."""

    @pytest.mark.parametrize("argv,code,message", [
        # a p too small to expect an edge draws the empty graph: simulate writes
        # it, and every mc replication fails in the fit, its sample having no tie
        (["simulate", "--n", 100, "--p", 1e-19, "--f", 0.5], 0, None),
        (["mc", "--n-pop", 100, "--density", 1e-19, "--fraction", 0.5, "--reps", 2],
         3, "all 2 replications failed"),
        # outcomes that overflow float64
        (["simulate", "--n", 200, "--p", 0.05, "--f", 0.5, "--beta2", 1e308],
         3, "simulated outcomes overflow float64"),
        (["mc", "--n-pop", 200, "--density", 0.05, "--fraction", 0.5, "--reps", 3,
          "--beta2", 1e308], 3, "all 3 replications failed"),
        (["identify-demo", "--beta2", 1e308], 3, "simulated outcomes overflow float64"),
        # a relative bias is undefined at beta2 = 0 and overflows at 1e-320
        (["mc", "--n-pop", 200, "--density", 0.05, "--fraction", 0.5, "--reps", 3,
          "--beta2", 0], 0, None),
        (["mc", "--n-pop", 200, "--density", 0.05, "--fraction", 0.5, "--reps", 3,
          "--beta2", 1e-320], 3, "rb_naive"),
        # default attached values (mean +/- sd) that overflow or round to one float
        (["identify-demo", "--x-sd", 1e200], 3, "default attached values"),
        (["identify-demo", "--x-mean", 1e20, "--x-sd", 1], 3, "default attached values"),
    ], ids=["simulate-p1e-19", "mc-p1e-19",
            "simulate-beta2", "mc-beta2", "identify-demo-beta2", "mc-beta2-0",
            "mc-beta2-1e-320", "identify-demo-x-sd-1e200", "identify-demo-x-mean-1e20"])
    def test_exit_code(self, tmp_path, capsys, argv, code, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([*argv, "--out", tmp_path]) == code
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == (code != 0)
        assert all(line.startswith("error: ") and message in line for line in err)
        if code and argv[0] != "mc":  # nothing written but the settings
            assert os.listdir(tmp_path) == ["run_config.txt"]

    def test_fit_at_top_reported_degree(self, tmp_path, capsys, simulated):
        # d_true at int64's maximum gives the smallest w_hat a sample file can:
        # fit takes it from scaling_factor as given, and its report stays finite
        lines = (simulated / "sample.csv").read_text().splitlines()
        rows = [r.split(",") for r in lines[1:]]
        top = "".join(",".join([r[0], str(2**63 - 1), *r[2:]]) + "\n" for r in rows)
        (tmp_path / "sample.csv").write_text(lines[0] + "\n" + top)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["fit", "--sample", tmp_path / "sample.csv",
                        "--edges", simulated / "sample.edges", "--out", tmp_path]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        fit = strict_json(tmp_path / "fit.json")
        assert 0.0 < fit["w_hat"] < 1e-18
        assert abs(fit["beta2_corrected"]) > 1e17


TOKENS = ("", "nan", "inf", "-1", "0", "1", "2.5", "abc", "1e3", "99999999999999999999",
          "#", "0,1")

mutations = st.lists(
    st.tuples(
        st.sampled_from(("drop", "duplicate", "swap", "field", "extra", "truncate")),
        st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(TOKENS),
    ),
    min_size=1, max_size=3,
)


def mutate(text, ops):
    lines = text.splitlines()
    for op, a, b, token in ops:
        if not lines:
            break
        i, j = a % len(lines), b % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "field":
            fields = lines[i].split(",")
            fields[b % len(fields)] = token
            lines[i] = ",".join(fields)
        elif op == "extra":
            lines[i] += "," + token
        else:
            lines[i] = lines[i].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


class TestExitCodeContract:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(target=st.sampled_from(INPUTS), ops=mutations)
    def test_mutated_inputs_exit_0_2_or_3(self, valid_inputs, target, ops):
        files = dict(valid_inputs)
        files[target] = mutate(files[target], ops)
        with tempfile.TemporaryDirectory() as out:
            codes = run_on_inputs(files, Path(out))
            # every JSON report a successful run leaves is strict
            for code, report in zip(codes[1:], ("fit/fit.json", "diag/diagnostics.json")):
                if code == 0:
                    strict_json(Path(out) / report)
        assert set(codes) <= {0, 2, 3}

    # the suite turns numpy's overflow warnings into errors; "ignore" lets them pass
    @pytest.mark.parametrize("filters", ["error", "ignore"])
    def test_non_finite_diagnostics_exit_3(self, tmp_path, capsys, valid_inputs, filters):
        # the variance of x is not representable in float64
        text = replace_line(valid_inputs["sample.csv"], 1, set_field(3, "1e308"))
        (tmp_path / "sample.csv").write_text(text)
        (tmp_path / "sample.edges").write_text(valid_inputs["sample.edges"])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter(filters)
            code = run(["diagnostics", "--sample", tmp_path / "sample.csv",
                        "--edges", tmp_path / "sample.edges", "--out", tmp_path / "diag"])
        assert code == 3
        assert not (tmp_path / "diag" / "diagnostics.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: diagnostics.json: non-finite")
