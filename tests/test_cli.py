import hashlib
import json

import numpy as np
import pytest

from netpeer import estimation, graph as graphmod, model, sampling
from netpeer.cli import main
from netpeer.model import ModelParams
from netpeer.montecarlo import build_instance


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["generate", "--n", 80, "--p", 0.08, "--seed", 5, "--out", a]) == 0
        assert run(["generate", "--n", 80, "--p", 0.08, "--seed", 5, "--out", b]) == 0
        assert (a / "graph.edges").read_bytes() == (b / "graph.edges").read_bytes()

    def test_roundtrip_readable(self, tmp_path):
        assert run(["generate", "--n", 60, "--p", 0.1, "--seed", 1, "--out", tmp_path]) == 0
        g = graphmod.read_edge_list(tmp_path / "graph.edges")
        assert g.n_vertices == 60
        assert graphmod.is_connected(g)

    def test_bad_p_exits_2(self, tmp_path):
        assert run(["generate", "--n", 60, "--p", 1.5, "--out", tmp_path]) == 2

    def test_connectivity_exhaustion_exits_3(self, tmp_path):
        # p so small a connected graph on 100 vertices is hopeless
        code = run([
            "generate", "--n", 100, "--p", 0.0001,
            "--max-attempts", 3, "--out", tmp_path,
        ])
        assert code == 3


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
        *_, s = build_instance((11,), 300, 0.04, 0.4, ModelParams(0.0, 1.0, 1.5, 1.0))
        design = estimation.build_observed_design(s)
        fit = estimation.fit_mle(design)
        fit = estimation.apply_correction(fit, sampling.scaling_factor(s))
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
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert got == self.DIGESTS


class TestSampleCommand:
    def test_sample_from_generated_graph(self, tmp_path):
        assert run(["generate", "--n", 100, "--p", 0.07, "--seed", 3,
                    "--out", tmp_path]) == 0
        rng = np.random.default_rng(0)
        x = model.gen_covariates(100, 3.0, 1.5, rng)
        g = graphmod.read_edge_list(tmp_path / "graph.edges")
        y = model.simulate_outcomes(g, x, ModelParams(0.0, 1.0, 1.5, 1.0), rng)
        model.write_unit_csv(x, y, tmp_path / "population.csv")
        assert run([
            "sample", "--graph", tmp_path / "graph.edges",
            "--data", tmp_path / "population.csv",
            "--f", 0.3, "--seed", 4, "--out", tmp_path,
        ]) == 0
        g_r = graphmod.read_edge_list(tmp_path / "sample.edges")
        s = sampling.read_sample_csv(tmp_path / "sample.csv", g_r)
        assert s.n == 30

    def test_requires_exactly_one_size_setting(self, tmp_path):
        assert run(["generate", "--n", 50, "--p", 0.1, "--out", tmp_path]) == 0
        code = run([
            "sample", "--graph", tmp_path / "graph.edges",
            "--n-sample", 10, "--f", 0.2, "--out", tmp_path,
        ])
        assert code == 2


class TestConfigFile:
    def test_config_supplies_settings(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[generate]\nn = 70\np = 0.09\nseed = 8\n")
        assert run(["generate", "--config", cfg, "--out", tmp_path]) == 0
        g = graphmod.read_edge_list(tmp_path / "graph.edges")
        assert g.n_vertices == 70

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[generate]\nn = 70\np = 0.09\n")
        assert run(["generate", "--config", cfg, "--n", 40, "--out", tmp_path]) == 0
        g = graphmod.read_edge_list(tmp_path / "graph.edges")
        assert g.n_vertices == 40

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[generate]\nn = 70\np = 0.09\nbogus = 1\n")
        assert run(["generate", "--config", cfg, "--out", tmp_path]) == 2

    def test_missing_required_rejected(self, tmp_path):
        assert run(["generate", "--n", 50, "--out", tmp_path]) == 2

    def test_missing_config_file_rejected(self, tmp_path):
        assert run(["generate", "--config", tmp_path / "nope.ini",
                    "--n", 50, "--p", 0.1, "--out", tmp_path]) == 2


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

    def test_failed_cell_does_not_stop_grid(self, tmp_path, capsys):
        # at N=300, p=1% no draw is connected, so every rep of that cell fails
        assert run([
            "mc", "--n-pop", "300,1000", "--density", "0.01", "--fraction", "0.2",
            "--reps", 4, "--seed", 5, "--save-records", "--out", tmp_path,
        ]) == 3
        rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["1000", "0.01"]] * 2
        assert "N=300, p=0.01, f=0.2" in capsys.readouterr().err
        # the failed cell's records still say why each replication failed
        failed = (tmp_path / "records_cell0.csv").read_text().splitlines()[1:]
        assert [r.split(",", 2)[:2] for r in failed] == [[str(i), "0"] for i in range(4)]
        assert all("no connected graph found" in r for r in failed)
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
