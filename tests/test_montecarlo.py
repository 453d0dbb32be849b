import csv

import numpy as np
import pytest

from netpeer import estimation
from netpeer.errors import AllRepsFailedError, ValidationError
from netpeer.model import ModelParams
from netpeer.montecarlo import (
    CellReport,
    ExperimentCell,
    RepRecord,
    build_instance,
    run_cell,
    run_replication,
    summarize,
    write_grid_csv,
    write_records_csv,
)

PARAMS = ModelParams(0.0, 1.0, 1.5, 1.0)


def small_cell(**kw):
    base = dict(
        n_pop=200,
        density=0.05,
        fraction=0.3,
        params=PARAMS,
        reps=12,
        master_seed=42,
    )
    base.update(kw)
    return ExperimentCell(**base)


def fake_record(rep, b2, lo, hi, w=0.5, wald=None, ok=True):
    if not ok:
        return RepRecord(rep_index=rep, ok=False, error="boom")
    return RepRecord(
        rep_index=rep,
        ok=True,
        beta2_naive=b2,
        beta2_corrected=b2 / w,
        ci_naive=(lo, hi),
        ci_corrected=(lo / w, hi / w),
        ci_corrected_wald=wald or (lo / w, hi / w),
        w_hat=w,
        var_corrected=0.1,
    )


class TestSummarize:
    def test_hand_computed_metrics(self):
        cell = small_cell()
        # two reps: naive estimates 1.0 and 2.0 against beta2 = 1.5
        recs = [
            fake_record(0, 1.0, 0.5, 1.5, wald=(1.6, 2.4)),
            fake_record(1, 2.0, 2.1, 2.5, wald=(1.2, 6.8)),
        ]
        rep = summarize(cell, recs)
        assert rep.rb_naive == pytest.approx(0.0)
        assert rep.rmse_naive == pytest.approx(0.5)
        # first naive CI covers 1.5, second does not
        assert rep.cov_naive == pytest.approx(0.5)
        # corrected estimates are 2.0 and 4.0 (w = 0.5): mean 3.0
        assert rep.rb_corrected == pytest.approx((3.0 - 1.5) / 1.5)
        assert rep.rmse_corrected == pytest.approx(
            np.sqrt((0.5 ** 2 + 2.5 ** 2) / 2)
        )
        # corrected CIs are (1, 3) and (4.2, 5): first covers 1.5
        assert rep.cov_corrected == pytest.approx(0.5)
        # Wald intervals (1.6, 2.4) and (1.2, 6.8): only the second covers 1.5
        assert rep.cov_corrected_wald == pytest.approx(0.5)
        assert rep.mean_w_hat == pytest.approx(0.5)
        assert rep.reps_completed == 2
        assert rep.reps_failed == 0

    def test_failed_reps_excluded(self):
        cell = small_cell()
        recs = [
            fake_record(0, 1.5, 1.0, 2.0),
            fake_record(1, 0.0, 0.0, 0.0, ok=False),
        ]
        rep = summarize(cell, recs)
        assert rep.reps_completed == 1
        assert rep.reps_failed == 1
        assert rep.rb_naive == pytest.approx(0.0)
        assert rep.cov_naive == pytest.approx(1.0)

    def test_all_failed_raises(self):
        cell = small_cell()
        recs = [fake_record(i, 0.0, 0.0, 0.0, ok=False) for i in range(3)]
        with pytest.raises(AllRepsFailedError):
            summarize(cell, recs)


class TestRunReplication:
    def test_deterministic(self):
        cell = small_cell()
        a = run_replication(cell, 7)
        b = run_replication(cell, 7)
        assert a == b

    def test_distinct_reps_differ(self):
        cell = small_cell()
        a = run_replication(cell, 0)
        b = run_replication(cell, 1)
        assert a.beta2_naive != b.beta2_naive

    def test_wald_interval_recorded(self):
        rec = run_replication(small_cell(), 3)
        lo, hi = rec.ci_corrected_wald
        assert lo < rec.beta2_corrected < hi

    def test_is_shared_builder_then_shared_fit(self):
        # run_replication adds nothing to the pipeline the CLI runs: the
        # builder under prefix (master_seed, i), then the corrected fit
        for kw in ({}, {"fraction": 0.8, "master_seed": 7}):
            cell = small_cell(**kw)
            for i in (0, 5):
                *_, s = build_instance(
                    (cell.master_seed, i), cell.n_pop, cell.density, cell.fraction,
                    cell.params, cell.x_mean, cell.x_sd,
                )
                fit = estimation.fit_corrected(s, level=cell.level)
                assert run_replication(cell, i) == RepRecord(
                    rep_index=i,
                    ok=True,
                    beta2_naive=float(fit.beta_hat[2]),
                    beta2_corrected=float(fit.beta2_corrected),
                    ci_naive=tuple(map(float, fit.ci_naive)),
                    ci_corrected=tuple(map(float, fit.ci_corrected)),
                    ci_corrected_wald=tuple(map(float, fit.ci_corrected_wald)),
                    w_hat=float(fit.w_hat),
                    var_corrected=float(fit.var_corrected),
                )

    def test_corrected_is_naive_over_w(self):
        rec = run_replication(small_cell(), 3)
        assert rec.ok
        assert rec.beta2_corrected == pytest.approx(
            rec.beta2_naive / rec.w_hat, rel=1e-15
        )


class TestRunCell:
    def test_worker_invariance(self):
        cell = small_cell()
        rep1, recs1 = run_cell(cell, workers=1)
        rep2, recs2 = run_cell(cell, workers=2)
        assert recs1 == recs2
        assert rep1 == rep2

    def test_same_seed_bit_identical(self):
        cell = small_cell()
        _, recs1 = run_cell(cell, workers=1)
        _, recs2 = run_cell(cell, workers=1)
        assert recs1 == recs2

    def test_master_seed_changes_results(self):
        _, recs1 = run_cell(small_cell(), workers=1)
        _, recs2 = run_cell(small_cell(master_seed=43), workers=1)
        naive1 = [r.beta2_naive for r in recs1]
        naive2 = [r.beta2_naive for r in recs2]
        assert naive1 != naive2

    def test_records_ordered_by_rep(self):
        _, recs = run_cell(small_cell(), workers=2)
        assert [r.rep_index for r in recs] == list(range(12))

    def test_fixed_graph_reuses_topology(self):
        cell = small_cell(fixed_graph=True, reps=4)
        _, recs = run_cell(cell, workers=1)
        assert all(r.ok for r in recs)
        # same graph, different samples: estimates still vary
        assert len({r.beta2_naive for r in recs}) == 4


class TestCellValidation:
    def test_bad_density(self):
        with pytest.raises(ValidationError):
            small_cell(density=0.0)
        with pytest.raises(ValidationError):
            small_cell(density=1.5)

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            small_cell(fraction=0.0)
        with pytest.raises(ValidationError):
            small_cell(fraction=1.2)

    def test_bad_reps(self):
        with pytest.raises(ValidationError):
            small_cell(reps=0)

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            small_cell(master_seed=-1)

    def test_sample_below_four(self):
        # round(0.2 * 10) = 2 units: no replication could fit three coefficients
        with pytest.raises(ValidationError, match="sample size"):
            small_cell(n_pop=10, density=0.5, fraction=0.2)
        assert small_cell(n_pop=20, density=0.5, fraction=0.2).reps == 12


class TestGridCsv:
    def test_layout(self, tmp_path):
        cells = [small_cell(reps=5), small_cell(fraction=0.6, reps=5)]
        results = [(cell, run_cell(cell)[0]) for cell in cells]
        out = tmp_path / "grid.csv"
        write_grid_csv(results, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "N", "p", "f", "reps", "estimator", "RB", "RMSE",
            "coverage", "mean_w_hat", "failed",
        ]
        # two rows per cell, naive then corrected
        assert len(rows) == 1 + 2 * len(cells)
        assert [r[4] for r in rows[1:]] == [
            "naive", "corrected", "naive", "corrected",
        ]
        assert rows[1][0] == "200" and rows[1][2] == "0.3"
        assert rows[3][2] == "0.6"
        # numeric fields parse
        for r in rows[1:]:
            float(r[5]), float(r[6]), float(r[7]), float(r[8])

    def test_report_fields_roundtrip(self, tmp_path):
        cell = small_cell(reps=5)
        rep, recs = run_cell(cell, workers=1)
        assert isinstance(rep, CellReport)
        out = tmp_path / "grid.csv"
        write_grid_csv([(cell, rep)], out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][5]) == pytest.approx(rep.rb_naive, rel=1e-9)
        assert float(rows[2][5]) == pytest.approx(rep.rb_corrected, rel=1e-9)

    def test_records_csv(self, tmp_path):
        cell = small_cell(reps=5)
        _, recs = run_cell(cell, workers=1)
        out = tmp_path / "records.csv"
        write_records_csv(cell, recs, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 5
        assert rows[0][0] == "rep"
        # metrics recomputable from the dump
        naive = [float(r[2]) for r in rows[1:] if r[1] == "1"]
        rb = (np.mean(naive) - 1.5) / 1.5
        rep = summarize(cell, recs)
        assert rb == pytest.approx(rep.rb_naive, rel=1e-9)

    def test_records_csv_wald_and_quoted_error(self, tmp_path):
        recs = [
            fake_record(0, 1.0, 0.5, 1.5, wald=(1.25, 2.75)),
            RepRecord(rep_index=1, ok=False, error="no graph (n=3, p=0.1); retry"),
        ]
        out = tmp_path / "records.csv"
        write_records_csv(small_cell(), recs, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [12, 12, 12]
        assert rows[0][9:] == ["ci_corrected_wald_lo", "ci_corrected_wald_hi", "error"]
        assert rows[1][9:] == ["1.25", "2.75", ""]
        assert rows[2] == ["1", "0"] + [""] * 9 + ["no graph (n=3, p=0.1); retry"]
