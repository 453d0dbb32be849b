import csv
import ctypes
import dataclasses
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import netpeer
from netpeer import cli, estimation, graph as graphmod, model, montecarlo
from netpeer.errors import AllRepsFailedError, ComputationError, ValidationError
from netpeer.model import ModelParams
from netpeer.montecarlo import (
    MAX_REPS,
    MAX_WORKERS,
    STREAM_GRAPH,
    CellReport,
    ExperimentCell,
    RepRecord,
    draw_graph,
    draw_sample,
    populate,
    run_cell,
    run_replication,
    run_reps,
    stream,
    summarize,
    write_grid_csv,
    write_records_csv,
)
from oracles import star

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

    @pytest.mark.parametrize("beta2", [1e-320])
    def test_non_finite_metric_raises_without_a_warning(self, beta2):
        # a relative bias divides by beta2, and 1e-320 overflows it
        cell = small_cell(params=ModelParams(beta2=beta2))
        recs = [fake_record(0, 1.0, 0.5, 1.5), fake_record(1, 2.0, 2.1, 2.5)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ComputationError,
                               match="cell metric rb_naive is not finite in float64"):
                summarize(cell, recs)
        assert [str(w.message) for w in caught] == []

    def test_zero_beta2_leaves_only_relative_bias_undefined(self):
        # at beta2 = 0 a relative bias would divide by zero; every other
        # metric is finite and kept
        cell = small_cell(params=ModelParams(beta2=0.0))
        recs = [fake_record(0, 1.0, -0.5, 1.5), fake_record(1, -0.5, -1.0, 0.25)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = summarize(cell, recs)
        assert [str(w.message) for w in caught] == []
        assert np.isnan(rep.rb_naive) and np.isnan(rep.rb_corrected)
        assert rep.rmse_naive == pytest.approx(np.sqrt((1.0 + 0.25) / 2))
        assert rep.rmse_corrected == pytest.approx(np.sqrt((4.0 + 1.0) / 2))
        # naive CIs (-0.5, 1.5) and (-1, 0.25) both cover 0, and so do the
        # corrected ones, divided by w = 0.5
        assert rep.cov_naive == rep.cov_corrected == rep.cov_corrected_wald == 1.0
        assert rep.mean_w_hat == 0.5 and rep.reps_completed == 2

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
        # population and its sample under prefix (master_seed, i), then the
        # corrected fit
        for kw in ({}, {"fraction": 0.8, "master_seed": 7},
                   {"params": ModelParams(beta2=0.5, x_mean=-1.0, x_sd=0.5)}):
            cell = small_cell(**kw)
            for i in (0, 5):
                prefix = (cell.master_seed, i)
                g = draw_graph(prefix, cell.n_pop, cell.density)
                s = draw_sample(prefix, g, cell.fraction, *populate(prefix, g, cell.params))
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

    def test_covariates_follow_the_law_params_carry(self):
        params = ModelParams(x_mean=-1.0, x_sd=0.5)
        # any graph, not only an Erdos-Renyi draw; N is its vertex count
        for g in (draw_graph((3, 1), 200, 0.05), star(50)):
            x, y = populate((3, 1), g, params)
            s = draw_sample((3, 1), g, 0.3, x, y)
            rng = stream((3, 1), montecarlo.STREAM_COVARIATES)
            assert np.array_equal(x, model.gen_covariates(g.n_vertices, -1.0, 0.5, rng))
            assert np.array_equal(s.x_obs, x[s.sampled_ids])
            assert s.n == round(0.3 * g.n_vertices)

    def test_corrected_is_naive_over_w(self):
        rec = run_replication(small_cell(), 3)
        assert rec.ok
        assert rec.beta2_corrected == pytest.approx(
            rec.beta2_naive / rec.w_hat, rel=1e-15
        )


    def test_hot_path_calls_no_numpy_python_wrapper(self):
        # each of these is a Python frame and a dispatcher call on top of the
        # ndarray method or slice that does the work; an N=10^3 rep is about
        # half fixed per-call cost, so the per-rep path uses the method forms
        denied_anywhere = {"diff", "flatnonzero", "column_stack", "diag"}
        denied_fromnumeric = {"repeat", "searchsorted", "cumsum", "sort"}
        # full and prod are not denied: Generator.choice calls them from
        # compiled code, so the hook sees them called by rns_sample
        calls = set()

        def hook(frame, event, arg):
            caller = frame.f_back
            if event == "call" and caller and caller.f_globals["__name__"].startswith("netpeer"):
                calls.add((caller.f_code.co_name, frame.f_globals.get("__name__", ""),
                           frame.f_code.co_name))

        cell = small_cell(n_pop=1000, density=0.01, fraction=0.2)
        sys.setprofile(hook)
        try:
            rec = run_replication(cell, 0)
        finally:
            sys.setprofile(None)
        assert rec.ok
        # the hook attributes a numpy Python function to its netpeer caller
        assert any(caller == "fit_mle" and name == "lstsq" for caller, _, name in calls)
        wrappers = sorted(
            (caller, f"{module}.{name}") for caller, module, name in calls
            if module.startswith("numpy") and (
                name in denied_anywhere
                or (module.endswith(".fromnumeric") and name in denied_fromnumeric)))
        assert wrappers == []


class TestRunCell:
    def test_worker_invariance(self):
        cell = small_cell()
        rep1, recs1 = run_cell(cell, workers=1)
        rep2, recs2 = run_cell(cell, workers=2)
        assert recs1 == recs2
        assert rep1 == rep2

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_worker_invariance_under_start_method(self, method):
        # a fresh interpreter per method: the start method is set once per process
        code = (
            "import json, multiprocessing, sys\n"
            "from netpeer import model, montecarlo\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "out = {}\n"
            "for fixed in (False, True):\n"
            "    cell = montecarlo.ExperimentCell(300, 0.03, 0.4, model.ModelParams(),\n"
            "                                     reps=40, fixed_graph=fixed)\n"
            "    out[f'fixed_graph={fixed}'] = (\n"
            "        montecarlo.run_cell(cell, workers=2) == montecarlo.run_cell(cell, workers=1))\n"
            "# eval is picklable by name, so a spawned worker can run it\n"
            "out['heap_kept'] = montecarlo._worker_pool(2).submit(\n"
            "    eval, \"__import__('netpeer')._HEAP_KEPT\").result()\n"
            "print(json.dumps(out))\n"
        )
        src = os.path.dirname(os.path.dirname(netpeer.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, method], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        assert json.loads(done.stdout) == {
            "fixed_graph=False": True,
            "fixed_graph=True": True,
            "heap_kept": platform.libc_ver()[0] == "glibc",
        }

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


class _ExitOnUnpickle:
    """Sent to a worker, this ends the worker as it unpickles its task: a killed worker."""

    def __reduce__(self):
        return os._exit, (1,)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestWorkerPool:
    """run_reps keeps one worker pool per process and worker count across calls."""

    def cached(self):
        return montecarlo._pool[1]

    def test_consecutive_calls_equal_serial(self):
        cells = [small_cell(), small_cell(fraction=0.6, master_seed=7, reps=9),
                 small_cell(fixed_graph=True, reps=5)]
        serial = [run_reps(cell, workers=1) for cell in cells]
        previous = []
        for workers in (2, 3, 2):
            pools = set()
            for cell, want in zip(cells, serial):
                assert run_reps(cell, workers=workers) == want
                pools.add(id(self.cached()))
            assert len(pools) == 1
            # the pool of the previous count was shut down and its workers joined
            assert not any(map(_alive, previous))
            previous = list(self.cached()._processes)
            assert len(previous) == workers

    def test_new_count_joins_the_old_pool_before_forking(self, monkeypatch):
        events = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                events.append(("new", max_workers))
                super().__init__(max_workers=max_workers)

            def shutdown(self, *args, **kwargs):
                manager = self._executor_manager_thread
                super().shutdown(*args, **kwargs)
                events.append(("joined", manager is None or not manager.is_alive()))

        montecarlo._drop_pool()
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        cell = small_cell(reps=4)
        run_reps(cell, workers=2)
        run_reps(cell, workers=3)
        assert events == [("new", 2), ("joined", True), ("new", 3)]

    def test_raising_chunk_leaves_pool_usable(self):
        cell = small_cell()
        run_reps(cell, workers=2)
        pool = self.cached()
        # a chunk that raises outside the ComputationError a replication records
        with pytest.raises(AttributeError, match="x_mean"):
            run_reps(dataclasses.replace(cell, params=None), workers=2)
        assert self.cached() is pool
        assert run_reps(cell, workers=2) == run_reps(cell, workers=1)

    def test_killed_worker_raises_and_next_call_forks_anew(self):
        cell = small_cell()
        run_reps(cell, workers=2)
        with pytest.raises(ComputationError, match="worker process ended abruptly"):
            run_reps(dataclasses.replace(cell, params=_ExitOnUnpickle()), workers=2)
        assert montecarlo._pool is None
        assert run_reps(cell, workers=2) == run_reps(cell, workers=1)

    def test_inherited_pool_is_not_used(self):
        class ParentPool:
            """What a forked child finds in the cache: its parent's pool."""

            def __getattr__(self, name):
                raise AssertionError(f"the parent's pool was used ({name})")

        montecarlo._drop_pool()
        montecarlo._pool = ((os.getpid() + 1, 2), ParentPool())
        cell = small_cell()
        assert run_reps(cell, workers=2) == run_reps(cell, workers=1)
        assert montecarlo._pool[0] == (os.getpid(), 2)

    def test_mc_grid_forks_one_pool(self, tmp_path, monkeypatch):
        made = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs)
                super().__init__(*args, **kwargs)

        montecarlo._drop_pool()
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
        argv = ["mc", "--n-pop", "200", "--density", "0.05", "--fraction", "0.3,0.6",
                "--reps", "8", "--seed", "1", "--workers", "2", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert made == [{"max_workers": 2}]

    @pytest.mark.parametrize("fixed_graph", [False, True])
    def test_a_call_submits_about_four_tasks_per_worker(self, monkeypatch, fixed_graph):
        # each task pickles the cell and a fixed graph once, so a task per rep would not do
        submitted = []

        class CountingPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(args)
                return super().submit(*args, **kwargs)

        montecarlo._drop_pool()
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
        cell = small_cell(reps=40, fixed_graph=fixed_graph)
        assert run_reps(cell, workers=2) == run_reps(cell, workers=1)
        assert 1 <= len(submitted) <= 8

    def test_workers_end_with_the_interpreter(self):
        code = ("from netpeer import model, montecarlo\n"
                "cell = montecarlo.ExperimentCell(200, 0.05, 0.3, model.ModelParams(0, 1, 1.5, 1),"
                " reps=8)\n"
                "montecarlo.run_cell(cell, workers=2)\n"
                "print(*montecarlo._pool[1]._processes)\n")
        src = os.path.dirname(os.path.dirname(netpeer.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        pids = [int(tok) for tok in done.stdout.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))


def _second_rep_faults():
    """Minor page faults of an N=10^4 replication run after a warm-up one in this process."""
    cell = ExperimentCell(10_000, 0.01, 0.8, PARAMS, reps=2, master_seed=5)
    run_replication(cell, 0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_replication(cell, 1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


class TestFreedHeapKept:
    """Importing netpeer keeps freed heap in the process, so N=10^4 reps reuse it."""

    glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")

    @glibc
    def test_setting_is_in_effect(self):
        assert netpeer._HEAP_KEPT is True
        # without it a rep faults in about 8,300 pages its predecessor gave back
        assert _second_rep_faults() < 1000

    @glibc
    def test_pool_workers_have_it(self):
        faults = montecarlo._worker_pool(2).submit(_second_rep_faults).result(timeout=120)
        assert faults < 1000

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        class NoMallopt:
            """What ctypes finds where libc has no mallopt, as on macOS."""

        monkeypatch.setattr(ctypes, "CDLL", lambda name: NoMallopt())
        assert netpeer._keep_freed_heap() is False


class TestDrawGraph:
    def test_first_draw_at_the_paper_density(self):
        # draw_graph keeps the first G(N, p) draw of the graph stream, isolated
        # vertices and all: 18 of these 300 draws at N=10^3, p=1% have one
        isolated = 0
        for rep in range(300):
            g = draw_graph((0, rep), 1000, 0.01)
            want = graphmod.generate_er(1000, 0.01, stream((0, rep), STREAM_GRAPH))
            assert g.indices.tobytes() == want.indices.tobytes()
            assert g.offsets.tobytes() == want.offsets.tobytes()
            isolated += not graphmod.degrees(g).all()
        assert isolated == 18

    def test_sparse_regime_draws_once(self, monkeypatch):
        # at N=10^5, p=10^-4 a draw has about N e^-10 = 4.5 isolated vertices,
        # so nearly every draw has one; the replication draws one graph and fits it
        draws = []
        real = graphmod.generate_er

        def recording(n, p, rng):
            draws.append(real(n, p, rng))
            return draws[-1]
        monkeypatch.setattr(graphmod, "generate_er", recording)
        cell = ExperimentCell(100_000, 1e-4, 0.2, PARAMS, reps=1, master_seed=1)
        assert run_replication(cell, 0).ok
        assert len(draws) == 1
        assert not graphmod.degrees(draws[0]).all()


class TestGivenGraph:
    """A graph passed to `run_replication(graph=...)` is fitted as given,
    isolated vertices and all."""

    # at N=200, p=3% and seed 42, 5 of the 12 first draws have an isolated vertex
    CELL = small_cell(density=0.03)

    def first_draw(self, rep):
        rng = stream((self.CELL.master_seed, rep), STREAM_GRAPH)
        return graphmod.generate_er(self.CELL.n_pop, self.CELL.density, rng)

    def test_isolated_vertex_is_kept(self):
        draws = {i: self.first_draw(i) for i in range(self.CELL.reps)}
        isolated = [i for i, g in draws.items() if graphmod.degrees(g).min() == 0]
        assert isolated == [1, 3, 4, 8, 10]
        for i in isolated:
            rec = run_replication(self.CELL, i, graph=draws[i])
            assert rec.ok and rec.rep_index == i
            # the rep's own draw is the same graph
            assert rec == run_replication(self.CELL, i)


class TestCellValidation:
    @pytest.mark.parametrize("field, value", [
        ("x_mean", np.nan), ("x_mean", -np.inf), ("x_sd", 0.0), ("x_sd", np.inf),
        ("x_sd", np.nan),
    ])
    def test_bad_covariate_law(self, field, value):
        # the law is part of the cell's process, which rejects it before the cell exists
        with pytest.raises(ValidationError, match=field):
            small_cell(params=ModelParams(**{field: value}))

    def test_bad_density(self):
        for density in (0.0, 1.0, 1.5):
            with pytest.raises(ValidationError, match=r"^edge density must be in \(0, 1\)$"):
                small_cell(density=density)

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            small_cell(fraction=0.0)
        with pytest.raises(ValidationError):
            small_cell(fraction=1.2)

    def test_bad_reps(self):
        with pytest.raises(ValidationError):
            small_cell(reps=0)
        with pytest.raises(ValidationError, match="reps"):
            small_cell(reps=MAX_REPS + 1)

    @pytest.mark.parametrize("workers", [0, MAX_WORKERS + 1])
    def test_bad_workers_before_any_draw(self, monkeypatch, workers):
        def no_draw(*args, **kwargs):
            raise AssertionError("a graph was drawn")
        monkeypatch.setattr(graphmod, "generate_er", no_draw)
        with pytest.raises(ValidationError, match="workers"):
            run_reps(small_cell(fixed_graph=True), workers=workers)

    def test_expected_edges_above_max_edges(self):
        with pytest.raises(ValidationError, match="expected edge count"):
            small_cell(n_pop=10**7, density=0.5)

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            small_cell(master_seed=-1)

    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    def test_numpy_integer_population_size(self, kind):
        cell = small_cell(n_pop=kind(1000), density=0.01, fraction=0.2, reps=3)
        assert type(cell.n_pop) is int
        want = run_cell(small_cell(n_pop=1000, density=0.01, fraction=0.2, reps=3))
        assert run_cell(cell) == want

    def test_float_population_size(self):
        with pytest.raises(ValidationError, match="must be an integer"):
            small_cell(n_pop=1000.0)

    def test_population_too_small_or_fractional(self):
        # the fit's floor of 4 sampled units is the population's floor too
        with pytest.raises(ValidationError, match="sample size below 4"):
            small_cell(n_pop=1)
        with pytest.raises(ValidationError, match="must be an integer"):
            small_cell(n_pop=1.5)

    def test_float_reps(self):
        # 2.0 is in range, and range(2.0) would fail in run_cell
        with pytest.raises(ValidationError, match="reps must be an integer"):
            small_cell(reps=2.0)

    def test_float_seed(self):
        # stream() would truncate 1.5 and run seed 1's streams
        with pytest.raises(ValidationError, match="master_seed must be an integer"):
            small_cell(master_seed=1.5)

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
        write_records_csv(recs, out)
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
        write_records_csv(recs, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [12, 12, 12]
        assert rows[0][9:] == ["ci_corrected_wald_lo", "ci_corrected_wald_hi", "error"]
        assert rows[1][9:] == ["1.25", "2.75", ""]
        assert rows[2] == ["1", "0"] + [""] * 9 + ["no graph (n=3, p=0.1); retry"]
