"""Output checks that recompute the program's results independently.

Monte Carlo records are serialised field by field into a canonical line
(floats as hex) so that digests compare bit patterns. The CLI outputs are
re-parsed with this module's own readers and compared with oracles: the
induced subgraph rebuilt from the population files, a normal-equations
solve, the degree-ratio formula and the witness closed form.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

RECORD_FIELDS = (
    "rep_index", "ok", "beta2_naive", "beta2_corrected",
    "ci_naive", "ci_corrected", "w_hat", "var_corrected",
)


def _canon(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    return repr(value)


def record_line(rec) -> str:
    """Canonical text of one RepRecord; a missing field reads `absent`."""
    return "|".join(_canon(getattr(rec, f, "absent")) for f in RECORD_FIELDS)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _close(a, b, rel=1e-9, abs_=1e-12) -> bool:
    return a == b or math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def record_problems(rec, rep_index: int) -> list:
    """Internal consistency of one replication record."""
    where = f"rep {rep_index}"
    if rec.rep_index != rep_index:
        return [f"{where}: record carries rep_index {rec.rep_index}"]
    if not rec.ok:
        return []
    values = (rec.beta2_naive, rec.beta2_corrected, rec.w_hat, rec.var_corrected,
              *rec.ci_naive, *rec.ci_corrected)
    if not all(math.isfinite(v) for v in values):
        return [f"{where}: non-finite value in record"]
    problems = []
    if not 0.0 < rec.w_hat <= 1.0:
        problems.append(f"{where}: w_hat {rec.w_hat} outside (0, 1]")
    if not rec.ci_naive[0] <= rec.beta2_naive <= rec.ci_naive[1]:
        problems.append(f"{where}: naive CI does not contain the naive estimate")
    if not rec.ci_corrected[0] <= rec.beta2_corrected <= rec.ci_corrected[1]:
        problems.append(f"{where}: corrected CI does not contain the corrected estimate")
    if not _close(rec.beta2_corrected, rec.beta2_naive / rec.w_hat, rel=1e-12):
        problems.append(f"{where}: beta2_corrected != beta2_naive / w_hat")
    if not rec.var_corrected > 0:
        problems.append(f"{where}: non-positive var_corrected")
    return problems


def recompute_report(records, beta2: float) -> dict:
    """CellReport fields recomputed from records with exact summation."""
    done = [r for r in records if r.ok]
    n = len(done)
    naive = [r.beta2_naive for r in done]
    corr = [r.beta2_corrected for r in done]
    return {
        "rb_naive": (math.fsum(naive) / n - beta2) / beta2,
        "rb_corrected": (math.fsum(corr) / n - beta2) / beta2,
        "rmse_naive": math.sqrt(math.fsum((v - beta2) ** 2 for v in naive) / n),
        "rmse_corrected": math.sqrt(math.fsum((v - beta2) ** 2 for v in corr) / n),
        "cov_naive": sum(r.ci_naive[0] <= beta2 <= r.ci_naive[1] for r in done) / n,
        "cov_corrected": sum(
            r.ci_corrected[0] <= beta2 <= r.ci_corrected[1] for r in done
        ) / n,
        "mean_w_hat": math.fsum(r.w_hat for r in done) / n,
        "reps_completed": n,
        "reps_failed": len(records) - n,
    }


def report_problems(report, records, beta2: float) -> list:
    """Compare a CellReport with the recomputation from its records."""
    if not any(r.ok for r in records):
        return ["no completed replication to summarise"]
    expected = recompute_report(records, beta2)
    return [
        f"CellReport.{key} = {getattr(report, key, None)!r}, recomputed {want!r}"
        for key, want in expected.items()
        if not isinstance(getattr(report, key, None), (int, float))
        or not _close(getattr(report, key), want)
    ]


# ---- CLI file chain -------------------------------------------------------

def _read_edges(path):
    n, edges = None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# vertices="):
                n = int(line.split("=", 1)[1])
            elif line and not line.startswith("#"):
                j, k = line.split(",")
                edges.append((int(j), int(k)))
    return n, edges


def _read_rows(path, header):
    with open(path) as fh:
        if fh.readline().strip() != header:
            raise ValueError(f"{path}: unexpected header")
        return [line.strip().split(",") for line in fh if line.strip()]


def _degrees(n, edges):
    deg = [0] * n
    for j, k in edges:
        deg[j] += 1
        deg[k] += 1
    return deg


def chain_problems(out: str, resampled: str, fraction: float, beta2: float) -> list:
    """Check one `simulate -> sample -> fit -> diagnostics -> identify-demo` chain.

    `out` holds the simulate, fit, diagnostics and identify-demo outputs;
    `resampled` holds the `sample` command's output, on which fit and
    diagnostics ran.
    """
    problems = []
    pop = _read_rows(os.path.join(out, "population.csv"), "unit_id,x,y")
    n_pop, g_edges = _read_edges(os.path.join(out, "graph.edges"))
    rows = _read_rows(os.path.join(resampled, "sample.csv"), "unit_id,d_true,d_obs,x,y")
    n_s, s_edges = _read_edges(os.path.join(resampled, "sample.edges"))
    ids = [int(r[0]) for r in rows]
    d_true = [int(r[1]) for r in rows]
    d_obs = [int(r[2]) for r in rows]
    x = [float(r[3]) for r in rows]
    y = [float(r[4]) for r in rows]

    # the sample must be the subgraph of graph.edges induced on the sampled ids
    if len(pop) != n_pop or [int(r[0]) for r in pop] != list(range(n_pop)):
        problems.append("population.csv does not list units 0..N-1")
    if len(ids) != math.floor(fraction * n_pop + 0.5) or n_s != len(ids):
        problems.append("sample size differs from round(f * N)")
    if ids != sorted(set(ids)):
        problems.append("sampled ids not strictly ascending")
    if problems:
        return problems
    local = {u: i for i, u in enumerate(ids)}
    induced = sorted(
        (local[j], local[k]) for j, k in g_edges if j in local and k in local
    )
    if sorted(s_edges) != induced:
        problems.append("sample.edges is not the induced subgraph of graph.edges")
    pop_deg = _degrees(n_pop, g_edges)
    if d_true != [pop_deg[u] for u in ids]:
        problems.append("d_true differs from degrees in graph.edges")
    if d_obs != _degrees(n_s, s_edges):
        problems.append("d_obs differs from degrees in sample.edges")
    if x != [float(pop[u][1]) for u in ids] or y != [float(pop[u][2]) for u in ids]:
        problems.append("sample x/y differ from population.csv")

    # normal equations on (1, x_j, mean of x over sampled neighbours), d_obs > 0
    nbr_sum = [0.0] * n_s
    for j, k in s_edges:
        nbr_sum[j] += x[k]
        nbr_sum[k] += x[j]
    used = [i for i in range(n_s) if d_obs[i] > 0]
    X = np.array([[1.0, x[i], nbr_sum[i] / d_obs[i]] for i in used])
    Y = np.array([y[i] for i in used])
    beta = np.linalg.solve(X.T @ X, X.T @ Y)
    w_hat = (math.fsum(1.0 / d_true[i] for i in used)
             / math.fsum(1.0 / d_obs[i] for i in used))
    with open(os.path.join(out, "fit.json")) as fh:
        fit = json.load(fh)
    with open(os.path.join(out, "diagnostics.json")) as fh:
        diag = json.load(fh)
    if not np.allclose(fit["beta_hat"], beta, rtol=1e-8, atol=1e-10):
        problems.append(f"fit.json beta {fit['beta_hat']} != normal equations {beta.tolist()}")
    if fit["n_used"] != len(used) or fit["dropped"] != n_s - len(used):
        problems.append("fit.json n_used/dropped disagree with d_obs")
    for label, value in (("fit.json", fit["w_hat"]), ("diagnostics.json", diag["w_hat"])):
        if value is None or not _close(value, w_hat, rel=1e-12):
            problems.append(f"{label} w_hat {value} != sum(1/d)/sum(1/d^R) {w_hat}")
    if not _close(fit["beta2_corrected"], fit["beta_hat"][2] / fit["w_hat"], rel=1e-12):
        problems.append("fit.json beta2_corrected != beta2_naive / w_hat")

    with open(os.path.join(out, "witness.json")) as fh:
        wit = json.load(fh)
    if wit.get("verdict") != "NOT_IDENTIFIED_WITNESS_FOUND":
        return problems + [f"identify-demo verdict {wit.get('verdict')!r}"]
    if wit["compatible_a"] is not True or wit["compatible_b"] is not True:
        problems.append("witness completions not both compatible")
    gap = beta2 * (1.0 / wit["d_j"] - 1.0 / wit["d_l"]) * (wit["x_u1"] - wit["x_u2"])
    if wit["d_j"] == wit["d_l"] or not _close(wit["mean_sum_gap"], gap, rel=1e-12):
        problems.append(f"witness mean_sum_gap {wit['mean_sum_gap']} != closed form {gap}")
    if not wit["likelihood_gap"] > 0:
        problems.append("witness likelihood_gap is not positive")
    return problems


def chain_digest(out: str, resampled: str) -> str:
    """SHA-256 over the chain's result files (run_config.txt names paths, so skip it)."""
    h = hashlib.sha256()
    for path in (
        os.path.join(out, "sample.csv"), os.path.join(resampled, "sample.csv"),
        os.path.join(out, "fit.json"), os.path.join(out, "diagnostics.json"),
        os.path.join(out, "witness.json"),
    ):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
