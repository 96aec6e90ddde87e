import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"job_p90_s": "lower", "jobs_per_s": "higher"}


def _runs(parent, change, rate_parent, rate_change):
    """Alternating runs of seeds 1, 2, ..., the parent first in even pairs."""
    runs = []
    for i, values in enumerate(zip(parent, change, rate_parent, rate_change)):
        p90_p, p90_c, rate_p, rate_c = values
        pair = [
            {"side": "parent", "seed": i + 1, "job_p90_s": p90_p, "jobs_per_s": rate_p},
            {"side": "change", "seed": i + 1, "job_p90_s": p90_c, "jobs_per_s": rate_c},
        ]
        runs += pair if i % 2 == 0 else pair[::-1]
    return runs


def test_summary_takes_inclusive_quartiles_and_counts_wins_by_seed():
    parent = [0.030, 0.034, 0.026, 0.038, 0.028, 0.032, 0.036, 0.027, 0.033, 0.029]
    change = [0.021, 0.023, 0.020, 0.027, 0.019, 0.035, 0.022, 0.020, 0.024, 0.021]
    rates = [50.0] * 10
    summary = bench_pairs.summarize(_runs(parent, change, rates, [51.0] * 9 + [49.0]), BETTER)
    p90 = summary["job_p90_s"]
    assert p90["better"] == "lower"
    assert p90["parent"] == pytest.approx({"median": 0.031, "q1": 0.02825, "q3": 0.03375})
    assert p90["change"]["median"] == pytest.approx(0.0215)
    assert p90["change_wins"] == "9/10"  # pair 6: 0.035 against 0.032
    assert summary["jobs_per_s"]["change_wins"] == "9/10"  # higher is better
    claim = bench_pairs.claim_of(summary, "naimark-deep", "job_p90_s")
    assert claim["met"] and claim["change_wins"] == "9/10"
    assert claim["parent_iqr"] == pytest.approx(0.0055)
    assert claim["parent_median"] - claim["change_median"] == pytest.approx(0.0095)


def test_a_claim_fails_on_too_few_wins_or_a_gap_inside_the_parent_spread():
    parent = [0.030, 0.034, 0.026, 0.038, 0.028, 0.032, 0.036, 0.027, 0.033, 0.029]
    rates = [50.0] * 10
    slightly = [x - 0.001 for x in parent]  # 10/10 wins, gap 0.001 < IQR
    summary = bench_pairs.summarize(_runs(parent, slightly, rates, rates), BETTER)
    assert summary["job_p90_s"]["change_wins"] == "10/10"
    assert not bench_pairs.claim_of(summary, "w", "job_p90_s")["met"]
    assert summary["jobs_per_s"]["change_wins"] == "0/10"  # ties are not wins
    mixed = [x - 0.02 if i < 8 else x + 0.01 for i, x in enumerate(parent)]  # 8/10
    summary = bench_pairs.summarize(_runs(parent, mixed, rates, rates), BETTER)
    assert not bench_pairs.claim_of(summary, "w", "job_p90_s")["met"]


def test_an_unpaired_run_is_left_out_and_seed_ranges_parse():
    runs = _runs([0.03, 0.04], [0.02, 0.05], [1.0, 1.0], [2.0, 2.0])
    runs.append({"side": "parent", "seed": 9, "job_p90_s": 9.0, "jobs_per_s": 9.0})
    summary = bench_pairs.summarize(runs, BETTER)
    assert summary["job_p90_s"]["change_wins"] == "1/2"
    assert summary["job_p90_s"]["parent"]["median"] == pytest.approx(0.035)
    assert bench_pairs._seed_range("9401-9404") == range(9401, 9405)
    assert bench_pairs._seed_range("7") == range(7, 8)
