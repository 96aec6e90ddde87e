import importlib.util
import json
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


def test_every_run_exports_its_revision_to_one_path_and_removes_it(monkeypatch, tmp_path):
    # a fake export writes the revision's name into the directory, a fake run
    # reads it: both sides run from one path, each from its own fresh copy
    spec = {"run_seconds": 3, "end_to_end": [{"name": n, "better": b} for n, b in BETTER.items()]}
    answers = {"show": json.dumps(spec), "rev-parse": "abc123", "log": "the change"}
    monkeypatch.setattr(bench_pairs, "git", lambda *args: answers[args[0]])

    def export(rev, dest):
        assert not dest.exists()
        dest.mkdir()
        (dest / "REV").write_text(rev)

    roots = []

    def run_once(root, side, workload, seed, seconds):
        roots.append(root)
        assert (root / "REV").read_text() == {"parent": "p-rev", "change": "c-rev"}[side]
        assert (workload, seconds) == ("w", 3)
        return {"side": side, "seed": seed, "job_p90_s": 1.0 if side == "parent" else 0.5,
                "jobs_per_s": 2.0}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    argv = ["p-rev", "c-rev", "--workload", "w", "--pairs", "3", "--seeds", "5-7", "--name", "t"]
    assert bench_pairs.main(argv) == 0
    assert len(roots) == 6 and len(set(roots)) == 1 and not roots[0].parent.exists()
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    runs = bench["workloads"]["w"]["runs"]
    assert [r["side"] for r in runs] == ["parent", "change", "change", "parent", "parent", "change"]
    assert [r["seed"] for r in runs] == [5, 5, 6, 6, 7, 7]
    assert bench["workloads"]["w"]["summary"]["job_p90_s"]["change_wins"] == "3/3"
    assert bench["parent_commit"] == "abc123" and bench["change"] == "the change"
    assert "one path" in bench["machine"]
