"""tools/bench_pairs.py summarizes alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "gap", "better": "higher", "bound": 0.1}]


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, pair, wall, gap=1.0, workload="w", correct=True, failed=0):
    return {"side": side, "workload": workload, "pair": pair, "exit": 0,
            "result": {"correct": correct, "attempted": 4, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "gap": {"value": gap, "unit": "ratio"}}}}


def test_summary_of_synthetic_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 4.0]
    runs = ([_run("parent", k + 1, w, gap=2.0) for k, w in enumerate(parent)]
            + [_run("change", k + 1, w, gap=1.5) for k, w in enumerate(change)])
    s = _load().summarize(runs, END_TO_END)["w"]
    wall = s["wall_s"]
    assert wall["parent_median"] == 3.0 and wall["change_median"] == 2.5
    assert wall["parent_quartiles"] == [2.0, 4.0]     # inclusive method
    assert wall["change_quartiles"] == [2.0, 3.0]
    assert wall["parent_iqr"] == 2.0
    assert wall["pairs"] == 5 and wall["change_better_pairs"] == 4
    assert wall["median_change_rel"] == pytest.approx(-1 / 6)
    assert wall["within_bound"]
    assert wall["parent_values"] == parent and wall["change_values"] == change
    # higher is better: a 25% drop is worse than its 10% bound
    gap = s["gap"]
    assert gap["median_change_rel"] == pytest.approx(-0.25)
    assert gap["change_better_pairs"] == 0 and not gap["within_bound"]
    assert s["parent"] == {"runs": 5, "all_correct": True, "failed": 0,
                           "attempted": 20}


def test_summary_counts_failures_and_missing_results():
    runs = [_run("parent", 1, 1.0), _run("change", 1, 1.5, failed=1,
                                         correct=False),
            _run("parent", 2, 1.0), _run("change", 2, 1.0),
            _run("parent", 3, 1.0, workload="v"),
            dict(_run("change", 3, 0.0, workload="v"), exit=1, result=None)]
    s = _load().summarize(runs, END_TO_END)
    assert list(s) == ["w", "v"]
    w = s["w"]
    assert w["change"] == {"runs": 2, "all_correct": False, "failed": 1,
                           "attempted": 8}
    assert w["wall_s"]["median_change_rel"] == pytest.approx(0.25)
    assert w["wall_s"]["within_bound"]
    # a pair with one side missing is left out of the metrics
    assert "wall_s" not in s["v"]
    assert s["v"]["change"]["all_correct"] is False


def _single(side, case, wall, cpu, rss, exit=0):
    return {"side": side, "case": case, "exit": exit, "wall_s": wall,
            "cpu_s": cpu, "peak_rss_mib": rss, "stderr_tail": []}


def test_summary_of_single_runs():
    runs = [_single("parent", "eggbox@128", 3.0, 4.0, 200.0),
            _single("change", "eggbox@128", 2.0, 3.0, 190.0),
            _single("change", "miura@256", 40.0, 50.0, 2900.0),
            _single("parent", "miura@256", 50.0, 60.0, 3000.0),
            _single("parent", "eggbox@128", 5.0, 6.0, 210.0),
            _single("change", "eggbox@128", 4.0, 5.0, 200.0, exit=1)]
    s = _load().summarize_single(runs)
    assert list(s) == ["eggbox@128", "miura@256"]
    egg = s["eggbox@128"]
    # a case listed twice gives two runs a side, summarized by medians
    assert egg["parent"] == {"runs": 2, "exits": [0, 0], "wall_s": 4.0,
                             "cpu_s": 5.0, "peak_rss_mib": 205.0}
    assert egg["change"]["exits"] == [0, 1] and egg["change"]["wall_s"] == 3.0
    assert egg["wall_s_rel"] == pytest.approx(-0.25)
    assert egg["cpu_s_rel"] == pytest.approx(-0.2)
    assert egg["peak_rss_mib_rel"] == pytest.approx(-10 / 205)
    assert s["miura@256"]["wall_s_rel"] == pytest.approx(-0.2)


def test_single_run_reads_the_childs_rusage(tmp_path):
    # a stand-in package whose CLI holds 64 MiB and exits 3: the rusage is
    # the child's own, not the calling process's
    pkg = tmp_path / "src" / "corruga"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "import sys\n"
        "assert sys.argv[1:4] == ['analyze', '--surface', 'eggbox']\n"
        "assert sys.argv[4:6] == ['--resolution', '12']\n"
        "block = bytearray(64 << 20)\n"
        "print('half done', file=sys.stderr)\n"
        "sys.exit(3)\n")
    run = _load().run_single(tmp_path, "eggbox@12")
    assert run["exit"] == 3 and run["stderr_tail"] == ["half done"]
    assert run["peak_rss_mib"] >= 64
    assert run["cpu_s"] > 0 and run["wall_s"] >= run["cpu_s"] / 4


@pytest.mark.parametrize("case", ["eggbox", "eggbox@", "@64", "a@b@c"])
def test_single_cases_must_name_surface_and_resolution(tmp_path, case):
    (tmp_path / "BENCHMARK.json").write_text("{}")
    with pytest.raises(SystemExit):
        _load().parse_args(["--parent", str(tmp_path), "--change",
                            str(tmp_path), "--label", "x", "--single", case])
