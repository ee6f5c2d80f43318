"""The paper record: its analytic half re-derived, its one claim list, and
the one command that runs it (``python -m repro fig2``)."""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.data.synth_mnist import SynthMNISTConfig
from repro.experiments import paper

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))  # bench_paper imports `common` by bare name

import bench_paper  # noqa: E402


def committed() -> dict:
    return json.loads((ROOT / "REPRO.json").read_text())


def committed_record() -> dict:
    record = committed()
    return {"analytic": record["analytic"], "trained": record["trained"]}


def paper_record() -> dict:
    """The committed record with every Fig. 2 bar set to the paper's value."""
    record = copy.deepcopy(committed_record())
    bars = record["analytic"]["fig2_throughput_ips"]
    for bar in [*bars.values(), *record["trained"]["fig2"]["accuracy_pct"].values()]:
        bar["reproduced"] = bar["paper"]
    speedup, ht = record["analytic"]["ht_speedup"], bars["fluid/master_and_worker/HT"]["paper"]
    speedup["vs_static"]["reproduced"] = ht / bars["static/master_and_worker/HA"]["paper"]
    speedup["vs_dynamic"]["reproduced"] = ht / bars["dynamic/master_and_worker/HT"]["paper"]
    return record


def verdicts_by_name(record: dict) -> dict:
    return {v.claim.name: v for v in paper.check_claims(record)}


@pytest.fixture(scope="module")
def analytic():
    return paper.analytic_facts()


class TestAnalyticHalf:
    """The analytic half of ``REPRO.json``: the calibrated model's Fig. 2."""

    def test_analytic_block_regenerates(self, analytic):
        assert analytic == committed()["analytic"]

    def test_eleven_bars_match_the_paper(self, analytic):
        bars = analytic["fig2_throughput_ips"]
        assert len(bars) == 11
        for key, bar in bars.items():
            if key.endswith("/failed"):
                assert bar["reproduced"] == 0.0 == bar["paper"], key
            else:
                assert bar["reproduced"] == pytest.approx(bar["paper"], rel=0.005), key
        # Static loses everything on any failure; Dynamic only the worker-only case.
        assert sorted(k for k in bars if k.endswith("/failed")) == [
            "dynamic/only_worker/failed",
            "static/only_master/failed",
            "static/only_worker/failed",
        ]

    def test_headline_speedups(self, analytic):
        for ratio in analytic["ht_speedup"].values():
            assert ratio["reproduced"] == pytest.approx(ratio["paper"], rel=0.02)

    def test_speedup_is_fluid_ht_over_the_baseline_bar(self, analytic):
        bars = {k: bar["reproduced"] for k, bar in analytic["fig2_throughput_ips"].items()}
        speedup = analytic["ht_speedup"]
        ht = bars["fluid/master_and_worker/HT"]
        assert speedup["vs_static"]["reproduced"] == ht / bars["static/master_and_worker/HA"]
        assert speedup["vs_dynamic"]["reproduced"] == ht / bars["dynamic/master_and_worker/HT"]
        # On the paper's own bars the two ratios are 28.3 / 11.1 and 28.3 / 14.4.
        paper_speedup = paper_record()["analytic"]["ht_speedup"]
        assert paper_speedup["vs_static"]["reproduced"] == pytest.approx(28.3 / 11.1)
        assert paper_speedup["vs_dynamic"]["reproduced"] == pytest.approx(28.3 / 14.4)

    def test_link_cost_hurts_ha_and_never_ht(self, analytic):
        rows = analytic["ablations"]["comm_latency"]
        ha, ht = [r["ha"] for r in rows], [r["ht"] for r in rows]
        assert all(a > b for a, b in zip(ha, ha[1:]))
        assert ht == pytest.approx([ht[0]] * len(ht))
        # Even a free link does not let HA catch a lone 50% model.
        assert rows[0]["scale"] == 0.0 and rows[0]["ha"] < rows[0]["solo"]

    def test_balanced_split_is_best_and_the_curve_is_unimodal(self, analytic):
        by_split = analytic["ablations"]["partition_split_ha_ips"]
        series = [by_split[str(s)] for s in paper.SPLITS]
        peak = series.index(max(series))
        assert paper.SPLITS[peak] == 8
        assert series[: peak + 1] == sorted(series[: peak + 1])
        assert series[peak:] == sorted(series[peak:], reverse=True)

    def test_width_partitioning_beats_depth_and_fits_the_device(self, analytic):
        rows = analytic["ablations"]["width_vs_depth_ips"]
        assert rows["width_ha"] > rows["depth_sequential_best"]
        assert rows["depth_sequential_best"] < rows["depth_pipelined_best"] < rows["width_ht"]
        assert rows["depth_survives_single_failure"] is False
        memory = analytic["ablations"]["worker_memory_params"]
        assert memory["fluid_worker"] <= memory["capacity"] < memory["disjoint_worker"]

    def test_record_carries_its_environment(self):
        record = committed()
        assert {"cores", "blas", "numpy", "python", "commit"} <= set(record["env"])
        assert set(record["trained"]["fig2"]["accuracy_pct"]) == set(
            record["analytic"]["fig2_throughput_ips"]
        )


class TestClaims:
    def test_each_claim_is_named_once(self):
        names = [claim.name for claim in paper.CLAIMS]
        assert len(names) == len(set(names)) == 19
        assert all(claim.band for claim in paper.CLAIMS)

    def test_the_committed_record_passes_every_claim(self):
        failures = [v for v in paper.check_claims(committed_record()) if not v.passed]
        assert not failures, failures

    def test_paper_numbers_pass_all_checks(self):
        failures = [v for v in paper.check_claims(paper_record()) if not v.passed]
        assert not failures, failures

    def test_broken_reliability_is_caught(self):
        record = paper_record()
        record["analytic"]["fig2_throughput_ips"]["fluid/only_worker/solo"]["reproduced"] = 0.0
        by_name = verdicts_by_name(record)
        assert not by_name["fluid survives either device death"].passed
        assert [v.claim.name for v in by_name.values() if not v.passed] == [
            "fluid survives either device death"
        ]

    def test_full_width_and_per_bar_bands_are_separate_claims(self):
        record = paper_record()
        record["trained"]["fig2"]["accuracy_pct"]["static/master_and_worker/HA"][
            "reproduced"
        ] = 94.0  # below 95 for a full-width model, above 93 for a bar
        by_name = verdicts_by_name(record)
        assert not by_name["all full-width models >= 95%"].passed
        assert by_name["every Fig. 2 bar >= 93%"].passed
        record["trained"]["fig2"]["accuracy_pct"]["static/only_master/failed"][
            "reproduced"
        ] = 1.0  # a failed bar must score exactly 0
        by_name = verdicts_by_name(record)
        assert not by_name["every Fig. 2 bar >= 93%"].passed
        assert "static/only_master/failed=1.0" in by_name["every Fig. 2 bar >= 93%"].detail

    def test_a_claim_whose_fact_is_missing_fails(self):
        record = committed_record()
        del record["trained"]["ablations"]
        by_name = verdicts_by_name(record)
        assert not by_name["one-shot schedule trains upper50"].passed
        assert "no 'ablations'" in by_name["one-shot schedule trains upper50"].detail
        assert by_name["static lower25 at chance"].passed


class TestReport:
    def test_table_includes_every_cell(self):
        table = paper.format_fig2_table(paper_record())
        for family in ("static", "dynamic", "fluid"):
            assert family in table
        assert "28.3" in table and "2.55x" in table
        assert len(table.splitlines()) == 2 + 11 + 2

    def test_table_sets_each_bar_beside_the_papers(self):
        header = paper.format_fig2_table(paper_record()).splitlines()[0]
        assert "paper thr" in header and "paper acc" in header

    def test_report_prints_every_claim_once(self):
        record = paper_record()
        text = paper.format_report(record, paper.check_claims(record))
        assert text.count("[PASS]") == len(paper.CLAIMS)
        assert "[PASS] static fails on any single-device failure: " in text
        assert "fluid_two_subnets" in text and "2500 train / 600 test" in text


class TestOnTinyTrainedModels:
    """The claims that read only Fig. 2 bars, on the session's tiny models."""

    def test_reliability_shape_holds_end_to_end(self, tiny_record):
        verdicts = paper.check_claims(tiny_record)
        reliability = [v for v in verdicts if "survives" in v.claim.name or "fails" in v.claim.name]
        assert len(reliability) == 3
        assert all(v.passed for v in reliability), reliability

    def test_throughput_and_reliability_claims_pass(self, tiny_record):
        # Reliability + throughput-ratio claims must pass even with tiny
        # training; the accuracy bands are gated on the full recipe.
        for verdict in paper.check_claims(tiny_record)[:6]:
            assert verdict.passed, verdict

    def test_table_renders(self, tiny_record):
        table = paper.format_fig2_table(tiny_record)
        assert "fluid" in table and "28.3" in table and "paper" in table


class TestTheOneCommand:
    """``python -m repro fig2`` runs the record's recipe and claim list."""

    def test_fig2_prints_every_claim_and_exits_on_a_fail(self, monkeypatch, capsys):
        # The same recipe on fewer images: the claims' verdicts are not the
        # record's, only their printing and the exit code are under test.
        monkeypatch.setattr(paper, "FIG2_DATA", SynthMNISTConfig(num_train=64, num_test=32, seed=0))
        monkeypatch.setattr(
            paper, "ABLATION_DATA", SynthMNISTConfig(num_train=64, num_test=32, seed=2)
        )
        code = cli.main(["fig2"])
        out = capsys.readouterr().out
        assert "Fig. 2 (64 train / 32 test images, seed 7)" in out
        statuses = []
        for claim in paper.CLAIMS:
            printed = re.findall(rf"^\[(PASS|FAIL)\] {re.escape(claim.name)}: ", out, re.M)
            assert len(printed) == 1, claim.name
            statuses += printed
        assert len(re.findall(r"^\[(?:PASS|FAIL)\] ", out, re.M)) == len(paper.CLAIMS)
        assert (code != 0) == ("FAIL" in statuses)

    @pytest.mark.parametrize("record,code", [(committed_record(), 0), (paper_record(), 0)])
    def test_exit_code_follows_the_claims(self, monkeypatch, capsys, record, code):
        monkeypatch.setattr(cli, "reproduce", lambda: (record, paper.check_claims(record)))
        assert cli.main(["fig2"]) == code
        assert "[FAIL]" not in capsys.readouterr().out
        broken = copy.deepcopy(record)
        del broken["trained"]["ablations"]["subnet_accuracy"]["dynamic_only"]
        monkeypatch.setattr(cli, "reproduce", lambda: (broken, paper.check_claims(broken)))
        assert cli.main(["fig2"]) == 1
        assert "[FAIL] dynamic-only training leaves upper50 at chance: " in capsys.readouterr().out


class TestBenchPaper:
    """``benchmarks/bench_paper.py`` gates on the claims and writes the record."""

    def test_writes_the_record_with_its_payload_keys(self, monkeypatch, tmp_path, capsys):
        record = committed_record()
        monkeypatch.setattr(bench_paper, "reproduce", lambda: (record, paper.check_claims(record)))
        monkeypatch.setattr(bench_paper, "RECORD_PATH", tmp_path / "REPRO.json")
        assert bench_paper.main([]) == 0
        written = json.loads((tmp_path / "REPRO.json").read_text())
        assert list(written) == list(committed()) == ["benchmark", "env", "analytic", "trained"]
        assert written["benchmark"] == "benchmarks/bench_paper.py"
        assert {k: written[k] for k in ("analytic", "trained")} == record

    def test_a_failed_claim_writes_nothing(self, monkeypatch, tmp_path, capsys):
        record = paper_record()
        record["analytic"]["ht_speedup"]["vs_static"]["reproduced"] = 1.0
        monkeypatch.setattr(bench_paper, "reproduce", lambda: (record, paper.check_claims(record)))
        monkeypatch.setattr(bench_paper, "RECORD_PATH", tmp_path / "REPRO.json")
        assert bench_paper.main([]) == 1
        assert not (tmp_path / "REPRO.json").exists()
        assert "NOT REPRODUCED:\n  fluid HT ~2.5x static: measured 1.00x" in capsys.readouterr().out


class TestReadmeClaims:
    def test_readme_lists_exactly_the_claims_in_order(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## The paper's claims\n", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
        listed = [row.split("|")[1].strip().strip("`") for row in rows]
        assert listed == [claim.name for claim in paper.CLAIMS]
        bands = [row.split("|")[2].strip() for row in rows]
        assert bands == [claim.band for claim in paper.CLAIMS]
