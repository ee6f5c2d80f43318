"""Tests for the command-line interface."""

import ast
import re
import shlex
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.synth_mnist import SynthMNISTConfig, load_synth_mnist
from repro.experiments import paper
from repro.nn.checkpoint import load_state
from repro.training.recipes import train_family
from repro.utils.rng import make_rng
from repro.tuning.artifact import read_tuned_config

README = Path(__file__).resolve().parents[1] / "README.md"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "flag", ["--seed=1", "--train-size=600", "--epochs=2", "--niters=1", "--lr=0.1"]
    )
    def test_train_args(self, flag, capsys):
        """``train`` runs the paper record's one recipe: no flag changes it."""
        args = build_parser().parse_args(["train", "--family", "fluid", "--out", "m.npz"])
        assert (args.family, args.out) == ("fluid", "m.npz")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--family", "fluid", "--out", "m.npz", flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed=1", "--test-size=200"])
    def test_evaluate_args(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--family", "fluid", "--weights", "m", flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--family", "quantum", "--out", "x"])

    def test_dist_tears_its_engines_down(self, capsys):
        """Each ``repro dist`` variant ends with ``engine.shutdown()``: no
        dispatch lane outlives the command."""

        def lanes():
            return {t for t in threading.enumerate() if t.name.startswith("engine-dispatch-")}

        before = lanes()
        assert main(["dist", "--mode", "ha", "--batch", "2", "--batches", "1"]) == 0
        assert "bitwise parity: True" in capsys.readouterr().out
        assert not lanes() - before

    def test_bad_failure_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--family", "fluid", "--fail", "worker-10"])

    def test_dtype_policy_flag(self):
        args = build_parser().parse_args(
            ["--dtype-policy", "float32", "calibration"]
        )
        assert args.dtype_policy == "float32"
        assert build_parser().parse_args(["calibration"]).dtype_policy == "float64"

    def test_bad_dtype_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dtype-policy", "float16", "calibration"])

    def test_dtype_policy_installed_during_command(self, capsys, monkeypatch):
        from repro import cli
        from repro.utils.dtypes import get_dtype_policy

        seen = {}

        def probe(_args):
            seen["policy"] = get_dtype_policy()
            return 0

        monkeypatch.setitem(cli.COMMANDS, "calibration", probe)
        assert main(["--dtype-policy", "float32", "calibration"]) == 0
        assert seen["policy"].inference == "float32"
        assert seen["policy"].training == "float64"
        # The previous policy is restored once the command returns.
        assert get_dtype_policy().inference == "float64"


class TestCalibrationCommand:
    def test_prints_all_points(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        for name in ("solo_master_50", "solo_worker_upper50", "fluid_ht", "distributed_ha"):
            assert name in out


class TestSimulateCommand:
    def test_fluid_survival_timeline(self, capsys):
        code = main(
            [
                "simulate", "--family", "fluid",
                "--fail", "worker:10", "--recover", "worker:25",
                "--fail", "master:40", "--horizon", "55",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "solo" in out
        assert "downtime: 0.0s" in out

    def test_static_downtime(self, capsys):
        main(["simulate", "--family", "static", "--fail", "worker:5", "--horizon", "10"])
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "downtime: 5.0s" in out


class TestTrainEvaluateRoundtrip:
    """``train`` and ``evaluate`` run the recipe ``REPRO.json`` records."""

    def test_train_writes_the_recorded_model_and_evaluate_reads_it_back(
        self, tmp_path, capsys, monkeypatch
    ):
        # The record's recipe on fewer images, as the ``fig2`` command test runs it.
        monkeypatch.setattr(paper, "FIG2_DATA", SynthMNISTConfig(num_train=64, num_test=32, seed=0))
        path = str(tmp_path / "model.npz")
        assert main(["train", "--family", "fluid", "--out", path]) == 0
        trained = capsys.readouterr().out
        train_set, _ = load_synth_mnist(paper.FIG2_DATA)
        want, _ = train_family(
            "fluid", train_set, rng=make_rng(paper.FIG2_SEED), config=paper.FIG2_RECIPE
        )
        got = load_state(path)
        assert sorted(got) == sorted(want.state_dict())
        for name, array in want.state_dict().items():
            np.testing.assert_array_equal(got[name], array)

        assert main(["evaluate", "--family", "fluid", "--weights", path]) == 0
        evaluated = capsys.readouterr().out
        accuracies = re.compile(r"^  (\w+) +([0-9.]+)", re.M)
        assert accuracies.findall(evaluated) == accuracies.findall(trained)
        assert len(accuracies.findall(trained)) == len(want.width_spec.all_specs())
        assert "upper50" in evaluated and "standalone" in evaluated


class TestReplayCommand:
    def test_serve_subcommand_is_gone(self, capsys):
        """`replay` is the one way to drive the scheduler from the CLI."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    def test_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["replay", "--scenario", "bursts"])
        assert args.scenario == "bursts"
        assert args.mode == "sim"
        # Config flags default to None so --config FILE can tell "absent"
        # from "explicitly set" (flags override file values).
        assert args.replicas is None
        assert args.config is None
        assert args.sampling == 1.0
        assert args.out is None
        assert args.tune is False
        assert args.tune_out is None

    def test_needs_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay"])
        with pytest.raises(SystemExit):
            main(["replay", "--scenario", "bursts", "--trace", "x.jsonl"])

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--scenario", "black_friday"])

    def test_list_prints_the_zoo(self, capsys):
        assert main(["replay", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("diurnal", "heavy_tail", "bursts", "adversarial", "multi_tenant",
                     "steady_burst", "steady_burst_kill"):
            assert name in out

    def test_nonpositive_replicas_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--scenario", "bursts", "--replicas", "0"])

    def test_steady_burst_sim(self, capsys):
        assert main(["replay", "--scenario", "steady_burst", "--mode", "sim"]) == 0
        out = capsys.readouterr().out
        assert "replay steady_burst (sim)" in out and "lost 0" in out

    @pytest.mark.slow
    def test_live_incident_end_to_end(self, tmp_path, capsys):
        """The scheduler-bench incident, live: a real kill, nothing lost,
        and the recorded artifact carries the plan for a sim re-run."""
        out_path = tmp_path / "incident.jsonl"
        assert main([
            "replay", "--scenario", "steady_burst_kill", "--faults",
            "--mode", "live", "--out", str(out_path),
        ]) == 0
        printed = capsys.readouterr().out
        assert "replay steady_burst_kill (live)" in printed
        assert "1 injected (1 crash)" in printed and "lost 0" in printed
        assert main(["replay", "--trace", str(out_path), "--faults"]) == 0
        assert "1 injected (1 crash)" in capsys.readouterr().out

    @pytest.mark.slow
    def test_sim_replay_end_to_end_with_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "bursts.jsonl"
        assert main([
            "replay", "--scenario", "bursts", "--mode", "sim",
            "--out", str(out_path),
        ]) == 0
        printed = capsys.readouterr().out
        assert "replay bursts (sim)" in printed
        assert "miss-rate" in printed and "outcomes" in printed
        # The recorded artifact is itself replayable.
        assert main(["replay", "--trace", str(out_path), "--mode", "sim"]) == 0
        again = capsys.readouterr().out
        assert "replay bursts (sim)" in again


class TestConfigFromArgs:
    """The single flag->SchedulerConfig path."""

    @staticmethod
    def _config(argv, defaults=None):
        from repro.cli import config_from_args

        return config_from_args(build_parser().parse_args(argv), defaults=defaults)

    def test_defaults_layer_applies_when_flags_absent(self):
        config = self._config(
            ["replay"], defaults={"replicas": 2, "max_batch": 32, "max_delay_s": 0.002}
        )
        assert config.replicas == 2
        assert config.max_batch == 32
        assert config.max_delay_s == pytest.approx(0.002)

    def test_flags_override_defaults(self):
        config = self._config(
            ["replay", "--replicas", "4", "--max-delay-ms", "1"],
            defaults={"replicas": 2, "max_delay_s": 0.002},
        )
        assert config.replicas == 4
        assert config.max_delay_s == pytest.approx(0.001)

    def test_config_file_between_defaults_and_flags(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"replicas": 3, "max_batch": 8}))
        config = self._config(
            ["replay", "--config", str(path), "--max-batch", "16"],
            defaults={"replicas": 2, "max_batch": 32},
        )
        assert config.replicas == 3      # file beats defaults
        assert config.max_batch == 16    # flag beats file

    def test_unknown_key_in_config_file_rejected(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"replcas": 3}))
        with pytest.raises(SystemExit, match="unknown config keys"):
            self._config(["replay", "--config", str(path)])

    def test_missing_config_file_rejected(self):
        with pytest.raises(SystemExit, match="--config"):
            self._config(["replay", "--config", "/nonexistent/cfg.json"])


class TestTuneFlags:
    def test_tune_requires_sim_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--scenario", "bursts", "--tune", "--mode", "live"])

    def test_tune_rejects_trace_out(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--scenario", "bursts", "--tune", "--out", "x.jsonl"])

    def test_tune_workers_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "--scenario", "bursts", "--tune", "--tune-workers", "0"])


class TestReplayTune:
    def test_tuned_artifact_replays_and_its_winner_is_printed(self, tmp_path, capsys):
        out = tmp_path / "tuned.json"
        argv = ["replay", "--tune", "--scenario", "steady_burst", "--tune-workers", "1"]
        assert main([*argv, "--tune-out", str(out)]) == 0
        printed = capsys.readouterr().out
        artifact = read_tuned_config(out)
        winner = re.search(r"^  winner +(\{.*\})$", printed, re.M).group(1)
        assert ast.literal_eval(winner) == artifact["winner"]["mapping"]
        assert f"artifact  {out} (" in printed
        assert main(["replay", "--scenario", "steady_burst", "--mode", "sim",
                     "--config", str(out)]) == 0
        replayed = capsys.readouterr().out
        tuned = artifact["tuned"]
        assert f"{artifact['config']['replicas']} replicas" in replayed
        assert f"miss-rate {tuned['miss_rate']:.3f}  goodput {tuned['goodput_rps']:7.1f}" in replayed


class TestReadmeCommands:
    def test_every_readme_command_parses(self):
        """Each ``python -m repro ...`` line of the README's code blocks is a
        command the parser accepts, so a removed flag cannot linger there."""
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
        commands = [
            line.split("python -m repro", 1)[1]
            for block in blocks
            for line in block.splitlines()
            if "python -m repro" in line
        ]
        assert len(commands) >= 15
        parser = build_parser()
        for command in commands:
            try:
                parser.parse_args(shlex.split(command, comments=True))
            except SystemExit:
                pytest.fail(f"README command does not parse: python -m repro{command}")

