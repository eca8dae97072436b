"""Command-line surface: subcommands, exit codes, artifact emission."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_experiments import TINY_NOISE, TINY_SCALING, TINY_STABILITY

from lincore.cli import main


class TestUsageErrors:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["rates", "--bogus", "1"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestRatesCommand:
    def test_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"delta_min": 1e-3, "n_deltas": 6}))
        code = main(["rates", "--seed", "7", "--out-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 0
        for name in ("rates.csv", "slopes.json", "manifest.json"):
            assert (tmp_path / "out" / name).exists()
        out = capsys.readouterr().out
        assert "lc_logistic" in out

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"delta_minn": 1e-3}))
        code = main(["rates", "--out-dir", str(tmp_path / "out"), "--config", str(config)])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code = main(["rates", "--out-dir", str(tmp_path), "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_malformed_config_file_exits_1(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        code = main(["rates", "--out-dir", str(tmp_path), "--config", str(config)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err


def test_config_file_that_is_not_an_object_exits_1(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text("[1, 2]")
    code = main(["rates", "--out-dir", str(tmp_path / "out"), "--config", str(config)])
    assert code == 1
    assert "error: config file must hold a flat JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_NUMBER = r"-?[0-9.]+(e-?[0-9]+)?"


@pytest.mark.parametrize(
    "command, config, lines, artifacts",
    [
        (
            "stability",
            TINY_STABILITY,
            [rf"tau 1: slope {_NUMBER}", rf"tau 0\.0001: slope {_NUMBER}"],
            ["stability.csv"],
        ),
        (
            "scaling",
            TINY_SCALING,
            [
                rf"{method} Y={size}: {_NUMBER} ms/batch( \(jitter\))?"
                for method in ("ssvm", "crf", "lincore")
                for size in (4, 8)
            ],
            ["scaling.csv"],
        ),
        (
            "noise",
            TINY_NOISE,
            [rf"{loss} rho=0\.4: accuracy {_NUMBER}" for loss in ("ce", "gce_best", "lc")],
            ["noise.csv", "grad_hist.csv"],
        ),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_driver_command_prints_its_summary(tmp_path, capsys, command, config, lines, artifacts):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main([command, "--seed", "3", "--out-dir", str(tmp_path / "out"), "--config", str(path)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(lines)
    assert all(any(re.fullmatch(line, row) for row in printed) for line in lines), printed
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["artifacts"] == artifacts


def _run_bad_config(tmp_path, command: str, overrides: dict) -> subprocess.CompletedProcess:
    """Run ``lincore <command> --config bad.json`` in a fresh interpreter."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(overrides))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [command, "--config", str(config), "--out-dir", str(tmp_path / "out")]
    return subprocess.run(
        [sys.executable, "-m", "lincore.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_bad_noise_config_exits_1_without_traceback(tmp_path):
    done = _run_bad_config(tmp_path, "noise", {"q_grid": [0.0, 0.5]})
    assert done.returncode == 1
    assert "error: q_grid entries must lie in (0, 1]" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["q_grid", "noise_rates"])
@pytest.mark.parametrize("entry", ["0.5", True], ids=repr)
def test_noise_list_of_non_numbers_exits_1_without_traceback(tmp_path, key, entry):
    """A numeric string or a bool used to pass as a q value or a noise rate."""
    done = _run_bad_config(tmp_path, "noise", {key: [entry]})
    assert done.returncode == 1
    assert f"error: {key} must be a list of finite numbers" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_bad_scaling_config_exits_1_without_traceback(tmp_path):
    """Zero timed batches used to write a NaN median to scaling.csv."""
    done = _run_bad_config(tmp_path, "scaling", {"timed_batches": 0})
    assert done.returncode == 1
    assert "error: timed_batches must be an integer in [1, inf]" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_bad_rates_config_kind_exits_1_without_traceback(tmp_path):
    """A string count used to end in a TypeError traceback from numpy."""
    done = _run_bad_config(tmp_path, "rates", {"n_deltas": "x"})
    assert done.returncode == 1
    assert "error: n_deltas must be an integer, got 'x'" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_bad_scaling_label_size_exits_1_without_traceback(tmp_path):
    """A non-integer label size used to end in a ValueError traceback."""
    done = _run_bad_config(tmp_path, "scaling", {"label_sizes": ["x"], "timed_batches": 2})
    assert done.returncode == 1
    assert "error: label_sizes must be a list of integers >= 2, got ['x']" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_bad_stability_tau_exits_1_without_traceback(tmp_path):
    """A non-numeric tau used to end in a ValueError traceback."""
    done = _run_bad_config(tmp_path, "stability", {"robust_taus": ["x"]})
    assert done.returncode == 1
    assert "error: robust_taus must be a list of finite numbers, got ['x']" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, overrides",
    [("rates", {"delta_min": -1.0}), ("stability", {"robust_delta_min": 0.0})],
)
def test_bad_delta_bounds_exit_1_without_traceback(tmp_path, command, overrides):
    """These bounds used to reach ``np.log10`` with a RuntimeWarning before a later error."""
    done = _run_bad_config(tmp_path, command, overrides)
    assert done.returncode == 1
    assert "must satisfy 0 < min < max < 1/2" in done.stderr
    assert "Traceback" not in done.stderr
    assert "Warning" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_selftest_passes_on_a_correct_build(capsys):
    """The invariant battery exits zero and reports every check."""
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "10/10 checks passed" in out


class TestTrainSeqCommand:
    def test_flag_overrides_reach_the_driver(self, tmp_path, capsys):
        code = main(
            [
                "train-seq",
                "--objective",
                "lincore",
                "--Y",
                "3",
                "--L",
                "4",
                "--iterations",
                "120",
                "--eta",
                "0.0001",
                "--out-dir",
                str(tmp_path),
                "--seed",
                "1",
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["objective"] == "lincore"
        assert manifest["config"]["n_labels"] == 3
        assert manifest["config"]["length"] == 4
        assert manifest["config"]["iterations"] == 120
        assert (tmp_path / "history.csv").exists()
