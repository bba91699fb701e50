"""Tests for the prive-hd CLI."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import EXPERIMENTS, main


class TestParsing:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_every_experiment_registered_with_description(self):
        assert set(EXPERIMENTS) == {
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig8",
            "fig9",
            "table1",
            "hw",
        }
        for desc, runner in EXPERIMENTS.values():
            assert desc
            assert callable(runner)

    def test_import_leaves_the_experiments_unloaded(self):
        """``serve`` pays no start-up for the paper experiments: each
        is imported by its own runner."""
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['repro', 'experiments']))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"


class TestExecution:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Kintex-7" in out

    @pytest.mark.slow
    def test_fig2_runs_small(self, capsys):
        assert main(["fig2", "--dhv", "1024", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig.2" in out
        assert "psnr_dB" in out

    @pytest.mark.slow
    def test_hw_runs(self, capsys):
        assert main(["hw", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "LUT savings" in out


class TestServingCommands:
    def test_train_command(self, capsys):
        assert (
            main(
                [
                    "train", "isolet",
                    "--dhv", "512",
                    "--batch-size", "200",
                    "--quantizer", "bipolar",
                    "--backend", "packed",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "dataset=isolet" in out
        assert "batch_size=200" in out
        assert "backend=packed" in out
        assert "test accuracy" in out

    def test_train_level_base_dense(self, capsys):
        assert (
            main(
                [
                    "train", "isolet",
                    "--dhv", "256",
                    "--encoder", "level-base",
                    "--batch-size", "500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "encoder=level-base" in out

    def test_train_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["train", "cifar"])


class TestBackendConsistency:
    def test_train_accuracy_is_backend_independent(self, capsys):
        """--backend changes the compute path, never the answers."""
        accs = {}
        for backend in ("dense", "packed"):
            assert (
                main(
                    [
                        "train", "isolet",
                        "--dhv", "512",
                        "--batch-size", "512",
                        "--quantizer", "bipolar",
                        "--backend", backend,
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            accs[backend] = [
                line for line in out.splitlines() if "test accuracy" in line
            ][0].split("test accuracy")[1].split()[0]
        assert accs["dense"] == accs["packed"]

    def test_train_packed_with_unpackable_quantizer_rejected_upfront(self, capsys):
        code = main(
            ["train", "isolet", "--dhv", "256",
             "--quantizer", "2bit", "--backend", "packed"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "packable quantizer" in err


class TestArtifactLifecycle:
    """train --save -> eval -> serve, the CLI model lifecycle."""

    @pytest.fixture(scope="class")
    def artifact_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "artifact"
        code = main(
            ["train", "isolet",
             "--dhv", "512",
             "--batch-size", "256",
             "--quantizer", "bipolar",
             "--backend", "packed",
             "--save", str(path)]
        )
        assert code == 0
        return path

    def test_train_save_writes_artifact(self, artifact_path, capsys):
        assert (artifact_path / "manifest.json").is_file()
        assert (artifact_path / "tensors.npz").is_file()

    def test_train_save_reports_served_store_bytes(self, tmp_path, capsys):
        """The save line reports the packed planes, not a dense store."""
        code = main(
            ["train", "isolet", "--dhv", "200", "--quantizer", "bipolar",
             "--backend", "packed", "--save", str(tmp_path / "a")]
        )
        assert code == 0
        # 26 classes x 4 words x 8 bytes of signs + one 4-word mags row
        assert "store=864 bytes" in capsys.readouterr().out

    def test_eval_loads_and_matches_recorded_accuracy(
        self, artifact_path, capsys
    ):
        assert main(["eval", str(artifact_path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        recorded = [
            line for line in out.splitlines() if "recorded" in line
        ][0].split()[-1]
        shown = [
            line for line in out.splitlines() if line.startswith("dataset=")
        ][0].split("accuracy")[1].split()[0]
        assert abs(float(recorded) - float(shown)) < 1e-3

    def test_serve_answers_match_offline(self, artifact_path, capsys):
        code = main(
            ["serve", str(artifact_path),
             "--clients", "4", "--requests", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identical to offline batch: True" in out
        assert "failed requests: 0" in out

    def test_client_against_live_frontend(self, artifact_path, capsys):
        """`client` drives a real socket frontend and verifies parity
        with the offline engine (non-zero exit on divergence)."""
        from repro.serve import FrontendHandle, ServingAPI, load_artifact

        api = ServingAPI.from_artifact(
            load_artifact(artifact_path), name="model"
        )
        with FrontendHandle(api) as handle:
            host, port = handle.address
            code = main(
                ["client", str(artifact_path),
                 "--connect", f"{host}:{port}",
                 "--requests", "64"]
            )
        api.close()
        assert code == 0
        out = capsys.readouterr().out
        assert "predictions identical to offline eval: True" in out
        assert "q/s over the socket" in out

    def test_client_connection_refused_exits_nonzero(
        self, artifact_path, capsys
    ):
        code = main(
            ["client", str(artifact_path),
             "--connect", "127.0.0.1:1",
             "--retries", "0"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_missing_artifact_exits_nonzero(self, capsys):
        assert main(["eval", "/nonexistent/artifact"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_missing_artifact_exits_nonzero(self, capsys):
        assert main(["serve", "/nonexistent/artifact"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_traceback_flag_reraises(self):
        with pytest.raises(Exception):
            main(["--traceback", "eval", "/nonexistent/artifact"])

    def test_runtime_errors_never_traceback(self, tmp_path, capsys):
        # A corrupt artifact directory is a clean exit-1, not a traceback.
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text("{not json")
        assert main(["eval", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
