"""CLI surface (python -m repro ...)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestBackendsAndSystems:
    def test_backends_lists_all(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("nccl", "mvapich2-gdr", "openmpi", "msccl", "gloo"):
            assert name in out

    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "lassen" in out and "thetagpu" in out

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit, match="unknown system"):
            main(["micro", "--system", "frontier"])


class TestTune:
    def test_tune_writes_table(self, tmp_path, capsys):
        out_file = tmp_path / "table.json"
        rc = main([
            "tune", "--system", "lassen", "--world-sizes", "8",
            "--num-sizes", "4", "--ops", "allgather", "--out", str(out_file),
        ])
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert payload["system"] == "lassen"
        assert "allgather" in payload["entries"]
        assert "tuned 4 cells" in capsys.readouterr().out


class TestMicro:
    def test_micro_prints_series(self, capsys):
        rc = main([
            "micro", "--system", "lassen", "--op", "allreduce",
            "--world", "16", "--num-sizes", "3",
            "--backends", "nccl", "mvapich2-gdr",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "msg_bytes" in out
        assert out.count("\n") >= 4


class TestTrain:
    def test_train_outputs_json(self, capsys):
        rc = main([
            "train", "--model", "resnet50", "--system", "lassen",
            "--world", "4", "--plan", "nccl", "--steps", "1", "--warmup", "0",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "resnet50"
        assert payload["samples_per_sec"] > 0

    def test_train_mixed_plan(self, capsys):
        rc = main([
            "train", "--model", "dlrm", "--system", "thetagpu",
            "--world", "4", "--plan", "mixed", "--steps", "1", "--warmup", "0",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"] == "MCR-DL"

    def test_train_tuned_requires_table(self):
        with pytest.raises(SystemExit, match="requires --table"):
            main(["train", "--plan", "tuned"])

    def test_train_with_faults_reports_events(self, capsys):
        rc = main([
            "train", "--model", "resnet50", "--system", "lassen",
            "--world", "4", "--plan", "nccl", "--steps", "1", "--warmup", "0",
            "--faults", "seed=7;backend=nccl:transient:prob=1.0",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fault_events"].get("retry", 0) > 0

    def test_train_bad_faults_spec_rejected(self):
        with pytest.raises(SystemExit, match="bad --faults spec"):
            main([
                "train", "--model", "resnet50", "--world", "4",
                "--faults", "backend=nccl:transient:prob=2.0",
            ])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "is not JSON"),
            ('{"entries": []}', "malformed tuning table"),
            (None, "No such file"),  # no file at all
        ],
        ids=["not-json", "bad-shape", "missing"],
    )
    def test_train_bad_table_rejected(self, tmp_path, text, message):
        table = tmp_path / "t.json"
        if text is not None:
            table.write_text(text)
        with pytest.raises(SystemExit, match=f"bad --table .*t.json: .*{message}"):
            main([
                "train", "--model", "resnet50", "--world", "4",
                "--plan", "tuned", "--table", str(table),
            ])

    def test_train_tuned_with_table(self, tmp_path, capsys):
        table = tmp_path / "t.json"
        main([
            "tune", "--system", "thetagpu", "--world-sizes", "4",
            "--num-sizes", "3", "--ops", "allreduce", "alltoall",
            "--out", str(table),
        ])
        capsys.readouterr()
        rc = main([
            "train", "--model", "dlrm", "--system", "thetagpu", "--world", "4",
            "--plan", "tuned", "--table", str(table), "--steps", "1",
            "--warmup", "0",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["plan"] == "MCR-DL-T"

    def test_train_adapt_keeps_the_healthy_step_time(self, tmp_path, capsys):
        """``--adapt`` runs Trainer -> CommDriver -> retuner; on a healthy
        fabric the tuned table never drifts, so the step time is the
        adaptive-off one (INTERNALS §14)."""
        table = tmp_path / "t.json"
        assert main([
            "tune", "--system", "thetagpu", "--world-sizes", "4",
            "--num-sizes", "6", "--out", str(table),
        ]) == 0
        capsys.readouterr()
        run = [
            "train", "--model", "dlrm", "--system", "thetagpu", "--world", "4",
            "--plan", "tuned", "--table", str(table), "--steps", "3",
        ]
        step_us = []
        for extra in ([], ["--adapt"]):
            assert main(run + extra) == 0
            step_us.append(json.loads(capsys.readouterr().out)["step_time_us"])
        assert step_us[0] == step_us[1] == 5708.538186986298

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["train", "--model", "bert"])
