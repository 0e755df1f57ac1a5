import builtins
import json

import numpy as np
import pytest

from clarinet.cli import main


SMALL_TASK = {"type": "synthetic", "K": 4, "n_per_domain": 200, "spread": 0.45,
              "rotation_deg": 30.0, "seed": 0}


def write_config(tmp_path, **overrides):
    config = {"task": SMALL_TASK, "epochs": 3, "ts": 1, "batch": 64,
              "gamma1": 0.02, "gamma2": 0.001, "hidden": 16, "d_g": 8,
              "seeds": [0]}
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestPrepare:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "prepared"
        assert main(["prepare", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("source_comp.csv", "target.csv", "source_hidden_labels.csv",
                     "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["K"] == 4
        assert manifest["hidden_labels"]["evaluation_only"] is True
        assert "prepared 200 source" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["prepare", "--config", str(cfg), "--out", str(out), "--seed", "5"])
            outs.append(out)
        for fname in ("source_comp.csv", "target.csv", "source_hidden_labels.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_different_seed_changes_labels(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["prepare", "--config", str(cfg), "--out", str(a), "--seed", "1"])
        main(["prepare", "--config", str(cfg), "--out", str(b), "--seed", "2"])
        assert (a / "source_comp.csv").read_bytes() != (b / "source_comp.csv").read_bytes()
        # the features themselves are seed-independent; only labels differ
        assert (a / "target.csv").read_bytes() == (b / "target.csv").read_bytes()


class TestTrain:
    def test_per_seed_artifacts_and_aggregate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=[0, 1, 2])
        out = tmp_path / "runs"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        finals = []
        for seed in (0, 1, 2):
            assert (out / ("clarinet_seed%d.csv" % seed)).exists()
            assert (out / ("clarinet_seed%d.ckpt" % seed)).exists()
            summary = json.loads((out / ("clarinet_seed%d.json" % seed)).read_text())
            finals.append(summary["final_target_acc"])
            assert summary["resolved_config"]["epochs"] == 3
        agg = json.loads((out / "clarinet_aggregate.json").read_text())
        assert agg["per_seed"] == finals
        assert agg["final_target_acc_mean"] == pytest.approx(np.mean(finals), abs=1e-12)
        assert agg["final_target_acc_std"] == pytest.approx(np.std(finals), abs=1e-12)
        assert "over 3 seeds" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "runs"
        main(["train", "--config", str(cfg), "--out", str(out),
              "--variant", "gac", "--epochs", "2"])
        agg = json.loads((out / "gac_aggregate.json").read_text())
        assert agg["resolved_config"]["epochs"] == 2
        rows = (out / "gac_seed0.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2  # header + one row per epoch

    def test_gac_announces_ignored_target(self, tmp_path, capsys):
        cfg = write_config(tmp_path, variant="gac", epochs=1)
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert "target data are ignored" in capsys.readouterr().out

    def test_prepared_task_never_reads_hidden_labels(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        prep = tmp_path / "prep"
        main(["prepare", "--config", str(cfg), "--out", str(prep)])

        task = {"type": "prepared", "manifest": str(prep / "manifest.json"),
                "source_csv": str(prep / "source_comp.csv"),
                "target_csv": str(prep / "target.csv")}
        cfg2 = write_config(tmp_path, task=task)

        opened = []
        true_open = builtins.open

        def audit_open(file, *a, **kw):
            opened.append(str(file))
            return true_open(file, *a, **kw)

        monkeypatch.setattr(builtins, "open", audit_open)
        out = tmp_path / "runs"
        assert main(["train", "--config", str(cfg2), "--out", str(out)]) == 0
        assert not any("hidden" in p for p in opened)
        agg = json.loads((out / "clarinet_aggregate.json").read_text())
        assert 0.0 <= agg["final_target_acc_mean"] <= 1.0

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gamma1=-1.0)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_task_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 1}))
        assert main(["train", "--config", str(path)]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        # a misspelt "epochs" must not fall back to the 100-epoch default
        cfg = write_config(tmp_path, epoch=5)
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys epoch;" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverging_run_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gamma1=1e300)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "run diverged: epoch 1 iteration" in err
        assert "non-finite" in err
        assert "Traceback" not in err


class TestVerify:
    def test_passing_suite_exits_0(self, tmp_path, capsys):
        assert main(["verify", "tmap", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_tmap.json").read_text())
        assert report["passed"] is True
        assert '"passed": true' in capsys.readouterr().out

    def test_failing_suite_exits_1(self, monkeypatch, capsys):
        import clarinet.cli as cli_mod

        def broken_suite(name, seed=0):
            return {"suite": name, "passed": False,
                    "checks": [{"check": "x", "metric": 1.0, "threshold": 0.0,
                                "pass": False}]}

        monkeypatch.setattr(cli_mod, "run_suite", broken_suite)
        assert main(["verify", "gradcheck"]) == 1
        capsys.readouterr()


class TestEval:
    def test_checkpoint_round_trip_accuracy(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1)
        out = tmp_path / "runs"
        main(["train", "--config", str(cfg), "--out", str(out)])
        prep = tmp_path / "prep"
        main(["prepare", "--config", str(cfg), "--out", str(prep)])
        code = main(["eval", str(out / "clarinet_seed0.ckpt"),
                     str(prep / "target.csv")])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert main(["eval", str(tmp_path / "nope.ckpt"),
                     str(tmp_path / "nope.csv")]) == 2
