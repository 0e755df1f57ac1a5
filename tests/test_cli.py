import builtins
import json
import struct
import warnings

import numpy as np
import pytest

from clarinet.cli import main
from clarinet.data import LabeledDataset, read_csv, write_csv, write_idx
from clarinet.models import build_triplet, default_specs, save_checkpoint


SMALL_TASK = {"type": "synthetic", "K": 4, "n_per_domain": 200, "spread": 0.45,
              "rotation_deg": 30.0, "seed": 0}


def write_config(tmp_path, **overrides):
    """A small config file; an override of None leaves its key out."""
    config = {"task": SMALL_TASK, "epochs": 3, "ts": 1, "batch": 64,
              "gamma1": 0.02, "gamma2": 0.001, "hidden": 16, "d_g": 8,
              "seeds": [0]}
    config.update(overrides)
    config = {key: value for key, value in config.items() if value is not None}
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

    def test_config_seed_equals_the_flag(self, tmp_path, capsys, monkeypatch):
        # --seed, then the config's one seed, then CLARINET_SEED, then 0
        monkeypatch.setenv("CLARINET_SEED", "5")
        runs = {}
        for name, seeds, flags in (("config", [3], []), ("flag", None, ["--seed", "3"]),
                                   ("flag_over_config", [4], ["--seed", "3"]),
                                   ("flag_over_two", [3, 4], ["--seed", "3"])):
            out = tmp_path / name
            cfg = write_config(tmp_path, seeds=seeds)
            assert main(["prepare", "--config", str(cfg), "--out", str(out)] + flags) == 0
            runs[name] = ({f.name: f.read_bytes() for f in out.iterdir()},
                          capsys.readouterr().out.replace(str(out), "OUT"))
        assert json.loads(runs["config"][0]["manifest.json"])["seed"] == 3
        assert all(run == runs["flag"] for run in runs.values())

    def test_config_with_two_seeds_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=[3, 4])
        out = tmp_path / "prepared"
        assert main(["prepare", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: prepare takes one seed, got config key seeds [3, 4]\n"
        assert not out.exists()

    def test_missing_task_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 1}))
        out = tmp_path / "prepared"
        assert main(["prepare", "--config", str(path), "--out", str(out)]) == 2
        assert "config needs a 'task' object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_task_number_exits_2(self, tmp_path, capsys, value):
        # the manifest echoes the task, and strict JSON has no NaN
        cfg = write_config(tmp_path, task=dict(SMALL_TASK, note=value))
        out = tmp_path / "prepared"
        assert main(["prepare", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: task must hold only finite numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["prepare", "verify"])
    def test_non_integer_env_seed_exits_2(self, tmp_path, capsys, monkeypatch, verb):
        monkeypatch.setenv("CLARINET_SEED", "seven")
        # a config's seeds come before CLARINET_SEED, so this one names none
        argv = (["prepare", "--config", str(write_config(tmp_path, seeds=None)),
                 "--out", str(tmp_path / "p")] if verb == "prepare" else ["verify", "tmap"])
        assert main(argv) == 2
        assert "CLARINET_SEED must be an integer, got 'seven'" in capsys.readouterr().err


class TestNegativeSeed:
    # NumPy's generators take no negative seed; every route names the value
    @pytest.mark.parametrize("verb, flags, env, message", [
        ("verify", ["--seed", "-1"], None, "--seed must be a non-negative integer, got -1"),
        ("verify", [], "-3", "CLARINET_SEED must be a non-negative integer, got -3"),
        ("prepare", ["--seed", "-1"], None, "--seed must be a non-negative integer, got -1"),
        ("prepare", [], "-3", "CLARINET_SEED must be a non-negative integer, got -3"),
        ("train", ["--seed", "0", "--seed", "-1"], None,
         "--seed must be a non-negative integer, got -1"),
    ])
    def test_flag_or_env_exits_2(self, tmp_path, capsys, monkeypatch, verb, flags, env,
                                 message):
        if env is not None:
            monkeypatch.setenv("CLARINET_SEED", env)
        out = tmp_path / "out"
        argv = [verb] + flags + ["--out", str(out)]
        # a config's seeds come before CLARINET_SEED, so this one names none
        cfg = write_config(tmp_path, seeds=None)
        argv += ["tmap"] if verb == "verify" else ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: " + message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["prepare", "verify"])
    def test_second_seed_exits_2(self, tmp_path, capsys, verb):
        # one seed per run: a second --seed would otherwise be dropped unread
        out = tmp_path / "out"
        argv = [verb, "--seed", "0", "--seed", "5", "--out", str(out)]
        argv += ["gradcheck"] if verb == "verify" else ["--config", str(write_config(tmp_path))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: %s takes one --seed, got 2\n" % verb
        assert captured.out == ""
        assert not out.exists()

    def test_config_seeds_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=[0, -1])
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("a seed in config key seeds must be a non-negative integer, got -1"
                in capsys.readouterr().err)
        assert not out.exists()


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

    def test_prepared_task_trains_as_the_raw_task(self, tmp_path):
        # prepare and train draw the complementary labels alike, so training
        # on the prepared files repeats the raw task's run
        raw = write_config(tmp_path, task=dict(SMALL_TASK, subsample=150))
        prep = tmp_path / "prep"
        assert main(["prepare", "--config", str(raw), "--out", str(prep), "--seed", "3"]) == 0
        task = {"type": "prepared", "manifest": str(prep / "manifest.json"),
                "source_csv": str(prep / "source_comp.csv"),
                "target_csv": str(prep / "target.csv")}
        (tmp_path / "p").mkdir()
        records = []
        for name, cfg in (("raw", raw), ("prepared", write_config(tmp_path / "p", task=task))):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
            lines = (out / "clarinet_seed3.csv").read_text().splitlines()
            records.append([line.rsplit(",", 1)[0] for line in lines])
        assert len(records[0]) == 1 + 3
        assert records[0] == records[1]

    def test_unlabelled_target_writes_strict_json(self, tmp_path):
        # no target labels: no accuracy; no hidden source labels: no
        # pseudo-label noise rate; both are null, never NaN
        cfg = write_config(tmp_path)
        prep = tmp_path / "prep"
        assert main(["prepare", "--config", str(cfg), "--out", str(prep)]) == 0
        feats, _ = read_csv(prep / "target.csv")
        write_csv(prep / "target_unlabelled.csv", feats)
        task = {"type": "prepared", "manifest": str(prep / "manifest.json"),
                "source_csv": str(prep / "source_comp.csv"),
                "target_csv": str(prep / "target_unlabelled.csv")}
        out = tmp_path / "runs"
        argv = ["train", "--config", str(write_config(tmp_path, task=task)),
                "--out", str(out), "--variant", "two-step", "--epochs", "2",
                "--seed", "0", "--seed", "1"]
        assert main(argv) == 0

        def strict(name):
            def reject(constant):
                raise AssertionError("%s holds %s" % (name, constant))
            return json.loads((out / name).read_text(), parse_constant=reject)

        for seed in (0, 1):
            summary = strict("two-step_seed%d.json" % seed)
            assert summary["final_target_acc"] is None
            assert summary["pseudo_label_noise"] is None
        agg = strict("two-step_aggregate.json")
        assert agg["per_seed"] == [None, None]
        assert agg["final_target_acc_mean"] is None
        assert agg["final_target_acc_std"] is None

    def test_non_finite_task_number_exits_2(self, tmp_path, capsys):
        # every summary echoes the task, and strict JSON has no NaN
        cfg = write_config(tmp_path, task=dict(SMALL_TASK, note=float("nan")))
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: task must hold only finite numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds, flags, source", [
        ([0], ["--seed", "1", "--seed", "2", "--seed", "1"], "--seed"),
        ([1, 1], [], "config key seeds"),
    ])
    def test_repeated_seed_exits_2(self, tmp_path, capsys, seeds, flags, source):
        # a repeated seed would train twice into the same files and count
        # twice in the aggregate
        cfg = write_config(tmp_path, seeds=seeds)
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--out", str(out)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: seed 1 is given 2 times in %s\n" % source
        assert captured.out == ""
        assert not out.exists()

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
        for verb in ("prepare", "train"):
            out = tmp_path / verb
            assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "unknown config keys epoch;" in err
            assert not out.exists()

    @pytest.mark.parametrize("key, value, kind", [
        ("gamma1", "fast", "a finite number"),
        ("l", float("nan"), "a finite number"),
        ("epochs", 2.5, "an integer"),
        ("batch", True, "an integer"),
        ("correction_enabled", "no", "true or false"),
        ("seeds", [0, "1"], "a non-empty list of integers"),
        ("seeds", [], "a non-empty list of integers"),
        ("out", 3, "a string"),
    ])
    def test_wrong_value_type_exits_2(self, tmp_path, capsys, key, value, kind):
        # the config file is checked even where a flag overrides its value
        cfg = write_config(tmp_path, **{key: value})
        for verb in ("prepare", "train"):
            out = tmp_path / verb
            assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "config key %s must be %s, got %r" % (key, kind, value) in err
            assert not out.exists()

    @pytest.mark.parametrize("config_batch, flags", [(0, []), (64, ["--batch", "0"])])
    def test_zero_batch_exits_2(self, tmp_path, capsys, config_batch, flags):
        cfg = write_config(tmp_path, batch=config_batch)
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--out", str(out)] + flags) == 2
        assert "batch_size must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config_epochs, flags",
                             [(0, []), (3, ["--epochs", "0", "--ts", "0"])])
    def test_zero_epochs_exits_2_before_writing(self, tmp_path, capsys, config_epochs, flags):
        cfg = write_config(tmp_path, epochs=config_epochs, ts=0)
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--out", str(out)] + flags) == 2
        assert "t_max must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_int_for_a_float_key_is_legal(self, tmp_path):
        cfg = write_config(tmp_path, l=1, weight_decay=0)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0

    def test_env_seed_does_not_reach_train(self, tmp_path, monkeypatch):
        # seeds default to [0], so training never reads CLARINET_SEED
        monkeypatch.setenv("CLARINET_SEED", "seven")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": SMALL_TASK, "epochs": 2, "ts": 1,
                                   "batch": 64, "hidden": 16, "d_g": 8}))
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "clarinet_seed0.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverging_run_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gamma1=1e300)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "run diverged: epoch 1 iteration" in err
        assert "non-finite" in err
        assert "Traceback" not in err


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverging_evaluation_names_the_epoch(self, tmp_path, capsys):
        # one iteration per epoch: the update is finite, the evaluation is not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": {"type": "synthetic", "n_per_domain": 100},
                                   "epochs": 2, "ts": 1, "gamma1": 1e300}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "run diverged: epoch 1 evaluation: " in err
        assert "non-finite" in err
        assert "Traceback" not in err


class TestTaskFields:
    @pytest.mark.parametrize("verb", ["prepare", "train"])
    @pytest.mark.parametrize("field, value, kind", [
        ("K", "4", "an integer"),
        ("n_per_domain", 2.5, "an integer"),
        ("seed", True, "an integer"),
        ("spread", "wide", "a finite number"),
        ("rotation_deg", None, "a finite number"),
        ("radius", float("inf"), "a finite number"),
        ("translation", [1.0], "a list of two finite numbers"),
        ("translation", [1.0, "up"], "a list of two finite numbers"),
    ])
    def test_wrong_field_type_exits_2(self, tmp_path, capsys, verb, field, value, kind):
        cfg = write_config(tmp_path, task=dict(SMALL_TASK, **{field: value}))
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: task.%s must be %s, got %r" % (field, kind, value) in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["prepare", "train"])
    def test_out_of_range_size_exits_2(self, tmp_path, capsys, verb):
        cfg = write_config(tmp_path, task=dict(SMALL_TASK, n_per_domain=-3))
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "n_per_domain >= 1" in capsys.readouterr().err

    def test_absent_fields_take_the_generator_defaults(self, tmp_path):
        cfg = write_config(tmp_path, task={"type": "synthetic", "n_per_domain": 50,
                                           "translation": [1, 0]})
        out = tmp_path / "p"
        assert main(["prepare", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["K"] == 4


class TestTaskFiles:
    """The file fields of idx and prepared tasks are non-empty strings; an
    integer would be opened as a file descriptor, and 0 would read stdin."""

    TASKS = {
        "idx": {"type": "idx", "source_images": "a", "source_labels": "b",
                "target_images": "c", "target_labels": "d"},
        "prepared": {"type": "prepared", "manifest": "m", "source_csv": "s",
                     "target_csv": "t"},
    }

    @pytest.mark.parametrize("verb", ["prepare", "train"])
    @pytest.mark.parametrize("kind, field", [
        ("idx", "source_images"), ("idx", "target_labels"),
        ("prepared", "manifest"), ("prepared", "source_csv"), ("prepared", "target_csv"),
    ])
    @pytest.mark.parametrize("value", [5, 0, "", ["a"], None, "missing"])
    def test_bad_file_field_exits_2(self, tmp_path, capsys, verb, kind, field, value):
        task = dict(self.TASKS[kind])
        if value == "missing":
            del task[field]
        else:
            task[field] = value
        cfg = write_config(tmp_path, task=task)
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        shown = None if value == "missing" else value
        assert err == "config error: task.%s must be a non-empty string, got %r\n" % (field,
                                                                                     shown)
        assert not out.exists()


class TestOutputPaths:
    @pytest.mark.parametrize("verb", ["prepare", "train", "verify"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, verb):
        out = tmp_path / "taken"
        out.write_text("")
        argv = [verb, "--out", str(out)]
        argv += ["tmap"] if verb == "verify" else ["--config", str(write_config(tmp_path))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err
        assert "Traceback" not in err
        assert out.read_text() == ""

    @pytest.mark.parametrize("verb", ["prepare", "train"])
    def test_config_naming_a_directory_exits_2(self, tmp_path, capsys, verb):
        out = tmp_path / "out"
        assert main([verb, "--config", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(tmp_path) in err
        assert "Traceback" not in err
        assert not out.exists()


class TestVerify:
    def test_config_flag_is_rejected(self, capsys):
        # verify reads no config file, so the flag is a usage error
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "tmap", "--config", "cfg.json"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_passing_suite_exits_0(self, tmp_path, capsys):
        assert main(["verify", "tmap", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_tmap.json").read_text())
        assert report["passed"] is True
        assert '"passed": true' in capsys.readouterr().out

    def test_out_naming_a_file_fails_before_the_suite(self, tmp_path, capsys, monkeypatch):
        import clarinet.cli as cli_mod

        def no_suite(name, seed=0):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli_mod, "run_suite", no_suite)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["verify", "all", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and str(out) in captured.err

    def test_gradcheck_at_seed_2049_exits_0(self, capsys):
        # the div check's input once came within 4.2e-4 of the pole here
        assert main(["verify", "gradcheck", "--seed", "2049"]) == 0
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


@pytest.fixture
def saved_model(tmp_path):
    """A checkpoint of a small untrained triplet and a labelled CSV for it."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_triplet(*default_specs(2, 4, d_g=4, hidden=8), seed=0))
    data = tmp_path / "data.csv"
    write_csv(data, np.zeros((3, 2)), [1, 2, 3])
    return path, data


class TestCheckpointFailsClosed:
    def eval_bytes(self, tmp_path, capsys, blob):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob)
        code = main(["eval", str(bad), str(tmp_path / "data.csv")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_intact_checkpoint_evaluates(self, tmp_path, capsys, saved_model):
        code, _ = self.eval_bytes(tmp_path, capsys, saved_model[0].read_bytes())
        assert code == 0

    @pytest.mark.parametrize("fraction", [0.0, 0.001, 0.005, 0.01, 0.03, 0.1, 0.5, 0.9, 0.999])
    def test_cut_checkpoint_exits_2(self, tmp_path, capsys, saved_model, fraction):
        blob = saved_model[0].read_bytes()
        cut = min(int(len(blob) * fraction), len(blob) - 1)
        code, err = self.eval_bytes(tmp_path, capsys, blob[:cut])
        assert code == 2
        assert "truncated file" in err or "bad magic" in err

    def test_trailing_bytes_exit_2(self, tmp_path, capsys, saved_model):
        code, err = self.eval_bytes(tmp_path, capsys, saved_model[0].read_bytes() + b"\0")
        assert code == 2
        assert "trailing bytes" in err

    @pytest.mark.parametrize("old, new, message", [
        (b"G.w0", b"G.x0", "unknown checkpoint tensor name 'G.x0'"),
        (b"G.b0", b"G.w0", "repeated checkpoint tensor name 'G.w0'"),
        (b'{"G"', b'["G"', "checkpoint header is not JSON"),
    ])
    def test_bad_tensor_names_exit_2(self, tmp_path, capsys, saved_model, old, new, message):
        blob = saved_model[0].read_bytes()
        assert old in blob and len(old) == len(new)
        code, err = self.eval_bytes(tmp_path, capsys, blob.replace(old, new, 1))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["F"].update(head="softmix"), "unknown head"),
        (lambda m: m["G"].update(widths=[0, 8, 4]), "positive widths"),
        (lambda m: m["G"].update(widths=[2, 8.5, 4]), "no valid spec for G"),
        (lambda m: m.pop("D"), "no valid spec for D"),
        (lambda m: m["D"].update(widths=[16, 64, 1000000]), "truncated file"),
        (lambda m: m["F"].update(widths=[3, 4]), "F input width 3 != G output width 4"),
    ])
    def test_bad_header_exits_2(self, tmp_path, capsys, saved_model, edit, message):
        blob = saved_model[0].read_bytes()
        (meta_len,) = struct.unpack("<I", blob[4:8])
        meta = json.loads(blob[8:8 + meta_len])
        edit(meta)
        raw = json.dumps(meta).encode()
        code, err = self.eval_bytes(tmp_path, capsys, blob[:4] + struct.pack("<I", len(raw))
                                    + raw + blob[8 + meta_len:])
        assert code == 2
        assert message in err

    def test_tensor_count_must_match_the_networks(self, tmp_path, capsys, saved_model):
        blob = saved_model[0].read_bytes()
        (meta_len,) = struct.unpack("<I", blob[4:8])
        at = 8 + meta_len
        code, err = self.eval_bytes(tmp_path, capsys,
                                    blob[:at] + struct.pack("<I", 5) + blob[at + 4:])
        assert code == 2
        assert "holds 5 tensors, its networks have 10" in err


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_exits_2(self, tmp_path, capsys, saved_model, value):
        path, data = saved_model
        triplet = build_triplet(*default_specs(2, 4, d_g=4, hidden=8), seed=0)
        triplet.G.weights[0].value[1, 2] = value
        save_checkpoint(path, triplet)
        assert main(["eval", str(path), str(data)]) == 2
        err = capsys.readouterr().err
        assert "config error: %s: checkpoint tensor G.w0 holds a non-finite value" % path in err


def test_eval_names_an_empty_csv(tmp_path, capsys, saved_model):
    empty = tmp_path / "empty.csv"
    empty.write_text("x0,x1,label\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", str(saved_model[0]), str(empty)]) == 2
    assert caught == []
    assert capsys.readouterr().err == "config error: dataset %r is empty\n" % str(empty)


@pytest.mark.parametrize("row, shown", [
    ("1.0,abc,1", "data row 1, column 2: 'abc' is not a number"),
    ("1.0,2.0", "data row 2 has 2 values, data row 1 has 3"),
])
def test_eval_names_a_bad_csv_row(tmp_path, capsys, saved_model, row, shown):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1,label\n" + ("0.5,0.5,1\n" if "values" in shown else "") + row + "\n")
    assert main(["eval", str(saved_model[0]), str(bad)]) == 2
    assert capsys.readouterr().err == "config error: %s: %s\n" % (bad, shown)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_eval_names_a_non_finite_csv_feature(tmp_path, capsys, saved_model, bad):
    # named as a bad file, not as a diverged run, and without NumPy's warning
    data = tmp_path / "holes.csv"
    data.write_text("x0,x1,label\n0.5,0.5,1\n%s,0.5,2\n" % bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", str(saved_model[0]), str(data)]) == 2
    assert capsys.readouterr().err == (
        "config error: %s: data row 2, column 1: %s is not a finite number\n" % (data, bad))


def test_prepared_task_with_a_non_finite_feature_exits_2(tmp_path, capsys):
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(write_config(tmp_path)), "--out", str(prep)]) == 0
    source = prep / "source_comp.csv"
    lines = source.read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    source.write_text("\n".join(lines) + "\n")
    task = {"type": "prepared", "manifest": str(prep / "manifest.json"),
            "source_csv": str(source), "target_csv": str(prep / "target.csv")}
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["train", "--config", str(write_config(tmp_path, task=task)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: %s: data row 3, column 1: nan is not a finite number\n" % source)
    assert not out.exists()


class TestJsonFiles:
    @pytest.mark.parametrize("text", [None, "{", "[1, 2", "\xff"])
    def test_config_that_is_not_json_exits_2(self, tmp_path, capsys, text):
        path = "/dev/null" if text is None else tmp_path / "cfg.json"
        if text is not None:
            path.write_bytes(text.encode("latin-1"))
        assert main(["prepare", "--config", str(path), "--out", str(tmp_path / "p")]) == 2
        assert capsys.readouterr().err.startswith("config error: %s is not JSON: " % path)

    @pytest.mark.parametrize("manifest", [{"seed": 0}, {"K": 1}, {"K": "4"}, {"K": True},
                                          {"K": 4.0}, [4]])
    def test_manifest_without_a_valid_K_exits_2(self, tmp_path, capsys, manifest):
        prep = tmp_path / "prep"
        assert main(["prepare", "--config", str(write_config(tmp_path)),
                     "--out", str(prep)]) == 0
        (prep / "manifest.json").write_text(json.dumps(manifest))
        task = {"type": "prepared", "manifest": str(prep / "manifest.json"),
                "source_csv": str(prep / "source_comp.csv"),
                "target_csv": str(prep / "target.csv")}
        cfg = write_config(tmp_path, task=task)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        K = manifest.get("K") if isinstance(manifest, dict) else None
        assert capsys.readouterr().err == (
            "config error: task.manifest K must be an integer >= 2, got %r\n" % (K,))

    def test_manifest_that_is_not_json_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("K=4")
        cfg = write_config(tmp_path, task={"type": "prepared", "manifest": str(manifest),
                                           "source_csv": "s", "target_csv": "t"})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: %s is not JSON: " % manifest in capsys.readouterr().err


@pytest.fixture
def idx_task(tmp_path):
    """An idx task of 60 source and 40 target 2x2 images over K=3 classes."""
    rng = np.random.default_rng(0)
    task = {"type": "idx"}
    for domain, n in (("source", 60), ("target", 40)):
        ds = LabeledDataset(rng.uniform(size=(n, 4)), np.arange(n) % 3 + 1, K=3)
        images, labels = tmp_path / (domain + "-images"), tmp_path / (domain + "-labels")
        write_idx(images, labels, ds, 2, 2)
        task.update({domain + "_images": str(images), domain + "_labels": str(labels)})
    return task


class TestSubsample:
    @pytest.mark.parametrize("verb", ["prepare", "train"])
    @pytest.mark.parametrize("kind", ["idx", "synthetic"])
    @pytest.mark.parametrize("value", ["10", 1.5, -10, 0, True, 201])
    def test_bad_value_exits_2(self, tmp_path, capsys, idx_task, verb, kind, value):
        task, n = (idx_task, 60) if kind == "idx" else (SMALL_TASK, 200)
        cfg = write_config(tmp_path, task=dict(task, subsample=value))
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: task.subsample must be an integer in 1..%d, got %r" % (n, value) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value, rows", [(25, 25), (60, 60), (None, 60)])
    def test_prepare_keeps_that_many_source_rows(self, tmp_path, capsys, idx_task, value,
                                                 rows):
        cfg = write_config(tmp_path, task=dict(idx_task, subsample=value))
        out = tmp_path / "p"
        assert main(["prepare", "--config", str(cfg), "--out", str(out)]) == 0
        assert "prepared %d source and 40 target samples" % rows in capsys.readouterr().out
        assert len((out / "source_comp.csv").read_text().splitlines()) == 1 + rows

    def test_train_runs_on_the_subsample(self, tmp_path, idx_task):
        runs = []
        for value in (None, 25):
            cfg = write_config(tmp_path, task=dict(idx_task, subsample=value), epochs=2)
            out = tmp_path / str(value)
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            runs.append((out / "clarinet_seed0.csv").read_text().splitlines())
        assert [len(r) for r in runs] == [3, 3]
        assert runs[0][1].split(",")[1] != runs[1][1].split(",")[1]


@pytest.mark.parametrize("verb", ["prepare", "train"])
def test_idx_domains_that_disagree_on_K_exit_2(tmp_path, capsys, idx_task, verb):
    # a target with a fourth class would otherwise train at the source's K=3
    rng = np.random.default_rng(1)
    wider = LabeledDataset(rng.uniform(size=(40, 4)), np.arange(40) % 4 + 1, K=4)
    write_idx(idx_task["target_images"], idx_task["target_labels"], wider, 2, 2)
    out = tmp_path / "out"
    assert main([verb, "--config", str(write_config(tmp_path, task=idx_task)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: idx source and target disagree on K: the source labels give "
        "K=3, the target labels K=4\n")
    assert not out.exists()


def prepared_task(tmp_path, **files):
    """A prepared task over the small synthetic task, with ``files`` in
    place of its source or target CSV."""
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(write_config(tmp_path)), "--out", str(prep)]) == 0
    task = {"type": "prepared", "manifest": str(prep / "manifest.json"),
            "source_csv": str(prep / "source_comp.csv"),
            "target_csv": str(prep / "target.csv")}
    task.update(files)
    return write_config(tmp_path, task=task), task


def test_prepared_source_without_a_label_column_exits_2(tmp_path, capsys):
    source = tmp_path / "source.csv"
    write_csv(source, np.zeros((5, 2)))
    cfg, _ = prepared_task(tmp_path, source_csv=str(source))
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: %s has no label column; a prepared source holds its "
        "complementary labels there\n" % source)
    assert not out.exists()


@pytest.mark.parametrize("labelled", [False, True])
def test_prepared_target_of_another_width_exits_2(tmp_path, capsys, labelled):
    # unlabelled, it failed inside the first adversarial step; labelled, in
    # the first evaluation, without naming a file
    target = tmp_path / "wide.csv"
    write_csv(target, np.zeros((4, 3)), [1, 2, 3, 4] if labelled else None)
    cfg, task = prepared_task(tmp_path, target_csv=str(target))
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: %s has 3 feature columns, the source %s has 2\n"
        % (target, task["source_csv"]))
    assert not out.exists()


def test_eval_of_another_width_names_the_file(tmp_path, capsys, saved_model):
    data = tmp_path / "wide.csv"
    write_csv(data, np.zeros((2, 3)), [1, 2])
    assert main(["eval", str(saved_model[0]), str(data)]) == 2
    assert capsys.readouterr().err == (
        "config error: %s has 3 feature columns, the checkpoint's model takes 2\n" % data)

