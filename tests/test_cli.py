"""End-to-end command-line flows: exit codes, artifacts, reproducibility."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixformer as mx
from mixformer.cli import (
    AblateRun,
    BenchRlbRun,
    FlopsRun,
    GenRun,
    TrainRun,
    _resolve,
    build_parser,
    main,
)
from mixformer.features import read_dataset, read_oracle, read_schema
from mixformer.trainer import ABLATION_NAMES, auc


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A tiny generated corpus shared by the read-only command tests."""
    out = tmp_path_factory.mktemp("corpus")
    rc = main([
        "gen", "--out", str(out), "--users", "60", "--items", "30",
        "--requests", "80", "--candidates", "3", "--seq-len", "6",
        "--seed", "5", "--no-tune-oracle",
    ])
    assert rc == 0
    return out


def read_log(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    embedded = json.loads(lines[0][2:])
    return embedded, lines[1], lines[2:]


# -------------------------------------------------------------- resolve


class TestConfigResolution:
    def test_serialize_parse_identity(self):
        for dc in (
            GenRun(),
            TrainRun(epochs=3, model={"n_heads": 2}),
            FlopsRun(seq_len=8, rlb=True),
            BenchRlbRun(candidates_list="1,4", requests=3),
            AblateRun(max_steps=2, holdout_fraction=0.25),
        ):
            assert _resolve(type(dc)(), asdict(dc), {}) == dc

    @pytest.mark.parametrize("argv, run_type", [
        (["gen", "--out", "o"], GenRun),
        (["train", "--data", "d", "--out", "o"], TrainRun),
        (["flops"], FlopsRun),
        (["bench-rlb", "--data", "d"], BenchRlbRun),
        (["ablate", "--data", "d", "--out", "o"], AblateRun),
    ])
    def test_run_flags_have_no_parser_default(self, argv, run_type):
        """Each run default is declared once, in its dataclass."""
        args = vars(build_parser().parse_args(argv))
        run_keys = [f.name for f in fields(run_type) if f.name in args]
        assert run_keys
        assert {k: args[k] for k in run_keys} == dict.fromkeys(run_keys)

    @pytest.mark.parametrize("command, cfg", [
        ("train", {"model": {"ablations": {"foo": True}}}),
        ("flops", {"model": {"ablations": 3}}),
        ("flops", {"model": 3}),
        ("train", {"epochs": "two"}),
        ("flops", {"seq_len": "x"}),
        ("gen", {"n_users": "x"}),
        ("flops", {"model": {"ablations": {"wo_hm": "no"}}}),
        ("flops", {"model": {"decoupling": {
            "enabled": "yes", "n_user_heads": 2, "n_item_heads": 2,
        }}}),
        ("train", {"model": {"decoupling": {
            "enabled": True, "n_user_heads": 2.0, "n_item_heads": 2,
        }}}),
        ("train", {"model": {"n_blocks": 2.0}}),
    ])
    def test_bad_config_value_is_config_error(self, command, cfg, corpus, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        paths = {
            "gen": ["--out", str(tmp_path / "g")],
            "train": ["--data", str(corpus), "--out", str(tmp_path / "t")],
            "flops": [],
        }[command]
        assert main([command, *paths, "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "train", "bench-rlb", "ablate"])
    def test_negative_seed_is_config_error(self, command, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["--out", str(out)] if command == "gen" else [
            "--data", str(corpus), "--out", str(out)
        ]
        assert main([command, *args, "--seed", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: seed must be >= 0, not -1"]
        assert not out.exists()
        if command == "train":  # a resume fails the same way, and touches nothing
            assert main([command, *args, "--max-steps", "1"]) == 0
            before = {q.name: q.read_bytes() for q in out.iterdir()}
            ck = str(out / "checkpoint.bin")
            assert main([command, *args, "--resume", ck, "--seed", "-1"]) == 2
            assert {q.name: q.read_bytes() for q in out.iterdir()} == before

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--epochs", "-1"),
        ("train", "--eval-every", "-1"),
        ("train", "--save-every", "-1"),
        ("train", "--batch-size", "0"),
        ("ablate", "--max-steps", "0"),
        ("ablate", "--epochs", "0"),
        ("ablate", "--epochs", "-1"),
    ])
    def test_counts_that_cannot_run_are_config_errors(
        self, command, flag, value, corpus, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert main([command, "--data", str(corpus), "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ")
        assert not out.exists()

    def test_flags_beat_file_beats_defaults(self, tmp_path, corpus):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 3, "batch_size": 7, "max_steps": 2}))
        out = tmp_path / "run"
        rc = main([
            "train", "--data", str(corpus), "--out", str(out),
            "--config", str(cfg), "--epochs", "1",
        ])
        assert rc == 0
        record = json.loads((out / "metrics.json").read_text())
        resolved = record["run_config"]
        assert resolved["epochs"] == 1  # flag wins
        assert resolved["batch_size"] == 7  # file beats default
        assert resolved["max_steps"] == 2
        assert resolved["preset"] == "desk-small"  # untouched default

    def test_unknown_file_key_is_config_error(self, tmp_path, corpus):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epoch": 3}))
        rc = main([
            "train", "--data", str(corpus), "--out", str(tmp_path / "r"),
            "--config", str(cfg),
        ])
        assert rc == 2

    def test_malformed_config_file(self, tmp_path, corpus):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        rc = main([
            "train", "--data", str(corpus), "--out", str(tmp_path / "r"),
            "--config", str(cfg),
        ])
        assert rc == 2
        assert main([
            "train", "--data", str(corpus), "--out", str(tmp_path / "r"),
            "--config", str(tmp_path / "absent.json"),
        ]) == 2


# ------------------------------------------------------------------ gen


class TestGen:
    def test_writes_all_artifacts(self, corpus):
        for name in ("schema.txt", "dataset.bin", "oracle.csv", "gen_config.json"):
            assert (corpus / name).exists()
        record = json.loads((corpus / "gen_config.json").read_text())
        assert record["run_config"]["n_users"] == 60
        assert record["n_impressions"] == 80 * 3

    def test_printed_auc_matches_files(self, tmp_path, capsys):
        out = tmp_path / "c"
        rc = main([
            "gen", "--out", str(out), "--users", "200", "--items", "60",
            "--requests", "400", "--candidates", "4", "--seq-len", "8",
            "--seed", "9",
        ])
        assert rc == 0
        printed = re.search(r"oracle AUC (\d\.\d+)", capsys.readouterr().out)
        schema = read_schema(str(out / "schema.txt"))
        dataset = read_dataset(str(out / "dataset.bin"), schema)
        oracle = read_oracle(str(out / "oracle.csv"))
        scores = np.concatenate([m[:, 0] for m in oracle])
        labels = np.concatenate([r.labels[:, 0] for r in dataset.requests])
        recomputed = auc(scores, labels)
        assert printed.group(1) == f"{recomputed:.4f}"
        assert 0.84 <= recomputed <= 0.86  # default band, tuning on

    def test_same_flags_same_bytes(self, corpus, tmp_path):
        out = tmp_path / "again"
        rc = main([
            "gen", "--out", str(out), "--users", "60", "--items", "30",
            "--requests", "80", "--candidates", "3", "--seq-len", "6",
            "--seed", "5", "--no-tune-oracle",
        ])
        assert rc == 0
        assert (out / "dataset.bin").read_bytes() == (corpus / "dataset.bin").read_bytes()
        assert (out / "oracle.csv").read_bytes() == (corpus / "oracle.csv").read_bytes()

    def test_rerun_from_embedded_config(self, corpus, tmp_path):
        record = json.loads((corpus / "gen_config.json").read_text())
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(record["run_config"]))
        out = tmp_path / "replayed"
        rc = main(["gen", "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        assert (out / "dataset.bin").read_bytes() == (corpus / "dataset.bin").read_bytes()


# ---------------------------------------------------------------- train


class TestTrain:
    def test_artifacts_and_log_shape(self, corpus, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "train", "--data", str(corpus), "--out", str(out),
            "--max-steps", "3", "--batch-size", "30", "--eval-every", "2",
        ])
        assert rc == 0
        embedded, header, rows = read_log(out / "train_log.csv")
        assert embedded["max_steps"] == 3
        assert header == "step,epoch,loss,holdout_auc0,step_s,impr_per_s"
        assert len(rows) == 3
        cells = [r.split(",") for r in rows]
        assert [c[0] for c in cells] == ["1", "2", "3"]
        assert cells[1][3] != "" and cells[0][3] == ""  # eval_every=2
        assert (out / "checkpoint.bin").exists()
        record = json.loads((out / "metrics.json").read_text())
        assert record["steps"] == 3
        assert record["model_config"]["n_heads"] == 4

    def test_model_overrides_from_config_file(self, corpus, tmp_path):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(
            {"model": {"n_heads": 2, "head_dim": 8, "n_blocks": 1},
             "max_steps": 2}
        ))
        out = tmp_path / "run"
        rc = main([
            "train", "--data", str(corpus), "--out", str(out),
            "--config", str(cfg),
        ])
        assert rc == 0
        record = json.loads((out / "metrics.json").read_text())
        assert record["model_config"]["n_heads"] == 2
        assert record["model_config"]["head_dim"] == 8
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"heads": 2}}))
        assert main([
            "train", "--data", str(corpus), "--out", str(tmp_path / "r2"),
            "--config", str(bad),
        ]) == 2

    def test_zero_lr_leaves_parameters_at_init(self, corpus, tmp_path):
        out = tmp_path / "frozen"
        rc = main([
            "train", "--data", str(corpus), "--out", str(out),
            "--max-steps", "3", "--lr-dense", "0", "--lr-sparse", "0",
            "--seed", "11",
        ])
        assert rc == 0
        loaded, _, _ = mx.load_checkpoint(str(out / "checkpoint.bin"))
        schema = read_schema(str(corpus / "schema.txt"))
        fresh = mx.init_parameters(schema, loaded.config, seed=11)
        for name, tensor in fresh.dense.items():
            np.testing.assert_array_equal(loaded.dense[name].data, tensor.data)
        for name, table in fresh.tables.items():
            np.testing.assert_array_equal(
                loaded.tables[name].weight.data, table.weight.data
            )

    def test_resume_matches_uninterrupted_run(self, corpus, tmp_path):
        args = ["--data", str(corpus), "--batch-size", "15", "--epochs", "1"]
        straight = tmp_path / "straight"
        rc = main(["train", *args, "--out", str(straight), "--max-steps", "6"])
        assert rc == 0
        part1 = tmp_path / "part1"
        rc = main(["train", *args, "--out", str(part1), "--max-steps", "3"])
        assert rc == 0
        part2 = tmp_path / "part2"
        rc = main([
            "train", *args, "--out", str(part2), "--max-steps", "3",
            "--resume", str(part1 / "checkpoint.bin"),
        ])
        assert rc == 0

        a, _, _ = mx.load_checkpoint(str(straight / "checkpoint.bin"))
        b, _, _ = mx.load_checkpoint(str(part2 / "checkpoint.bin"))
        for name in a.dense:
            np.testing.assert_array_equal(a.dense[name].data, b.dense[name].data)
        loss = lambda p: [r.split(",")[2] for r in read_log(p / "train_log.csv")[2]]
        resumed = loss(part1) + [
            r.split(",")[2]
            for r in (part2 / "train_log.csv").read_text().splitlines()
        ]
        assert loss(straight) == resumed

    def test_resume_continues_step_column(self, corpus, tmp_path):
        args = ["--data", str(corpus), "--batch-size", "15", "--save-every", "1"]
        part1 = tmp_path / "part1"
        assert main(["train", *args, "--out", str(part1), "--max-steps", "3"]) == 0
        part2 = tmp_path / "part2"
        rc = main([
            "train", *args, "--out", str(part2), "--max-steps", "3",
            "--resume", str(part1 / "checkpoint.bin"),
        ])
        assert rc == 0
        rows = (part2 / "train_log.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows] == ["4", "5", "6"]
        _, _, extra = mx.load_checkpoint(str(part2 / "checkpoint.bin"))
        assert extra["global_step"] == 6

    def test_step_time_and_throughput_logged(self, corpus, tmp_path):
        out = tmp_path / "run"
        args = ["train", "--data", str(corpus), "--out", str(out), "--batch-size", "15"]
        assert main([*args, "--max-steps", "2", "--eval-every", "1"]) == 0
        assert main([*args, "--max-steps", "2", "--resume", str(out / "checkpoint.bin")]) == 0
        _, header, rows = read_log(out / "train_log.csv")
        assert header.split(",")[-2:] == ["step_s", "impr_per_s"]
        assert [r.split(",")[0] for r in rows] == ["1", "2", "3", "4"]
        for row in rows:
            step_s, impr_per_s = (float(c) for c in row.split(",")[-2:])
            assert step_s > 0 and impr_per_s > 0
            # a batch holds 1 to 5 requests of 3 candidates each
            assert round(impr_per_s * step_s) in (3, 6, 9, 12, 15)

    def test_failed_write_keeps_log_and_checkpoint(self, corpus, tmp_path, monkeypatch):
        out = tmp_path / "run"
        args = ["train", "--data", str(corpus), "--batch-size", "15", "--out", str(out)]
        assert main([*args, "--max-steps", "2"]) == 0
        files = lambda: {p.name: p.read_bytes() for p in out.iterdir()}
        before = files()
        resume = [*args, "--max-steps", "1", "--save-every", "1",
                  "--resume", str(out / "checkpoint.bin")]

        def disk_full(*_):
            raise OSError("disk full")

        # the log rewrite before a resume fails between write and rename
        with monkeypatch.context() as m:
            m.setattr(mx.features.os, "fsync", disk_full)
            with pytest.raises(OSError, match="disk full"):
                main(resume)
        assert files() == before

        # the step-3 checkpoint fails midway through its arrays
        calls = []
        real_write = mx.blocks._write_array

        def failing_write(fh, arr):
            calls.append(1)
            if len(calls) == 3:
                disk_full()
            real_write(fh, arr)

        monkeypatch.setattr(mx.blocks, "_write_array", failing_write)
        with pytest.raises(OSError, match="disk full"):
            main(resume)
        after = files()
        assert sorted(after) == sorted(before)
        assert after["checkpoint.bin"] == before["checkpoint.bin"]
        log = after["train_log.csv"]
        assert log.startswith(before["train_log.csv"]) and log.endswith(b"\n")

    def test_resume_drops_rows_past_checkpoint(self, corpus, tmp_path):
        out = tmp_path / "run"
        args = ["train", "--data", str(corpus), "--batch-size", "15", "--out", str(out)]
        assert main([*args, "--max-steps", "2"]) == 0
        step2 = tmp_path / "step2.bin"
        shutil.copy(out / "checkpoint.bin", step2)
        assert main([*args, "--max-steps", "1", "--resume", str(out / "checkpoint.bin")]) == 0
        # step 3 is thrown away: resume from the step-2 checkpoint again
        assert main([*args, "--max-steps", "2", "--resume", str(step2)]) == 0
        _, _, rows = read_log(out / "train_log.csv")
        assert [r.split(",")[0] for r in rows] == ["1", "2", "3", "4"]

    def test_killed_run_keeps_its_log(self, corpus, tmp_path):
        # wherever the SIGKILL lands, the log on disk reaches the checkpoint,
        # and a resume (also past a stale temporary file) retraces the run
        args = ["train", "--data", str(corpus), "--batch-size", "15", "--epochs", "3"]
        straight = tmp_path / "straight"
        assert main([*args, "--out", str(straight)]) == 0
        killed = tmp_path / "killed"
        env = {**os.environ, "PYTHONPATH": str(Path(mx.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "mixformer", *args, "--out", str(killed), "--save-every", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not (killed / "checkpoint.bin").exists() and proc.poll() is None:
                assert time.monotonic() < deadline, "no checkpoint within 120 s"
                time.sleep(0.005)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        _, _, extra = mx.load_checkpoint(str(killed / "checkpoint.bin"))
        rows = (killed / "train_log.csv").read_text().split("\n")[2:-1]
        assert rows and int(rows[-1].split(",")[0]) >= extra["global_step"]

        columns = lambda out: [r.split(",")[:3] for r in read_log(out / "train_log.csv")[2]]
        final, _, _ = mx.load_checkpoint(str(straight / "checkpoint.bin"))
        for stale in (False, True):
            out = tmp_path / f"resumed_{stale}"
            shutil.copytree(killed, out)
            if stale:
                (out / "checkpoint.bin.tmp").write_bytes(b"torn")
            assert main([*args, "--out", str(out), "--resume", str(out / "checkpoint.bin")]) == 0
            assert not (out / "checkpoint.bin.tmp").exists()
            assert columns(out) == columns(straight)
            store, _, _ = mx.load_checkpoint(str(out / "checkpoint.bin"))
            for name, tensor in final.dense.items():
                np.testing.assert_array_equal(store.dense[name].data, tensor.data)
            for name, table in final.tables.items():
                np.testing.assert_array_equal(store.tables[name].weight.data, table.weight.data)

    def test_default_learning_rate_does_not_diverge(self, tmp_path):
        data = tmp_path / "data"
        assert main([
            "gen", "--out", str(data), "--users", "200", "--items", "60",
            "--requests", "400", "--seed", "0",
        ]) == 0
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out), "--max-steps", "6"]) == 0
        _, _, rows = read_log(out / "train_log.csv")
        losses = [float(r.split(",")[2]) for r in rows]
        assert len(losses) == 6
        assert max(losses) < 10.0

    def test_resume_needs_optimizer_state(self, corpus, tmp_path):
        out = tmp_path / "run"
        main(["train", "--data", str(corpus), "--out", str(out), "--max-steps", "1"])
        store, _, _ = mx.load_checkpoint(str(out / "checkpoint.bin"))
        bare = tmp_path / "bare.bin"
        mx.save_checkpoint(str(bare), store)
        rc = main([
            "train", "--data", str(corpus), "--out", str(tmp_path / "r2"),
            "--resume", str(bare),
        ])
        assert rc == 3

    def test_resume_on_another_corpus_is_data_error(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(corpus), "--out", str(out), "--max-steps", "1"]) == 0
        other = tmp_path / "other"
        assert main([
            "gen", "--out", str(other), "--users", "40", "--items", "30",
            "--requests", "80", "--candidates", "3", "--seq-len", "16",
            "--seed", "5", "--no-tune-oracle",
        ]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rc = main([
            "train", "--data", str(other), "--out", str(out),
            "--resume", str(out / "checkpoint.bin"),
        ])
        assert rc == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("extra, message", [
        ({"epoch": "x"}, "epoch must be"),
        ({"epoch": -3}, "epoch must be"),
        ({"epoch": [1]}, "epoch must be"),
        ({"epoch": 2.5}, "epoch must be"),
        ({"epoch": True}, "epoch must be"),
        ({"step_in_epoch": None}, "step_in_epoch must be"),
        ({"global_step": -5}, "global_step must be"),
        ([0, 0, 1], "extra must be an object"),
    ], ids=[
        "epoch_text", "epoch_negative", "epoch_list", "epoch_float", "epoch_bool",
        "step_in_epoch_null", "global_step_negative", "extra_list",
    ])
    def test_bad_resume_position_is_data_error(self, corpus, tmp_path, capsys, extra, message):
        out = tmp_path / "run"
        args = ["train", "--data", str(corpus), "--out", str(out)]
        assert main([*args, "--max-steps", "1"]) == 0
        blob = (out / "checkpoint.bin").read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + hlen])
        header["extra"] = {**header["extra"], **extra} if isinstance(extra, dict) else extra
        hb = json.dumps(header, sort_keys=True).encode()
        bad = tmp_path / "position.bin"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(hb)) + hb + blob[12 + hlen :])
        before = {q.name: q.read_bytes() for q in out.iterdir()}
        capsys.readouterr()
        assert main([*args, "--resume", str(bad)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "position.bin" in err[0] and message in err[0]
        assert {q.name: q.read_bytes() for q in out.iterdir()} == before

    def test_decouple_flag_threads_through(self, corpus, tmp_path):
        out = tmp_path / "dec"
        rc = main([
            "train", "--data", str(corpus), "--out", str(out),
            "--max-steps", "2", "--decouple",
        ])
        assert rc == 0
        record = json.loads((out / "metrics.json").read_text())
        dec = record["model_config"]["decoupling"]
        assert dec["enabled"] is True
        assert dec["n_user_heads"] + dec["n_item_heads"] == 4

    def test_exit_codes(self, corpus, tmp_path):
        out = str(tmp_path / "r")
        assert main([
            "train", "--data", str(tmp_path / "nowhere"), "--out", out,
        ]) == 3
        assert main([
            "train", "--data", str(corpus), "--out", out,
            "--preset", "small-reported",
        ]) == 2
        assert main([
            "train", "--data", str(corpus), "--out", out, "--max-steps", "-1",
        ]) == 2
        with np.errstate(all="ignore"):
            assert main([
                "train", "--data", str(corpus), "--out", out,
                "--epochs", "8", "--lr-dense", "1e200",
            ]) == 4
        assert main(["train", "--data", str(corpus), "--out", out, "--max-steps", "1"]) == 0
        whole = (tmp_path / "r" / "checkpoint.bin").read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(whole[: len(whole) // 2])
        assert main([
            "train", "--data", str(corpus), "--out", out, "--resume", str(cut),
        ]) == 3
        one_class = tmp_path / "one_class"  # a corpus whose oracle AUC is undefined
        assert main([
            "gen", "--out", str(one_class), "--requests", "1", "--candidates", "2",
            "--seq-len", "3", "--users", "5", "--items", "5", "--no-tune-oracle", "--seed", "0",
        ]) == 3
        assert not one_class.exists()
        assert main(["flops", "--axis", "sequence", "--points", "5,x"]) == 2
        assert main(["flops", "--axis", "dense", "--points", "384:x"]) == 2
        for ks in ("32,x", "0"):
            assert main([
                "bench-rlb", "--data", str(corpus), "--candidates-list", ks,
            ]) == 2
        for n in ("0", "-1"):
            assert main(["bench-rlb", "--data", str(corpus), "--requests", n]) == 2
        for fraction in ("1.5", "-0.5"):
            assert main([
                "train", "--data", str(corpus), "--out", out,
                "--holdout-fraction", fraction,
            ]) == 2
        assert main([
            "ablate", "--data", str(corpus), "--out", out, "--holdout-fraction", "0",
        ]) == 2
        for width in ({"d_ns_user": -4}, {"d_ns_item": 0}, {"action_dim": 0}):
            bad = tmp_path / "widths.json"
            bad.write_text(json.dumps(width))
            assert main(["flops", "--config", str(bad)]) == 2
        bad.write_bytes(b'{"seq_len": 8\xff}')  # not UTF-8
        assert main(["flops", "--config", str(bad)]) == 2
        assert main(["flops", "--config", str(tmp_path)]) == 2  # a directory
        bad.write_text(json.dumps({"axis": "width"}))
        assert main(["flops", "--config", str(bad)]) == 2
        log = tmp_path / "r" / "train_log.csv"
        log.write_bytes(log.read_bytes() + b"9\xff\n")
        assert main([
            "train", "--data", str(corpus), "--out", out,
            "--resume", str(tmp_path / "r" / "checkpoint.bin"),
        ]) == 3
        # settings that contradict the corpus or the file format exit 2
        # before any file is written
        fresh = tmp_path / "fresh"
        for settings in (
            {"model": {"n_tasks": 3}},
            {"model": {"n_tasks": 3}, "max_steps": 0},
            {"model": {"n_tasks": 1}, "max_steps": 0},
            {"model": {"task_hidden": 0}},
        ):
            bad.write_text(json.dumps(settings))
            assert main([
                "train", "--data", str(corpus), "--out", str(fresh), "--config", str(bad),
            ]) == 2
        schema = read_schema(str(corpus / "schema.txt"))
        cfg = mx.ModelConfig(n_heads=4, head_dim=32, n_blocks=2, max_seq_len=64, n_tasks=3)
        store = mx.init_parameters(schema, cfg, seed=0)
        tasks3 = tmp_path / "tasks3.bin"
        mx.save_checkpoint(
            str(tasks3), store, dense_opt={n: np.zeros(p.shape) for n, p in store.dense.items()}
        )
        assert main([
            "train", "--data", str(corpus), "--out", str(fresh), "--resume", str(tasks3),
        ]) == 2
        for flag in ("--seq-len", "--candidates"):
            assert main(["gen", "--out", str(fresh), flag, "70000"]) == 2
        assert not fresh.exists()
        bad.write_text(json.dumps({"model": {"task_hidden": -3}}))
        assert main(["flops", "--config", str(bad)]) == 2

    def test_invalid_preset_message_names_alternative(self, corpus, tmp_path, capsys):
        main([
            "train", "--data", str(corpus), "--out", str(tmp_path / "r"),
            "--preset", "small-reported",
        ])
        err = capsys.readouterr().err
        assert "small-corrected" in err
        assert "386" in err


# ---------------------------------------------------------------- flops


class TestFlops:
    def test_default_report(self, capsys):
        assert main(["flops"]) == 0
        out = capsys.readouterr().out
        assert "params (dense):" in out
        assert "flops for 1 candidate(s):" in out

    def test_sequence_axis_affine_in_t(self, tmp_path):
        csv = tmp_path / "seq.csv"
        rc = main([
            "flops", "--axis", "sequence", "--points", "8,32,20,0",
            "--out", str(csv),
        ])
        assert rc == 0
        _, header, rows = read_log(csv)
        assert header == "head_dim,n_blocks,seq_len,params,flops"
        pts = {int(r.split(",")[2]): int(r.split(",")[4]) for r in rows}
        slope = (pts[32] - pts[8]) // (32 - 8)
        assert pts[20] == pts[8] + slope * (20 - 8)
        assert pts[0] == pts[8] - slope * 8

    def test_sequence_axis_default_points(self, capsys):
        assert main(["flops", "--axis", "sequence"]) == 0
        out = capsys.readouterr().out
        ts = [int(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert ts == [512, 2048, 8192, 10000]

    def test_dense_axis(self, tmp_path, capsys):
        assert main(["flops", "--axis", "dense"]) == 2
        rc = main([
            "flops", "--preset", "small-corrected", "--axis", "dense",
            "--points", "384:4,768:4",
        ])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        small = [int(x) for x in rows[-2].split(",")]
        medium = [int(x) for x in rows[-1].split(",")]
        assert medium[0] == 2 * small[0]
        assert medium[3] > small[3] and medium[4] > small[4]

    def test_axis_report_reruns_from_its_header(self, tmp_path):
        a, b, cfg = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "a.json"
        assert main([
            "flops", "--axis", "dense", "--points", "64:2,128:2", "--out", str(a),
        ]) == 0
        embedded, _, rows = read_log(a)
        assert (embedded["axis"], embedded["points"]) == ("dense", "64:2,128:2")
        assert len(rows) == 2
        cfg.write_text(json.dumps(embedded))
        assert main(["flops", "--config", str(cfg), "--out", str(b)]) == 0
        assert b.read_bytes() == a.read_bytes()

    def test_rlb_savings_printed(self, corpus, capsys):
        rc = main([
            "flops", "--schema", str(corpus / "schema.txt"),
            "--rlb", "--candidates", "8", "--seq-len", "6",
        ])
        assert rc == 0
        m = re.search(r"savings at K=8: (0\.\d+)", capsys.readouterr().out)
        assert m and 0.0 < float(m.group(1)) < 1.0

    def test_production_summary(self, capsys):
        assert main(["flops", "--production"]) == 0
        out = capsys.readouterr().out
        m = re.search(r"savings vs unbatched: (0\.\d+)", out)
        assert m and 0.25 <= float(m.group(1)) <= 0.45
        assert "request-shared-sequence" in out

    def test_invalid_preset(self):
        with pytest.raises(SystemExit):  # argparse rejects unknown choices
            main(["flops", "--preset", "nope"])


# ------------------------------------------------------------ bench-rlb


class TestBenchRlb:
    def test_equivalence_and_savings_columns(self, corpus, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        rc = main([
            "bench-rlb", "--data", str(corpus), "--candidates-list", "1,2",
            "--requests", "4", "--out", str(csv),
        ])
        assert rc == 0
        embedded, header, rows = read_log(csv)
        assert embedded["candidates_list"] == "1,2"
        assert header.startswith("k,wall_percand_s")
        assert len(rows) == 2
        k1 = rows[0].split(",")
        k2 = rows[1].split(",")
        assert float(k1[4]) < 1e-9 and float(k2[4]) < 1e-9  # max |diff|
        assert float(k1[5]) == 0.0  # no shared work to save at K=1
        assert float(k2[5]) > 0.0
        assert header.endswith(",wall_batched_s")
        assert float(k1[6]) > 0.0 and float(k2[6]) > 0.0  # masked batched_forward


# --------------------------------------------------------------- ablate


class TestAblate:
    def test_csv_has_base_plus_six_single_switches(self, corpus, tmp_path):
        out = tmp_path / "abl"
        rc = main([
            "ablate", "--data", str(corpus), "--out", str(out),
            "--max-steps", "2", "--batch-size", "30",
        ])
        assert rc == 0
        embedded, header, rows = read_log(out / "ablations.csv")
        assert embedded["max_steps"] == 2
        assert header == "name,changed_fields,params,flops,final_loss,auc0,delta_auc0"
        assert len(rows) == 7
        cells = [r.split(",") for r in rows]
        assert cells[0][0] == "base" and cells[0][1] == "0"
        assert [c[0] for c in cells[1:]] == list(ABLATION_NAMES)
        for c in cells[1:]:
            assert c[1] == "1"  # exactly one config switch
            assert np.isfinite(float(c[4])) and np.isfinite(float(c[5]))


# -------------------------------------------------------- corrupt input


GEN_FILES = ("schema.txt", "dataset.bin", "oracle.csv")


@pytest.fixture(scope="module")
def corrupt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt")


def read_back(corpus, name, path):
    """Read one corrupted gen output the way the CLI would."""
    if name == "schema.txt":
        read_schema(str(path))
    elif name == "dataset.bin":
        read_dataset(str(path), read_schema(str(corpus / "schema.txt")))
    else:
        read_oracle(str(path))


class TestCorruptInputs:
    """A truncated or bit-flipped gen output reads back whole or raises a
    typed error; never a raw UnicodeDecodeError, ValueError or KeyError."""

    @pytest.mark.parametrize("name", GEN_FILES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated(self, corpus, corrupt_dir, name, data):
        blob = (corpus / name).read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path = corrupt_dir / name
        path.write_bytes(blob[:cut])
        try:
            read_back(corpus, name, path)
        except (mx.DataError, mx.ConfigError):
            pass

    @pytest.mark.parametrize("name", GEN_FILES)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_flipped(self, corpus, corrupt_dir, name, data):
        blob = bytearray((corpus / name).read_bytes())
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        blob[bit // 8] ^= 1 << (bit % 8)
        path = corrupt_dir / name
        path.write_bytes(bytes(blob))
        try:
            read_back(corpus, name, path)
        except (mx.DataError, mx.ConfigError):
            pass

    def test_non_utf8_schema_exits_3(self, corpus, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(corpus, data)
        blob = bytearray((data / "schema.txt").read_bytes())
        blob[0] ^= 0x80
        (data / "schema.txt").write_bytes(bytes(blob))
        out = str(tmp_path / "run")
        assert main(["train", "--data", str(data), "--out", out, "--max-steps", "1"]) == 3
        assert main(["flops", "--schema", str(data / "schema.txt")]) == 3
