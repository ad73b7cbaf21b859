import contextlib
import csv
import io
import json
import os
import tempfile
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hizfo.cli import main
from hizfo.config import (
    _SCHEMA,
    build_data,
    build_model,
    build_optimizer_config,
    default_config,
    parse_config,
    serialize_config,
)
from hizfo.optimizer import ALGORITHMS, OptimizerConfig
from hizfo.tensors import ConfigurationError

MLP_CFG = """
[model]
kind = mlp
hidden_dims = 16
seed = 1

[task]
dataset = two_moons
batch_size = 32
train_batches = 4
eval_batches = 2

[optimizer]
algorithm = hizfo
eta_fo = 0.05
eta_zo = 0.005
max_steps = 30
eval_interval = 10

[partition]
rho = 0.6

[run]
master_seed = 3
out_dir = {out}
"""


LM_CFG = """
[model]
kind = attention_lm
d_model = 8
depth = 1
context = 8

[task]
dataset = char_corpus
batch_size = 4
train_batches = 2
eval_batches = 2
corpus_path = {corpus}

[optimizer]
max_steps = 5

[run]
out_dir = {out}
"""


def with_value(text, section, key, value):
    """`text` with [section] `key` set to `value` and no other line for it."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    at = lines.index(f"[{section}]") + 1
    return "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"


def strip_wall(path):
    """CSV bytes with wall-clock columns removed."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    drop = [i for i, name in enumerate(rows[0]) if "wall" in name]
    return [[c for i, c in enumerate(r) if i not in drop] for r in rows]


# a value each key accepts: one of its names for the enumerated string keys,
# otherwise any finite value its type tag accepts
_CHOICES = {
    "kind": ("mlp", "attention_lm"),
    "dataset": ("two_moons", "char_corpus"),
    "algorithm": ALGORITHMS,
}
_TEXT = st.text("abcdefghijklmnopqrstuvwxyz0123456789:,._/-", max_size=12)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_BY_TAG = {
    "s": _TEXT,
    "os": st.none() | _TEXT,
    "i": st.integers(-2**63, 2**63),
    "n": st.integers(0, 2**64),
    "p": st.integers(1, 2**64),
    "f": _FLOAT,
    "nf": st.floats(min_value=0.0, allow_infinity=False),
}


# edge values for the fuzz: bounds, non-finite and huge floats, the empty
# string, a word, and every name an enumerated key takes
_EDGE_VALUES = ("0", "-1", "2", "3", "nan", "inf", "-inf", "1e300", "", "abc",
                *_CHOICES["kind"], *_CHOICES["dataset"], *ALGORITHMS, "3:1.0:0.0")
_FUZZ_KEYS = [(s, k) for s in _SCHEMA for k in _SCHEMA[s] if (s, k) != ("run", "out_dir")]


class TestConfig:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.data())
    def test_serialize_parse_is_a_fixed_point(self, data):
        # any subset of keys, sections and keys in any order, any spacing
        parts = []
        for section in data.draw(st.permutations(list(_SCHEMA))):
            lines = [f"[{section}]"]
            for key in data.draw(st.lists(st.sampled_from(list(_SCHEMA[section])), unique=True)):
                tag = _SCHEMA[section][key][0]
                value = data.draw(st.sampled_from(_CHOICES[key]) if key in _CHOICES else _BY_TAG[tag])
                pad = data.draw(st.sampled_from(("", " ", "  ")))
                lines.append(f"{key}{pad}={pad}{'' if value is None else value}")
            parts.append("\n".join(lines))
        cfg = parse_config("\n\n".join(parts) + "\n")
        once = serialize_config(cfg)
        assert parse_config(once).values == cfg.values
        assert serialize_config(parse_config(once)) == once

    def test_optimizer_keys_are_the_optimizer_config_fields(self):
        # a field with no key cannot be set from a config; a key with no field
        # fails build_optimizer_config
        keys = set(_SCHEMA["optimizer"]) - {"algorithm"}
        assert keys == {f.name for f in fields(OptimizerConfig)} - {"master_seed"}

    def test_unknown_key_rejected(self):
        # a typo, and the keys of the removed Adam-like FO rule, MSE head
        # and free MLP input and output widths
        for section, key in [("model", "kindd"), ("model", "input_dim"), ("model", "output_dim"),
                             ("model", "loss"), ("optimizer", "fo_rule"), ("optimizer", "beta1"),
                             ("optimizer", "beta2"), ("optimizer", "weight_decay")]:
            with pytest.raises(ConfigurationError, match=rf"^unknown config key \[{section}\] {key}$"):
                parse_config(f"[{section}]\n{key} = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("[modle]\nkind = mlp\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("[optimizer]\nmax_steps = soon\n")

    def test_defaults_follow_reference_hyperparameters(self):
        cfg = default_config()
        opt = build_optimizer_config(cfg)
        assert (opt.epsilon, opt.alpha) == (1e-3, 0.1)
        assert (opt.eta_fo, opt.eta_zo) == (2e-5, 2e-6)

    def test_warmup_lr_defaults_to_1e_3(self):
        assert default_config().warmup() == (5, 1e-3)
        with pytest.raises(ConfigurationError, match=r"^bad value for \[partition\] warmup_lr: ''$"):
            parse_config("[partition]\nwarmup_lr =\n")

    def test_builders(self):
        cfg = parse_config(MLP_CFG.format(out="runs/x"))
        model = build_model(cfg)
        train_b, eval_b = build_data(cfg, model)
        assert len(train_b) == 4 and len(eval_b) == 2
        assert model.kind == "mlp"


class TestCli:
    def run_cli(self, *args):
        return main(list(args))

    def write_cfg(self, tmp_path, text=None):
        path = tmp_path / "exp.cfg"
        path.write_text(text or MLP_CFG.format(out=tmp_path / "out"))
        return path

    def test_profile_partition_train_report(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert self.run_cli("profile", "--config", str(cfg), "--out", str(tmp_path / "p")) == 0
        with open(tmp_path / "p" / "importance.csv") as f:
            rows = list(csv.DictReader(f))
        assert {r["tensor"] for r in rows} == {
            "layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias"
        }
        assert (tmp_path / "p" / "cost_model.json").exists()

        assert self.run_cli("partition", "--config", str(cfg), "--out", str(tmp_path / "q")) == 0
        with open(tmp_path / "q" / "plan.json") as f:
            plan = json.load(f)
        assert plan["rho"] == 0.6 and plan["fo"]

        assert self.run_cli("train", "--config", str(cfg)) == 0
        assert self.run_cli("report", "--out", str(tmp_path / "out")) == 0
        out = capsys.readouterr().out
        assert "final eval loss" in out

    def test_rerun_same_seed_identical_files(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        assert self.run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "a")) == 0
        assert self.run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "b")) == 0
        assert strip_wall(tmp_path / "a" / "steps.csv") == strip_wall(tmp_path / "b" / "steps.csv")
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        ra.pop("wall_total_ns"), rb.pop("wall_total_ns")
        assert ra == rb

    def test_seed_override_changes_run(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        self.run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "3")
        self.run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "4")
        assert strip_wall(tmp_path / "a" / "steps.csv") != strip_wall(tmp_path / "b" / "steps.csv")

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nkind = perceptron\n")
        assert self.run_cli("train", "--config", str(bad)) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert self.run_cli("train", "--config", str(tmp_path / "none.cfg")) == 1

    def test_diverged_exit_code(self, tmp_path):
        text = with_value(MLP_CFG.format(out=tmp_path / "out"), "optimizer", "eta_fo", "1e308")
        cfg = self.write_cfg(tmp_path, text)
        assert self.run_cli("train", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("algorithm", ["hizfo", "full_fo"])
    def test_diverged_steps_csv_has_a_row_per_record(self, tmp_path, algorithm):
        text = with_value(MLP_CFG.format(out=tmp_path / "out"), "optimizer", "eta_fo", "1e308")
        cfg = self.write_cfg(tmp_path, with_value(text, "optimizer", "algorithm", algorithm))
        assert self.run_cli("train", "--config", str(cfg)) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        with open(tmp_path / "out" / "steps.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert "diverged" not in rows[0]
        assert len(rows) == 1 + report["steps_run"]
        assert rows[-1][rows[0].index("L_total")] == "nan"  # the record of the aborted step

    def test_diverged_report_is_strict_json(self, tmp_path, capsys):
        text = with_value(MLP_CFG.format(out=tmp_path / "out"), "optimizer", "eta_fo", "1e308")
        cfg = self.write_cfg(tmp_path, with_value(text, "optimizer", "algorithm", "full_fo"))
        assert self.run_cli("train", "--config", str(cfg)) == 2

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=reject)
        assert report["diverged"] and report["final_eval_loss"] is None
        assert self.run_cli("report", "--out", str(tmp_path / "out")) == 0
        assert "final eval loss:    None" in capsys.readouterr().out

    def test_sweep_axis_and_medians(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        os.environ["HZFO_THREADS"] = "2"
        try:
            code = self.run_cli(
                "sweep", "--config", str(cfg), "--axis", "alpha",
                "--values", "0,0.1", "--out", str(tmp_path / "sw"),
            )
        finally:
            del os.environ["HZFO_THREADS"]
        assert code == 0
        with open(tmp_path / "sw" / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 10  # 2 values x 5 seeds
        assert {r["value"] for r in rows} == {"0.0", "0.1"}
        with open(tmp_path / "sw" / "sweep_summary.csv") as f:
            summary = list(csv.DictReader(f))
        assert len(summary) == 2
        assert all(r["n_runs"] == "5" for r in summary)

    def test_verify_fast_passes(self, capsys):
        assert self.run_cli("verify", "--fast") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"[PASS] {name}" for name in (
            "estimator_unbiasedness", "bias_scaling", "second_moment_bound",
            "rate_band", "restore_exactness", "step_estimator",
        )]

    def test_bad_hidden_dims_is_config_error(self, tmp_path, capsys):
        text = MLP_CFG.format(out=tmp_path / "out").replace("hidden_dims = 16", "hidden_dims = 16,x")
        cfg = self.write_cfg(tmp_path, text)
        assert self.run_cli("train", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "hidden_dims" in err

    def test_bad_quadratic_blocks_is_config_error(self, tmp_path, capsys):
        # a config written for the deleted quadratic kind fails on its blocks key
        text = (
            "[model]\nkind = quadratic\nblocks = 10:1.0\n"
            "[task]\ndataset = analytic\n"
            f"[run]\nout_dir = {tmp_path / 'out'}\n"
        )
        cfg = self.write_cfg(tmp_path, text)
        assert self.run_cli("profile", "--config", str(cfg), "--out", str(tmp_path / "p")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "blocks" in err

    def test_warmup_overflow_exits_diverged(self, tmp_path, capsys):
        text = MLP_CFG.format(out=tmp_path / "out").replace("rho = 0.6", "rho = 0.6\nwarmup_lr = 1e308")
        cfg = self.write_cfg(tmp_path, text)
        assert self.run_cli("train", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("diverged:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,threads,files", [
        (["sweep", "--config", "{cfg}", "--axis", "alpha", "--values", "0.1,x"], None, {}),
        (["sweep", "--config", "{cfg}", "--axis", "alpha", "--values", "0.1"], "abc", {}),
        (["report", "--out", "{tmp}"], None, {"report.json": b"{"}),
        (["report", "--out", "{tmp}"], None, {"report.json": b'{"algorithm": "hizfo"}'}),
        (["train", "--config", "{tmp}"], None, {}),
        (["train", "--config", "{tmp}/latin1.cfg"], None, {"latin1.cfg": b"[run]\nout_dir = \xe9\n"}),
    ], ids=["sweep_values", "hzfo_threads", "report_not_json", "report_missing_key",
            "config_is_directory", "config_not_utf8"])
    def test_bad_input_is_config_error(self, tmp_path, capsys, monkeypatch, argv, threads, files):
        cfg = self.write_cfg(tmp_path)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        if threads is not None:
            monkeypatch.setenv("HZFO_THREADS", threads)
        argv = [a.format(cfg=cfg, tmp=tmp_path) for a in argv]
        assert self.run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["train", "--config", "{cfg}", "--seed", "abc"],
        ["sweep", "--config", "{cfg}", "--axis", "bogus", "--values", "1"],
        ["bogus"],
    ], ids=["no_config", "seed_not_int", "unknown_axis", "unknown_command"])
    def test_malformed_command_line_is_config_error(self, tmp_path, capsys, argv):
        cfg = self.write_cfg(tmp_path)
        assert self.run_cli(*[a.format(cfg=cfg) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        with pytest.raises(SystemExit) as e:  # help is not an error
            self.run_cli("--help")
        assert e.value.code == 0

    @staticmethod
    def forbid_runs(monkeypatch):
        def no_run(*args):
            raise AssertionError("a run started")
        monkeypatch.setattr("hizfo.cli._profile", no_run)
        monkeypatch.setenv("HZFO_THREADS", "1")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_sweep_value_fails_before_any_run(self, tmp_path, capsys, monkeypatch, value):
        self.forbid_runs(monkeypatch)
        cfg = self.write_cfg(tmp_path)
        code = self.run_cli("sweep", "--config", str(cfg), "--axis", "r", "--values", f"0.1,{value}")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    @pytest.mark.parametrize("command", ["profile", "partition", "train", "sweep"])
    def test_out_naming_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch, command, below):
        self.forbid_runs(monkeypatch)
        cfg = self.write_cfg(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        extra = ["--axis", "r", "--values", "0.1"] if command == "sweep" else []
        code = self.run_cli(command, "--config", str(cfg), "--out", str(taken / below), *extra)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize("dataset", ["two_moons", "char_corpus"])
    @pytest.mark.parametrize("section,key,value", [
        ("task", "batch_size", "0"),
        ("task", "train_batches", "0"),
        ("task", "eval_batches", "0"),
        ("model", "seed", "-1"),
        ("task", "data_seed", "-1"),
        ("run", "master_seed", "-1"),
        (None, "--seed", "-1"),
    ])
    def test_zero_count_or_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                         dataset, section, key, value):
        self.forbid_runs(monkeypatch)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat on the mat " * 20)
        out = tmp_path / "out"
        text = MLP_CFG.format(out=out) if dataset == "two_moons" else LM_CFG.format(corpus=corpus, out=out)
        argv = [key, value] if section is None else []
        if section is not None:
            text = with_value(text, section, key, value)
        cfg = self.write_cfg(tmp_path, text)
        assert self.run_cli("train", "--config", str(cfg), *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("base,section,key,value", [
        ("mlp", "model", "hidden_dims", "-3"),
        ("mlp", "model", "input_dim", "0"),
        ("mlp", "model", "output_dim", "1"),
        ("mlp", "model", "loss", "mse"),
        ("lm", "model", "d_model", "-2"),
        ("lm", "model", "context", "-1"),
        ("mlp", "task", "noise", "-1"),
        ("mlp", "task", "noise", "nan"),
        ("mlp", "task", "noise", "inf"),
        ("mlp", "optimizer", "probes", "2"),
        ("mlp", "optimizer", "fo_rule", "adamlike"),
        ("mlp", "task", "dataset", "analytic"),
        ("lm", "task", "dataset", "two_moons"),
        ("lm", "task", "corpus_path", "{tmp}"),
        ("lm", "model", "depth", "-1"),
        ("mlp", "optimizer", "max_steps", "-3"),
        ("mlp", "model", "blocks", "3:1.0:0.0"),
        ("mlp", "model", "kind", "quadratic"),
        ("mlp", "model", "kind", "rosenbrock"),
    ])
    def test_bad_value_at_the_boundary_is_config_error(self, tmp_path, capsys, base, section, key, value):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat on the mat " * 20)
        out = tmp_path / "out"
        text = MLP_CFG.format(out=out) if base == "mlp" else LM_CFG.format(corpus=corpus, out=out)
        cfg = self.write_cfg(tmp_path, with_value(text, section, key, value.format(tmp=tmp_path)))
        assert self.run_cli("train", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("eta_fo", "inf"),
        ("eta_zo", "inf"),
        ("epsilon", "inf"),
        ("alpha", "inf"),
        ("warmup_lr", "-1"),
        ("warmup_lr", "0"),
        ("warmup_lr", "nan"),
        ("warmup_lr", "inf"),
    ], ids=["inf_eta_fo", "inf_eta_zo", "inf_epsilon", "inf_alpha",
            "negative_warmup_lr", "zero_warmup_lr", "nan_warmup_lr", "inf_warmup_lr"])
    def test_nonfinite_or_nonpositive_rate_is_config_error(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        section = "partition" if key == "warmup_lr" else "optimizer"
        cfg = self.write_cfg(tmp_path, with_value(MLP_CFG.format(out=out), section, key, value))
        assert self.run_cli("train", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def test_fuzzed_config_never_gives_a_traceback(self, data):
        # one line on stderr at most: a warning printed next to the error
        # line would be a second, so warnings fail the property too
        base = data.draw(st.sampled_from((MLP_CFG, LM_CFG)))
        keys = data.draw(st.lists(st.sampled_from(_FUZZ_KEYS), min_size=1, max_size=3, unique=True))
        with tempfile.TemporaryDirectory() as tmp:
            corpus = os.path.join(tmp, "corpus.txt")
            with open(corpus, "w") as f:
                f.write("the cat sat on the mat " * 20)
            text = base.format(corpus=corpus, out=os.path.join(tmp, "out"))
            for section in _SCHEMA:
                if f"[{section}]" not in text:
                    text += f"\n[{section}]\n"
            for section, key in keys:
                text = with_value(text, section, key, data.draw(st.sampled_from(_EDGE_VALUES)))
            cfg = os.path.join(tmp, "exp.cfg")
            with open(cfg, "w") as f:
                f.write(text)
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = main(["train", "--config", cfg])
        assert code in (0, 1, 2), text
        assert err.getvalue().count("\n") <= 1, (text, err.getvalue())

    @pytest.mark.parametrize("algorithm", ["hizfo", "full_fo"])
    def test_attention_lm_trains_through_the_cli(self, tmp_path, algorithm):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat on the mat " * 20)
        text = with_value(LM_CFG.format(corpus=corpus, out=tmp_path / "out"), "optimizer", "algorithm", algorithm)
        cfg = self.write_cfg(tmp_path, text)
        assert self.run_cli("train", "--config", str(cfg)) == 0
        model = build_model(parse_config(text))
        names = [t.name for t in model.tensors()]
        assert names[0] == "head.weight" and "head.bias" not in names  # the head has no bias
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert sorted(plan["fo"] + plan["zo"]) == sorted(names)
        with open(tmp_path / "out" / "steps.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 5
        if algorithm == "full_fo":
            assert plan["fo"] == names and plan["zo"] == []
            full = model.cost_model(4).total_backward_flops  # batch_size 4 at the full context
            assert all(int(r["bwd_flops"]) == full for r in rows)

    def test_partition_below_min_cost_warns(self, tmp_path, capsys):
        text = MLP_CFG.format(out=tmp_path / "out").replace("rho = 0.6", "rho = 0.001")
        cfg = self.write_cfg(tmp_path, text)
        assert self.run_cli("partition", "--config", str(cfg), "--out", str(tmp_path / "q")) == 0
        assert "warning: budget_below_min_cost" in capsys.readouterr().out
        plan = json.loads((tmp_path / "q" / "plan.json").read_text())
        assert plan["warning"] == "budget_below_min_cost"

    @pytest.mark.parametrize("axis,value,section,key,expected", [
        ("rho", 0.3, "partition", "rho", 0.3),
        ("r", 0.5, "optimizer", "eta_zo", 0.5 * 0.05),  # r times MLP_CFG's eta_fo
    ])
    def test_sweep_worker_sets_its_axis(self, tmp_path, monkeypatch, axis, value, section, key, expected):
        from types import SimpleNamespace

        from hizfo import cli
        seen = []

        def fake_run(cfg):
            seen.append(cfg)
            return None, SimpleNamespace(final_eval_loss=1.0, diverged=False, steps_run=3,
                                         total_backward_flops=7)

        monkeypatch.setattr(cli, "_run", fake_run)
        text = MLP_CFG.format(out=tmp_path / "out")
        row = cli._sweep_worker((text, axis, value, 11))
        assert row == {"axis": axis, "value": value, "seed": 11, "final_eval_loss": 1.0,
                       "diverged": 0, "steps": 3, "backward_flops": 7}
        (cfg,) = seen
        assert cfg.get(section, key) == expected
        assert cfg.master_seed == cfg.get("model", "seed") == cfg.get("task", "data_seed") == 11

    def test_report_json_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        (tmp_path / "report.json").mkdir()
        assert self.run_cli("report", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: no report.json under") and err.count("\n") == 1

    def test_artifact_format_contract(self, tmp_path, monkeypatch):
        # JSON: sorted keys, indent 2, trailing newline; CSV: the documented
        # header, and every float cell in its shortest round-trip repr
        monkeypatch.setenv("HZFO_THREADS", "1")
        text = MLP_CFG.format(out=tmp_path / "out").replace("max_steps = 30", "max_steps = 12")
        cfg = str(self.write_cfg(tmp_path, text))
        assert self.run_cli("profile", "--config", cfg, "--out", str(tmp_path / "p")) == 0
        assert self.run_cli("partition", "--config", cfg, "--out", str(tmp_path / "q")) == 0
        assert self.run_cli("train", "--config", cfg, "--out", str(tmp_path / "t")) == 0
        assert self.run_cli("sweep", "--config", cfg, "--axis", "alpha", "--values", "0,0.1",
                            "--out", str(tmp_path / "s")) == 0
        for rel in ("p/cost_model.json", "q/plan.json", "t/plan.json", "t/report.json"):
            text = (tmp_path / rel).read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", rel
        columns = {
            "p/importance.csv": ["tensor", "layer_index", "raw_importance", "normalized_importance"],
            "t/steps.csv": ["step", "L_FO", "L_ZO", "L_total", "fo_grad_norm", "zo_est_norm",
                            "bwd_flops", "fwd_flops", "wall_ns"],
            "s/sweep.csv": ["axis", "value", "seed", "final_eval_loss", "diverged", "steps",
                            "backward_flops"],
            "s/sweep_summary.csv": ["axis", "value", "median_final_eval_loss", "n_diverged", "n_runs"],
        }
        floats = 0
        for rel, header in columns.items():
            with open(tmp_path / rel, newline="") as f:
                rows = list(csv.reader(f))
            assert rows[0] == header, rel
            for cell in (c for row in rows[1:] for c in row):
                try:
                    int(cell)
                    continue
                except ValueError:
                    pass
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a name
                assert repr(value) == cell, (rel, cell)
                floats += 1
        assert floats > 0

    def test_rho_sweep_reports_without_asserting(self, tmp_path):
        # the rho axis re-plans per value; the harness only reports medians
        text = MLP_CFG.format(out=tmp_path / "out").replace("max_steps = 30", "max_steps = 10")
        cfg = self.write_cfg(tmp_path, text)
        code = self.run_cli("sweep", "--config", str(cfg), "--axis", "rho",
                            "--values", "0.3,1.0", "--out", str(tmp_path / "swrho"))
        assert code == 0
        with open(tmp_path / "swrho" / "sweep_summary.csv") as f:
            summary = list(csv.DictReader(f))
        assert [r["value"] for r in summary] == ["0.3", "1.0"]

