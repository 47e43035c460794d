"""End-to-end CLI tests on a miniature scenario."""

import json

import numpy as np
import pytest

from fedmoe import federation
from fedmoe.cli import main
from fedmoe.config import RunConfig

FAST = ["--rounds", "1", "--local-epochs", "1", "--batch-size", "64",
        "--width", "16", "--blocks", "1", "--ff-mult", "2", "--gnn-depth", "1",
        "--lr", "0.01", "--seed", "7"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(["generate-data", "--out-dir", str(out), "--domains", "3",
                 "--items", "60", "--users", "120", "--min-len", "10",
                 "--max-len", "14", "--seed", "5"])
    assert code == 0
    return out


def test_generate_data_deterministic(tmp_path):
    args = ["generate-data", "--domains", "2", "--items", "30", "--users", "40",
            "--min-len", "10", "--max-len", "12", "--seed", "3"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for f1, f2 in zip(sorted((tmp_path / "a").iterdir()),
                      sorted((tmp_path / "b").iterdir())):
        assert f1.read_bytes() == f2.read_bytes()


def test_train_twice_identical_tables(data_dir, tmp_path, capsys):
    base = ["train", "--scenario", str(data_dir / "scenario.json")] + FAST
    assert main(base + ["--out-dir", str(tmp_path / "r1")]) == 0
    first = capsys.readouterr().out.splitlines()[:-2]
    assert main(base + ["--out-dir", str(tmp_path / "r2")]) == 0
    second = capsys.readouterr().out.splitlines()[:-2]
    assert first == second
    assert (tmp_path / "r1" / "metrics.jsonl").read_text() == \
        (tmp_path / "r2" / "metrics.jsonl").read_text()


def test_resolved_config_reproduces_run(data_dir, tmp_path):
    base = ["train", "--scenario", str(data_dir / "scenario.json")] + FAST
    assert main(base + ["--out-dir", str(tmp_path / "orig")]) == 0
    assert main(["train", "--config", str(tmp_path / "orig" / "resolved_config.json"),
                 "--out-dir", str(tmp_path / "again")]) == 0
    assert (tmp_path / "orig" / "metrics.jsonl").read_text() == \
        (tmp_path / "again" / "metrics.jsonl").read_text()


def test_eval_matches_training_test_metrics(data_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--scenario", str(data_dir / "scenario.json"),
                 "--out-dir", str(run_dir)] + FAST) == 0
    train_out = capsys.readouterr().out
    assert main(["eval", str(run_dir), "--split", "test"]) == 0
    eval_out = capsys.readouterr().out
    train_row = [l for l in train_out.splitlines() if l.startswith("fmoe")][0]
    eval_row = [l for l in eval_out.splitlines() if l.startswith("fmoe")][0]
    assert train_row.split()[1:] == eval_row.split()[1:]


def test_eval_reads_a_run_directory_of_an_earlier_release(data_dir, tmp_path, capsys):
    """Earlier releases saved moe_grad_to_experts, false unless asked; such
    a run still evaluates, and one that trained the experts is refused."""
    run_dir = tmp_path / "run"
    assert main(["train", "--scenario", str(data_dir / "scenario.json"),
                 "--out-dir", str(run_dir)] + FAST) == 0
    train_row = [l for l in capsys.readouterr().out.splitlines() if l.startswith("fmoe")][0]
    path = run_dir / "resolved_config.json"
    saved = json.loads(path.read_text())
    path.write_text(json.dumps({**saved, "moe_grad_to_experts": False}))
    assert main(["eval", str(run_dir), "--split", "test"]) == 0
    eval_row = [l for l in capsys.readouterr().out.splitlines() if l.startswith("fmoe")][0]
    assert train_row.split()[1:] == eval_row.split()[1:]
    path.write_text(json.dumps({**saved, "moe_grad_to_experts": True}))
    assert main(["eval", str(run_dir), "--split", "test"]) == 2
    assert "moe_grad_to_experts is retired" in capsys.readouterr().err


def test_float64_states_reload_bit_for_bit(data_dir, tmp_path, monkeypatch, capsys):
    """A float64 run's saved states load into eval's clients as the exact
    snapshot_parameters() of the clients it trained, at float64."""
    trained, evaluated = [], []
    run, evaluate_all = federation.run, federation.evaluate_all
    monkeypatch.setattr("fedmoe.federation.run",
                        lambda *a, **kw: trained.append(run(*a, **kw)) or trained[-1])
    run_dir = tmp_path / "run"
    assert main(["train", "--scenario", str(data_dir / "scenario.json"),
                 "--out-dir", str(run_dir), "--precision", "float64"] + FAST) == 0
    monkeypatch.setattr("fedmoe.federation.evaluate_all",
                        lambda clients, *a: evaluated.extend(clients) or evaluate_all(clients, *a))
    assert main(["eval", str(run_dir), "--split", "test"]) == 0
    assert [c.domain_id for c in evaluated] == [c.domain_id for c in trained[0].clients]
    for want_client, got_client in zip(trained[0].clients, evaluated):
        want, got = want_client.snapshot_parameters(), got_client.snapshot_parameters()
        assert sorted(got) == sorted(want)
        for name, array in want.items():
            assert array.dtype == got[name].dtype == np.float64, name
            assert array.tobytes() == got[name].tobytes(), name


@pytest.mark.parametrize("content", [b"", b"not a zip archive", b"PK\x03\x04truncated"])
def test_eval_rejects_an_unreadable_state_before_scoring(data_dir, tmp_path, monkeypatch,
                                                         capsys, content):
    run_dir = tmp_path / "run"
    assert main(["train", "--scenario", str(data_dir / "scenario.json"),
                 "--out-dir", str(run_dir)] + FAST) == 0
    path = run_dir / "states" / "d1.state.npz"
    path.write_bytes(content)

    def no_scoring(*args, **kwargs):
        raise AssertionError("eval scored a client although a state is unreadable")

    monkeypatch.setattr("fedmoe.federation.evaluate_all", no_scoring)
    capsys.readouterr()
    assert main(["eval", str(run_dir), "--split", "test"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: unreadable state: ")


def test_inspect_checkpoint_round_trip(data_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--scenario", str(data_dir / "scenario.json"),
                 "--out-dir", str(run_dir)] + FAST) == 0
    capsys.readouterr()
    ckpt = run_dir / "checkpoints" / "d0.encoder.ckpt"
    assert main(["inspect-checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "round-trip exact" in out
    assert "block0.attn_q" in out


def test_ablate_grid_emits_variant_tables(data_dir, tmp_path, capsys):
    out_dir = tmp_path / "abl"
    assert main(["ablate", "--scenario", str(data_dir / "scenario.json"),
                 "--out-dir", str(out_dir), "--grid", "gate,local",
                 "--quality-grid", "0"] + FAST) == 0
    table = (out_dir / "ablation_table.txt").read_text()
    for label in ("fmoe", "no_gate", "local_only", "two_phase[0]"):
        assert label in table
    records = [json.loads(l) for l in (out_dir / "metrics.jsonl").read_text().splitlines()]
    assert {r["mode"] for r in records} == {"fmoe", "no_gate", "local_only", "two_phase[0]"}


def test_ablate_reference_row_ignores_drop_domain(data_dir, tmp_path, capsys):
    """The fmoe row of a drop_expert ablation is a plain fmoe run: the
    dropped domain only shapes the drop[...] rows."""
    scenario = ["--scenario", str(data_dir / "scenario.json")]
    assert main(["train"] + scenario + FAST + ["--out-dir", str(tmp_path / "train")]) == 0
    train_rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("fmoe ")]
    assert main(["ablate"] + scenario + FAST + ["--mode", "drop_expert", "--drop-domain", "d1",
                                                "--out-dir", str(tmp_path / "abl")]) == 0
    ablate_rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("fmoe ")]
    assert train_rows and ablate_rows and ablate_rows[0] == train_rows[0]


def test_synthetic_preset_runs(tmp_path):
    assert main(["train", "--synthetic", "default", "--mode", "local_only",
                 "--rounds", "1", "--local-epochs", "1", "--batch-size", "256",
                 "--width", "16", "--blocks", "1", "--ff-mult", "2",
                 "--gnn-depth", "1", "--seed", "3",
                 "--out-dir", str(tmp_path / "preset")]) == 0


class TestErrorPaths:
    @pytest.mark.parametrize("mode, flag, value, field", [
        ("fmoe", "--drop-domain", "d1", "drop_domain"),
        ("no_gate", "--pretrain-epochs", "1", "pretrain_epochs")])
    def test_option_of_another_mode_rejected_before_training(self, data_dir, tmp_path,
                                                             monkeypatch, capsys,
                                                             mode, flag, value, field):
        def no_training(*args, **kwargs):
            raise AssertionError("train ran although the config is invalid")

        monkeypatch.setattr("fedmoe.federation.run", no_training)
        assert main(["train", "--scenario", str(data_dir / "scenario.json"),
                     "--out-dir", str(tmp_path / "run"), "--mode", mode, flag, value]
                    + FAST) == 2
        err = capsys.readouterr().err
        assert field in err and f"{mode} mode" in err
        assert not (tmp_path / "run").exists()

    def test_unknown_mode_exit_2(self, capsys):
        assert main(["train", "--mode", "bogus", "--synthetic", "default"]) == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_missing_data_source_exit_2(self, capsys):
        assert main(["train", "--mode", "fmoe"]) == 2
        assert "no data source" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["generate-data"], ["train", "--synthetic", "default"]])
    def test_negative_seed_exit_2_before_any_draw(self, tmp_path, monkeypatch, capsys, command):
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made for a negative seed")

        monkeypatch.setattr("numpy.random.default_rng", no_draws)
        out_dir = tmp_path / "out"
        assert main(command + ["--seed", "-1", "--out-dir", str(out_dir)]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["train", "--warp-speed", "9"]) == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_unknown_ablation_exit_2(self, data_dir, capsys):
        assert main(["ablate", "--scenario", str(data_dir / "scenario.json"),
                     "--grid", "frobnicate"] + FAST) == 2

    def test_unknown_ablation_rejected_before_training(self, data_dir, tmp_path,
                                                        monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("ablate trained before checking --grid")

        monkeypatch.setattr("fedmoe.federation.run", no_training)
        monkeypatch.setenv("FEDMOE_OUTDIR", str(tmp_path / "runs"))
        assert main(["ablate", "--scenario", str(data_dir / "scenario.json"),
                     "--grid", "gate,frobnicate"] + FAST) == 2
        assert not (tmp_path / "runs").exists()
        assert "frobnicate" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, entry", [("1,x", "'x'"), ("-1", "'-1'"), ("0,2.5", "'2.5'"),
                                             ("1,,2", "''")])
    def test_bad_quality_grid_rejected_before_training(self, data_dir, tmp_path, monkeypatch,
                                                        capsys, grid, entry):
        def no_training(*args, **kwargs):
            raise AssertionError("ablate trained before checking --quality-grid")

        monkeypatch.setattr("fedmoe.federation.run", no_training)
        monkeypatch.setenv("FEDMOE_OUTDIR", str(tmp_path / "runs"))
        assert main(["ablate", "--scenario", str(data_dir / "scenario.json"),
                     f"--quality-grid={grid}"] + FAST) == 2
        assert not (tmp_path / "runs").exists()
        err = capsys.readouterr().err
        assert f"--quality-grid entry {entry} is not an integer >= 0" in err

    @pytest.mark.parametrize("field, value", [("adam_beta1", 1.0), ("adam_beta2", 1.0),
                                              ("adam_eps", 0.0)])
    def test_adam_setting_that_writes_nan_exit_2_before_training(self, data_dir, tmp_path,
                                                                 monkeypatch, capsys, field,
                                                                 value):
        def no_training(*args, **kwargs):
            raise AssertionError("train ran although the config is invalid")

        monkeypatch.setattr("fedmoe.federation.run", no_training)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: value}))
        assert main(["train", "--config", str(config), "--scenario",
                     str(data_dir / "scenario.json"), "--out-dir", str(tmp_path / "run")]
                    + FAST) == 2
        assert f"{field} must" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, message", [({"rounds": 0}, "rounds must be >= 1"),
                                               ({"mode": "bogus"}, "unknown mode")],
                             ids=["rounds-0", "unknown-mode"])
    def test_eval_rejects_an_invalid_config_before_building(self, data_dir, tmp_path,
                                                            monkeypatch, capsys, edit, message):
        run_dir = tmp_path / "run"
        assert main(["train", "--scenario", str(data_dir / "scenario.json"),
                     "--out-dir", str(run_dir)] + FAST) == 0
        path = run_dir / "resolved_config.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))

        def no_scenario(*args, **kwargs):
            raise AssertionError("eval built a scenario from an invalid config")

        monkeypatch.setattr("fedmoe.cli._load_scenario_from_config", no_scenario)
        capsys.readouterr()
        assert main(["eval", str(run_dir), "--split", "test"]) == 2
        assert message in capsys.readouterr().err

    def test_eval_rejects_states_that_do_not_fit_before_scoring(self, data_dir, tmp_path,
                                                                 monkeypatch, capsys):
        run_dir = tmp_path / "run"
        assert main(["train", "--scenario", str(data_dir / "scenario.json"),
                     "--out-dir", str(run_dir)] + FAST) == 0
        path = run_dir / "states" / "d1.state.npz"
        with np.load(path) as npz:
            entries = {name: npz[name] for name in npz.files}

        def no_scoring(*args, **kwargs):
            raise AssertionError("eval scored a client before every state was loaded")

        monkeypatch.setattr("fedmoe.federation.evaluate_all", no_scoring)
        short_bias = {n: a[:-1] if n == "local.head.out_bias" else a for n, a in entries.items()}
        no_gate_out = {n: a for n, a in entries.items() if n != "gate.out"}
        for edited, message in [(short_bias, "state entry 'local.head.out_bias' has shape"),
                                (no_gate_out, "state has no entry 'gate.out'")]:
            np.savez(path, **edited)
            capsys.readouterr()
            assert main(["eval", str(run_dir), "--split", "test"]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and f"domain 'd1': {message}" in err

    @pytest.mark.parametrize("source", ["scenario", "synthetic"])
    def test_eval_rejects_a_missing_state_before_building(self, data_dir, tmp_path,
                                                          monkeypatch, capsys, source):
        run_dir = tmp_path / "run"
        data_source = ["--scenario", str(data_dir / "scenario.json")]
        if source == "synthetic":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"num_domains": 3, "items_per_domain": 40,
                                        "users_per_domain": 80, "seed": 5}))
            data_source = ["--synthetic", str(spec)]
        assert main(["train", *data_source, "--out-dir", str(run_dir)] + FAST) == 0
        path = run_dir / "states" / "d1.state.npz"
        path.unlink()

        def no_scenario(*args, **kwargs):
            raise AssertionError("eval built a scenario although a state is missing")

        monkeypatch.setattr("fedmoe.cli._load_scenario_from_config", no_scenario)
        capsys.readouterr()
        assert main(["eval", str(run_dir), "--split", "test"]) == 2
        assert f"{path}: no saved state for domain 'd1'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ("domains: d0.txt", "not a JSON manifest"),
        ('{"seed": 1}', "'domains' must be a list"),
        ('{"domains": [{"id": "d0", "path": "d0.txt"}, {"path": "d1.txt"}]}',
         "domains[1] needs a string 'id'")], ids=["not-json", "no-domains", "entry-without-id"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_malformed_manifest_exit_2(self, tmp_path, capsys, command, text, field):
        manifest, run_dir = tmp_path / "scenario.json", tmp_path / "run"
        manifest.write_text(text)
        if command == "train":
            argv = ["train", "--scenario", str(manifest), "--out-dir", str(run_dir)] + FAST
        else:  # a run directory whose config names the manifest
            run_dir.mkdir()
            RunConfig(scenario_manifest=str(manifest)).save(run_dir / "resolved_config.json")
            argv = ["eval", str(run_dir)]
        assert main(argv) == 2
        assert f"error: {manifest}: {field}" in capsys.readouterr().err

    def test_conflicting_sources_exit_2(self, data_dir, tmp_path, capsys):
        cfg = {"scenario_manifest": str(data_dir / "scenario.json"),
               "synthetic": {"num_domains": 2, "items_per_domain": 30,
                             "users_per_domain": 40}}
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)] + FAST) == 2
