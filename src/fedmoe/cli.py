"""Experiment runner CLI.

Subcommands: train, eval, generate-data, ablate, inspect-checkpoint.
Every run writes a fully resolved config, line-delimited metric records,
a result table, the per-domain encoder checkpoints, and full parameter
states for later evaluation, as .npz files at the parameters' own width.
FEDMOE_OUTDIR sets the default output directory.
"""

# BLAS fan-out loses on this model's small matrices; pin before numpy loads
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import json
import logging
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import federation
from .checkpoint import ExpertCheckpoint
from .config import MODE_POLICIES, MODES, SYNTHETIC_PRESETS, RunConfig
from .data import (ScenarioSpec, SyntheticSpec, generate_synthetic, load_scenario, read_manifest,
                   write_scenario)
from .errors import ConfigError, EmptyDatasetError, ParseError
from .evaluation import MetricsReport, render_table

logger = logging.getLogger("fedmoe")

_CONFIG_FLAGS = [
    ("--mode", str, "mode", f"training mode, one of {', '.join(MODES)}"),
    ("--rounds", int, "rounds", "federation rounds"),
    ("--local-epochs", int, "local_epochs", "epochs per client per round"),
    ("--patience", int, "patience", "early-stop patience in rounds (0 disables)"),
    ("--batch-size", int, "batch_size", "minibatch size"),
    ("--lr", float, "learning_rate", "Adam learning rate"),
    ("--dropout", float, "dropout", "dropout rate"),
    ("--width", int, "width", "representation dimension"),
    ("--blocks", int, "blocks", "self-attention blocks"),
    ("--heads", int, "heads", "attention heads"),
    ("--ff-mult", int, "ff_mult", "feed-forward width multiplier"),
    ("--gnn-depth", int, "gnn_depth", "graph propagation depth"),
    ("--t-max", int, "t_max", "sequence window length"),
    ("--temperature", float, "temperature", "contrastive temperature"),
    ("--shuffle-ratio", float, "shuffle_ratio", "augmentation window share"),
    ("--rec-weight", float, "rec_weight", "next-item loss weight"),
    ("--con-weight", float, "con_weight", "contrastive loss weight"),
    ("--moe-weight", float, "moe_weight", "fusion loss weight"),
    ("--seed", int, "seed", "global seed"),
    ("--precision", str, "precision", "float32 or float64"),
    ("--gate-hidden-dim", int, "gate_hidden_dim", "hidden gate layer size (0 = linear)"),
    ("--drop-domain", str, "drop_domain", "domain to remove (drop_expert mode)"),
    ("--pretrain-epochs", int, "pretrain_epochs", "phase-1 epochs (two_phase mode)"),
    ("--eval-batch", int, "eval_batch", "evaluation chunk size"),
]

_CONFIG_SWITCHES = [
    ("--parallel-clients", "parallel_clients", "run client updates on a thread pool"),
    ("--exclude-seen", "exclude_seen", "exclude prefix items from ranking candidates"),
    ("--no-filters", "no_filters", "disable preprocessing filters"),
]


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file; flags override file keys")
    parser.add_argument("--scenario", type=str, default=None,
                        help="scenario manifest path")
    parser.add_argument("--synthetic", type=str, default=None,
                        help="synthetic preset name or JSON spec file")
    parser.add_argument("--out-dir", type=str, default=None,
                        help="output directory (default $FEDMOE_OUTDIR/<run>)")
    for flag, typ, dest, help_text in _CONFIG_FLAGS:
        parser.add_argument(flag, type=typ, dest=dest, default=None, help=help_text)
    for flag, dest, help_text in _CONFIG_SWITCHES:
        parser.add_argument(flag, action="store_true", dest=dest, default=None,
                            help=help_text)


def _build_config(args: argparse.Namespace) -> RunConfig:
    payload = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            payload = json.load(fh)
    overrides = {}
    for _, _, dest, _ in _CONFIG_FLAGS:
        value = getattr(args, dest, None)
        if value is not None:
            overrides[dest] = value
    for _, dest, _ in _CONFIG_SWITCHES:
        value = getattr(args, dest, None)
        if value is not None and dest != "no_filters":
            overrides[dest] = value
    if getattr(args, "no_filters", None):
        overrides["apply_filters"] = False
    if args.scenario:
        overrides["scenario_manifest"] = args.scenario
        overrides["synthetic"] = None
    if args.synthetic:
        overrides["synthetic"] = _synthetic_payload(args.synthetic)
        overrides["scenario_manifest"] = None
    if args.out_dir:
        overrides["out_dir"] = args.out_dir
    payload.update(overrides)
    cfg = RunConfig.from_dict(payload)
    cfg.validate()
    return cfg


def _synthetic_payload(value: str) -> dict:
    if value in SYNTHETIC_PRESETS:
        return dataclasses.asdict(SYNTHETIC_PRESETS[value])
    path = Path(value)
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    raise ConfigError(f"unknown synthetic preset or missing file: {value!r}")


def _resolve_out_dir(cfg: RunConfig, label: str) -> Path:
    if cfg.out_dir:
        out = Path(cfg.out_dir)
    else:
        base = Path(os.environ.get("FEDMOE_OUTDIR", "runs"))
        out = base / f"{label}-seed{cfg.seed}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_scenario_from_config(cfg: RunConfig) -> ScenarioSpec:
    if cfg.scenario_manifest and cfg.synthetic:
        raise ConfigError("give either a scenario manifest or a synthetic spec, not both")
    if cfg.scenario_manifest:
        return load_scenario(cfg.scenario_manifest, cfg.data_config(), seed=cfg.seed)
    if cfg.synthetic:
        return generate_synthetic(cfg.synthetic_spec(), cfg.data_config())
    raise ConfigError("no data source: set scenario_manifest or synthetic")


def _domain_ids(cfg: RunConfig) -> list[str]:
    """The scenario's domain ids, read from the config without building it."""
    if cfg.scenario_manifest:
        return [domain_id for domain_id, _ in read_manifest(cfg.scenario_manifest)[0]]
    return cfg.synthetic_spec().domain_ids if cfg.synthetic else []


def _save_run_outputs(out_dir: Path, cfg: RunConfig, result) -> None:
    cfg_resolved = dataclasses.replace(cfg, out_dir=str(out_dir))
    cfg_resolved.save(out_dir / "resolved_config.json")
    with open(out_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for report in result.history + [result.final_test]:
            fh.write(report.to_json_lines() + "\n")
    domain_ids = sorted(result.final_test.per_domain)
    table = render_table(result.history[-3:] + [result.final_test], domain_ids)
    (out_dir / "table.txt").write_text(table + "\n", encoding="utf-8")

    ckpt_dir = out_dir / "checkpoints"
    state_dir = out_dir / "states"
    ckpt_dir.mkdir(exist_ok=True)
    state_dir.mkdir(exist_ok=True)
    for client in result.clients:
        client.local_encoder_checkpoint().save(ckpt_dir / f"{client.domain_id}.encoder.ckpt")
        np.savez(state_dir / f"{client.domain_id}.state.npz", **client.snapshot_parameters())


def _load_state(path: Path) -> dict:
    """A saved client state, name -> array at the width it was saved in."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"unreadable state: {exc}") from exc


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    scenario = _load_scenario_from_config(cfg)
    out_dir = _resolve_out_dir(cfg, f"{cfg.mode}")
    result = federation.run(scenario, cfg)
    _save_run_outputs(out_dir, cfg, result)
    print(render_table([result.final_test], sorted(result.final_test.per_domain)))
    print(f"\noutputs in {out_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    cfg = RunConfig.load(run_dir / "resolved_config.json")
    cfg.validate()
    for dom in _domain_ids(cfg):  # a missing state fails before any data is built
        path = run_dir / "states" / f"{dom}.state.npz"
        if not path.is_file():
            raise ConfigError(f"{path}: no saved state for domain {dom!r}")
    scenario = _load_scenario_from_config(cfg)
    with ad.default_dtype(cfg.dtype):
        clients = [federation.build_client(scenario, d, cfg)
                   for d in sorted(scenario.domain_ids)]
        for client in clients:  # every state is loaded before any scoring
            path = run_dir / "states" / f"{client.domain_id}.state.npz"
            try:
                client.restore_parameters(_load_state(path))
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        report = federation.evaluate_all(clients, args.split, 0, cfg.mode)
    print(render_table([report], sorted(report.per_domain)))
    return 0


def cmd_generate_data(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(num_domains=args.domains, items_per_domain=args.items,
                         users_per_domain=args.users, min_len=args.min_len,
                         max_len=args.max_len, num_clusters=args.clusters,
                         correlation=args.correlation, seed=args.seed)
    spec.validate()
    manifest = write_scenario(spec, args.out_dir)
    print(f"wrote scenario manifest {manifest}")
    return 0


# grid item -> the mode it runs beside fmoe
ABLATIONS = {"gate": "no_gate", "freeze": "no_freeze", "drop": "drop_expert",
             "local": "local_only", "fedavg": "fedavg"}


def _quality_grid(value: str | None) -> list[int]:
    """The phase-1 epoch counts of --quality-grid, each an integer >= 0."""
    epochs = []
    for item in value.split(",") if value else []:
        if not item.strip().isdecimal():
            raise ConfigError(f"--quality-grid entry {item!r} is not an integer >= 0")
        epochs.append(int(item))
    return epochs


def cmd_ablate(args: argparse.Namespace) -> int:
    grid = [g.strip() for g in args.grid.split(",") if g.strip()] if args.grid else []
    unknown = [item for item in grid if item not in ABLATIONS]
    if unknown:
        raise ConfigError(f"unknown ablation {unknown[0]!r}; "
                          f"expected {', '.join(ABLATIONS)}")
    quality = _quality_grid(args.quality_grid)
    cfg = _build_config(args)
    scenario = _load_scenario_from_config(cfg)
    out_dir = _resolve_out_dir(cfg, "ablate")

    reports: list[MetricsReport] = []

    def run_variant(mode, label, **kw):
        # the rows that read drop_domain or pretrain_epochs pass their own
        kw = dict(drop_domain=None, pretrain_epochs=0) | kw
        variant = dataclasses.replace(cfg, mode=mode, **kw)
        result = federation.run(scenario, variant)
        report = dataclasses.replace(result.final_test, mode=label)
        reports.append(report)
        print(render_table([report], sorted(report.per_domain)))
        return report

    run_variant("fmoe", "fmoe")
    for mode in (ABLATIONS[item] for item in grid):
        if MODE_POLICIES[mode].drops_domain:
            for dom in sorted(scenario.domain_ids):
                run_variant(mode, f"drop[{dom}]", drop_domain=dom)
        else:
            run_variant(mode, mode)
    for epochs in quality:
        run_variant("two_phase", f"two_phase[{epochs}]", pretrain_epochs=epochs)

    table = render_table(reports, sorted(scenario.domain_ids))
    (out_dir / "ablation_table.txt").write_text(table + "\n", encoding="utf-8")
    with open(out_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(report.to_json_lines() + "\n")
    print("\n" + table)
    print(f"\noutputs in {out_dir}")
    return 0


def cmd_inspect_checkpoint(args: argparse.Namespace) -> int:
    blob = Path(args.path).read_bytes()
    ckpt = ExpertCheckpoint.from_bytes(blob)
    if ckpt.to_bytes() != blob:
        print("round-trip FAILED: re-serialization differs", file=sys.stderr)
        return 1
    total = 0
    for name, arr in ckpt.entries:
        print(f"{name:<40} {str(arr.shape):<16} {arr.size}")
        total += arr.size
    print(f"{len(ckpt.entries)} parameters, {total} values; round-trip exact")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmoe",
        description="federated mixture-of-experts sequential recommendation simulator")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training mode end to end")
    _add_config_arguments(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="re-evaluate a finished run")
    p_eval.add_argument("run_dir", help="directory written by train")
    p_eval.add_argument("--split", choices=("valid", "test"), default="test")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("generate-data", help="write a synthetic scenario")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--domains", type=int, default=3)
    p_gen.add_argument("--items", type=int, default=200)
    p_gen.add_argument("--users", type=int, default=500)
    p_gen.add_argument("--min-len", type=int, default=10)
    p_gen.add_argument("--max-len", type=int, default=16)
    p_gen.add_argument("--clusters", type=int, default=8)
    p_gen.add_argument("--correlation", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate_data)

    p_abl = sub.add_parser("ablate", help="run model variants and tabulate them")
    _add_config_arguments(p_abl)
    p_abl.add_argument("--grid", type=str, default=None,
                       help="comma list from gate,freeze,drop,local,fedavg")
    p_abl.add_argument("--quality-grid", type=str, default=None,
                       help="comma list of phase-1 epochs for the two-phase schedule")
    p_abl.set_defaults(func=cmd_ablate)

    p_ins = sub.add_parser("inspect-checkpoint", help="list checkpoint contents")
    p_ins.add_argument("path")
    p_ins.set_defaults(func=cmd_inspect_checkpoint)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, ParseError, EmptyDatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        logger.exception("run failed")
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
