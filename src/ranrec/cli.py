"""Command-line workflow: synth -> train -> embed -> recommend / detect
-> evaluate / project.

Every command validates its inputs (exit 1 with the offending path and
reason), writes outputs atomically (temp file + rename), and drops a run
manifest with input/output hashes beside each primary output. Unexpected
failures exit 2. Set RANREC_LOG to error/info/debug for logging.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import resource
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .anomaly import _scores, fit_forest, score_network, store_matrix
from .config import RunConfig, load_config
from .evaluation import compare_models, pca_project
from .gnn import Checkpoint, schema_hash
from .graph import (
    NetworkFormatError,
    _read_json,
    denormalize,
    fit_normalization,
    load_network,
    parse_cells_payload,
)
from .inference import StoreBundle, embed_entries, encode_new_cells, load_store, recommend_cells
from .sampler import SamplerConfig, build_dataset
from .synth import SynthSpec, generate
from .training import train_gae, train_sgnn

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


# ---------------------------------------------------------------------------
# Output plumbing


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1)


# Stages a manifest of embed, recommend and detect times, in seconds each.
STAGES = ("load", "forest", "sample_encode", "retrieve", "write")
# The same for train; "train" includes any per-epoch resampling.
TRAIN_STAGES = ("load", "sample", "train", "write")


def _lap(stages: dict[str, float], stage: str, since: float) -> float:
    """Add the time from ``since`` to ``stage``; return the new start."""
    now = time.perf_counter()
    stages[stage] += now - since
    return now


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    command: str,
    seed: int,
    inputs: list[Path],
    outputs: list[Path],
    resolved: dict,
    started: float,
    beside: Path,
    stages: dict[str, float] | None = None,
) -> None:
    manifest = {
        "command": command,
        "seed": seed,
        "config": resolved,
        "inputs": {str(p): _sha256(p) for p in inputs if p.exists()},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "wall_time_s": time.perf_counter() - started,
        **({"stages": stages} if stages is not None else {}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _atomic_write(beside.with_name(beside.name + ".manifest.json"), _canonical_json(manifest))


def _require_file(path: str, label: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise NetworkFormatError(f"{p}: {label} file does not exist")
    return p


def _load_run_config(args) -> RunConfig:
    config = load_config(_require_file(args.config, "config")) if args.config else RunConfig()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


@contextmanager
def _naming(path: Path):
    """Prefix a ``ValueError`` raised by the work inside with the input ``path`` it comes from."""
    try:
        yield
    except ValueError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from None


def _float_repr(x: float) -> str:
    return repr(float(x))


def _projection_csv(ids, points) -> str:
    rows = (f"{cid},{_float_repr(pc1)},{_float_repr(pc2)}" for cid, (pc1, pc2) in zip(ids, points))
    return "\n".join(["cell_id,pc1,pc2", *rows]) + "\n"


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    started = time.perf_counter()
    inputs: list[Path] = []
    if args.spec:
        spec_path = _require_file(args.spec, "synth spec")
        inputs.append(spec_path)
        spec = SynthSpec.from_json(_read_json(spec_path), source=str(spec_path))
    else:
        spec = SynthSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    graph, truth = generate(spec)
    out_dir = Path(args.out)
    network_path = out_dir / "network.json"
    truth_path = out_dir / "ground_truth.json"
    _atomic_write(network_path, _canonical_json(graph.to_json()))
    _atomic_write(truth_path, _canonical_json(truth.to_json()))
    logger.info("generated %d cells over %d sites", len(graph.cell_ids), spec.sites)
    _write_manifest(
        "synth", spec.seed, inputs, [network_path, truth_path], spec.to_json(), started, network_path
    )
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.perf_counter()
    stages = dict.fromkeys(TRAIN_STAGES, 0.0)
    network_path = _require_file(args.network, "network")
    config = _load_run_config(args)
    graph = load_network(network_path)
    with _naming(network_path):
        stats = fit_normalization(graph, graph.cell_ids)
        lap = _lap(stages, "load", started)
        sampler_cfg = config.sampler()
        dataset = build_dataset(graph, stats, sampler_cfg)
        lap = _lap(stages, "sample", lap)
        provider = None
        if config.resample_per_epoch:
            provider = lambda epoch: build_dataset(graph, stats, sampler_cfg, epoch=epoch)  # noqa: E731
        arch = config.arch(graph.schema.predictor_dim)
        decoder = None
        if args.model == "gae":
            encoder, decoder, report = train_gae(dataset, arch, config.training, provider)
        else:
            encoder, report = train_sgnn(dataset, arch, config.training, provider)
    lap = _lap(stages, "train", lap)
    checkpoint = Checkpoint(
        model=args.model,
        arch=arch,
        seed=config.seed,
        schema_digest=schema_hash(graph.schema),
        stats=stats,
        encoder=encoder,
        decoder=decoder,
        fanout=sampler_cfg.fanout,
    )
    out = Path(args.out)
    # Compact, so json runs its C encoder; the checkpoint is read by machine only.
    _atomic_write(out, json.dumps(checkpoint.to_json(), sort_keys=True))
    report.checkpoint_path = str(out)
    _atomic_write(out.with_name(out.name + ".report.json"), _canonical_json(report.to_json()))
    _lap(stages, "write", lap)
    inputs = [network_path] + ([Path(args.config)] if args.config else [])
    _write_manifest("train", config.seed, inputs, [out], {"model": args.model}, started, out, stages)
    logger.info("trained %s for %d epochs", args.model, config.training.epochs)
    return EXIT_OK


def _read_checkpoint(path: Path, schema) -> Checkpoint:
    data = _read_json(path)
    try:
        return Checkpoint.from_json(data, schema=schema)
    except (KeyError, ValueError) as exc:
        raise NetworkFormatError(f"{path}: invalid checkpoint: {exc}") from exc


def cmd_embed(args) -> int:
    started = time.perf_counter()
    stages = dict.fromkeys(STAGES, 0.0)
    network_path = _require_file(args.network, "network")
    checkpoint_path = _require_file(args.checkpoint, "checkpoint")
    graph = load_network(network_path)
    checkpoint = _read_checkpoint(checkpoint_path, graph.schema)
    seed = args.seed if args.seed is not None else checkpoint.seed
    bundle = StoreBundle(graph=graph, checkpoint=checkpoint)
    lap = _lap(stages, "load", started)
    # No name keeps the dataset: it is freed before the forest and the store's JSON are built.
    embed_entries(bundle.store, build_dataset(graph, checkpoint.stats, SamplerConfig(checkpoint.fanout, seed)))
    lap = _lap(stages, "sample_encode", lap)
    # The novelty forest recommend scores against; it takes this seed.
    try:
        bundle.forest = fit_forest(store_matrix(bundle.store), seed=seed)
    except ValueError:  # fewer than 2 rows, or all identical: no novelty scores
        bundle.forest = None
    lap = _lap(stages, "forest", lap)
    out = Path(args.out)
    # Compact, so json runs its C encoder; the store is read by machine only.
    _atomic_write(out, json.dumps(bundle.to_json(), sort_keys=True))
    _lap(stages, "write", lap)
    _write_manifest(
        "embed",
        seed,
        [network_path, checkpoint_path],
        [out],
        {"fanout": checkpoint.fanout},
        started,
        out,
        stages,
    )
    logger.info("embedded %d cells", len(bundle.store))
    return EXIT_OK


def cmd_recommend(args) -> int:
    started = time.perf_counter()
    stages = dict.fromkeys(STAGES, 0.0)
    store_path = _require_file(args.store, "store")
    cells_path = _require_file(args.new_cells, "new-cells")
    bundle = load_store(store_path)
    new_cells, new_edges = parse_cells_payload(_read_json(cells_path), source=str(cells_path))
    if not new_cells:
        raise NetworkFormatError(f"{cells_path}: no cells to recommend for")
    store_size = len(bundle.store)
    if args.mode == "majority" and not 1 <= args.k <= store_size:
        raise NetworkFormatError(
            f"--k {args.k} is out of range for a store of {store_size} records"
        )
    # --seed drives sampling only; the stored forest keeps the seed embed used.
    seed = args.seed if args.seed is not None else bundle.checkpoint.seed
    sampling = SamplerConfig(fanout=bundle.checkpoint.fanout, seed=seed)
    lap = _lap(stages, "load", started)
    try:
        rows = encode_new_cells(
            bundle.checkpoint.encoder, bundle.graph, bundle.stats, new_cells, new_edges, sampling
        )
    except NetworkFormatError as exc:  # a new cell breaks a graph invariant
        raise NetworkFormatError(f"{cells_path}: {exc}") from None
    lap = _lap(stages, "sample_encode", lap)
    k = args.k if args.mode == "majority" else 1  # closest is the vote of one
    try:
        recommended = recommend_cells(bundle.store, new_cells, rows, k, bundle.schema)
    except ValueError as exc:  # the store's embeddings cannot be compared
        raise NetworkFormatError(f"{store_path}: {exc}") from None
    lap = _lap(stages, "retrieve", lap)
    forest = bundle.forest  # None: novelty scores unavailable, recommendations still valid
    scores = _scores(forest, rows) if forest is not None else [None] * len(recommended)
    lap = _lap(stages, "forest", lap)
    results = [
        {
            "cell_id": cell.cell_id,
            "mode": args.mode,
            "y_hat": denormalize(rec.y_hat, bundle.stats, bundle.schema),
            "sources": [{"cell_id": cid, "distance": d} for cid, d in rec.sources],
            "anomaly_score": score,
        }
        for (cell, _, rec), score in zip(recommended, scores)
    ]
    out = Path(args.out)
    _atomic_write(out, _canonical_json(results))
    _lap(stages, "write", lap)
    _write_manifest(
        "recommend",
        seed,
        [store_path, cells_path],
        [out],
        {"mode": args.mode, "k": args.k},
        started,
        out,
        stages,
    )
    return EXIT_OK


def cmd_detect(args) -> int:
    started = time.perf_counter()
    stages = dict.fromkeys(STAGES, 0.0)
    if not math.isfinite(args.threshold):
        raise NetworkFormatError(f"--threshold must be a finite number, got {args.threshold}")
    store_path = _require_file(args.store, "store")
    bundle = load_store(store_path)
    if len(bundle.store) < 2:
        raise NetworkFormatError(f"{store_path}: need at least 2 records to fit a forest")
    seed = args.seed if args.seed is not None else bundle.checkpoint.seed
    lap = _lap(stages, "load", started)
    # Configs join the embedding features: corrupted settings are invisible
    # in the embedding coordinates, which derive from predictors only.
    rows = store_matrix(bundle.store, include_configs=True)
    with _naming(store_path):
        forest = fit_forest(rows, seed=seed)
    report = score_network(bundle.store, forest, args.threshold, include_configs=True)
    lap = _lap(stages, "forest", lap)
    payload = {
        "threshold": args.threshold,
        "cells": [
            {"cell_id": cid, "score": score, "flagged": score > args.threshold}
            for cid, score in report.sorted_by_score()
        ],
    }
    out = Path(args.out)
    _atomic_write(out, _canonical_json(payload))
    _lap(stages, "write", lap)
    _write_manifest(
        "detect", seed, [store_path], [out], {"threshold": args.threshold}, started, out, stages
    )
    logger.info("flagged %d of %d cells", len(report.flagged), len(bundle.store))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    network_path = _require_file(args.network, "network")
    config = _load_run_config(args)
    graph = load_network(network_path)
    with _naming(network_path):
        result = compare_models(graph, config)
    out = Path(args.out)
    lines = ["model,type,split,accuracy"]
    for model, label, split_name, value in result.accuracy_rows():
        lines.append(f"{model},{label},{split_name},{_float_repr(value)}")
    _atomic_write(out, "\n".join(lines) + "\n")
    outputs = [out]
    stem = out.stem
    for ev in result.models:
        proj_path = out.with_name(f"{stem}_{ev.model}_projection.csv")
        _atomic_write(proj_path, _projection_csv(ev.projection_ids, ev.projection.points))
        outputs.append(proj_path)
    inputs = [network_path] + ([Path(args.config)] if args.config else [])
    _write_manifest("evaluate", config.seed, inputs, outputs, {}, started, out)
    return EXIT_OK


def cmd_project(args) -> int:
    started = time.perf_counter()
    store_path = _require_file(args.store, "store")
    bundle = load_store(store_path)
    with _naming(store_path):
        projection = pca_project(bundle.store.z)
    out = Path(args.out)
    _atomic_write(out, _projection_csv(bundle.store.ids, projection.points))
    _write_manifest("project", 0, [store_path], [out], {}, started, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranrec",
        description="Learn cell embeddings, recommend configurations, flag misconfigurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic network")
    p.add_argument("spec", nargs="?", help="synth spec JSON (defaults apply if omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("network")
    p.add_argument("--config", default=None)
    p.add_argument("--model", choices=("sgnn", "gae"), default="sgnn")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed every network cell into a store")
    p.add_argument("network")
    p.add_argument("checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("recommend", help="recommend configurations for new cells")
    p.add_argument("store")
    p.add_argument("new_cells", metavar="new-cells")
    p.add_argument("--mode", choices=("closest", "majority"), default="closest")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("detect", help="score stored cells for misconfiguration")
    p.add_argument("store")
    p.add_argument("--threshold", type=float, default=0.6)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="compare untrained/gae/sgnn accuracy")
    p.add_argument("network")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("project", help="2-D projection of store embeddings")
    p.add_argument("store")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    return parser


def _setup_logging() -> None:
    level = os.environ.get("RANREC_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:  # NetworkFormatError and SettingsError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("unexpected failure")
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
