"""The three ranrec benchmark workloads and the checks on their outputs.

Every timed operation is one in-process call of ``ranrec.cli.main(argv)``
from a single client: the next call starts when the previous one returned
(a closed loop). The program only sees files the set-up generated from the
workload seed. Checks and hashing run outside the timed calls.

- ``train``: ``ranrec train --model sgnn`` then ``--model gae`` on a
  1200-cell network, with the acceptance suite's benchmark settings.
- ``recommend``: ``ranrec recommend`` requests against a 4800-cell store,
  each a rollout of greenfield sites and expansion cells; modes alternate
  between ``closest`` and ``majority --k 5``.
- ``audit``: ``ranrec embed`` of the 4800-cell network, then ``ranrec
  detect`` on the store it wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ranrec import cli
from ranrec.evaluation import accuracy, roc_auc
from ranrec.gnn import Checkpoint
from ranrec.graph import extend_network, feature_map, load_network
from ranrec.inference import embed_new_cell, load_store
from ranrec.sampler import SamplerConfig, sample_subgraph
from ranrec.synth import GroundTruth, SynthSpec, synthesize_expansion, synthesize_greenfield

MAJORITY_K = 5


@dataclass(frozen=True)
class Sizes:
    train_sites: int  # network of the train workload
    train_epochs: int
    store_sites: int  # network embedded into the store of recommend and audit
    region_sites: int  # region the set-up checkpoint is trained on
    region_epochs: int
    rollouts: tuple[tuple[int, int], ...]  # (greenfield sites, expansion cells) per request


FULL = Sizes(
    train_sites=200,
    train_epochs=1,
    store_sites=800,
    region_sites=50,
    region_epochs=1,
    rollouts=((1, 0), (1, 0), (1, 0), (10, 10)),
)
TINY = Sizes(
    train_sites=8,
    train_epochs=1,
    store_sites=12,
    region_sites=6,
    region_epochs=1,
    rollouts=((1, 0), (1, 2)),
)


class SetupError(RuntimeError):
    """A set-up call failed, so nothing can be measured."""


@dataclass
class Op:
    key: str  # identifies the input: runs with one key must give identical outputs
    seconds: float
    cells: int
    traced: bool
    error: str | None = None


def sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def derive_seed(seed: int, *tokens: object) -> int:
    digest = hashlib.blake2b("/".join(map(str, (seed, *tokens))).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") >> 1


class Run:
    """Issues the calls of one benchmark run and keeps their outcomes."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: list[Op] = []
        self.setup_calls = 0
        self.trace_ranges: list[tuple[int, int]] = []
        self._verdicts: dict[str, tuple[str, str | None]] = {}

    def _main(self, argv: list, traced: bool) -> tuple[int, float, tuple[int, int]]:
        argv = [str(a) for a in argv]
        start_span = len(self.tracer.spans) if traced else 0
        started = time.perf_counter()
        try:
            if traced:
                with self.tracer.active():
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - started
        return code, seconds, (start_span, len(self.tracer.spans) if traced else 0)

    def setup_call(self, argv: list, traced: bool) -> None:
        self.setup_calls += 1
        code, _, _ = self._main(argv, traced)
        if code != 0:
            raise SetupError(f"set-up call `ranrec {' '.join(map(str, argv))}` exited {code}")

    def op(
        self,
        key: str,
        argv: list,
        cells: int,
        traced: bool,
        digest: Callable[[], str],
        check: Callable[[], list[str]],
    ) -> None:
        """One timed call. It fails on a non-zero exit, on output that differs
        from the first run of the same input, or on a failed check; the check
        runs once per distinct output."""
        code, seconds, span_range = self._main(argv, traced)
        if traced:
            self.trace_ranges.append(span_range)
        op = Op(key=key, seconds=seconds, cells=cells, traced=traced)
        if code != 0:
            op.error = f"exit code {code}"
        else:
            current = digest()
            if key not in self._verdicts:
                problems = check()
                self._verdicts[key] = (current, "; ".join(problems) if problems else None)
            first, verdict = self._verdicts[key]
            op.error = verdict if current == first else "output differs from the first run of this input"
        self.ops.append(op)


def _write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _synth(run: Run, directory: Path, name: str, sites: int, seed: int, traced: bool) -> Path:
    spec = _write_json(directory / f"{name}.spec.json", {"sites": sites, "seed": seed})
    run.setup_call(["synth", spec, "--out", directory / name], traced)
    return directory / name


def _config(directory: Path, epochs: int, seed: int) -> Path:
    # The acceptance suite's BENCHMARK_CONFIG: per-epoch resampling, learning
    # rate 2e-3. Resampling starts at the second epoch.
    path = directory / f"epochs{epochs}.cfg"
    path.write_text(
        f"epochs = {epochs}\nresample_per_epoch = true\nlearning_rate = 0.002\nseed = {seed}\n",
        encoding="utf-8",
    )
    return path


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Workload:
    name = ""
    labels: dict[str, str] = {}  # call key -> name of its median in the report

    def __init__(self, run: Run, sizes: Sizes, seed: int) -> None:
        self.run = run
        self.sizes = sizes
        self.seed = seed

    def setup(self, directory: Path, traced: bool) -> str:
        """Generate inputs and build what the timed calls need; return their digest."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work, after the first set-up, that only the checks need."""

    def cycle(self, traced: bool) -> None:
        """One round of the workload's timed calls."""
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        return {}


class Train(Workload):
    name = "train"
    labels = {"sgnn": "sgnn_train_s", "gae": "gae_train_s"}

    def setup(self, directory: Path, traced: bool) -> str:
        self.dir = directory
        network = _synth(self.run, directory, "network", self.sizes.train_sites, self.seed, traced)
        self.network = network / "network.json"
        self.config = _config(directory, self.sizes.train_epochs, self.seed)
        return sha256(self.network)

    def prepare(self) -> None:
        self.graph = load_network(self.network)

    def cycle(self, traced: bool) -> None:
        for model in ("sgnn", "gae"):
            out = self.dir / f"{model}.ckpt.json"
            report = out.with_name(out.name + ".report.json")
            self.run.op(
                model,
                ["train", self.network, "--config", self.config, "--model", model, "--out", out],
                cells=len(self.graph.cells) * self.sizes.train_epochs,
                traced=traced,
                digest=lambda: sha256(out) + json.dumps(json.loads(report.read_text())["epoch_losses"]),
                check=lambda: self._check(model, out, report),
            )

    def _check(self, model: str, out: Path, report: Path) -> list[str]:
        problems = []
        losses = json.loads(report.read_text())["epoch_losses"]
        if len(losses) != self.sizes.train_epochs or not _finite(losses):
            problems.append(f"{model}: epoch losses {losses} are not {self.sizes.train_epochs} finite values")
        try:
            checkpoint = Checkpoint.from_json(json.loads(out.read_text()), schema=self.graph.schema)
        except (KeyError, ValueError) as exc:
            problems.append(f"{model}: checkpoint does not reload against the network: {exc}")
        else:
            if checkpoint.model != model:
                problems.append(f"{model}: checkpoint says model {checkpoint.model!r}")
        return problems


def _store_setup(workload: Workload, directory: Path, traced: bool) -> tuple[Path, Path]:
    """The inductive deployment shared by recommend and audit: a 4800-cell
    network and an sgnn checkpoint trained on a separate 300-cell region."""
    sizes, seed, run = workload.sizes, workload.seed, workload.run
    region = _synth(run, directory, "region", sizes.region_sites, seed, traced) / "network.json"
    network = _synth(run, directory, "network", sizes.store_sites, seed, traced)
    checkpoint = directory / "region.ckpt.json"
    config = _config(directory, sizes.region_epochs, seed)
    run.setup_call(["train", region, "--config", config, "--model", "sgnn", "--out", checkpoint], traced)
    return network, checkpoint


@dataclass
class Request:
    path: Path
    mode: str
    cells: list
    edges: list
    truth: dict


def _normalized_config(layout, slots, technology: str, raw: dict[str, float]) -> np.ndarray:
    """A config vector in the store's normalized layout; other-technology slots are 0."""
    out = np.zeros(len(layout))
    for i, (spec, slot) in enumerate(zip(layout, slots)):
        if spec.technology == technology:
            out[i] = slot.normalize(float(raw[spec.name]))
    return out


class Recommend(Workload):
    name = "recommend"

    def setup(self, directory: Path, traced: bool) -> str:
        self.dir = directory
        network, checkpoint = _store_setup(self, directory, traced)
        self.store = directory / "store.json"
        self.run.setup_call(["embed", network / "network.json", checkpoint, "--out", self.store], traced)
        spec = SynthSpec(sites=self.sizes.store_sites, seed=self.seed)
        graph = load_network(network / "network.json")
        truth = GroundTruth.from_json(json.loads((network / "ground_truth.json").read_text()))
        self.requests = []
        for i, (sites, expansion) in enumerate(self.sizes.rollouts):
            rollout_seed = derive_seed(self.seed, "rollout", i)
            cells, edges, new_truth = synthesize_greenfield(graph, truth, spec, sites, rollout_seed)
            more, _, more_truth = synthesize_expansion(graph, truth, spec, expansion, rollout_seed)
            cells = cells + more
            path = _write_json(
                directory / f"request-{i}.json",
                {
                    "cells": [
                        {
                            "cell_id": c.cell_id,
                            "node_id": c.node_id,
                            "technology": c.technology,
                            "predictors": dict(c.raw_predictors),
                        }
                        for c in cells
                    ],
                    "edges": [list(e) for e in edges],
                },
            )
            mode = "closest" if i % 2 == 0 else "majority"
            self.requests.append(Request(path, mode, cells, edges, {**new_truth, **more_truth}))
        return sha256(checkpoint, self.store, *(r.path for r in self.requests))

    def prepare(self) -> None:
        self.bundle = load_store(self.store)
        self.records = [(r.cell_id, r.z) for r in self.bundle.store.records]
        self.truth_vectors: list[np.ndarray] = []
        self.predicted: list[np.ndarray] = []

    def cycle(self, traced: bool) -> None:
        for i, request in enumerate(self.requests):
            out = self.dir / f"recs-{i}.json"
            argv = ["recommend", self.store, request.path, "--mode", request.mode, "--out", out]
            if request.mode == "majority":
                argv += ["--k", MAJORITY_K]
            self.run.op(
                f"request-{i}",
                argv,
                cells=len(request.cells),
                traced=traced,
                digest=lambda: sha256(out),
                check=lambda: self._check(request, out),
            )

    def _check(self, request: Request, out: Path) -> list[str]:
        """Sources against a brute-force oracle over a store that grows within
        the request, as in acceptance criterion 3."""
        recs = json.loads(out.read_text())
        if [r["cell_id"] for r in recs] != [c.cell_id for c in request.cells]:
            return [f"{request.path.name}: not exactly one recommendation per new cell"]
        bundle = self.bundle
        schema, stats = bundle.schema, bundle.stats
        augmented = extend_network(bundle.graph, request.cells, request.edges)
        features = feature_map(augmented, stats)
        sampler = SamplerConfig(fanout=bundle.checkpoint.fanout, seed=bundle.checkpoint.seed)
        k = 1 if request.mode == "closest" else MAJORITY_K
        store = list(self.records)
        problems = []
        for cell, rec in zip(request.cells, recs):
            z = embed_new_cell(bundle.store, sample_subgraph(augmented, cell.cell_id, sampler, features))
            ranked = sorted((float(np.linalg.norm(zr - z)), cid) for cid, zr in store)
            expected = [{"cell_id": cid, "distance": d} for d, cid in ranked[:k]]
            if rec["sources"] != expected:
                problems.append(f"{cell.cell_id}: sources differ from the brute-force oracle")
            score = rec["anomaly_score"]
            if not (isinstance(score, float) and 0.0 < score < 1.0):
                problems.append(f"{cell.cell_id}: anomaly score {score!r} is not in (0, 1)")
            store.append((cell.cell_id, z))
            layout, tech = schema.config_layout, cell.technology
            predicted = {
                s.name: rec["y_hat"][f"{s.technology}.{s.name}"] for s in layout if s.technology == tech
            }
            clean = request.truth[cell.cell_id].clean_configs
            self.truth_vectors.append(_normalized_config(layout, stats.config, tech, clean))
            self.predicted.append(_normalized_config(layout, stats.config, tech, predicted))
        return problems

    def quality(self) -> dict[str, float]:
        return {"rec_accuracy": accuracy(self.truth_vectors, self.predicted).accuracy}


class Audit(Workload):
    name = "audit"
    labels = {"embed": "embed_s", "detect": "detect_s"}

    def setup(self, directory: Path, traced: bool) -> str:
        self.dir = directory
        network, self.checkpoint = _store_setup(self, directory, traced)
        self.network = network / "network.json"
        self.ground_truth = network / "ground_truth.json"
        return sha256(self.checkpoint, self.network)

    def prepare(self) -> None:
        self.cell_ids = sorted(c["cell_id"] for c in json.loads(self.network.read_text())["cells"])
        truth = json.loads(self.ground_truth.read_text())
        self.corrupted = {cid: bool(item["corrupted"]) for cid, item in truth.items()}
        self.auc = None

    def cycle(self, traced: bool) -> None:
        store = self.dir / "store.json"
        flags = self.dir / "flags.json"
        cells = len(self.cell_ids)
        self.run.op(
            "embed",
            ["embed", self.network, self.checkpoint, "--out", store],
            cells=cells,
            traced=traced,
            digest=lambda: sha256(store),
            check=lambda: self._check_store(store),
        )
        self.run.op(
            "detect",
            ["detect", store, "--out", flags],
            cells=cells,
            traced=traced,
            digest=lambda: sha256(flags),
            check=lambda: self._check_flags(flags),
        )

    def _check_store(self, store: Path) -> list[str]:
        records = json.loads(store.read_text())["records"]
        problems = []
        if sorted(r["cell_id"] for r in records) != self.cell_ids:
            problems.append("embed: the store does not hold every network cell exactly once")
        if not all(_finite(r["z"]) for r in records):
            problems.append("embed: non-finite embedding in the store")
        return problems

    def _check_flags(self, flags: Path) -> list[str]:
        cells = json.loads(flags.read_text())["cells"]
        problems = []
        if sorted(c["cell_id"] for c in cells) != self.cell_ids:
            return ["detect: not exactly one score per stored cell"]
        if not all(isinstance(c["score"], float) and 0.0 < c["score"] < 1.0 for c in cells):
            problems.append("detect: a score is not in (0, 1)")
        self.auc = roc_auc([self.corrupted[c["cell_id"]] for c in cells], [c["score"] for c in cells])
        return problems

    def quality(self) -> dict[str, float]:
        return {"detect_auc": self.auc} if self.auc is not None else {}


WORKLOADS = {w.name: w for w in (Train, Recommend, Audit)}
