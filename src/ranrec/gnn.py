"""Multi-head graph attention stacks over sampled subgraphs.

Each layer runs H attention heads. A head scores a vertex pair by applying
the nonlinearity before the attention projection,
``e_ij = a . leaky_relu(h_j W_src + h_i W_dst)``, normalizes scores over the
vertex's subgraph neighbors plus itself, and averages source projections
with those weights. Heads work over an edge list, so a vertex pays only for
its own edges. Head outputs are concatenated and aggregated by a
two-layer feed-forward network. Stacks compose layers into an encoder
(features -> latent embeddings) or a decoder (embeddings -> reconstructed
features) over the same subgraph topology.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .autodiff import EdgeList, Node, Parameter, Tape
from .graph import ROLES, SETTING_TYPES, AttributeSchema, NormalizationStats, check_types, require, settings_from
from .rng import substream
from .sampler import SubgraphSet


@dataclass(frozen=True)
class ArchConfig:
    """Stack dimensions. Hidden layers share ``hidden_dim`` outputs."""

    in_dim: int
    embedding_dim: int = 14
    layers: int = 2
    heads: int = 4
    head_dim: int = 16
    ffn_hidden: int = 64
    hidden_dim: int = 64
    slope: float = 0.2

    def __post_init__(self) -> None:
        for key in ("in_dim", "embedding_dim", "layers", "heads", "head_dim", "ffn_hidden", "hidden_dim"):
            value = getattr(self, key)
            require(value >= 1, key, f"must be positive, got {value}")
        require(0.0 < self.slope < 1.0, "slope", f"must be in (0, 1), got {self.slope}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict, source: str = "arch") -> "ArchConfig":
        return settings_from(cls, data, source)


@dataclass
class HeadParams:
    W_src: Parameter
    W_dst: Parameter
    a: Parameter


@dataclass
class LayerParams:
    heads: tuple[HeadParams, ...]
    W1: Parameter
    b1: Parameter
    W2: Parameter
    b2: Parameter

    @property
    def in_dim(self) -> int:
        return self.heads[0].W_src.shape[0]

    @property
    def out_dim(self) -> int:
        return self.W2.shape[1]


@dataclass
class GatStack:
    """An ordered chain of attention layers with a shared score slope."""

    layers: tuple[LayerParams, ...]
    slope: float

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            for head in layer.heads:
                out.extend([head.W_src, head.W_dst, head.a])
            out.extend([layer.W1, layer.b1, layer.W2, layer.b2])
        return out


def _glorot(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


def _stack_shapes(arch: ArchConfig, kind: str, in_dim: int, out_dim: int) -> Iterator[tuple[str, tuple[int, int]]]:
    """Name and shape of each tensor of a stack, in ``GatStack.parameters`` order."""
    dims = [in_dim] + [arch.hidden_dim] * (arch.layers - 1) + [out_dim]
    for i in range(arch.layers):
        prefix = f"{kind}.layer{i}"
        for h in range(arch.heads):
            yield f"{prefix}.head{h}.W_src", (dims[i], arch.head_dim)
            yield f"{prefix}.head{h}.W_dst", (dims[i], arch.head_dim)
            yield f"{prefix}.head{h}.a", (arch.head_dim, 1)
        yield f"{prefix}.ffn.W1", (arch.heads * arch.head_dim, arch.ffn_hidden)
        yield f"{prefix}.ffn.b1", (1, arch.ffn_hidden)
        yield f"{prefix}.ffn.W2", (arch.ffn_hidden, dims[i + 1])
        yield f"{prefix}.ffn.b2", (1, dims[i + 1])


def _build_stack(
    arch: ArchConfig, shapes: Iterable[tuple[str, tuple[int, int]]], value: Callable[[str, tuple[int, int]], np.ndarray]
) -> GatStack:
    """The stack of the tensors ``value(name, shape)`` gives, called in ``shapes`` order."""
    params = [Parameter(name, value(name, shape)) for name, shape in shapes]
    size = 3 * arch.heads + 4  # tensors per layer
    layers = []
    for p in (params[at : at + size] for at in range(0, len(params), size)):
        heads = tuple(HeadParams(*p[h : h + 3]) for h in range(0, size - 4, 3))
        layers.append(LayerParams(heads, *p[-4:]))
    return GatStack(layers=tuple(layers), slope=arch.slope)


def _init_stack(arch: ArchConfig, seed: int, kind: str, in_dim: int, out_dim: int) -> GatStack:
    rng = substream(seed, kind)

    def draw(name: str, shape: tuple[int, int]) -> np.ndarray:
        return np.zeros(shape) if name.endswith((".b1", ".b2")) else _glorot(rng, *shape)

    return _build_stack(arch, _stack_shapes(arch, kind, in_dim, out_dim), draw)


def init_encoder(arch: ArchConfig, seed: int) -> GatStack:
    """Glorot-uniform weights and zero biases, deterministic per seed."""
    return _init_stack(arch, seed, "encoder", arch.in_dim, arch.embedding_dim)


def init_decoder(arch: ArchConfig, seed: int) -> GatStack:
    return _init_stack(arch, seed, "decoder", arch.embedding_dim, arch.in_dim)


# ---------------------------------------------------------------------------
# Forward passes
#
# Subgraphs of any sizes batch into one computation: a ``SubgraphSet``
# stacks their feature rows into (V, in_dim) and its edge lists run over
# those rows, and every op below works per edge or per row, so one tape
# node covers the whole set.


def layer_forward(
    tape: Tape,
    layer: LayerParams,
    h: Node,
    edges: EdgeList,
    slope: float,
    targets: np.ndarray | None = None,
) -> Node:
    """One multi-head attention layer followed by the FFN aggregation.

    ``h`` holds one row per source vertex of ``edges``. The layer's output
    covers the rows ``targets`` of ``h`` (all rows when None), which must be
    the destinations of ``edges`` in order.
    """
    h_dst = h if targets is None else tape.gather(h, targets)
    head_outs = []
    for head in layer.heads:
        s = tape.matmul(h, tape.param(head.W_src))
        t = tape.matmul(h_dst, tape.param(head.W_dst))
        head_outs.append(tape.attention_head(s, t, tape.param(head.a), edges, slope)[0])
    concat = tape.concat(head_outs, axis=1)
    hidden = tape.leaky_relu(
        tape.add(tape.matmul(concat, tape.param(layer.W1)), tape.param(layer.b1)), slope
    )
    return tape.add(tape.matmul(hidden, tape.param(layer.W2)), tape.param(layer.b2))


def _stack_forward(tape: Tape, stack: GatStack, h: Node, group: SubgraphSet, centers: bool) -> Node:
    """Every layer over every edge; with ``centers``, the last layer keeps only
    the edges into centres and outputs one row per subgraph."""
    edges, center_edges = group.edge_lists
    for layer in stack.layers[:-1]:
        h = layer_forward(tape, layer, h, edges, stack.slope)
    if centers:
        return layer_forward(tape, stack.layers[-1], h, center_edges, stack.slope, group.vptr[:-1])
    return layer_forward(tape, stack.layers[-1], h, edges, stack.slope)


def encode_group_on_tape(
    tape: Tape, stack: GatStack, group: SubgraphSet, centers: bool = False
) -> Node:
    """Embeddings of a set of subgraphs: every vertex's rows, or with
    ``centers`` one centre row per subgraph, in subgraph order."""
    features = group.features
    if features.shape[1] != stack.in_dim:
        raise ValueError(
            f"subgraph features have {features.shape[1]} columns, encoder expects {stack.in_dim}"
        )
    return _stack_forward(tape, stack, tape.const(features), group, centers)


def decode_group_on_tape(tape: Tape, stack: GatStack, group: SubgraphSet, z: Node) -> Node:
    if z.shape != (int(group.vptr[-1]), stack.in_dim):
        raise ValueError(f"embedding matrix shape {z.shape} does not match decoder input")
    return _stack_forward(tape, stack, z, group, centers=False)


def encode(stack: GatStack, subgraph: SubgraphSet) -> np.ndarray:
    """The centre cell's embedding of a set of one subgraph, shape (d,)."""
    return encode_group_on_tape(Tape(), stack, subgraph, centers=True).value[0]


# ---------------------------------------------------------------------------
# Checkpoints


def schema_hash(schema: AttributeSchema) -> str:
    payload = json.dumps(schema.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _checkpoint_int(data: dict, key: str, default: int | None = None) -> int:
    """A top-level integer of a checkpoint, held to the settings' rule: an int, not a bool."""
    value = data[key] if default is None else data.get(key, default)
    expected, ok = SETTING_TYPES["int"]
    require(ok(value), key, f"expected {expected}, got {value!r}")
    return value


def _dump_params(stack: GatStack) -> list[dict]:
    return [
        {"name": p.name, "shape": list(p.shape), "data": p.value.ravel().tolist()}
        for p in stack.parameters()
    ]


def _load_stack(arch: ArchConfig, kind: str, in_dim: int, out_dim: int, items: list[dict]) -> GatStack:
    """The stack ``items`` hold. Their count, and each tensor's name and shape,
    are checked against what ``arch`` implies before its array is built; no
    weight is drawn."""
    count = arch.layers * (3 * arch.heads + 4)
    if len(items) != count:
        raise ValueError(f"checkpoint has {len(items)} tensors, expected {count}")
    tensors = iter(items)

    def read(name: str, shape: tuple[int, int]) -> np.ndarray:
        item = next(tensors)
        if item["name"] != name or tuple(item["shape"]) != shape:
            raise ValueError(f"checkpoint tensor mismatch at {item['name']!r}")
        try:
            check_types(item["data"], map("data[{}]".format, itertools.count()))
            value = np.array(item["data"], dtype=np.float64).reshape(shape)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"checkpoint tensor {name!r}: {exc}") from exc
        if not np.isfinite(value).all():
            raise ValueError(f"checkpoint tensor {name!r} has non-finite values")
        return value

    return _build_stack(arch, _stack_shapes(arch, kind, in_dim, out_dim), read)


CHECKPOINT_MODELS = ("sgnn", "gae", "untrained")


@dataclass
class Checkpoint:
    """Serializable trained model: encoder, optional decoder, preprocessing."""

    model: str  # one of CHECKPOINT_MODELS
    arch: ArchConfig
    seed: int
    schema_digest: str
    stats: NormalizationStats
    encoder: GatStack
    decoder: GatStack | None = None
    fanout: int = 8  # neighbor-sampling width used at training time

    def to_json(self) -> dict:
        payload = {
            "model": self.model,
            "arch": self.arch.to_json(),
            "seed": self.seed,
            "schema_hash": self.schema_digest,
            "stats": self.stats.to_json(),
            "sampler_fanout": self.fanout,
            "params": _dump_params(self.encoder),
        }
        if self.decoder is not None:
            # The decoder never takes part in inference; kept for audit only.
            payload["decoder"] = {"non_inferential": True, "params": _dump_params(self.decoder)}
        return payload

    @classmethod
    def from_json(cls, data: dict, schema: AttributeSchema | None = None) -> "Checkpoint":
        """Rebuild a checkpoint; a malformed one raises ``KeyError`` or ``ValueError``."""
        try:
            model = data["model"]
            require(model in CHECKPOINT_MODELS, "model", f"expected one of {CHECKPOINT_MODELS}, got {model!r}")
            digest = str(data["schema_hash"])
            if schema is not None and schema_hash(schema) != digest:
                raise ValueError("checkpoint schema hash does not match the network schema")
            arch = ArchConfig.from_json(data["arch"])
            seed = _checkpoint_int(data, "seed")
            encoder = _load_stack(arch, "encoder", arch.in_dim, arch.embedding_dim, data["params"])
            decoder = None
            if "decoder" in data:
                decoder = _load_stack(arch, "decoder", arch.embedding_dim, arch.in_dim, data["decoder"]["params"])
            stats = NormalizationStats.from_json(data["stats"])
            for role in ROLES if schema is not None else ():
                slots, layout = len(stats.slots(role)), len(schema.layout(role))
                if slots != layout:
                    raise ValueError(f"stats.{role}: {slots} slots, but the schema's {role} layout has {layout}")
            fanout = _checkpoint_int(data, "sampler_fanout", 8)
        except (AttributeError, TypeError, OverflowError) as exc:  # a wrong JSON type, a number past float range
            raise ValueError(str(exc)) from exc
        if fanout < 1:
            raise ValueError(f"sampler_fanout must be >= 1, got {fanout}")
        return cls(model, arch, seed, digest, stats, encoder, decoder, fanout)
