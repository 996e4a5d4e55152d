"""Per-pair reference values of the training objectives, for the tests.

Training builds its losses on the tape (``training.pair_loss_on_tape`` and
``training.reconstruction_step``) and its labels in bulk
(``training.mine_informative_pairs``); these scalar forms state the same
formulas one pair at a time.
"""

from __future__ import annotations

import math

import numpy as np

from ranrec.autodiff import cosine


def config_similarity(y_a: np.ndarray, y_b: np.ndarray) -> float:
    """Similarity label ``2 cos(y_a, y_b) - 1``; undefined for zero vectors."""
    return 2.0 * cosine(y_a, y_b) - 1.0


def contrastive_loss(
    c: float, z_a: np.ndarray, z_b: np.ndarray, margin: float, form: str = "standard"
) -> float:
    """Per-pair loss value for a similarity label and two embeddings.

    ``form="printed"`` selects the unbalanced variant
    ``(1 + c) D + (1 - c) max(0, M) - D`` kept for comparison runs.
    """
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    diff = np.asarray(z_a, dtype=np.float64) - np.asarray(z_b, dtype=np.float64)
    # math.hypot rescales before squaring, so a tiny nonzero distance does not
    # underflow to 0 the way sqrt(sum(diff**2)) in np.linalg.norm does.
    d = math.hypot(*diff.ravel())
    if form == "printed":
        return (1.0 + c) * d + (1.0 - c) * max(0.0, margin) - d
    return 0.5 * (1.0 + c) * d + 0.5 * (1.0 - c) * max(0.0, margin - d)


def reconstruction_loss(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean over vertices of the row-wise Euclidean reconstruction error."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    return float(np.linalg.norm(x - x_hat, axis=1).mean())
