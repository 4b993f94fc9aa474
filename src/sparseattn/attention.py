"""Numerically stable evaluation of (causal) self-attention matrices."""

from __future__ import annotations

import numpy as np

from .construct import AttentionInputs


def logits(inputs: AttentionInputs) -> np.ndarray:
    """Pre-exponential attention scores, evaluated as (X Wq)(X Wk)^T."""
    q = inputs.x @ inputs.w_query
    k = inputs.x @ inputs.w_key
    return q @ k.T


def sam(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the logit matrix.

    Subtracts the per-row maximum before exponentiating, so any finite
    logits are safe; rows sum to one and all entries are strictly positive.
    """
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def csam(z: np.ndarray) -> np.ndarray:
    """Causal self-attention matrix: softmax over each row's prefix.

    Row i is the softmax of z[i, :i+1]; entries above the diagonal are
    exactly zero.  The maximum subtracted for stability is taken over the
    retained prefix only, which matches masking before normalization.
    """
    z = np.asarray(z, dtype=np.float64)
    L = z.shape[0]
    return sam(np.where(np.tril(np.ones((L, L), dtype=bool)), z, -np.inf))
