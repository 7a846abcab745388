"""Plain numpy brute force over a span, independent of `stabforge.code`.

`min_weights(F, basis, r, quantum)` enumerates every combination of the
basis rows.  Rows before index `r` span the excluded subspace B, so a
word lies outside B exactly when a coefficient at index >= r is nonzero.
It returns (d(span), d(span minus B)).
"""

from __future__ import annotations

import numpy as np

from gf import GF

MAX_WORDS = 1 << 21


def _weights(words, n, quantum):
    if quantum:
        return ((words[:, :n] != 0) | (words[:, n:] != 0)).sum(axis=1)
    return (words != 0).sum(axis=1)


def _packed_gf2(basis, quantum):
    L = len(basis[0])
    packed = [sum(int(x) << j for j, x in enumerate(r)) for r in basis]
    words = np.zeros(1, dtype=np.uint64)
    for v in packed:
        words = np.concatenate([words, words ^ np.uint64(v)])
    if quantum:
        n = L // 2
        words = (words & np.uint64((1 << n) - 1)) | (words >> np.uint64(n))
    return np.bitwise_count(words).astype(np.int64)


def span_weights(F: GF, basis, quantum: bool) -> np.ndarray:
    """Weight of every word sum_j c_j basis[j], indexed by sum_j c_j q^j."""
    if F.q ** len(basis) > MAX_WORDS:
        raise ValueError(f"span of {F.q}^{len(basis)} words is too large to brute-force")
    if F.q == 2 and len(basis[0]) <= 64:
        return _packed_gf2(basis, quantum)
    L = len(basis[0])
    words = np.zeros((1, L), dtype=np.int64)
    for row in basis:
        row = np.asarray(row, dtype=np.int64)
        words = np.concatenate([F.add[words, F.mul[c, row][None, :]] for c in range(F.q)])
    return _weights(words, L // 2, quantum)


def min_weights(F: GF, basis, r: int, quantum: bool = False) -> tuple[int, int]:
    w = span_weights(F, basis, quantum)
    return int(w[1:].min()), int(w[F.q**r:].min())
