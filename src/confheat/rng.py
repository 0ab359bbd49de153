"""Keyed random streams.

All Monte Carlo entry points derive their randomness from SFC64 streams keyed
by (seed, path-of-integers): the path is folded into a 64-bit state by
splitmix64, and the state seeds the generator through ``SeedSequence``, whose
hashing spreads distinct keys over unrelated generator states.  SFC64 is the
cheapest of numpy's bit generators per 64-bit word, and the Gaussian draws,
one word each through the ziggurat, are most of the Monte Carlo work.
Results assembled chunk-by-chunk are reduced in chunk order, so outputs do not
depend on thread scheduling or thread count.  Within a stream, samplers draw
in blocks of ``block_rows`` rows into reused buffers; the blocks continue the
stream as one draw would, so block size bounds memory and changes no value.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# fixed stream-purpose tags; keeping them distinct keeps substreams disjoint
TAG_APPLY_MC = 11
TAG_PATHS = 14
TAG_INVARIANCE = 15
TAG_GENERATOR = 16
TAG_INTEGRAL = 17
TAG_COLLISION = 18
TAG_OSCILLATION = 19
TAG_EXPERIMENT = 20
TAG_MARGINAL = 21

#: draws one sampling block holds: path points in ``process`` and in tail-tau's displacements, moved coordinates
#: (for every t) in the heat-step sampler of ``semigroup.apply_mc`` and ``generator_residual``; blocks reuse one
#: buffer, so this bounds their memory.  ``special.sq_dist`` sizes its scratch slab by it too
BLOCK_POINTS = 1 << 16


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic SFC64 generator keyed by the seed and an integer path."""
    state = _splitmix64(seed & _MASK64)
    for p in path:
        state = _splitmix64(state ^ _splitmix64(p & _MASK64))
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([state, _splitmix64(state)])))


def block_rows(points_per_row: int) -> int:
    """Rows of ``points_per_row`` draws one block holds: BLOCK_POINTS of them,
    and one row at least."""
    return max(1, BLOCK_POINTS // max(1, points_per_row))


def chunk_sizes(total: int, chunk: int) -> list[int]:
    """Split ``total`` items into fixed-size chunks (last one ragged)."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    full, rest = divmod(total, chunk)
    sizes = [chunk] * full
    if rest:
        sizes.append(rest)
    return sizes


def map_chunks(worker, n_chunks: int, threads: int = 1) -> list:
    """Run ``worker(chunk_index)`` for every chunk and return results in chunk order.

    The chunk decomposition is fixed up front, so the result list is identical
    for any thread count.
    """
    if n_chunks == 0:
        return []
    if threads <= 1 or n_chunks == 1:
        return [worker(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(n_chunks)))
