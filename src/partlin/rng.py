"""Deterministic random number streams.

All stochastic output in this package is drawn through the functions in
this module, which fix both the generator and the bit-to-float pipeline.
The construction is documented below precisely enough to be reproduced
with no reference to this code or to numpy.

Generator
    Philox-4x64 with 10 rounds (the counter based generator of Salmon,
    Moraes, Dror and Shaw), keyed by the pair ``(seed, stream)``.  Both
    key words are the arguments reduced modulo 2**64.  The 256 bit
    counter starts at zero and is incremented (little endian, word 0
    first) *before* each block is generated, so the first emitted block
    is the encryption of counter value 1.  Each block contributes its
    four 64 bit words in order.

Uniforms
    Each 64 bit word ``w`` is mapped to the open unit interval through
    ``u = ((w >> 12) + 0.5) * 2**-52``.  The result lies in
    ``[2**-53, 1 - 2**-53]``, so it is never 0.0 or 1.0 and the inverse
    normal transform below is always finite.

Normals
    Standard normal draws apply the inverse of the standard normal
    distribution function to the uniforms: ``scipy.special.ndtri``,
    which loads on the first draw, so that importing the package and
    the commands that draw nothing never pay for ``scipy.special``.

Distinct ``(seed, stream)`` pairs index statistically independent
streams, which is what the simulation code relies on for reproducible
parallelism: replication ``j`` owns a fixed set of stream numbers, so
results do not depend on scheduling or on the number of workers.

Blocks
    ``normal_block`` draws many streams at once, one row each, and
    ``standard_normal`` is its one-row case: a row is the same whatever
    other streams share its block.  Callers size blocks with
    ``block_rows``, which keeps a block within ``BLOCK_CELLS`` cells (at
    least one row), so a block costs O(BLOCK_CELLS + size) memory
    however many streams are drawn in all.  ``map_blocks`` maps a
    function over blocks on a few threads, in block order; a block that
    is computed alike on any thread gives the same bits on any count.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import scalar

_MASK64 = (1 << 64) - 1

# The cells (streams times draws) of one block of streams: 512 KB of
# doubles, so a block and its working copies stay in a 2 MB L2 cache.
BLOCK_CELLS = 2**16


def block_rows(size: int) -> int:
    """Streams of ``size`` draws in one block: at least one, so a block
    holds O(BLOCK_CELLS + size) cells."""
    return max(1, BLOCK_CELLS // size)


# The most threads a map of blocks uses, each holding one block, so
# memory stays O(MAX_THREADS (BLOCK_CELLS + size)) on any host.
MAX_THREADS = 4


def map_blocks(fn, items) -> list:
    """``list(map(fn, items))`` on one thread per core this process may
    run on, at most one per item and at most ``MAX_THREADS``; inline for
    one item or one core.  Results keep the order of ``items``, and the
    first item in that order to fail raises its error."""
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    threads = min(cores, len(items), MAX_THREADS)
    if threads < 2:
        return list(map(fn, items))
    # imported here: `import partlin` loads no thread pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


def _words(seed: int, streams, size: int) -> np.ndarray:
    """Raw 64 bit words, one row of ``size`` per stream of ``seed``.

    One generator is re-keyed per stream through its ``state``, which
    sets the key and a zero counter exactly as a fresh generator has
    them; the keys and the counter are built once, and the setter
    copies them.
    """
    seed, size = scalar(seed, "seed", int) & _MASK64, scalar(size, "size", int, 0)
    words = np.empty((len(streams), size), dtype=np.uint64)
    if size:
        keys = np.array(
            [(seed, scalar(s, "stream", int) & _MASK64) for s in streams], np.uint64
        )
        gen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        state = gen.state
        state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
        state["buffer_pos"] = 4  # the buffer is empty, as when fresh
        for row, key in zip(words, keys):
            state["state"]["key"] = key
            gen.state = state
            row[:] = gen.random_raw(size)
    return words


def _to_uniform(w: np.ndarray) -> np.ndarray:
    """The open unit interval uniforms of raw words, in ``w``'s buffer:
    the top 52 bits m, read as the double 1 + m 2**-52, minus 1 - 2**-53
    give (m + 0.5) 2**-52 exactly, half a step from both endpoints."""
    w >>= np.uint64(12)
    w |= np.uint64(0x3FF0000000000000)
    u = w.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u


def normal_block(seed: int, streams, size: int) -> np.ndarray:
    """Standard normal draws, one row of ``size`` per stream of ``seed``.

    Row i equals ``standard_normal(seed, streams[i], size)`` bit for bit:
    the words of each stream are drawn by ``_words`` and the whole block
    is mapped to uniforms and then normals in the words' own buffer.
    """
    # imported here: scipy.special costs more to load than `import partlin`
    from scipy.special import ndtri

    u = _to_uniform(_words(seed, streams, size))
    return ndtri(u, out=u)


def standard_normal(seed: int, stream: int, size: int) -> np.ndarray:
    """Standard normal draws via the inverse distribution function."""
    return normal_block(seed, [stream], size)[0]
