"""Seeded 64-bit PRNG (splitmix64) so disturbance draws are portable.

The stream depends only on the integer seed, not on numpy's generator
internals, which keeps benchmark data reproducible across platforms and
implementations.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed):
        self.state = int(seed) & _MASK64

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self, lo=0.0, hi=1.0):
        # top 53 bits -> double in [0, 1)
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return lo + u * (hi - lo)

    def uniforms(self, shape, lo=0.0, hi=1.0):
        """Array of uniforms, filled in C order (row-major): the next
        prod(shape) draws of the stream, bit-equal to as many uniform()
        calls, computed in wrapping uint64 arithmetic."""
        n = int(np.prod(shape))
        z = np.uint64(self.state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        self.state = (self.state + n * _GOLDEN) & _MASK64
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        u = ((z ^ (z >> 31)) >> 11) * 2.0 ** -53
        return (lo + u * (hi - lo)).reshape(shape)
