import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhect.rng import _GOLDEN, SplitMix64


def scalar_stream(seed, n, lo=0.0, hi=1.0):
    rng = SplitMix64(seed)
    return rng, np.array([rng.uniform(lo, hi) for _ in range(n)])


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1, _GOLDEN])
@pytest.mark.parametrize("shape", [(0,), (7,), (500, 3)])
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.3, 1.7)])
def test_uniforms_are_the_scalar_stream(seed, shape, lo, hi):
    n = int(np.prod(shape))
    ref, expect = scalar_stream(seed, n, lo, hi)
    rng = SplitMix64(seed)
    vals = rng.uniforms(shape, lo, hi)
    assert vals.shape == shape
    assert vals.tobytes() == expect.reshape(shape).tobytes()
    # the stream goes on where the scalar draws left it
    assert rng.state == ref.state
    assert rng.uniform(lo, hi) == ref.uniform(lo, hi)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 300))
def test_uniforms_match_the_scalar_stream_property(seed, n):
    ref, expect = scalar_stream(seed, n)
    rng = SplitMix64(seed)
    assert rng.uniforms((n,)).tobytes() == expect.tobytes()
    assert rng.next_u64() == ref.next_u64()
