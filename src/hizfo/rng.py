"""Seeded noise plumbing for in-place perturbation.

Every perturbation of the ZO parameter set is derived from a 64-bit step
seed, so the noise vector never has to be stored: adding, removing and
reusing it are all "regenerate the stream and apply a scale" operations.
Step seeds come from splitmix64, a counter-based construction, so any
(master_seed, step) pair maps to an independent stream without shared
state between steps or runs.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment


def splitmix64(x: int) -> int:
    """One splitmix64 mixing round of a 64-bit value."""
    x = (x + _GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def step_seed(master_seed: int, step_index: int) -> int:
    """Derive the per-step perturbation seed from the run's master seed.

    Counter-based: seed(s, t) mixes the master seed with the step counter,
    so regenerating any step's noise needs no history.
    """
    if step_index < 0:
        raise ValueError("step_index must be >= 0")
    return splitmix64((master_seed & _MASK64) ^ splitmix64(step_index & _MASK64))


# add_scaled_noise resets this generator to the seed's stream on every call,
# as building a Philox first seeds it from OS entropy. Not thread-safe.
_GEN = np.random.Generator(np.random.Philox(key=0))
_START = _GEN.bit_generator.state  # counter 0 and an empty buffer; the reset sets the key


def add_scaled_noise(arrays, seed: int, scale: float) -> float:
    """Add scale * u to the arrays in place, u ~ N(0, I) drawn from `seed`.

    u is one Philox draw laid over the arrays in order. It equals consecutive
    per-tensor draws, so an array may span several adjacent tensors. The same
    seed regenerates the same u, so the caller can perturb (+eps), then
    restore and apply the estimator update in one call (-lr * coefficient
    - eps), with zero stored noise.

    Returns u @ u, one dot over the whole draw, for noise and estimate norms.
    """
    _START["state"]["key"][0] = seed & _MASK64
    _GEN.bit_generator.state = _START  # the stream of a fresh Philox keyed by seed
    u = _GEN.standard_normal(sum(a.size for a in arrays))
    sq = float(u @ u)
    with np.errstate(over="ignore", invalid="ignore"):
        u *= scale
        k = 0
        for a in arrays:
            a += u[k : k + a.size].reshape(a.shape)
            k += a.size
    return sq


def regenerate_noise(shapes, seed: int) -> list[np.ndarray]:
    """Materialize the noise vectors for the given shapes (test/replay aid),
    from a fresh Philox keyed by seed, independent of the one add_scaled_noise resets."""
    gen = np.random.Generator(np.random.Philox(key=seed & _MASK64))
    return [gen.standard_normal(int(np.prod(s))).reshape(s) for s in shapes]
