"""Deterministic seed derivation.

All randomness in the package flows through explicitly passed
``numpy.random.Generator`` objects; there is no global RNG.  Parallel or
repeated work derives per-job generators from a single root seed with the
splitting rule below, so results are reproducible independent of scheduling
order or worker count.

Splitting rule: the generator for a job addressed by an integer path
``(i_1, ..., i_k)`` is ``PCG64(SeedSequence(root_seed, spawn_key=(i_1, ..., i_k)))``.
Distinct paths give statistically independent streams.  A job's path is the
UTF-8 bytes of its id (:func:`w2lab.cli.run_job`, which derives one for each
check job only: the experiment legs draw nothing), so no path is assigned by
hand.
"""

from __future__ import annotations

import numpy as np


def rng_for(root_seed: int, *path: int) -> np.random.Generator:
    """Generator for the job addressed by ``path`` under ``root_seed``."""
    ss = np.random.SeedSequence(root_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))
