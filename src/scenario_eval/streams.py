"""Keyed random number substreams.

Every random draw in the package comes from a generator derived from the
experiment seed plus an integer key identifying what the draw is for.
Substreams derived from distinct keys are statistically independent, so
adding or removing one entity (a location, a model, a sampling pass) never
shifts the draws of any other entity.
"""

import numpy as np

# Entity kinds used as the leading element of every stream key.
KIND_LOCATION = 1        # per-location truth draws (x*, R0, alpha)
KIND_MODEL = 2           # per-model draws (global bias, alpha center)
KIND_PAIR = 3            # per (model, location) draws (local bias, alpha)
KIND_ERROR_SAMPLING = 4  # predictive sampling of inferred error distributions
KIND_OBS_SAMPLING = 5    # predictive sampling of inferred observations


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for ``key`` under ``seed``.

    Keys must be non-negative integers. The same (seed, key) always yields
    the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))
