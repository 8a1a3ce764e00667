import numpy as np
import pytest

from eigennoise.probe import ProbeData


def _gaussian_blobs(n, seed, d=4, k=2):
    """Direct probe data: ``n`` seeded points around ``k`` class means that
    sit 6/sqrt(2) along their own axis (6 apart pairwise, unit noise), with
    balanced, shuffled labels."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = rng.permutation(np.arange(n) % k)
    means = np.zeros((k, d))
    means[np.arange(k), np.arange(k)] = 6.0 / np.sqrt(2.0)
    return ProbeData(labels=labels, num_classes=k,
                     features=means[labels] + rng.standard_normal((n, d)))


@pytest.fixture
def gaussian_blobs():
    """A linearly separable direct task: ``gaussian_blobs(n, seed)``."""
    return _gaussian_blobs
