"""Training keeps no per-step state beyond its per-step log.

One lockstep group of 9 runs at batch 16 on search-2d's evolcircle sources,
2,000 steps, traced with ``tracemalloc``. With numpy 2.4 a ``dpnet.train``
group peaks at 0.85 MiB (0.67 MiB at 200 steps; the difference is its loss
and accuracy log, 2 × 9 × 2,000 floats) and a ``train_erm`` group at 0.57
MiB at either length. The bounds leave about 30% on those. Keeping each
step's query predictions for a deferred accuracy log would add 4.4 MiB.
"""
import tracemalloc

import numpy as np
import pytest

from edglab import baselines, data, dpnet


def _peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sources():
    return data.generate(data.default_spec("evolcircle", seed=7))[:-1]


def _group(steps):
    return [({"lr": 0.003 * (1 + s % 5), "steps": steps, "batch": 16, "embed": (2,), "hidden": ()}, s) for s in range(9)]


def test_dpnet_train_memory_stays_small(sources):
    results, peak = _peak(lambda: dpnet.train(sources, _group(2000)))
    assert all(len(losses) == 2000 and np.isfinite(losses).all() for _, losses, _ in results)
    assert peak < 1.1 * 2**20


def test_train_erm_memory_stays_small(sources):
    results, peak = _peak(lambda: baselines.train_erm(sources, _group(2000)))
    assert all(isinstance(model, baselines.ErmModel) for model in results)
    assert peak < 0.75 * 2**20
