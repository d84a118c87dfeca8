import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def boundary_wrn():
    """A depth-1 width-1 two-class WRN and 24 synthetic samples, with the
    class-1 bias shifted so that half of the samples fall on each side of the
    decision boundary: a budget of 1e-3 then flips some predictions and
    leaves others."""
    from wavetrain.attacks import eval_logits
    from wavetrain.data import synthetic_dataset
    from wavetrain.model import ModelConfig, build_model

    model = build_model(ModelConfig(depth=1, width=1, num_classes=2), seed=0)
    ds = synthetic_dataset(2, 24, seed=2)
    z = eval_logits(model, ds.images)
    model.params["fc.bias"].data[1] -= np.median(z[:, 1] - z[:, 0])
    return model, ds
