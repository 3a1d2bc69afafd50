"""Fixtures and helpers shared by several test modules."""

import numpy as np

from l2okit.model import init_l2o
from l2okit.optimizees import OptimizeeSpec, QuadraticInstance, sample_instance
from l2okit.seeding import derive_seed


def rand_phi(seed, hidden=6):
    """init_l2o(seed) with a random, nonzero output projection, so that
    its updates and every gradient path to phi are nonzero."""
    phi = init_l2o(seed, hidden=hidden)
    rng = np.random.default_rng(seed)
    phi.w_out[:] = rng.normal(0, 0.3, hidden)
    phi.b_out[...] = rng.normal(0, 0.3)
    return phi


def fixture_quadratic():
    # f(theta) = (2 theta - 4)^2, minimizer theta* = 2
    return QuadraticInstance(OptimizeeSpec(family="quadratic", dim=1),
                             np.array([[2.0]]), np.array([4.0]))


def valid_instances(spec, seed, n):
    """The n validation instances that a run at master seed draws."""
    return [sample_instance(spec, derive_seed(seed, "valid-inst", i))
            for i in range(n)]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.shape == b.shape and a.tobytes() == b.tobytes()


class FakePhi:
    """Stands in for the optimizer parameters; records training history."""

    def __init__(self, tag=-1):
        self.tag = tag

    def copy(self):
        return FakePhi(self.tag)


def tagging_trainer(phi, n_train, epoch_base):
    """A curriculum train_period_fn that tags phi with its first epoch."""
    phi.tag = epoch_base
