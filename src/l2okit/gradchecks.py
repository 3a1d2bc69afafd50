"""Finite-difference verification suites, runnable from the CLI.

Each check returns the max relative error between analytic gradients and
central differences at eps=1e-5; everything here is expected below 1e-4.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .imitation import imitation_loss_and_grads, teacher_trajectory
from .metatrain import segment_loss_and_grads, stepper
from .model import L2OParams, init_l2o, l2o_step_tape, zero_state
from .optimizees import (MNIST_CLASSES, MNIST_HIDDEN, MLPInstance, OptimizeeSpec,
                         sample_instance)
from .seeding import rng_for
from .teachers import TeacherKind


def _phi_probe(hidden=4, seed=7):
    phi = init_l2o(seed, hidden=hidden)
    # a zero output projection would hide gradient paths; perturb it
    rng = rng_for(seed, "gradcheck-proj")
    phi.w_out[:] = rng.normal(0, 0.3, phi.w_out.shape)
    phi.b_out[...] = rng.normal(0, 0.3)
    return phi


def _phi_fd_error(phi, grads, loss_of) -> float:
    """fd_error of grads, an L2OParams with phi's layout, against
    loss_of(probe), probe being phi with its flat perturbed."""
    return ad.fd_error(grads.flat, lambda flat: loss_of(
        L2OParams(phi.hidden, phi.preprocess_p, phi.out_scale, flat)), phi.flat)


def check_loss_nodes(seed: int = 4) -> float:
    """Each family's loss_vjp at seed 0.7, so that the seed is not 1;
    mnist_mlp runs on synthetic 3x3 images."""
    rng = rng_for(seed, "gradcheck-losses")
    blobs = dict(features=2, n_points=32, batch_size=8)
    insts = [sample_instance(OptimizeeSpec(family="quadratic", dim=4), seed),
             sample_instance(OptimizeeSpec(family="logistic_blobs", **blobs), seed),
             sample_instance(OptimizeeSpec(family="tiny_mlp", hidden=4, **blobs), seed),
             MLPInstance(OptimizeeSpec(family="mnist_mlp", batch_size=8),
                         rng.uniform(0, 1, (16, 9)), rng.integers(0, 10, 16),
                         MNIST_HIDDEN, MNIST_CLASSES)]
    worst = 0.0
    for inst in insts:
        batch = next(inst.batches(0))
        p0 = rng.normal(0, 0.5, inst.dim)
        worst = max(worst, ad.fd_error(inst.loss_vjp(p0, batch)[1](0.7),
                                       lambda p: 0.7 * inst.loss_vjp(p, batch)[0], p0))
    return worst


def check_lstm_cell(seed: int = 1) -> float:
    """Sum of one l2o step's update w.r.t. every phi tensor."""
    phi = _phi_probe(hidden=4, seed=seed)
    g = rng_for(seed, "gradcheck-g").normal(0, 0.5, 3)
    tape = []
    update, _ = l2o_step_tape(tape, phi, zero_state(3, 4), g)
    tape.append(np.ones_like(update))  # the gradient of sum(update)

    def loss_of(probe):
        update, _ = l2o_step_tape([], probe, zero_state(3, 4), g)
        return float(np.sum(update))

    return _phi_fd_error(phi, ad.backward(tape, phi), loss_of)


def check_meta_loss(seed: int = 2, horizon: int = 1) -> float:
    """Meta-loss phi-gradient vs the frozen-input FD oracle on a small
    quadratic; at horizon 1 the frozen and plain oracles coincide."""
    phi = _phi_probe(hidden=4, seed=seed)
    inst = sample_instance(OptimizeeSpec(family="quadratic", dim=3), seed)
    theta0, batches = inst.init_params(seed + 1), inst.batches(0)
    _, grads, _, _, diverged = segment_loss_and_grads(
        phi, inst, theta0, zero_state(inst.dim, phi.hidden), batches, horizon)
    assert not diverged

    # frozen-input oracle: replay with the base run's g_t sequence fixed
    base_gs = []
    th = theta0.copy()
    step = stepper(phi, inst.dim)
    for _ in range(horizon):
        _, g = inst.loss_and_grad(th, next(batches))
        base_gs.append(g)
        th = th + step(g)

    def loss_of(probe):
        th = theta0.copy()
        step = stepper(probe, inst.dim)
        total = 0.0
        for g in base_gs:
            th = th + step(g)
            fval, _ = inst.loss_and_grad(th, next(batches))
            total += fval
        return total

    return _phi_fd_error(phi, grads, loss_of)


def check_imitation_loss(seed: int = 3) -> float:
    """Imitation-loss phi-gradient vs plain FD (teacher g sequence fixed
    by construction, so there is no frozen-input subtlety)."""
    phi = _phi_probe(hidden=4, seed=seed)
    inst = sample_instance(OptimizeeSpec(family="quadratic", dim=3), seed)
    theta0 = inst.init_params(seed + 1)
    steps, _ = teacher_trajectory(TeacherKind("adam", lr=0.01), inst, theta0,
                                  inst.batches(0), 5)
    _, grads, _ = imitation_loss_and_grads(phi, steps, zero_state(inst.dim, phi.hidden))

    def loss_of(probe):
        step = stepper(probe, inst.dim)
        total = 0.0
        for g, target in steps:
            total += float(np.sum((step(g) - target) ** 2))
        return total

    return _phi_fd_error(phi, grads, loss_of)


def run_all() -> dict[str, float]:
    return {
        "loss_nodes": check_loss_nodes(),
        "lstm_cell": check_lstm_cell(),
        "meta_loss_n1": check_meta_loss(horizon=1),
        "meta_loss_n5_frozen": check_meta_loss(horizon=5),
        "imitation_loss": check_imitation_loss(),
    }
