"""Optimizee families: the problems f(theta) that optimizers are run on.

Each instance freezes its problem data at construction (deterministic in
the sampling seed) and holds nothing that changes afterwards. A rollout's
mini-batches come from batches(seed), an iterator that the rollout owns.

Each family writes its loss and gradient once, in closed form, as
loss_vjp: the loss at theta and a function from the loss's incoming
gradient (the seed) to the gradient at theta. loss_and_grad calls it
with seed 1; loss_on_tape records the vjp on a meta-training segment's
tape, and autodiff.backward calls it with seed 1.

The gradients are the bits that the same losses, written as chains of
primitives on the generic reverse-mode tape in tests/reftape.py, give
under its backward: the same products and sums in the same order, with
the seed entering where the loss's final 1/n scale does. The chain seeds
every first gradient contribution as `x + 0.0`, which turns -0.0 into
+0.0. Between sums and products the sign of a zero can change only the
sign of a zero result, so one `+ 0.0` on each returned gradient repeats
all of them. tests/test_optimizees.py keeps the primitive chains as the
reference.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import idx
from .model import expit
from .seeding import derive_seed, rng_for

FAMILIES = ("quadratic", "logistic_blobs", "tiny_mlp", "mnist_mlp")

DATASET_ROOT_ENV = "L2OKIT_DATA"

MNIST_HIDDEN, MNIST_CLASSES = 20, 10  # mnist_mlp's; its spec's are unused


@dataclass(frozen=True)
class OptimizeeSpec:
    family: str = "quadratic"
    dim: int = 10               # quadratic parameter dimension
    n_rows: int | None = None   # quadratic rows (defaults to dim)
    features: int = 2           # blob input dimension
    hidden: int = 8             # tiny_mlp hidden units
    n_points: int = 512         # blob dataset size
    n_classes: int = 2
    batch_size: int = 128
    init_std: float = 0.01
    dataset_root: str | None = None  # mnist_mlp

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown optimizee family {self.family!r}")
        for name in ("dim", "features", "hidden", "n_points"):
            if getattr(self, name) < 1:
                raise ValueError(f"optimizee {name} must be >= 1")
        if self.n_rows is not None and self.n_rows < 1:
            raise ValueError("optimizee n_rows must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.init_std <= 0:
            raise ValueError("init_std must be > 0")


@dataclass
class Batch:
    x: np.ndarray
    y: np.ndarray


class OptimizeeInstance:
    """Base: frozen problem data, and the seeded batch streams over it."""

    spec: OptimizeeSpec
    dim: int

    def init_params(self, seed: int) -> np.ndarray:
        rng = rng_for(seed, "theta0")
        return rng.normal(0.0, self.spec.init_std, self.dim)

    def batches(self, seed: int) -> Iterator[Batch]:
        """The endless mini-batch stream drawn from seed."""
        raise NotImplementedError

    def start(self, seed: int, label: str,
              index: int = 0) -> tuple[np.ndarray, Iterator[Batch]]:
        """A rollout's fixed start, drawn from (seed, label, index): returns
        (theta0, batches), theta0 from the seed label <label>-theta0 and
        the batch stream from <label>-batches."""
        return (self.init_params(derive_seed(seed, f"{label}-theta0", index)),
                self.batches(derive_seed(seed, f"{label}-batches", index)))

    def loss_vjp(self, theta: np.ndarray, batch: Batch):
        """Returns (loss, vjp); vjp(seed) is seed * d loss / d theta."""
        raise NotImplementedError

    def loss_and_grad(self, theta: np.ndarray, batch: Batch):
        """Returns (loss, grad). A non-finite loss signals divergence; the
        gradient is then zeros and the caller decides what to do."""
        # overflow here is divergence data, reported via the loss value
        with np.errstate(over="ignore", invalid="ignore"):
            loss, vjp = self.loss_vjp(np.asarray(theta, dtype=np.float64), batch)
        if not np.isfinite(loss):
            return loss, np.zeros(self.dim)
        return loss, vjp(1.0)

    def loss_on_tape(self, tape: list, theta: np.ndarray, batch: Batch) -> float:
        """The loss at theta; appends its vjp to a segment's tape for
        autodiff.backward. A non-finite value is divergence data for the
        caller, not a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            loss, vjp = self.loss_vjp(theta, batch)
        tape.append(vjp)
        return loss


class _DatasetInstance(OptimizeeInstance):
    """Shared batching: each pass over the data is a fresh permutation,
    cut into slices of min(batch_size, n) rows, the last one short."""

    x: np.ndarray  # (n, features)
    y: np.ndarray  # labels

    def batches(self, seed):
        rng = rng_for(seed, "batches")
        n = self.x.shape[0]
        b = min(self.spec.batch_size, n)
        while True:
            order = rng.permutation(n)
            for pos in range(0, n, b):
                pick = order[pos: pos + b]
                yield Batch(self.x[pick], self.y[pick])


class QuadraticInstance(OptimizeeInstance):
    """f(theta) = ||W theta - y||^2 / n with i.i.d. standard normal W, y."""

    def __init__(self, spec: OptimizeeSpec, w: np.ndarray, y: np.ndarray):
        self.spec = spec
        self.w = w
        self.y = y
        self.dim = w.shape[1]

    def batches(self, seed):
        return itertools.repeat(Batch(self.w, self.y))  # full-batch family

    def loss_vjp(self, theta, batch):
        w = batch.x
        c = 1.0 / w.shape[0]
        r = w @ theta - batch.y
        loss = float((r * r).sum() * c)

        def vjp(seed):
            return w.T @ (float(seed * c) * (2.0 * r)) + 0.0

        return loss, vjp

    def minimizer(self) -> np.ndarray:
        return np.linalg.lstsq(self.w, self.y, rcond=None)[0]


class LogisticBlobsInstance(_DatasetInstance):
    """Binary logistic regression on two Gaussian blobs; labels in {-1,+1}.

    theta = [w (features), b]; loss = mean softplus(-y * (x.w + b)).
    """

    def __init__(self, spec: OptimizeeSpec, x: np.ndarray, y: np.ndarray):
        self.spec = spec
        self.x = x
        self.y = y.astype(np.float64)
        self.dim = spec.features + 1

    def loss_vjp(self, theta, batch):
        f = self.spec.features
        x, y = batch.x, batch.y
        c = 1.0 / x.shape[0]
        margins = (x @ theta[:f] + theta[f]) * y * -1.0
        loss = float(np.logaddexp(0.0, margins).sum() * c)

        def vjp(seed):
            gz = float(seed * c) * expit(margins) * -1.0 * y
            return np.concatenate([x.T @ gz, [gz.sum()]]) + 0.0

        return loss, vjp


class MLPInstance(_DatasetInstance):
    """One-hidden-layer sigmoid MLP with softmax cross-entropy, n_hidden
    wide over n_classes: tiny_mlp on blobs, mnist_mlp on MNIST digits.

    theta packs [W1 (f*h), b1 (h), W2 (h*c), b2 (c)] flat, in that order.
    """

    def __init__(self, spec: OptimizeeSpec, x: np.ndarray, y: np.ndarray,
                 n_hidden: int, n_classes: int):
        self.spec = spec
        self.x = x
        self.y = y
        self.n_hidden = n_hidden
        self.n_classes = n_classes
        self.dim = _mlp_dim(x.shape[1], n_hidden, n_classes)

    def loss_vjp(self, theta, batch):
        f = self.x.shape[1]
        h = self.n_hidden
        k = self.n_classes
        o1 = f * h
        o2 = o1 + h
        o3 = o2 + h * k
        w1 = theta[:o1].reshape(f, h)
        w2 = theta[o2:o3].reshape(h, k)
        x = batch.x
        n = x.shape[0]
        c = 1.0 / n
        hid = expit(x @ w1 + theta[o1:o2])
        logits = hid @ w2 + theta[o3:o3 + k]
        onehot = np.zeros((n, k))
        onehot[np.arange(n), batch.y.astype(np.int64)] = 1.0
        # row-wise log-sum-exp, stabilized by the row max
        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        s = e.sum(axis=1)
        lse = (m[:, 0] + np.log(s)).sum()
        loss = float((lse - (logits * onehot).sum()) * c)

        def vjp(seed):
            gd = seed * c
            # the picked term's contribution, then the softmax's
            glog = -gd * onehot + gd * (e / s[:, None])
            ga = (glog @ w2.T) * hid * (1.0 - hid)
            return np.concatenate([(x.T @ ga).ravel(), ga.sum(axis=0),
                                   (hid.T @ glog).ravel(), glog.sum(axis=0)]) + 0.0

        return loss, vjp


def _mlp_dim(features: int, n_hidden: int, n_classes: int) -> int:
    return features * n_hidden + n_hidden + n_hidden * n_classes + n_classes


def _sample_blobs(spec: OptimizeeSpec, rng: np.random.Generator, labels01: bool):
    """Two Gaussian blobs at +-mu along a random unit direction."""
    direction = rng.normal(size=spec.features)
    direction /= np.linalg.norm(direction)
    mu = 2.0 * direction
    half = spec.n_points // 2
    x0 = rng.normal(size=(half, spec.features)) - mu
    x1 = rng.normal(size=(spec.n_points - half, spec.features)) + mu
    x = np.concatenate([x0, x1])
    if labels01:
        y = np.concatenate([np.zeros(half), np.ones(spec.n_points - half)])
    else:
        y = np.concatenate([-np.ones(half), np.ones(spec.n_points - half)])
    perm = rng.permutation(spec.n_points)
    return x[perm], y[perm]


def _mnist_data(spec: OptimizeeSpec):
    root = spec.dataset_root or os.environ.get(DATASET_ROOT_ENV)
    if not root:
        raise ValueError(
            f"mnist_mlp requires a dataset root (spec.dataset_root or ${DATASET_ROOT_ENV})")
    return _read_mnist(root)


@functools.cache
def _read_mnist(root: str):
    """The flattened training images and labels under root, read once per
    process and shared read-only by every instance. An images file with
    no images or no pixels, or a label file whose count differs from the
    images' or with a label >= MNIST_CLASSES, raises ValueError naming it."""
    image_path = os.path.join(root, "train-images-idx3-ubyte")
    images = idx.read_idx_images(image_path)
    n, rows, cols = images.shape
    if n == 0:
        raise ValueError(f"{image_path}: no images")
    if rows * cols == 0:
        raise ValueError(f"{image_path}: images of {rows} x {cols} pixels")
    label_path = os.path.join(root, "train-labels-idx1-ubyte")
    labels = idx.read_idx_labels(label_path)
    if len(labels) != len(images):
        raise ValueError(f"{label_path}: {len(labels)} labels for {len(images)} images")
    if labels.max(initial=0) >= MNIST_CLASSES:
        raise ValueError(f"{label_path}: label {labels.max()} is not below {MNIST_CLASSES}")
    x = images.reshape(n, rows * cols)
    x.flags.writeable = labels.flags.writeable = False
    return x, labels


def sample_instance(spec: OptimizeeSpec, seed: int) -> OptimizeeInstance:
    """Deterministic in (spec, seed); problem data is frozen afterwards."""
    rng = rng_for(seed, f"instance:{spec.family}")
    if spec.family == "quadratic":
        n = spec.n_rows or spec.dim
        w = rng.normal(size=(n, spec.dim))
        y = rng.normal(size=n)
        return QuadraticInstance(spec, w, y)
    if spec.family == "logistic_blobs":
        x, y = _sample_blobs(spec, rng, labels01=False)
        return LogisticBlobsInstance(spec, x, y)
    if spec.family == "tiny_mlp":
        x, y = _sample_blobs(spec, rng, labels01=True)
        return MLPInstance(spec, x, y, spec.hidden, spec.n_classes)
    if spec.family == "mnist_mlp":
        x, y = _mnist_data(spec)
        return MLPInstance(spec, x, y, MNIST_HIDDEN, MNIST_CLASSES)
    raise ValueError(f"unsupported family {spec.family!r}")


def instance_dim(spec: OptimizeeSpec) -> int:
    """The dimension of every instance that sample_instance draws from spec."""
    if spec.family == "quadratic":
        return spec.dim
    if spec.family == "logistic_blobs":
        return spec.features + 1
    if spec.family == "tiny_mlp":
        return _mlp_dim(spec.features, spec.hidden, spec.n_classes)
    return _mlp_dim(_mnist_data(spec)[0].shape[1], MNIST_HIDDEN, MNIST_CLASSES)
