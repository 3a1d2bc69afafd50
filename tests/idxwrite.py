"""Writers for MNIST-style IDX files, the fixtures of the idx reader and
mnist_mlp tests: the inverse of l2okit.idx's readers."""

import struct

import numpy as np

from l2okit.idx import IMAGES_MAGIC, LABELS_MAGIC


def write_idx_images(path, images: np.ndarray) -> None:
    """Writes uint8 images (n, rows, cols); values must already be bytes."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())
