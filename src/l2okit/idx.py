"""Reader for MNIST-style IDX files.

All integers are 32-bit big-endian unsigned. Image files carry magic
0x00000803 and pixel bytes are scaled to [0, 1] by /255; label files
carry magic 0x00000801.
"""

import struct

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def read_idx_images(path) -> np.ndarray:
    """Returns float64 array (n, rows, cols) with values in [0, 1]."""
    with open(path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", fh.read(16))
        if magic != IMAGES_MAGIC:
            raise ValueError(f"{path}: bad images magic 0x{magic:08x}")
        raw = fh.read(n * rows * cols)
    if len(raw) != n * rows * cols:
        raise ValueError(f"{path}: truncated image data")
    # uint8 -> float64 is exact, so dividing the bytes directly gives the
    # bits of astype(np.float64) / 255.0
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows, cols)
    return pixels / 255.0


def read_idx_labels(path) -> np.ndarray:
    """Returns int64 label array (n,)."""
    with open(path, "rb") as fh:
        magic, n = struct.unpack(">II", fh.read(8))
        if magic != LABELS_MAGIC:
            raise ValueError(f"{path}: bad labels magic 0x{magic:08x}")
        raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"{path}: truncated label data")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

