"""Reader for MNIST-style IDX files.

All integers are 32-bit big-endian unsigned. Image files carry magic
0x00000803 and pixel bytes are scaled to [0, 1] by /255; label files
carry magic 0x00000801. A file shorter than its header says raises
ValueError naming the file.
"""

import math
import struct

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def _read(path, magic, n_dims, kind):
    """The n_dims sizes after an IDX file's magic, and the data bytes they
    count; kind names the file's contents in errors."""
    with open(path, "rb") as fh:
        head = fh.read(4 * (1 + n_dims))
        if len(head) != 4 * (1 + n_dims):
            raise ValueError(f"{path}: truncated {kind} header")
        got, *dims = struct.unpack(f">{1 + n_dims}I", head)
        if got != magic:
            raise ValueError(f"{path}: bad {kind}s magic 0x{got:08x}")
        data = fh.read()
    size = math.prod(dims)
    # checked before slicing, as a corrupt header can claim any size
    if size > len(data):
        raise ValueError(f"{path}: truncated {kind} data")
    return dims, data[:size]


def read_idx_images(path) -> np.ndarray:
    """Returns float64 array (n, rows, cols) with values in [0, 1]."""
    dims, raw = _read(path, IMAGES_MAGIC, 3, "image")
    # uint8 -> float64 is exact, so dividing the bytes directly gives the
    # bits of astype(np.float64) / 255.0
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(dims)
    return pixels / 255.0


def read_idx_labels(path) -> np.ndarray:
    """Returns int64 label array (n,)."""
    _, raw = _read(path, LABELS_MAGIC, 1, "label")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
