import math
import re
import struct

import numpy as np
import pytest

import idxwrite
import refchain as rc
import reftape as rt
from helpers import fixture_quadratic, same_bits
from l2okit import autodiff as ad
from l2okit import idx, metatrain
from l2okit.model import TENSOR_NAMES, init_l2o
from l2okit.optimizees import (FAMILIES, Batch, LogisticBlobsInstance,
                               OptimizeeSpec, QuadraticInstance, instance_dim,
                               sample_instance)
from l2okit.seeding import derive_seed, rng_for

QUAD = OptimizeeSpec(family="quadratic", dim=4)
BLOBS = OptimizeeSpec(family="logistic_blobs", features=2, n_points=64,
                      batch_size=16)
TINY = OptimizeeSpec(family="tiny_mlp", features=2, hidden=8, n_points=64,
                     batch_size=16)


def test_spec_validation():
    with pytest.raises(ValueError):
        OptimizeeSpec(family="nope")
    with pytest.raises(ValueError):
        OptimizeeSpec(batch_size=0)
    with pytest.raises(ValueError):
        OptimizeeSpec(init_std=0.0)
    with pytest.raises(ValueError, match="n_rows"):
        OptimizeeSpec(n_rows=0)


def test_sample_instance_deterministic():
    a = sample_instance(QUAD, 123)
    b = sample_instance(QUAD, 123)
    assert np.array_equal(a.w, b.w) and np.array_equal(a.y, b.y)


def test_different_seeds_differ():
    a = sample_instance(QUAD, 1)
    b = sample_instance(QUAD, 2)
    assert not np.array_equal(a.w, b.w)


def test_fixture_quadratic_minimizer():
    inst = fixture_quadratic()
    assert inst.minimizer() == pytest.approx([2.0])
    loss, g = inst.loss_and_grad(np.array([2.0]), next(inst.batches(0)))
    assert loss == pytest.approx(0.0, abs=1e-24)
    assert g == pytest.approx([0.0], abs=1e-12)


def test_quadratic_hand_gradient():
    # W = I2, y = 0, theta = (1,1): f = ||theta||^2 / 2 = 1, g = theta
    inst = QuadraticInstance(OptimizeeSpec(family="quadratic", dim=2),
                             np.eye(2), np.zeros(2))
    loss, g = inst.loss_and_grad(np.array([1.0, 1.0]), next(inst.batches(0)))
    assert loss == pytest.approx(1.0)
    assert g == pytest.approx([1.0, 1.0])


def test_logistic_zero_params_gives_ln2():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1.0, -1.0])
    inst = LogisticBlobsInstance(OptimizeeSpec(family="logistic_blobs",
                                               features=2, n_points=2,
                                               batch_size=2), x, y)
    loss, _ = inst.loss_and_grad(np.zeros(3), Batch(x, y))
    assert loss == pytest.approx(math.log(2.0))


def test_tiny_mlp_zero_params_gives_ln_nclasses():
    inst = sample_instance(TINY, 0)
    loss, _ = inst.loss_and_grad(np.zeros(inst.dim), next(inst.batches(0)))
    assert loss == pytest.approx(math.log(2.0))


def test_init_params_deterministic():
    inst = sample_instance(QUAD, 5)
    assert np.array_equal(inst.init_params(9), inst.init_params(9))
    assert not np.array_equal(inst.init_params(9), inst.init_params(10))


@pytest.mark.parametrize("label,index,theta_label,batch_label", [
    ("eval", 0, "eval-theta0", "eval-batches"),
    ("valid", 3, "valid-theta0", "valid-batches"),
    ("epoch", 17, "epoch-theta0", "epoch-batches"),
])
def test_start_keeps_the_seed_labels_of_theta0_and_the_batches(
        label, index, theta_label, batch_label):
    a, b = sample_instance(TINY, 5), sample_instance(TINY, 5)
    theta0, batches = a.start(11, label, index)
    assert np.array_equal(theta0, b.init_params(derive_seed(11, theta_label, index)))
    expected = b.batches(derive_seed(11, batch_label, index))
    for _ in range(6):  # 64 points in batches of 16: past one reshuffle
        assert np.array_equal(next(batches).x, next(expected).x)


def test_init_params_statistics():
    spec = OptimizeeSpec(family="quadratic", dim=100000, n_rows=1)
    inst = sample_instance(spec, 3)
    theta = inst.init_params(4)
    assert -0.001 < theta.mean() < 0.001
    assert 0.0097 < theta.std() < 0.0103


@pytest.mark.parametrize("spec,seed", [(QUAD, 11), (BLOBS, 12), (TINY, 13)])
def test_gradient_matches_central_differences(spec, seed):
    inst = sample_instance(spec, seed)
    rng = np.random.default_rng(seed)
    theta = rng.normal(0, 0.5, inst.dim)
    batch = next(inst.batches(0))
    _, g = inst.loss_and_grad(theta, batch)
    assert ad.fd_error(g, lambda th: inst.loss_and_grad(th, batch)[0], theta) < 1e-6


def test_loss_and_grad_is_pure():
    inst = sample_instance(BLOBS, 21)
    batch = next(inst.batches(5))
    before = (inst.x.copy(), inst.y.copy(), {k: id(v) for k, v in vars(inst).items()})
    inst.loss_and_grad(np.zeros(inst.dim), batch)
    assert np.array_equal(before[0], inst.x)
    assert np.array_equal(before[1], inst.y)
    assert before[2] == {k: id(v) for k, v in vars(inst).items()}


def test_quadratic_batches_return_whole_problem():
    inst = sample_instance(QUAD, 2)
    b = next(inst.batches(0))
    assert np.array_equal(b.x, inst.w) and np.array_equal(b.y, inst.y)


def test_batches_partition_dataset():
    spec = OptimizeeSpec(family="logistic_blobs", features=2, n_points=512,
                         batch_size=128)
    inst = sample_instance(spec, 7)
    stream = inst.batches(1)
    batches = [next(stream) for _ in range(4)]
    assert all(b.x.shape[0] == 128 for b in batches)
    stacked = np.concatenate([b.x for b in batches])
    assert stacked.shape == inst.x.shape
    # union of one cycle's batches is the full dataset
    assert np.array_equal(np.sort(stacked, axis=0), np.sort(inst.x, axis=0))
    # batches within a cycle are distinct
    assert not np.array_equal(batches[0].x, batches[1].x)


def test_stream_ends_each_pass_with_a_short_slice_then_reshuffles():
    spec = OptimizeeSpec(family="logistic_blobs", features=2, n_points=500,
                         batch_size=128)
    inst = sample_instance(spec, 7)
    stream, rng = inst.batches(3), rng_for(3, "batches")
    orders = [rng.permutation(500) for _ in range(2)]
    for order in orders:
        for pos, size in zip((0, 128, 256, 384), (128, 128, 128, 116)):
            b = next(stream)
            assert b.x.shape == (size, 2) and b.y.shape == (size,)
            assert np.array_equal(b.x, inst.x[order[pos: pos + size]])
            assert np.array_equal(b.y, inst.y[order[pos: pos + size]])
    assert not np.array_equal(orders[0], orders[1])


def test_stream_wider_than_the_data_gives_one_whole_batch_per_pass():
    spec = OptimizeeSpec(family="logistic_blobs", features=2, n_points=100,
                         batch_size=128)
    inst = sample_instance(spec, 7)
    stream, rng = inst.batches(3), rng_for(3, "batches")
    passes = [next(stream).x for _ in range(3)]
    for x in passes:
        assert np.array_equal(x, inst.x[rng.permutation(100)])
    assert not np.array_equal(passes[0], passes[1])
    assert not np.array_equal(passes[1], passes[2])


def test_streams_drawn_interleaved_equal_each_stream_drawn_alone():
    inst = sample_instance(BLOBS, 9)  # 64 points in batches of 16
    a, b = inst.batches(1), inst.batches(2)
    interleaved = [(next(a), next(b)) for _ in range(10)]
    a, b = inst.batches(1), inst.batches(2)
    alone_a = [next(a) for _ in range(10)]
    alone_b = [next(b) for _ in range(10)]
    for (ia, ib), sa, sb in zip(interleaved, alone_a, alone_b):
        assert np.array_equal(ia.x, sa.x) and np.array_equal(ia.y, sa.y)
        assert np.array_equal(ib.x, sb.x) and np.array_equal(ib.y, sb.y)
    assert not np.array_equal(alone_a[0].x, alone_b[0].x)


def test_batch_stream_deterministic():
    inst1 = sample_instance(BLOBS, 9)
    inst2 = sample_instance(BLOBS, 9)
    s1, s2 = inst1.batches(42), inst2.batches(42)
    for _ in range(10):
        b1, b2 = next(s1), next(s2)
        assert np.array_equal(b1.x, b2.x) and np.array_equal(b1.y, b2.y)


def test_divergence_signalled_not_raised():
    inst = fixture_quadratic()
    loss, g = inst.loss_and_grad(np.array([np.inf]), next(inst.batches(0)))
    assert not np.isfinite(loss)
    assert np.all(g == 0)


def test_gd_with_inverse_lipschitz_lr_descends():
    inst = sample_instance(OptimizeeSpec(family="quadratic", dim=6), 31)
    lips = np.linalg.eigvalsh(2.0 * inst.w.T @ inst.w / inst.w.shape[0]).max()
    theta = inst.init_params(1)
    batch = next(inst.batches(0))
    prev, _ = inst.loss_and_grad(theta, batch)
    for _ in range(50):
        loss, g = inst.loss_and_grad(theta, batch)
        assert loss <= prev + 1e-12
        prev = loss
        theta = theta - g / lips


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(6, 4, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, size=6, dtype=np.uint8)
    ipath, lpath = tmp_path / "imgs", tmp_path / "labels"
    idxwrite.write_idx_images(ipath, images)
    idxwrite.write_idx_labels(lpath, labels)
    got = idx.read_idx_images(ipath)
    assert got.shape == (6, 4, 3)
    np.testing.assert_allclose(got, images / 255.0)
    assert got.min() >= 0.0 and got.max() <= 1.0
    np.testing.assert_array_equal(idx.read_idx_labels(lpath), labels)


def test_idx_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 12)
    with pytest.raises(ValueError, match="magic"):
        idx.read_idx_images(path)


# each file is a header, then the bytes that follow it
@pytest.mark.parametrize("read, data, match", [
    (idx.read_idx_images, struct.pack(">II", idx.IMAGES_MAGIC, 3), "truncated image header"),
    (idx.read_idx_labels, struct.pack(">I", idx.LABELS_MAGIC), "truncated label header"),
    (idx.read_idx_images, struct.pack(">IIII", idx.IMAGES_MAGIC, 2, 3, 3) + bytes(17),
     "truncated image data"),
    (idx.read_idx_images, struct.pack(">IIII", idx.IMAGES_MAGIC, *[2 ** 32 - 1] * 3)
     + bytes(64), "truncated image data"),
    (idx.read_idx_labels, struct.pack(">II", idx.LABELS_MAGIC, 2 ** 32 - 1) + bytes(64),
     "truncated label data"),
], ids=["images-header", "labels-header", "images-data", "images-dims-2^32-1",
        "labels-dims-2^32-1"])
def test_idx_rejects_file_shorter_than_its_header_says(tmp_path, read, data, match):
    path = tmp_path / "bad"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {match}$"):
        read(path)


@pytest.mark.parametrize("labels, match", [
    (np.zeros(10), "10 labels for 30 images"),
    (np.r_[np.zeros(29), 10], "label 10 is not below 10"),
], ids=["count", "class"])
def test_mnist_rejects_labels_that_do_not_fit_the_images(tmp_path, labels, match):
    rng = np.random.default_rng(4)
    idxwrite.write_idx_images(tmp_path / "train-images-idx3-ubyte",
                              rng.integers(0, 256, size=(30, 4, 4), dtype=np.uint8))
    label_path = tmp_path / "train-labels-idx1-ubyte"
    idxwrite.write_idx_labels(label_path, labels)
    spec = OptimizeeSpec(family="mnist_mlp", batch_size=8, dataset_root=str(tmp_path))
    with pytest.raises(ValueError, match=f"^{re.escape(str(label_path))}: {match}$"):
        sample_instance(spec, 0)


@pytest.mark.parametrize("shape,match", [
    ((0, 4, 4), "no images"),
    ((5, 0, 0), "images of 0 x 0 pixels"),
    ((5, 3, 0), "images of 3 x 0 pixels"),
], ids=["no-images", "0x0-pixels", "3x0-pixels"])
def test_mnist_rejects_images_file_without_pixels(tmp_path, shape, match):
    image_path = tmp_path / "train-images-idx3-ubyte"
    idxwrite.write_idx_images(image_path, np.zeros(shape, dtype=np.uint8))
    idxwrite.write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                              np.zeros(shape[0], dtype=np.uint8))
    spec = OptimizeeSpec(family="mnist_mlp", batch_size=8, dataset_root=str(tmp_path))
    with pytest.raises(ValueError, match=f"^{re.escape(str(image_path))}: {match}$"):
        sample_instance(spec, 0)


def test_mnist_mlp_from_synthetic_idx(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(40, 6, 6), dtype=np.uint8)
    labels = rng.integers(0, 10, size=40, dtype=np.uint8)
    idxwrite.write_idx_images(tmp_path / "train-images-idx3-ubyte", images)
    idxwrite.write_idx_labels(tmp_path / "train-labels-idx1-ubyte", labels)
    spec = OptimizeeSpec(family="mnist_mlp", batch_size=16,
                         dataset_root=str(tmp_path))
    inst = sample_instance(spec, 0)
    assert inst.dim == 36 * 20 + 20 + 20 * 10 + 10
    loss, g = inst.loss_and_grad(np.zeros(inst.dim), next(inst.batches(0)))
    assert loss == pytest.approx(math.log(10.0))
    assert g.shape == (inst.dim,)


def test_mnist_data_is_read_once_per_root_and_shared_read_only(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    idxwrite.write_idx_images(tmp_path / "train-images-idx3-ubyte",
                              rng.integers(0, 256, size=(20, 4, 4), dtype=np.uint8))
    idxwrite.write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                              rng.integers(0, 10, size=20, dtype=np.uint8))
    reads = []
    real = idx.read_idx_images
    monkeypatch.setattr(idx, "read_idx_images", lambda path: reads.append(path) or real(path))
    spec = OptimizeeSpec(family="mnist_mlp", batch_size=8, dataset_root=str(tmp_path))
    a, b = sample_instance(spec, 0), sample_instance(spec, 1)
    assert len(reads) == 1
    assert a.x is b.x and a.y is b.y
    assert not a.x.flags.writeable and not a.y.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a.x[0, 0] = 1.0


def test_mnist_requires_dataset_root(monkeypatch):
    monkeypatch.delenv("L2OKIT_DATA", raising=False)
    with pytest.raises(ValueError, match="dataset root"):
        sample_instance(OptimizeeSpec(family="mnist_mlp"), 0)


# -- reference: each loss as a chain of tape primitives ---------------------
# reftape's backward through these chains is the bitwise oracle for each
# family's closed-form loss_vjp, in loss_and_grad, in the vjp that
# loss_on_tape records and in a whole segment.

def _quadratic_ref(inst, tape, theta, batch):
    w = tape.constant(batch.x)
    y = tape.constant(batch.y)
    r = rt.sub(rc.matmul(w, theta), y)
    return rt.scale(rt.vsum(rt.square(r)), 1.0 / batch.x.shape[0])


def _logistic_ref(inst, tape, theta, batch):
    f = inst.spec.features
    w = rc.take(theta, slice(0, f))
    b = rc.take(theta, f)
    z = rc.add_bias(rc.matmul(tape.constant(batch.x), w), b)
    margins = rt.scale(rc.mul(z, tape.constant(batch.y)), -1.0)
    return rt.scale(rt.vsum(rc.softplus(margins)), 1.0 / batch.x.shape[0])


def _mlp_ref(inst, tape, theta, batch):
    f = inst.x.shape[1]
    h = inst.n_hidden
    c = inst.n_classes
    o1 = f * h
    o2 = o1 + h
    o3 = o2 + h * c
    w1 = rc.reshape(rc.take(theta, slice(0, o1)), (f, h))
    b1 = rc.take(theta, slice(o1, o2))
    w2 = rc.reshape(rc.take(theta, slice(o2, o3)), (h, c))
    b2 = rc.take(theta, slice(o3, o3 + c))
    xb = tape.constant(batch.x)
    hid = rc.sigmoid(rc.add_bias(rc.matmul(xb, w1), b1))
    logits = rc.add_bias(rc.matmul(hid, w2), b2)
    onehot = np.zeros((batch.x.shape[0], c))
    onehot[np.arange(batch.x.shape[0]), batch.y.astype(np.int64)] = 1.0
    lse = rt.vsum(rc.logsumexp_rows(logits))
    picked = rt.vsum(rc.mul(logits, tape.constant(onehot)))
    return rt.scale(rt.sub(lse, picked), 1.0 / batch.x.shape[0])


_REFERENCE = {"quadratic": _quadratic_ref, "logistic_blobs": _logistic_ref,
              "tiny_mlp": _mlp_ref, "mnist_mlp": _mlp_ref}


def _ref_loss_and_grad(inst, theta, batch):
    tape = rt.Tape()
    th = tape.leaf(theta, trainable=True)
    out = _REFERENCE[inst.spec.family](inst, tape, th, batch)
    rt.backward(tape, out)
    return float(out.data), th.grad


@pytest.fixture(scope="module")
def family_specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(3)
    idxwrite.write_idx_images(root / "train-images-idx3-ubyte",
                         rng.integers(0, 256, size=(48, 5, 5), dtype=np.uint8))
    idxwrite.write_idx_labels(root / "train-labels-idx1-ubyte",
                         rng.integers(0, 10, size=48, dtype=np.uint8))
    return {
        "quadratic": OptimizeeSpec(family="quadratic", dim=6, n_rows=9),
        "logistic_blobs": OptimizeeSpec(family="logistic_blobs", features=3,
                                        n_points=64, batch_size=16),
        "tiny_mlp": OptimizeeSpec(family="tiny_mlp", features=2, hidden=200,
                                  n_points=64, batch_size=16),
        "mnist_mlp": OptimizeeSpec(family="mnist_mlp", batch_size=16,
                                   dataset_root=str(root)),
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_instance_dim_is_the_dimension_of_every_sampled_instance(family_specs, family):
    # run_eval groups its seeds by this dimension before sampling
    spec = family_specs[family]
    assert {sample_instance(spec, seed).dim for seed in range(3)} == {instance_dim(spec)}


@pytest.mark.parametrize("family", FAMILIES)
def test_loss_and_grad_matches_primitive_chain_bitwise(family_specs, family):
    checked = 0
    for seed in range(3):
        inst = sample_instance(family_specs[family], seed)
        batches = inst.batches(seed)
        rng = np.random.default_rng(seed)
        # at theta = 0 some mlp gradient entries are exact zeros
        for scale in (0.0, 0.01, 1.0, 30.0):
            for _ in range(3):
                theta = rng.normal(0.0, scale, inst.dim)
                batch = next(batches)
                loss, grad = inst.loss_and_grad(theta, batch)
                ref_loss, ref_grad = _ref_loss_and_grad(inst, theta, batch)
                assert np.isfinite(loss)
                assert same_bits(loss, ref_loss), (seed, scale)
                assert same_bits(grad, ref_grad), (seed, scale)
                checked += 1
    assert checked == 36


def test_underflowed_logistic_gradient_matches_the_chain_bitwise():
    # the margin is below -745, so the one gradient term underflows to
    # -0.0; the chain's zero-seeded accumulation gives +0.0. A build whose
    # one-element sum keeps -0.0 needs the closed form's `+ 0.0` to pass;
    # numpy 2.4 sums start from +0.0, so there this passes without it
    x = np.array([[1.0, 0.0]])
    y = np.array([1.0])
    inst = LogisticBlobsInstance(OptimizeeSpec(family="logistic_blobs", features=2,
                                               n_points=1, batch_size=1), x, y)
    theta, batch = np.array([1000.0, 0.0, 0.0]), Batch(x, y)
    _, grad = inst.loss_and_grad(theta, batch)
    _, ref_grad = _ref_loss_and_grad(inst, theta, batch)
    assert same_bits(grad, ref_grad) and same_bits(grad[2], 0.0)


def test_loss_nodes_match_finite_differences():
    from l2okit.gradchecks import check_loss_nodes

    assert check_loss_nodes() < 1e-4


@pytest.mark.parametrize("seed_value", [-1.3, 0.0, 2.5])
@pytest.mark.parametrize("family", FAMILIES)
def test_loss_node_matches_primitive_chain_for_any_seed(family_specs, family,
                                                        seed_value):
    # the vjp that loss_on_tape records, called with a seed, against the
    # chain scaled by the seed; zero and negative seeds exercise the sign
    # of zero in the gradient
    inst = sample_instance(family_specs[family], 4)
    batch = next(inst.batches(4))
    theta = np.random.default_rng(4).normal(0.0, 1.0, inst.dim)
    tape = []
    loss = inst.loss_on_tape(tape, theta, batch)
    assert len(tape) == 1

    ref_tape = rt.Tape()
    th = ref_tape.leaf(theta, trainable=True)
    out = rt.scale(_REFERENCE[family](inst, ref_tape, th, batch), seed_value)
    rt.backward(ref_tape, out)
    assert same_bits(loss * seed_value, out.data)
    assert same_bits(tape[0](seed_value), th.grad)


@pytest.mark.parametrize("omega", [(0.5, 2.0, 1.25), (1.5, 0.0, 0.75)])
@pytest.mark.parametrize("family", FAMILIES)
def test_fused_loss_node_matches_primitive_chain_in_segment(monkeypatch, family_specs,
                                                           family, omega):
    # the package's segment against the whole segment on the reference
    # tape, whose losses are the primitive chains; three steps whose
    # losses the test scales by non-unit weights, so each loss vjp gets a
    # seed other than 1, and its theta a gradient from the next step as well
    inst = sample_instance(family_specs[family], 5)
    phi = init_l2o(6, hidden=5)
    rng = np.random.default_rng(6)
    phi.w_out[:] = rng.normal(0.0, 0.5, phi.hidden)
    phi.out_scale = 0.3
    state = rc.join_state(*(rng.normal(0.0, 0.5, (inst.dim, phi.hidden)) for _ in range(4)))
    theta0 = rng.normal(0.0, 1.0, inst.dim)
    record_loss = inst.loss_on_tape

    def recorded_loss(tape, theta, batch):
        return rc.scaled_loss_on_tape(record_loss, next(weights))(tape, theta, batch)

    def chain_loss(inst, tape, theta, batch):
        return rt.scale(_REFERENCE[family](inst, tape, theta, batch), next(weights))

    monkeypatch.setattr(inst, "loss_on_tape", recorded_loss)
    weights = iter(omega)
    fused = metatrain.segment_loss_and_grads(phi, inst, theta0, state, inst.batches(7),
                                             len(omega))
    weights = iter(omega)
    ref = rc.segment(phi, inst, theta0, state, inst.batches(7), len(omega),
                     loss=chain_loss)
    assert not fused[4] and not ref[4]
    assert same_bits(fused[0], ref[0])
    for name in TENSOR_NAMES:
        assert same_bits(getattr(fused[1], name), ref[1][name]), name
    assert same_bits(fused[2], ref[2])
    for part, a, b in zip(rc.STATE_PARTS, rc.split_state(fused[3]),
                          rc.split_state(ref[3])):
        assert same_bits(a, b), part
