"""Parameter records as one flat buffer: layout, copies, hashes, the update.

Each ``ParamRecord``'s arrays are views of its ``flat`` buffer in ``arrays()``
order, so a checkpoint id hashes the bytes the per-array hash streamed, and a
training step's flat gradient per record and flat momentum update are per
element those of the per-array ones.
"""

import hashlib
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tape as ref
from tspkit import autodiff as ad
from tspkit import corpus as cp
from tspkit import encoder as enc
from tspkit import pretrain as pt


def per_array_hash(*records, prefix=b""):
    """``params_hash`` as it streamed each array's bytes."""
    digest = hashlib.sha256(prefix)
    for record in records:
        for arr in record.arrays():
            digest.update(arr.tobytes())
    return digest.hexdigest()[:12]


def assert_views_in_order(record):
    flat = record.flat
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
    base = flat.__array_interface__["data"][0]
    offset = 0
    for arr in record.arrays():
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        if arr.size:  # an empty block array (no blocks) holds no bytes to place
            assert arr.__array_interface__["data"][0] - base == offset * flat.itemsize
            assert np.shares_memory(arr, flat)
        offset += arr.size
    assert offset == flat.size


shapes = st.tuples(st.integers(1, 8), st.integers(1, 2), st.integers(1, 12), st.integers(1, 6),
                   st.sampled_from(pt.MODES), st.integers(0, 2**16))


@settings(max_examples=20, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**32 - 1))
def test_records_are_views_of_one_buffer_copied_and_hashed_as_per_array(shape, seed):
    for blocks in range(4):
        check_records(*shape, blocks, seed)


def check_records(channels, side, embed_dim, classes, mode, init_seed, blocks, seed):
    config = enc.EncoderConfig(channels_in=channels, height=side, width=side,
                               embed_dim=embed_dim, blocks=blocks)
    encoder = enc.init_params(config, init_seed)
    heads = pt.init_heads(embed_dim, classes, mode, init_seed)
    rng = np.random.default_rng(seed)
    for record in (encoder, heads):
        assert_views_in_order(record)
        # the values survive packing: the buffer is the arrays laid end to end
        assert np.array_equal(record.flat,
                              np.concatenate([a.ravel() for a in record.arrays()]))
    # the same six arrays at any depth, each stacked one with a row per block,
    # and no field besides them
    assert [a.shape for a in encoder.arrays()] == enc.param_shapes(config)
    assert len(fields(encoder)) == len(encoder.arrays()) == 6
    encoder.flat[:] = rng.standard_normal(encoder.flat.size)  # writes reach every view
    assert np.array_equal(encoder.conv2_bias[-1] if blocks else encoder.stem_bias,
                          encoder.flat[-embed_dim:])

    for record in (encoder, heads):
        before = record.flat.copy()
        copy = record.copy()
        assert_views_in_order(copy)
        assert not np.shares_memory(copy.flat, record.flat)
        copy.flat += 1.0
        for arr in copy.arrays():
            arr *= 2.0
        assert np.array_equal(record.flat, before)
        assert np.array_equal(copy.flat, (before + 1.0) * 2.0)

        loaded = pickle.loads(pickle.dumps(record))  # how a grid cell's result returns
        assert_views_in_order(loaded)
        assert loaded.flat.tobytes() == record.flat.tobytes()

    prefix = f"tsp{seed}".encode()
    assert pt.params_hash(encoder, heads, prefix=prefix) == per_array_hash(
        encoder, heads, prefix=prefix)
    assert pt.params_hash(encoder) == per_array_hash(encoder)


@pytest.mark.parametrize("blocks", range(4))
def test_stacked_blocks_reorder_the_per_block_buffer_only_past_one_block(blocks):
    # the buffer a per-block record laid out: the stem, then each block's
    # conv1 kernel, conv1 bias, conv2 kernel and conv2 bias
    encoder = enc.init_params(enc.EncoderConfig(channels_in=3, embed_dim=5, blocks=blocks), 7)
    encoder.flat[:] = np.arange(encoder.flat.size)
    per_block = np.concatenate([encoder.stem_weight.ravel(), encoder.stem_bias, *(
        array[i].ravel() for i in range(blocks)
        for array in (encoder.conv1_kernel, encoder.conv1_bias,
                      encoder.conv2_kernel, encoder.conv2_bias))])
    assert sorted(per_block) == list(encoder.flat)
    assert (per_block.tobytes() == encoder.flat.tobytes()) == (blocks <= 1)
    # a block row is a view into the buffer, and the leaf arrays are its order
    for row in ref.leaf_arrays(encoder)[2:]:
        assert np.shares_memory(row, encoder.flat)
    assert np.concatenate([a.ravel() for a in ref.leaf_arrays(encoder)]).tobytes() == (
        encoder.flat.tobytes())


def test_a_record_built_from_arrays_copies_them_into_its_buffer():
    weight = np.arange(6.0).reshape(3, 2)
    heads = pt.HeadParams(weight, np.zeros(2), np.ones((6, 2)), [0, 1])  # a list too
    assert_views_in_order(heads)
    assert not np.shares_memory(heads.action_weight, weight)
    assert np.array_equal(heads.action_weight, weight)
    assert heads.region_bias.dtype == np.float64 and list(heads.region_bias) == [0.0, 1.0]


def test_one_leaf_per_record_gets_a_flat_gradient_of_the_record_shape():
    params = enc.init_params(enc.EncoderConfig(channels_in=4, embed_dim=6, blocks=2), 0)
    heads = pt.init_heads(6, 3, "tsp", 0)
    rng = np.random.default_rng(0)
    tape = ad.Tape()
    pt.batch_loss_tensor(tape, params, heads, rng.standard_normal((3, 5, 4)),
                         np.array([1, 0, 1]), np.array([2, -1, 0]), rng.standard_normal((3, 6)),
                         pt.TrainConfig(mode="tsp"))
    enc_grad, head_grad = tape.backward()  # one per record, in op order
    assert enc_grad.shape == params.flat.shape
    assert head_grad.shape == heads.flat.shape


def test_train_cell_update_is_bytewise_the_per_array_reference(monkeypatch):
    # every epoch's parameters, as validation sees them, against the per-array
    # reference tape and update over the same batches, lr schedule and momentum
    corpus = cp.generate_synthetic(cp.SynthConfig(videos_per_subset=(4, 2, 0),
                                                  duration_range=(60.0, 90.0),
                                                  num_classes=3), seed=1)
    cfg = pt.TrainConfig(mode="tsp", embed_dim=6, blocks=1, epochs=3, warmup_epochs=1,
                         decay_epochs=(2,), head_lr_grid=(0.05,), encoder_lr=0.02,
                         init="random", batch_size=8)
    seen, train_cells = [], pt._train_cells

    def capture(inputs):
        seen.append(inputs)
        return train_cells(inputs)

    monkeypatch.setattr(pt, "_train_cells", capture)
    pt.train(corpus, cfg)
    [inputs] = seen

    snapshots, accuracy = [], pt._accuracy

    def record_accuracy(enc_params, head_params, *rest):
        arrays = ref.leaf_arrays(enc_params) + head_params.arrays()
        snapshots.append([a.tobytes() for a in arrays])
        return accuracy(enc_params, head_params, *rest)

    monkeypatch.setattr(pt, "_accuracy", record_accuracy)
    rows, _ = pt._train_cell(inputs, 0.05)
    assert not any(row.diverged for row in rows)

    encoder, heads = inputs.init_encoder.copy(), inputs.init_heads.copy()
    groups = (ref.leaf_arrays(encoder), heads.arrays())
    velocity = [[np.zeros_like(a) for a in group] for group in groups]
    expected, step = [], 0
    size = cfg.batch_size
    for clips in inputs.epochs:
        batches = [clips[start:start + size] for start in range(0, len(clips), size)]
        for batch in batches:
            tape = ref.Tape()
            leaves = [ref.array_leaves(tape, encoder), ref.array_leaves(tape, heads)]
            loss = ref.batch_loss_tensor(tape, *leaves,
                                         inputs.train_frames.take(batch.rows, axis=0),
                                         batch.region_labels, batch.action_labels,
                                         batch.global_rows(inputs.gvf), cfg)
            grads = tape.backward(loss)
            mult = pt.lr_at(step, len(batches), cfg)
            for arrays, group_leaves, vels, lr in zip(groups, leaves, velocity,
                                                      (cfg.encoder_lr, 0.05)):
                ref.momentum_step(arrays, [grads[t.node_id] for t in group_leaves], vels,
                                  lr * mult, cfg.momentum)
            step += 1
        expected.append([a.tobytes() for group in groups for a in group])
    assert step > 3 * 2
    assert snapshots == expected
