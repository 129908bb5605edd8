"""Parameter records as one flat buffer: layout, copies, hashes, the update.

Each ``ParamRecord``'s arrays are views of its ``flat`` buffer in ``arrays()``
order, so a checkpoint id hashes the bytes the per-array hash streamed, and a
training step's flat gradient per record and flat momentum update are per
element those of the per-array ones.
"""

import hashlib
import pickle

import numpy as np
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
        assert arr.__array_interface__["data"][0] - base == offset * flat.itemsize
        assert arr.size == 0 or np.shares_memory(arr, flat)
        offset += arr.size
    assert offset == flat.size


records = st.builds(
    lambda channels, side, embed_dim, blocks, classes, mode, seed: (
        enc.init_params(enc.EncoderConfig(channels_in=channels, height=side, width=side,
                                          embed_dim=embed_dim, blocks=blocks), seed),
        pt.init_heads(embed_dim, classes, mode, seed)),
    st.integers(1, 8), st.integers(1, 2), st.integers(1, 12), st.integers(0, 3),
    st.integers(1, 6), st.sampled_from(pt.MODES), st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(records=records, seed=st.integers(0, 2**32 - 1))
def test_records_are_views_of_one_buffer_copied_and_hashed_as_per_array(records, seed):
    encoder, heads = records
    rng = np.random.default_rng(seed)
    for record in (encoder, heads, *encoder.blocks):
        assert_views_in_order(record)
        # the values survive packing: the buffer is the arrays laid end to end
        assert np.array_equal(record.flat,
                              np.concatenate([a.ravel() for a in record.arrays()]))
    for blk in encoder.blocks:  # a block's buffer is its window of the encoder's
        assert np.shares_memory(blk.flat, encoder.flat)
    encoder.flat[:] = rng.standard_normal(encoder.flat.size)  # writes reach every view
    assert np.array_equal(encoder.blocks[-1].conv2_bias if encoder.blocks else
                          encoder.stem_bias, encoder.flat[-encoder.config.embed_dim:])

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
        snapshots.append([a.tobytes() for a in enc_params.arrays() + head_params.arrays()])
        return accuracy(enc_params, head_params, *rest)

    monkeypatch.setattr(pt, "_accuracy", record_accuracy)
    rows, _ = pt._train_cell(inputs, 0.05)
    assert not any(row.diverged for row in rows)

    encoder, heads = inputs.init_encoder.copy(), inputs.init_heads.copy()
    groups = (encoder.arrays(), heads.arrays())
    velocity = [[np.zeros_like(a) for a in group] for group in groups]
    expected, step = [], 0
    for batches in inputs.epochs:
        for batch in batches:
            tape = ref.Tape()
            leaves = [ref.array_leaves(tape, encoder), ref.array_leaves(tape, heads)]
            loss = ref.batch_loss_tensor(tape, *leaves,
                                         inputs.train_frames.take(batch.rows, axis=0),
                                         batch.region_labels, batch.action_labels,
                                         batch.global_rows(inputs.gvf), cfg)
            grads = tape.backward(loss)
            mult = pt.lr_at(step, len(inputs.epochs[0]), cfg)
            for arrays, group_leaves, vels, lr in zip(groups, leaves, velocity,
                                                      (cfg.encoder_lr, 0.05)):
                ref.momentum_step(arrays, [grads[t.node_id] for t in group_leaves], vels,
                                  lr * mult, cfg.momentum)
            step += 1
        expected.append([a.tobytes() for group in groups for a in group])
    assert step > 3 * 2
    assert snapshots == expected
