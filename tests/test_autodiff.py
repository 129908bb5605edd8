"""Tape engine: forward semantics and gradients vs central differences."""

import math

import numpy as np
import pytest

from tspkit import autodiff as ad
from tspkit import pretrain as pt

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906


def weighted_sum(tape, vec, weights):
    """Scalar sum_j weights[j] * vec[j] of a flat tensor, from kept primitives."""
    terms = [ad.scale(ad.reshape_slice(vec, j, ()), float(w)) for j, w in enumerate(weights)]
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return total


def zeros(tape, n):
    return tape.tensor(np.zeros(n))


# ---------------------------------------------------------------------------
# matrix products (linear_rows)


def test_matmul_identity():
    tape = ad.Tape()
    m = tape.tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.linear_rows(m, tape.tensor(np.eye(2)), zeros(tape, 2))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_selector_row():
    tape = ad.Tape()
    sel = tape.tensor([[1.0, 0.0]])
    col = tape.tensor([[2.0], [5.0]])
    assert np.array_equal(ad.linear_rows(sel, col, zeros(tape, 1)).data, [[2.0]])


def test_matmul_shape_error_names_both_shapes():
    tape = ad.Tape()
    a = tape.tensor(np.zeros((3, 4)))
    b = tape.tensor(np.zeros((3, 2)))
    with pytest.raises(ad.ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
        ad.linear_rows(a, b, zeros(tape, 2))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    vec0 = rng.standard_normal(3 * 4 + 4 * 2 + 2)

    def build(vec):
        tape = ad.Tape()
        leaf = tape.tensor(vec, requires_grad=True)
        a = ad.reshape_slice(leaf, 0, (3, 4))
        b = ad.reshape_slice(leaf, 12, (4, 2))
        bias = ad.reshape_slice(leaf, 20, (2,))
        return ad.cross_entropy_sum(ad.linear_rows(a, b, bias), [1, 0, 1]), leaf

    res = ad.gradient_check(build, vec0, coords=vec0.size, h=1e-6)
    assert res.max_rel_err <= 1e-5


def test_composite_graph_gradients():
    # stem -> relu -> conv -> mean -> hstack -> take_rows -> linear -> CE
    rng = np.random.default_rng(3)
    shapes = {
        "w": (5, 4), "x": (2, 4, 6), "b": (5,), "k": (5, 5, 3), "kb": (5,),
        "other": (2, 3), "head": (8, 4), "hb": (4,),
    }
    sizes = {name: int(np.prod(s)) for name, s in shapes.items()}
    total = sum(sizes.values())
    vec0 = rng.standard_normal(total) * 0.7

    def build(vec):
        tape = ad.Tape()
        leaf = tape.tensor(vec, requires_grad=True)
        parts = {}
        off = 0
        for name, shape in shapes.items():
            parts[name] = ad.reshape_slice(leaf, off, shape)
            off += sizes[name]
        h = ad.relu(ad.stem_affine(parts["w"], parts["x"], parts["b"]))
        h = ad.conv1d_same_batch(h, parts["k"], parts["kb"])
        both = ad.hstack_rows(ad.mean_over_time_batch(h), parts["other"])
        rows = ad.take_rows(both, np.array([1, 0, 1]))
        logits = ad.linear_rows(rows, parts["head"], parts["hb"])
        return ad.cross_entropy_sum(logits, [2, 0, 3]), leaf

    res = ad.gradient_check(build, vec0, coords=total, h=1e-6)
    assert res.max_rel_err <= 1e-5


# ---------------------------------------------------------------------------
# temporal convolution (conv1d_same_batch), batches of one


def test_conv1d_identity_kernel():
    tape = ad.Tape()
    x = tape.tensor(np.arange(8, dtype=float).reshape(1, 2, 4))
    kernel = np.zeros((2, 2, 3))
    kernel[0, 0, 1] = 1.0
    kernel[1, 1, 1] = 1.0
    out = ad.conv1d_same_batch(x, tape.tensor(kernel), zeros(tape, 2))
    assert np.array_equal(out.data, x.data)


def test_conv1d_ones_hand_case():
    tape = ad.Tape()
    x = tape.tensor(np.ones((1, 1, 4)))
    k = tape.tensor(np.ones((1, 1, 3)))
    out = ad.conv1d_same_batch(x, k, zeros(tape, 1))
    assert np.array_equal(out.data, [[[2.0, 3.0, 3.0, 2.0]]])


def test_conv1d_rejects_other_widths():
    tape = ad.Tape()
    x = tape.tensor(np.ones((1, 1, 4)))
    with pytest.raises(ad.ShapeError):
        ad.conv1d_same_batch(x, tape.tensor(np.ones((1, 1, 5))), zeros(tape, 1))


def test_conv1d_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal((2, 3, 7))
    k0 = rng.standard_normal((2, 3, 3))
    b0 = rng.standard_normal(2)
    vec0 = np.concatenate([x0.ravel(), k0.ravel(), b0.ravel()])

    def build(vec):
        tape = ad.Tape()
        leaf = tape.tensor(vec, requires_grad=True)
        x = ad.reshape_slice(leaf, 0, (2, 3, 7))
        k = ad.reshape_slice(leaf, 42, (2, 3, 3))
        b = ad.reshape_slice(leaf, 60, (2,))
        # scalar readout: mean over time, then a cross entropy per clip
        feat = ad.mean_over_time_batch(ad.conv1d_same_batch(x, k, b))
        return ad.cross_entropy_sum(feat, [0, 1]), leaf

    res = ad.gradient_check(build, vec0, coords=vec0.size)
    assert res.max_rel_err <= 1e-5


# ---------------------------------------------------------------------------
# elementwise and row ops


def test_relu_values():
    tape = ad.Tape()
    out = ad.relu(tape.tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_elementwise_max_and_mean_two_rows():
    rows = [np.array([1.0, -2.0]), np.array([0.0, 5.0])]
    assert np.array_equal(pt.pool_features(rows, "max"), [1.0, 5.0])
    assert np.array_equal(pt.pool_features(rows, "avg"), [0.5, 1.5])
    # the tape's time mean pools the same rows laid out along the time axis
    tape = ad.Tape()
    over_time = tape.tensor(np.stack(rows, axis=1)[None])
    assert np.array_equal(ad.mean_over_time_batch(over_time).data, [[0.5, 1.5]])


def test_pooling_permutation_invariance():
    rng = np.random.default_rng(0)
    rows = [rng.standard_normal(6) for _ in range(5)]
    for perm_seed in range(4):
        perm = np.random.default_rng(perm_seed).permutation(5)
        shuffled = [rows[i] for i in perm]
        for pool in ("max", "avg"):
            assert np.array_equal(pt.pool_features(rows, pool),
                                  pt.pool_features(shuffled, pool))


def test_empty_pooling_rejected():
    tape = ad.Tape()
    with pytest.raises(ValueError):
        ad.mean_over_time_batch(tape.tensor(np.zeros((1, 2, 0))))


def test_concat_then_slice_recovers_inputs():
    rng = np.random.default_rng(2)
    a_np = rng.standard_normal((2, 4))
    b_np = rng.standard_normal((2, 3))
    tape = ad.Tape()
    joined = ad.hstack_rows(tape.tensor(a_np), tape.tensor(b_np))
    assert np.array_equal(joined.data[:, :4], a_np)
    assert np.array_equal(joined.data[:, 4:], b_np)


# ---------------------------------------------------------------------------
# cross entropy (cross_entropy_sum), batches of one


def ce(logits, label):
    tape = ad.Tape()
    return ad.cross_entropy_sum(tape.tensor([logits]), [label]).item()


def test_cross_entropy_uniform_logits():
    assert math.isclose(ce([0.0, 0.0, 0.0, 0.0], 0), LN4, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(ce([0.0, 0.0], 1), LN2, rel_tol=0, abs_tol=1e-12)


def test_cross_entropy_dominant_logit_no_overflow():
    assert 0.0 <= ce([100.0, 0.0], 0) < 1e-40
    assert math.isfinite(ce([1000.0, 0.0], 1))


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        ce([0.0, 0.0], 2)


def test_softmax_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(100):
        logits = rng.standard_normal(rng.integers(2, 9)) * rng.uniform(0.1, 30)
        probs = ad.softmax(logits)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert ce(logits, int(rng.integers(len(logits)))) >= 0.0


# ---------------------------------------------------------------------------
# backward contract


def test_backward_requires_scalar():
    tape = ad.Tape()
    x = tape.tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        tape.backward(ad.relu(x))


def test_unreached_leaves_get_exact_zeros():
    tape = ad.Tape()
    x = tape.tensor([1.0, 2.0], requires_grad=True)
    unused = tape.tensor(np.ones((2, 3)), requires_grad=True)
    loss = weighted_sum(tape, x, [1.0, 1.0])
    grads = tape.backward(loss)
    assert np.array_equal(grads[unused.node_id], np.zeros((2, 3)))


def test_backward_is_additive_over_shared_inputs():
    tape = ad.Tape()
    x = tape.tensor([1.0, -2.0, 3.0], requires_grad=True)
    y = ad.add(x, x)
    weights = [0.5, -1.5, 2.0]
    loss = weighted_sum(tape, y, weights)  # = 2 w.x -> grad 2w
    grads = tape.backward(loss)
    assert np.array_equal(grads[x.node_id], 2 * np.array(weights))


# ---------------------------------------------------------------------------
# gradient_check


def test_gradient_check_linear_model_is_exact():
    rng = np.random.default_rng(1)
    slope = rng.standard_normal(10)

    def build(vec):
        tape = ad.Tape()
        leaf = tape.tensor(vec, requires_grad=True)
        return weighted_sum(tape, leaf, slope), leaf

    res = ad.gradient_check(build, rng.standard_normal(10), coords=10)
    assert res.max_rel_err <= 1e-10


def test_gradient_check_echoes_step_size():
    def build(vec):
        tape = ad.Tape()
        leaf = tape.tensor(vec, requires_grad=True)
        return weighted_sum(tape, leaf, [1.0, -1.0]), leaf

    res = ad.gradient_check(build, np.array([1.0, 2.0]), coords=2, h=1e-6)
    assert res.h == 1e-6
    assert res.coords_checked == 2
