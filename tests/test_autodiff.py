"""The reference tape and its primitive ops: forward semantics and gradients
vs central differences."""

import math

import numpy as np
import pytest

import reference_tape as ref
from flat_params import gradient_check
from tspkit import pretrain as pt
from tspkit.encoder import ShapeError
from tspkit.extract import softmax

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906


def dot(x, weights):
    """The scalar x . weights of a flat tensor as one op; its backward holds ``weights``."""
    def backward(g, accumulate):
        accumulate(x, g * weights)

    return x.tape.apply(np.float64(x.data @ weights), (x,), backward)


def zeros(tape, n):
    return tape.tensor(np.zeros(n))


def leaf_loss(shapes, loss_fn):
    """A gradient-check ``build(vec) -> (loss, grad)``: one leaf per window of
    ``vec``, reshaped to each of ``shapes`` in order, handed to ``loss_fn``;
    the gradient is the leaves' gradients laid end to end."""
    sizes = [math.prod(shape) for shape in shapes]

    def build(vec):
        tape = ref.Tape()
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        leaves = [tape.tensor(part.reshape(shape), True) for part, shape in zip(parts, shapes)]
        loss = loss_fn(*leaves)
        grads = tape.backward(loss)
        return loss.item(), np.concatenate([grads[leaf.node_id].ravel() for leaf in leaves])

    return build


# ---------------------------------------------------------------------------
# matrix products (linear_rows)


def test_matmul_identity():
    tape = ref.Tape()
    m = tape.tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ref.linear_rows(m, tape.tensor(np.eye(2)), zeros(tape, 2))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_selector_row():
    tape = ref.Tape()
    sel = tape.tensor([[1.0, 0.0]])
    col = tape.tensor([[2.0], [5.0]])
    assert np.array_equal(ref.linear_rows(sel, col, zeros(tape, 1)).data, [[2.0]])


def test_matmul_shape_error_names_both_shapes():
    tape = ref.Tape()
    a = tape.tensor(np.zeros((3, 4)))
    b = tape.tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
        ref.linear_rows(a, b, zeros(tape, 2))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    vec0 = rng.standard_normal(3 * 4 + 4 * 2 + 2)

    build = leaf_loss([(3, 4), (4, 2), (2,)], lambda a, b, bias: ref.cross_entropy_sum(
        ref.linear_rows(a, b, bias), [1, 0, 1]))
    res = gradient_check(build, vec0, coords=vec0.size, h=1e-6)
    assert res.max_rel_err <= 1e-5


def test_composite_graph_gradients():
    # stem -> relu -> conv -> mean -> hstack -> take_rows -> linear -> CE
    rng = np.random.default_rng(3)
    shapes = {
        "w": (5, 4), "x": (2, 6, 4), "b": (5,), "k": (5, 5, 3), "kb": (5,),
        "other": (2, 3), "head": (8, 4), "hb": (4,),
    }
    sizes = {name: int(np.prod(s)) for name, s in shapes.items()}
    total = sum(sizes.values())
    vec0 = rng.standard_normal(total) * 0.7

    def loss(w, x, b, k, kb, other, head, hb):
        h = ref.relu(ref.affine_frames(x, w, b))
        h = ref.conv1d_same(h, k, kb)
        both = ref.hstack_rows(ref.mean_over_time(h), other)
        rows = ref.take_rows(both, np.array([1, 0, 1]))
        logits = ref.linear_rows(rows, head, hb)
        return ref.cross_entropy_sum(logits, [2, 0, 3])

    res = gradient_check(leaf_loss(list(shapes.values()), loss), vec0, coords=total, h=1e-6)
    assert res.max_rel_err <= 1e-5


# ---------------------------------------------------------------------------
# temporal convolution (conv1d_same), time-major batches of one


def test_conv1d_identity_kernel():
    tape = ref.Tape()
    x = tape.tensor(np.arange(8, dtype=float).reshape(1, 2, 4).transpose(0, 2, 1))
    kernel = np.zeros((2, 2, 3))
    kernel[0, 0, 1] = 1.0
    kernel[1, 1, 1] = 1.0
    out = ref.conv1d_same(x, tape.tensor(kernel), zeros(tape, 2))
    assert np.array_equal(out.data, x.data)


def test_conv1d_ones_hand_case():
    tape = ref.Tape()
    x = tape.tensor(np.ones((1, 4, 1)))
    k = tape.tensor(np.ones((1, 1, 3)))
    out = ref.conv1d_same(x, k, zeros(tape, 1))
    assert np.array_equal(out.data, [[[2.0], [3.0], [3.0], [2.0]]])


def test_conv1d_rejects_other_widths():
    tape = ref.Tape()
    x = tape.tensor(np.ones((1, 4, 1)))
    with pytest.raises(ShapeError):
        ref.conv1d_same(x, tape.tensor(np.ones((1, 1, 5))), zeros(tape, 1))


def test_conv1d_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal((2, 7, 3))
    k0 = rng.standard_normal((2, 3, 3))
    b0 = rng.standard_normal(2)
    vec0 = np.concatenate([x0.ravel(), k0.ravel(), b0.ravel()])

    def loss(x, k, b):
        # scalar readout: mean over time, then a cross entropy per clip
        return ref.cross_entropy_sum(ref.mean_over_time(ref.conv1d_same(x, k, b)), [0, 1])

    res = gradient_check(leaf_loss([(2, 7, 3), (2, 3, 3), (2,)], loss), vec0,
                         coords=vec0.size)
    assert res.max_rel_err <= 1e-5


# ---------------------------------------------------------------------------
# elementwise and row ops


def test_relu_values():
    tape = ref.Tape()
    out = ref.relu(tape.tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_elementwise_max_and_mean_two_rows():
    rows = [np.array([1.0, -2.0]), np.array([0.0, 5.0])]
    assert np.array_equal(pt.pool_features(rows, "max"), [1.0, 5.0])
    assert np.array_equal(pt.pool_features(rows, "avg"), [0.5, 1.5])
    # the tape's time mean pools the same rows laid out along the time axis
    tape = ref.Tape()
    over_time = tape.tensor(np.stack(rows)[None])
    assert np.array_equal(ref.mean_over_time(over_time).data, [[0.5, 1.5]])


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
    tape = ref.Tape()
    with pytest.raises(ValueError):
        ref.mean_over_time(tape.tensor(np.zeros((1, 0, 2))))


def test_concat_then_slice_recovers_inputs():
    rng = np.random.default_rng(2)
    a_np = rng.standard_normal((2, 4))
    b_np = rng.standard_normal((2, 3))
    tape = ref.Tape()
    joined = ref.hstack_rows(tape.tensor(a_np), tape.tensor(b_np))
    assert np.array_equal(joined.data[:, :4], a_np)
    assert np.array_equal(joined.data[:, 4:], b_np)


# ---------------------------------------------------------------------------
# cross entropy (cross_entropy_sum), batches of one


def ce(logits, label):
    tape = ref.Tape()
    return ref.cross_entropy_sum(tape.tensor([logits]), [label]).item()


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
        probs = softmax(logits)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert ce(logits, int(rng.integers(len(logits)))) >= 0.0


# ---------------------------------------------------------------------------
# backward contract


def test_backward_requires_scalar():
    tape = ref.Tape()
    x = tape.tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        tape.backward(ref.relu(x))


def test_unreached_leaves_get_exact_zeros():
    tape = ref.Tape()
    x = tape.tensor([1.0, 2.0], requires_grad=True)
    unused = tape.tensor(np.ones((2, 3)), requires_grad=True)
    loss = dot(x, np.ones(2))
    grads = tape.backward(loss)
    assert np.array_equal(grads[unused.node_id], np.zeros((2, 3)))


def test_backward_is_additive_over_shared_inputs():
    tape = ref.Tape()
    x = tape.tensor([1.0, -2.0, 3.0], requires_grad=True)
    y = ref.add(x, x)
    weights = [0.5, -1.5, 2.0]
    loss = dot(y, np.array(weights))  # = 2 w.x -> grad 2w
    grads = tape.backward(loss)
    assert np.array_equal(grads[x.node_id], 2 * np.array(weights))


# ---------------------------------------------------------------------------
# gradient_check


def test_gradient_check_linear_model_is_exact():
    rng = np.random.default_rng(1)
    slope = rng.standard_normal(10)

    res = gradient_check(leaf_loss([(10,)], lambda x: dot(x, slope)),
                         rng.standard_normal(10), coords=10)
    assert res.max_rel_err <= 1e-10


def test_gradient_check_echoes_step_size():
    build = leaf_loss([(2,)], lambda x: dot(x, np.array([1.0, -1.0])))
    res = gradient_check(build, np.array([1.0, 2.0]), coords=2, h=1e-6)
    assert res.h == 1e-6
    assert res.coords_checked == 2
