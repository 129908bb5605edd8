"""Two-head loss, global features, schedule, trainer, and checkpoints."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from flat_params import flatten_params, gradient_check, two_head_loss_builder
from tspkit import autodiff as ad
from tspkit import corpus as cp
from tspkit import encoder as enc
from tspkit import pretrain as pt
from tspkit import sampler

LN2 = math.log(2.0)
LN4 = math.log(4.0)


def zero_heads(feature_dim, num_classes, mode):
    heads = pt.init_heads(feature_dim, num_classes, mode, seed=0)
    for arr in heads.arrays():
        arr[:] = 0.0
    return heads


SMALL_ENC = enc.EncoderConfig(channels_in=4, embed_dim=6, blocks=1)


def clip_losses(frames, region, action, gfeats, cfg, params=None, heads=None):
    """(batch loss, [loss of each clip as a batch of one]) via batch_loss_tensor."""
    params = params or enc.init_params(SMALL_ENC, seed=0)
    heads = heads or zero_heads(SMALL_ENC.embed_dim, 4, cfg.mode)

    def loss(rows):
        return float(pt.batch_loss_tensor(
            ad.Tape(), params, heads, frames[rows], region[rows], action[rows],
            None if gfeats is None else gfeats[rows], cfg))

    return loss(slice(None)), [loss(slice(i, i + 1)) for i in range(len(frames))]


def loss_value(region, action, mode="tsp", **weights):
    """Loss of one random clip with zeroed heads (C=4), a batch of one."""
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((1, SMALL_ENC.frame_dim, 16)).transpose(0, 2, 1)
    gfeats = rng.standard_normal((1, SMALL_ENC.embed_dim)) if mode == "tsp" else None
    batch, _ = clip_losses(frames, np.array([region]), np.array([action]), gfeats,
                           pt.TrainConfig(mode=mode, **weights))
    return batch


def test_foreground_loss_closed_form():
    # zeroed heads, C=4: region ln2 + action ln4, whatever the clip feature
    assert abs(loss_value(1, 2) - (LN4 + LN2)) <= 1e-9
    assert abs(loss_value(1, 2, mode="tsp_nogvf") - (LN4 + LN2)) <= 1e-9
    assert abs(loss_value(1, 2, mode="tac") - LN4) <= 1e-9


def test_background_loss_closed_form():
    assert abs(loss_value(0, -1) - LN2) <= 1e-9
    assert abs(loss_value(0, -1, mode="tsp_nogvf") - LN2) <= 1e-9


def test_zero_action_weight_leaves_region_term():
    assert abs(loss_value(1, 2, action_loss_weight=0.0) - LN2) <= 1e-9
    assert abs(loss_value(0, -1, action_loss_weight=0.0) - LN2) <= 1e-9


@pytest.mark.parametrize("action,region", [(-1.0, 1.0), (1.0, -0.5), (0.0, 0.0)])
def test_negative_or_all_zero_loss_weights_rejected(action, region):
    with pytest.raises(ValueError, match="loss weights"):
        pt.TrainConfig(action_loss_weight=action, region_loss_weight=region)


def test_background_only_batch_has_exactly_zero_action_gradients():
    rng = np.random.default_rng(0)
    cfg = enc.EncoderConfig(channels_in=4, embed_dim=6, blocks=1)
    params = enc.init_params(cfg, seed=0)
    heads = pt.init_heads(6, 4, "tsp", seed=0)
    frames = rng.standard_normal((5, 4, 16)).transpose(0, 2, 1)
    gfeats = rng.standard_normal((5, 6))

    tape = ad.Tape()
    pt.batch_loss_tensor(tape, params, heads, frames, np.zeros(5, dtype=int), np.full(5, -1),
                         gfeats, pt.TrainConfig(mode="tsp"))
    grads = heads.view(tape.backward()[1])
    assert np.array_equal(grads.action_weight, np.zeros_like(heads.action_weight))
    assert np.array_equal(grads.action_bias, np.zeros_like(heads.action_bias))
    # region head does receive gradient
    assert np.any(grads.region_weight != 0.0)


def test_batched_loss_matches_per_clip_mean():
    # the batch loss is the mean of its clips' losses, each run as a batch of one
    rng = np.random.default_rng(3)
    params = enc.init_params(SMALL_ENC, seed=1)
    frames = rng.standard_normal((6, 4, 16)).transpose(0, 2, 1)
    gfeats = rng.standard_normal((6, 6))
    region = np.array([1, 0, 1, 0, 0, 1])
    action = np.array([2, -1, 0, -1, -1, 3])
    for mode in pt.MODES:
        rows = np.flatnonzero(region == 1) if mode == "tac" else np.arange(6)
        batch, per_clip = clip_losses(frames[rows], region[rows], action[rows],
                                      gfeats[rows], pt.TrainConfig(mode=mode), params=params,
                                      heads=pt.init_heads(6, 4, mode, seed=1))
        assert abs(batch - np.mean(per_clip)) <= 1e-12


def test_gradient_check_through_batched_loss():
    # two_head_loss_builder: batch_loss_tensor over views of one vector, per mode
    rng = np.random.default_rng(5)
    frames = rng.standard_normal((3, 4, 8)).transpose(0, 2, 1) * 0.5
    gfeats = rng.standard_normal((3, 6)) * 0.5
    for mode, region, action in (("tsp", [1, 0, 1], [1, -1, 3]),
                                 ("tsp_nogvf", [1, 0, 1], [1, -1, 3]),
                                 ("tac", [1, 1, 1], [1, 0, 3])):
        build = two_head_loss_builder(SMALL_ENC, 4, mode, frames, np.array(region),
                                      np.array(action), gfeats if mode == "tsp" else None)
        vec0 = flatten_params(enc.init_params(SMALL_ENC, seed=0),
                              pt.init_heads(6, 4, mode, seed=0))
        vec0 = vec0 + np.random.default_rng(7).standard_normal(vec0.size) * 0.3
        res = gradient_check(build, vec0, coords=120, h=1e-6, seed=1)
        assert res.max_rel_err <= 1e-5, mode


# ---------------------------------------------------------------------------
# global features


def small_corpus(**kwargs):
    defaults = dict(videos_per_subset=(6, 3, 0), duration_range=(60.0, 120.0),
                    num_classes=3, fps=4.0)
    defaults.update(kwargs)
    return cp.generate_synthetic(cp.SynthConfig(**defaults), seed=0)


def test_pool_hand_cases():
    feats = [np.array([1.0, -2.0]), np.array([0.0, 5.0])]
    assert np.array_equal(pt.pool_features(feats, "max"), [1.0, 5.0])
    assert np.array_equal(pt.pool_features(feats, "avg"), [0.5, 1.5])


def test_pool_permutation_invariance_exact():
    rng = np.random.default_rng(1)
    feats = [rng.standard_normal(8) for _ in range(7)]
    for pool in ("max", "avg"):
        ref = pt.pool_features(feats, pool)
        for perm_seed in range(5):
            perm = np.random.default_rng(perm_seed).permutation(7)
            assert np.array_equal(pt.pool_features([feats[i] for i in perm], pool), ref)


def test_single_clip_video_feature_is_that_clips_feature():
    # 30 frames: the non-overlapping grid (hop 31) holds one clip, at frame 0
    video = cp.VideoRecord("v", "train", 7.5, 4.0, [], 7)
    corpus = cp.Corpus(["a"], {"v": video},
                       cp.SynthInfo(0, 0.0, "pure", 4, 1, 1))
    cfg = enc.EncoderConfig(channels_in=4, embed_dim=5, blocks=0)
    params = enc.init_params(cfg, seed=0)
    gvf = pt.precompute_global_features(corpus, params, pt.TrainConfig(global_pool="max"))
    clip = sampler.load_clip(corpus, video, 0, 16, 2)
    feat = enc.forward_np(params, clip.transpose(0, 2, 3, 1).reshape(-1, 16))
    assert gvf.shape == (1, 5)
    assert np.array_equal(gvf[0], feat)


def record_cell_inputs(monkeypatch) -> list:
    """The ``_CellInputs`` of every ``train`` call made after this, in call order."""
    seen, train_cells = [], pt._train_cells

    def recording_train_cells(inputs):
        seen.append(inputs)
        return train_cells(inputs)

    monkeypatch.setattr(pt, "_train_cells", recording_train_cells)
    return seen


def test_global_feature_table_is_frozen_through_training(monkeypatch):
    # the cells train on the init encoder's GVF matrix, which the checkpoint
    # recomputes bit for bit from its init_encoder after training
    corpus = small_corpus()
    cfg = pt.TrainConfig(mode="tsp", embed_dim=8, blocks=1, epochs=2, warmup_epochs=1,
                         decay_epochs=(), head_lr_grid=(0.004,), seed=0, init="random")
    seen = record_cell_inputs(monkeypatch)
    ckpt, _ = pt.train(corpus, cfg)
    [inputs] = seen
    init = enc.init_params(pt.encoder_config_for(corpus.synth.frame_shape, cfg), cfg.seed)
    assert ckpt.init_encoder.flat.tobytes() == init.flat.tobytes()
    assert ckpt.encoder.flat.tobytes() != init.flat.tobytes()
    recomputed = pt.precompute_global_features(corpus, ckpt.init_encoder, ckpt.config)
    assert inputs.gvf.tobytes() == recomputed.tobytes()


def test_table_covers_all_subsets():
    corpus = small_corpus()
    params = enc.init_params(enc.EncoderConfig(channels_in=16, embed_dim=4, blocks=0), 0)
    gvf = pt.precompute_global_features(corpus, params, pt.TrainConfig())
    assert gvf.shape == (len(corpus.videos), 4)
    for video in corpus.videos.values():  # one row per video of every subset, in corpus order
        row = pt.video_global_feature(corpus, video, params, pt.TrainConfig())
        assert gvf[corpus.video_index(video.id)].tobytes() == row.tobytes()


def relabelled(corpus, video_id, annotations):
    """``corpus`` with one video's annotations replaced and its frames kept: the
    same video files under an edited manifest. (A synthetic video's frames are
    rendered from its annotations, so the edited corpus reads the original's.)"""
    videos = dict(corpus.videos)
    videos[video_id] = replace(videos[video_id], annotations=list(annotations))
    edited = cp.Corpus(corpus.classes, videos, corpus.synth)
    edited.frames_at = corpus.frames_at
    return edited


def test_a_videos_global_feature_does_not_read_its_annotations():
    corpus = small_corpus()
    ckpt, _ = pt.train(corpus, tiny_train_cfg(epochs=0, warmup_epochs=0))
    video = corpus.subset_videos("valid")[0]
    assert video.annotations
    gvf = pt.video_global_feature(corpus, video, ckpt.init_encoder, ckpt.config)
    moved = [replace(a, t_start=a.t_start / 2, t_end=a.t_end / 2) for a in video.annotations]
    for annotations in ((), moved):
        edited = relabelled(corpus, video.id, annotations)
        row = pt.video_global_feature(edited, edited.videos[video.id], ckpt.init_encoder,
                                      ckpt.config)
        assert row.tobytes() == gvf.tobytes()


# ---------------------------------------------------------------------------
# schedule


def sched_cfg(**kwargs):
    defaults = dict(epochs=8, warmup_epochs=2, decay_epochs=(4, 6), decay_gamma=0.01)
    defaults.update(kwargs)
    return pt.TrainConfig(**defaults)


def test_lr_ramp_boundaries():
    cfg = sched_cfg()
    spe = 10
    warm = cfg.warmup_epochs * spe
    assert pt.lr_at(0, spe, cfg) == 1.0 / warm
    assert pt.lr_at(warm // 2, spe, cfg) == 0.5 + 1.0 / warm
    assert pt.lr_at(warm - 1, spe, cfg) == 1.0
    assert pt.lr_at(warm, spe, cfg) == 1.0


def test_lr_decay_at_epochs_4_and_6():
    cfg = sched_cfg()
    spe = 7
    assert pt.lr_at(4 * spe, spe, cfg) == 0.01
    assert pt.lr_at(4 * spe - 1, spe, cfg) == 1.0
    assert pt.lr_at(6 * spe, spe, cfg) == pytest.approx(1e-4, rel=1e-12)
    assert pt.lr_at(8 * spe - 1, spe, cfg) == pytest.approx(1e-4, rel=1e-12)


def test_lr_never_increases_after_warmup():
    cfg = sched_cfg()
    spe = 13
    values = [pt.lr_at(s, spe, cfg) for s in range(cfg.warmup_epochs * spe, 8 * spe)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# training and selection


def tiny_train_cfg(**kwargs):
    defaults = dict(mode="tsp", embed_dim=8, blocks=1, epochs=2, warmup_epochs=1,
                    decay_epochs=(), head_lr_grid=(0.002, 0.006), seed=0, init="random")
    defaults.update(kwargs)
    return pt.TrainConfig(**defaults)


def test_zero_epochs_returns_initialization_smallest_lr():
    corpus = small_corpus()
    cfg = tiny_train_cfg(epochs=0, warmup_epochs=0, head_lr_grid=(0.01, 0.002, 0.006))
    ckpt, rows = pt.train(corpus, cfg)
    assert rows == []
    assert ckpt.selection.head_lr == 0.002
    assert ckpt.selection.epoch == -1
    init = enc.init_params(pt.encoder_config_for(corpus.synth.frame_shape, cfg), cfg.seed)
    assert all(np.array_equal(a, b) for a, b in zip(ckpt.encoder.arrays(), init.arrays()))


def train_at(threads: str, corpus, cfg, monkeypatch):
    """``train`` with its grid cells in at most ``threads`` processes."""
    monkeypatch.setenv("TSPKIT_THREADS", threads)
    return pt.train(corpus, cfg)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_training_is_deterministic_bytewise(threads, tmp_path, monkeypatch):
    # the tac warm start is a grid-searched run of its own, so it pools too
    corpus = small_corpus()
    cfg = tiny_train_cfg(init="tac")
    ckpt1, rows1 = train_at("1", corpus, cfg, monkeypatch)
    ckpt2, rows2 = train_at(threads, corpus, cfg, monkeypatch)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    pt.save_checkpoint(ckpt1, p1)
    pt.save_checkpoint(ckpt2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert rows1 == rows2


def test_cell_inputs_hold_clips_as_integer_rows_of_the_shared_split_stores(monkeypatch):
    corpus = small_corpus()
    cfg = tiny_train_cfg()
    seen = record_cell_inputs(monkeypatch)
    pt.train(corpus, cfg)
    [inputs] = seen
    for clips in inputs.epochs + [inputs.valid_clips]:
        arrays = [value for value in vars(clips).values() if isinstance(value, np.ndarray)]
        assert [a.dtype.kind for a in arrays] == ["i"] * 4  # rows, two labels, GVF rows
        assert clips.rows.shape == (len(clips), cfg.clip_len)
    frame_dim = corpus.synth.frame_dim
    for split, store in (("train", inputs.train_frames), ("valid", inputs.valid_frames)):
        frames = sum(video.num_frames for video in corpus.subset_videos(split))
        assert store.shape == (frames, frame_dim) and not store.flags.writeable
        assert np.shares_memory(store, corpus.split_frames(split))
    assert all(epoch.rows.max() < len(inputs.train_frames) for epoch in inputs.epochs)
    assert inputs.valid_clips.rows.max() < len(inputs.valid_frames)


def test_batch_gvf_rows_are_each_clips_video_feature(monkeypatch):
    corpus = small_corpus()
    seen = record_cell_inputs(monkeypatch)
    ckpt, _ = pt.train(corpus, tiny_train_cfg())
    [inputs] = seen
    videos = list(corpus.videos.values())
    for clips in (inputs.valid_clips, inputs.epochs[0]):
        rows = clips.global_rows(inputs.gvf)
        expected = np.stack([pt.video_global_feature(corpus, videos[v], ckpt.init_encoder,
                                                     ckpt.config) for v in clips.videos])
        assert rows.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverged_cell_is_logged_in_grid_order_at_any_worker_count(monkeypatch):
    corpus = small_corpus()
    cfg = tiny_train_cfg(head_lr_grid=(0.002, 1e300, 0.006))
    runs = [train_at(threads, corpus, cfg, monkeypatch) for threads in ("1", "2")]
    for ckpt, rows in runs:
        assert [(r.head_lr, r.epoch, r.diverged) for r in rows] == [
            (0.002, 0, False), (0.002, 1, False), (1e300, 0, True),
            (0.006, 0, False), (0.006, 1, False)]
        assert ckpt.selection.head_lr != 1e300
    (serial, serial_rows), (pooled, pooled_rows) = runs
    assert repr(serial_rows) == repr(pooled_rows)  # repr: a diverged row holds NaN
    assert (serial.selection.head_lr, serial.selection.epoch, serial.checkpoint_id) == (
        pooled.selection.head_lr, pooled.selection.epoch, pooled.checkpoint_id)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_every_cell_diverging_is_an_error(threads, monkeypatch):
    with pytest.raises(RuntimeError, match="every grid cell diverged"):
        train_at(threads, small_corpus(), tiny_train_cfg(head_lr_grid=(1e300, 1e301)),
                 monkeypatch)


# the trained bytes, as params_hash(encoder, heads, prefix=mode+seed), the
# checkpoint id before it also covered the config and the init encoder, and
# the checkpoint ids: on numpy 2.4 with OpenBLAS (a different BLAS may round
# the products differently), retaken when the encoder backward's conv input
# gradients became products with the reversed taps, a declared rounding
# change. The runs have one block, where the stacked block arrays are the
# same buffer as per-block records were; schema 4, which stores the width,
# depth and frame shape once, left both unchanged.
GOLDEN_TRAINED_HASHES = {"tsp": "ef28f8b1d22d", "tsp_nogvf": "b23538d80dd4",
                         "tac": "07b39fa016da"}
GOLDEN_CHECKPOINT_IDS = {"tsp": "fcd6169ffff7", "tsp_nogvf": "50337099154e",
                         "tac": "f965e356e10f"}


@pytest.mark.parametrize("mode", pt.MODES)
def test_tiny_training_matches_golden_checkpoint_id(mode):
    ckpt, _ = pt.train(small_corpus(), tiny_train_cfg(mode=mode))
    trained = pt.params_hash(ckpt.encoder, ckpt.heads, prefix=f"{mode}{ckpt.seed}".encode())
    assert trained == GOLDEN_TRAINED_HASHES[mode]
    assert ckpt.checkpoint_id == GOLDEN_CHECKPOINT_IDS[mode]


# sha256 of save_checkpoint's bytes for the same runs, taken with schema
# version 4, which states the width and the depth only in the config and the
# frame shape once beside it: pins the file layout (key names, nesting,
# number formatting), which the ids above do not see
GOLDEN_CHECKPOINT_FILE_DIGESTS = {
    "tsp": "7f1ea04192e65bb354b6242f48a6d8a913747bef41730cf7357a1d88d40a26eb",
    "tsp_nogvf": "614868995731da6fb6d57e83ff21101c4aeb282c4d05f6a06fe590cf48191577",
    "tac": "65b7d23e1a02ef6354bb6fd113f5ba1ab4b800a608efe8d115dfc0fd05d7f969",
}


@pytest.mark.parametrize("mode", pt.MODES)
def test_tiny_training_checkpoint_file_matches_golden_digest(mode, tmp_path):
    ckpt, _ = pt.train(small_corpus(), tiny_train_cfg(mode=mode))
    path = tmp_path / "ckpt.json"
    pt.save_checkpoint(ckpt, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CHECKPOINT_FILE_DIGESTS[mode]


def test_selection_attains_maximum_recorded_score():
    corpus = small_corpus()
    ckpt, rows = pt.train(corpus, tiny_train_cfg())
    scores = [pt._selection_score(r.action_acc, r.region_acc)
              for r in rows if not r.diverged]
    assert ckpt.selection.score == max(scores)


def test_selection_ties_go_to_the_smaller_head_lr_then_the_earlier_epoch():
    # no step moves a parameter, so every grid cell and epoch scores the same
    ckpt, rows = pt.train(small_corpus(), tiny_train_cfg(encoder_lr=0.0,
                                                         head_lr_grid=(1e-300, 0.0)))
    assert len(rows) == 4
    assert len({pt._selection_score(r.action_acc, r.region_acc) for r in rows}) == 1
    assert (ckpt.selection.head_lr, ckpt.selection.epoch) == (0.0, 0)


def test_tac_mode_never_touches_region_head():
    corpus = small_corpus()
    cfg = tiny_train_cfg(mode="tac")
    ckpt, rows = pt.train(corpus, cfg)
    fresh = pt.init_heads(cfg.embed_dim, len(corpus.classes), "tac", cfg.seed)
    assert np.array_equal(ckpt.heads.region_weight, fresh.region_weight)
    assert np.array_equal(ckpt.heads.region_bias, fresh.region_bias)
    assert not np.array_equal(ckpt.heads.action_weight, fresh.action_weight)
    assert all(r.region_acc is None for r in rows)


def test_epoch_balance_holds_across_seeds_and_epochs():
    corpus = small_corpus()
    from tspkit.sampler import build_epoch
    for seed in range(5):
        for epoch in range(8):
            clips = build_epoch(corpus, "train", epoch, seed)
            assert 2 * np.count_nonzero(clips.region_labels) == len(clips)


# ---------------------------------------------------------------------------
# validation


def test_validate_region_accuracy_is_chance_for_random_heads():
    # balanced-by-construction split: one annotation covering half of each video
    videos = {}
    for k in range(4):
        vid = f"val_{k}"
        videos[vid] = cp.VideoRecord(vid, "valid", 100.0, 4.0,
                                     [cp.AnnotationInstance("a", 0.0, 50.0)], 100 + k)
    corpus = cp.Corpus(["a", "b"], videos, cp.SynthInfo(0, 0.5, "pure", 6, 1, 1))
    cfg = tiny_train_cfg(mode="tsp_nogvf", embed_dim=6, blocks=0)
    enc_cfg = enc.EncoderConfig(channels_in=6, embed_dim=6, blocks=0)
    accs = []
    for seed in range(12):
        params = enc.init_params(enc_cfg, seed)
        heads = pt.init_heads(6, 2, "tsp_nogvf", seed)
        clips = pt._eval_clips(corpus, "valid", cfg)
        _, region_acc = pt._accuracy(params, heads, "tsp_nogvf", None,
                                     corpus.split_frames("valid"), clips)
        accs.append(region_acc)
    assert abs(np.mean(accs) - 0.5) <= 0.1


def test_validate_perfect_oracle_heads_reach_one():
    # noiseless pure-mode corpus with wide segments: every test clip is pure
    videos = {}
    for k, label in enumerate(["a", "b"]):
        vid = f"val_{k}"
        videos[vid] = cp.VideoRecord(vid, "valid", 150.0, 4.0,
                                     [cp.AnnotationInstance(label, 50.0, 100.0)], 55 + k)
    corpus = cp.Corpus(["a", "b"], videos, cp.SynthInfo(3, 0.0, "pure", 8, 1, 1))
    enc_cfg = enc.EncoderConfig(channels_in=8, embed_dim=8, blocks=0)
    params = enc.init_params(enc_cfg, 0)  # zero biases and no blocks
    params.stem_weight[:] = np.eye(8)

    cfg = tiny_train_cfg(mode="tsp_nogvf", embed_dim=8, blocks=0)
    clips = pt._eval_clips(corpus, "valid", cfg)
    store = corpus.split_frames("valid")
    feats = enc.forward_np_batch(params, store.take(clips.rows, axis=0))
    # least-squares oracle weights on the four distinct feature points
    targets_region = np.where(clips.region_labels == 1, 1.0, -1.0)
    x = np.concatenate([feats, np.ones((len(feats), 1))], axis=1)
    w_r = np.linalg.lstsq(x, targets_region, rcond=None)[0]
    heads = pt.init_heads(8, 2, "tsp_nogvf", 0)
    heads.region_weight[:] = np.stack([-w_r[:-1], w_r[:-1]], axis=1)
    heads.region_bias[:] = [-w_r[-1], w_r[-1]]
    fg = clips.region_labels == 1
    targets_action = np.where(clips.action_labels[fg] == 1, 1.0, -1.0)
    w_a = np.linalg.lstsq(x[fg], targets_action, rcond=None)[0]
    heads.action_weight[:] = np.stack([-w_a[:-1], w_a[:-1]], axis=1)
    heads.action_bias[:] = [-w_a[-1], w_a[-1]]

    action_acc, region_acc = pt._accuracy(params, heads, "tsp_nogvf", None, store, clips)
    assert action_acc == 1.0
    assert region_acc == 1.0


def test_validate_reports_no_region_accuracy_for_tac():
    corpus = small_corpus()
    ckpt, _ = pt.train(corpus, tiny_train_cfg(mode="tac"))
    out = pt.validate(ckpt, corpus, "valid")
    assert out["region_acc"] is None
    assert 0.0 <= out["action_acc"] <= 1.0


def test_validate_recomputes_global_features_missing_from_the_table():
    # the GVF rows come from the init encoder, on the training corpus and on a
    # cold copy of it, as the training matrix's rows do
    corpus = small_corpus()
    ckpt, _ = pt.train(corpus, tiny_train_cfg(epochs=0, warmup_epochs=0))
    full = pt.validate(ckpt, corpus, "valid")
    cold = cp.Corpus(corpus.classes, corpus.videos, corpus.synth)
    assert pt.validate(ckpt, cold, "valid") == full
    gvf = pt.precompute_global_features(corpus, ckpt.init_encoder, ckpt.config)
    clips = pt._eval_clips(corpus, "valid", ckpt.config)
    assert pt._accuracy(ckpt.encoder, ckpt.heads, "tsp", gvf, corpus.split_frames("valid"),
                        clips) == (full["action_acc"], full["region_acc"])


def test_region_accuracy_hits_95_on_separable_noiseless_corpus():
    corpus = cp.generate_synthetic(
        cp.SynthConfig(videos_per_subset=(30, 10, 0), duration_range=(150.0, 300.0),
                       num_classes=4, noise_sigma=0.0, background_mode="hard",
                       length_log_mu=4.0, instances_per_video=(1, 3)),
        seed=1)
    # pre-build oracle: foreground and background prototypes must be
    # logistically separable under the norm-augmented lift a relu encoder can
    # realize, otherwise the accuracy target would be unreachable by design
    points = [(proto, 1.0) for proto in corpus.prototypes]
    points += [(corpus.background_prototype(v), 0.0) for v in corpus.videos.values()]
    feats = np.array([np.concatenate([p, [p @ p]]) for p, _ in points])
    labels = np.array([y for _, y in points])
    x = np.concatenate([feats, np.ones((len(feats), 1))], axis=1)
    x /= np.abs(x).max(axis=0)
    w = np.zeros(x.shape[1])
    for _ in range(2000):  # plain logistic regression by gradient descent
        p = 1.0 / (1.0 + np.exp(-x @ w))
        w -= 2.0 * x.T @ (p - labels) / len(labels)
    oracle_acc = float(np.mean((x @ w > 0) == (labels == 1)))
    assert oracle_acc >= 0.95, "prototypes are not separable; fix the fixture"

    cfg = tiny_train_cfg(mode="tsp_nogvf", embed_dim=16, blocks=1, epochs=8,
                         warmup_epochs=2, decay_epochs=(4, 6), encoder_lr=0.02,
                         head_lr_grid=(0.01,))
    ckpt, rows = pt.train(corpus, cfg)
    best = max(r.region_acc for r in rows if r.region_acc is not None)
    assert best >= 0.95


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_value_exact(tmp_path):
    corpus = small_corpus()
    for blocks in (0, 1, 2):
        ckpt, _ = pt.train(corpus, tiny_train_cfg(blocks=blocks))
        path = tmp_path / f"ckpt{blocks}.json"
        pt.save_checkpoint(ckpt, path)
        assert json.loads(path.read_text())["schema_version"] == pt.CHECKPOINT_SCHEMA_VERSION
        loaded = pt.load_checkpoint(path)
        assert (loaded.mode, loaded.seed) == (ckpt.mode, ckpt.seed)
        assert loaded.checkpoint_id == ckpt.checkpoint_id
        for a, b in zip(ckpt.encoder.arrays() + ckpt.heads.arrays(),
                        loaded.encoder.arrays() + loaded.heads.arrays()):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert loaded.init_encoder.flat.tobytes() == ckpt.init_encoder.flat.tobytes()
        assert loaded.config == ckpt.config
        # and a second save is byte-identical
        path2 = tmp_path / f"ckpt{blocks}_again.json"
        pt.save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_a_checkpoint_states_width_depth_and_frame_shape_once():
    counts = {}

    def walk(value):
        if isinstance(value, dict):
            for key, item in value.items():
                counts[key] = counts.get(key, 0) + 1
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    ckpt, _ = pt.train(small_corpus(), tiny_train_cfg())
    walk(pt.checkpoint_to_dict(ckpt))
    assert [counts.get(key) for key in ("embed_dim", "blocks", "frame_shape")] == [1, 1, 1]


def test_checkpoint_dict_decodes_without_a_json_round_trip():
    # checkpoint_to_dict keeps the config's tuples, where a file has lists
    ckpt, _ = pt.train(small_corpus(), tiny_train_cfg())
    loaded = pt.checkpoint_from_dict(pt.checkpoint_to_dict(ckpt))
    assert (loaded.config, loaded.checkpoint_id) == (ckpt.config, ckpt.checkpoint_id)


def test_truncated_checkpoint_rejected(tmp_path):
    corpus = small_corpus()
    ckpt, _ = pt.train(corpus, tiny_train_cfg(epochs=1, warmup_epochs=0,
                                              head_lr_grid=(0.004,)))
    path = tmp_path / "ckpt.json"
    pt.save_checkpoint(ckpt, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(pt.CheckpointError):
        pt.load_checkpoint(path)


def test_wrong_schema_version_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(pt.CheckpointError, match="schema_version"):
        pt.load_checkpoint(path)


def test_tampered_checkpoint_rejected(tmp_path):
    corpus = small_corpus()
    ckpt, _ = pt.train(corpus, tiny_train_cfg(epochs=1, warmup_epochs=0,
                                              head_lr_grid=(0.004,)))
    path = tmp_path / "ckpt.json"
    pt.save_checkpoint(ckpt, path)
    doc = json.loads(path.read_text())
    doc["heads"]["action_bias"]["data"][0] += 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(pt.CheckpointError, match="checkpoint_id"):
        pt.load_checkpoint(path)
