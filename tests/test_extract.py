"""Dense extraction tiling and the track file round trip."""

from dataclasses import replace

import numpy as np
import pytest

from tspkit import corpus as cp
from tspkit import encoder as enc
from tspkit import extract as ex
from tspkit import pretrain as pt
from tspkit.extract import softmax
from tspkit.sampler import clip_frame_indices, clip_span, dense_clips, load_clip


def make_corpus(duration=77.5, fps=4.0, valid=True):
    videos = {
        "tr_0": cp.VideoRecord("tr_0", "train", 100.0, fps,
                               [cp.AnnotationInstance("a", 10.0, 40.0)], 5),
        "va_0": cp.VideoRecord("va_0", "valid", duration, fps,
                               [cp.AnnotationInstance("a", 20.0, 50.0)], 6),
    }
    return cp.Corpus(["a", "b"], videos, cp.SynthInfo(1, 0.3, "pure", 6, 1, 1))


def make_checkpoint(corpus, mode="tsp", **over):
    cfg = pt.TrainConfig(mode=mode, epochs=0, warmup_epochs=0, head_lr_grid=(0.004,),
                         embed_dim=8, blocks=0, seed=0, init="random", **over)
    ckpt, _ = pt.train(corpus, cfg)
    return ckpt


def test_tiling_covers_310_frames_with_hop_31():
    corpus = make_corpus(duration=77.5, fps=4.0)
    video = corpus.videos["va_0"]
    assert video.num_frames == 310
    ckpt = make_checkpoint(corpus)
    track = ex.extract_track(corpus, video, ckpt)  # default hop = span = 31
    assert track.hop_frames == 31
    assert len(track) == 10
    centers = np.round(track.center_times * video.fps).astype(int)
    assert centers.tolist() == [31 * i for i in range(10)]
    assert centers[-1] >= video.num_frames - track.hop_frames


def test_region_probabilities_in_unit_interval():
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus)
    track = ex.extract_track(corpus, corpus.videos["va_0"], ckpt)
    assert track.region_probs is not None
    assert np.all((track.region_probs >= 0.0) & (track.region_probs <= 1.0))


def test_classification_only_track_has_no_region_scores():
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus, mode="tac")
    track = ex.extract_track(corpus, corpus.videos["va_0"], ckpt)
    assert track.region_probs is None
    assert track.action_logits.shape == (len(track), 2)


@pytest.mark.parametrize("mode", pt.MODES)
def test_rows_equal_per_clip_reference(mode):
    # one batched pass per video gives each clip's own features and logits
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus, mode=mode)
    video = corpus.videos["va_0"]
    track = ex.extract_track(corpus, video, ckpt)
    cfg, heads = ckpt.config, ckpt.heads
    centers = range(0, video.num_frames, track.hop_frames)
    assert len(track) == len(centers)
    for i, center in enumerate(centers):
        clip = load_clip(corpus, video, center, cfg.clip_len, cfg.frame_stride)
        # (c, L, h, w) -> (c*h*w, L)
        feat = enc.forward_np(ckpt.encoder, clip.transpose(0, 2, 3, 1).reshape(-1, cfg.clip_len))
        assert np.array_equal(track.features[i], feat)
        assert np.array_equal(track.action_logits[i],
                              feat @ heads.action_weight + heads.action_bias)
        if mode == "tac":
            assert track.region_probs is None
            continue
        region_in = np.concatenate([feat, track.global_feature]) if mode == "tsp" else feat
        region = region_in @ heads.region_weight + heads.region_bias
        assert track.region_probs[i] == softmax(region)[1]


def test_frame_geometry_must_match_the_checkpoint():
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus)
    taller = cp.Corpus(corpus.classes, corpus.videos, replace(corpus.synth, height=2))
    with pytest.raises(ex.TrackError, match="checkpoint expects 6x1x1 frames, corpus has 6x2x1"):
        ex.extract_track(taller, taller.videos["va_0"], ckpt)


def test_a_frame_shape_of_the_same_size_loads_but_reads_no_other_geometry():
    # the id does not hash the frame shape and the stem sees only its size, so
    # a 4x2x2 file loads; the corpus check still refuses its 16x1x1 frames
    base = make_corpus()
    corpus = cp.Corpus(base.classes, base.videos, replace(base.synth, channels=16))
    doc = pt.checkpoint_to_dict(make_checkpoint(corpus))
    ckpt = pt.checkpoint_from_dict({**doc, "frame_shape": [4, 2, 2]})
    assert ckpt.frame_shape == (4, 2, 2)
    with pytest.raises(ex.TrackError, match="checkpoint expects 4x2x2 frames, corpus has 16x1x1"):
        ex.check_frame_shape(corpus, ckpt)


def test_extraction_is_deterministic(tmp_path):
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus)
    video = corpus.videos["va_0"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ex.write_track(ex.extract_track(corpus, video, ckpt), p1)
    ex.write_track(ex.extract_track(corpus, video, ckpt), p2)
    assert p1.read_bytes() == p2.read_bytes()


def assert_tracks_equal(a, b):
    assert a.video_id == b.video_id
    assert (a.clip_len, a.frame_stride, a.hop_frames) == (b.clip_len, b.frame_stride, b.hop_frames)
    assert a.fps == b.fps and a.num_frames == b.num_frames
    assert a.checkpoint_id == b.checkpoint_id
    assert np.array_equal(a.global_feature, b.global_feature)
    assert np.array_equal(a.center_times, b.center_times)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.action_logits, b.action_logits)
    if a.region_probs is None:
        assert b.region_probs is None
    else:
        assert np.array_equal(a.region_probs, b.region_probs)


def test_round_trip_is_value_exact(tmp_path):
    corpus = make_corpus()
    for mode in ("tsp", "tac"):
        ckpt = make_checkpoint(corpus, mode=mode)
        track = ex.extract_track(corpus, corpus.videos["va_0"], ckpt, hop=17)
        path = tmp_path / f"{mode}.csv"
        ex.write_track(track, path)
        assert_tracks_equal(track, ex.read_track(path))


def test_empty_track_is_valid(tmp_path):
    track = ex.FeatureTrack(
        video_id="empty", clip_len=16, frame_stride=2, hop_frames=31, fps=4.0,
        num_frames=0, checkpoint_id="deadbeef0000",
        global_feature=np.array([1.0, -0.5]),
        center_times=np.empty(0), features=np.empty((0, 2)),
        region_probs=np.empty(0), action_logits=np.empty((0, 3)))
    path = tmp_path / "empty.csv"
    ex.write_track(track, path)
    loaded = ex.read_track(path)
    assert len(loaded) == 0
    assert np.array_equal(loaded.global_feature, track.global_feature)


def test_wrong_feature_dim_rejected(tmp_path):
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus)
    track = ex.extract_track(corpus, corpus.videos["va_0"], ckpt)
    path = tmp_path / "t.csv"
    ex.write_track(track, path)
    text = path.read_text().replace("# feature_dim=8", "# feature_dim=7")
    path.write_text(text)
    with pytest.raises(ex.TrackError):
        ex.read_track(path)


def test_corrupt_row_reports_row_number(tmp_path):
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus)
    track = ex.extract_track(corpus, corpus.videos["va_0"], ckpt)
    path = tmp_path / "t.csv"
    ex.write_track(track, path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1] + ",1.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ex.TrackError, match="row"):
        ex.read_track(path)


@pytest.mark.parametrize("mode", ["tsp_nogvf", "tac"])
def test_modes_without_global_feature_write_an_empty_gvf(tmp_path, mode):
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus, mode=mode)
    track = ex.extract_track(corpus, corpus.videos["va_0"], ckpt)
    assert track.global_feature.shape == (0,)
    path = tmp_path / "t.csv"
    ex.write_track(track, path)
    assert "# gvf=\n" in path.read_text().splitlines(keepends=True)
    assert_tracks_equal(track, ex.read_track(path))


def test_gvf_of_another_length_rejected(tmp_path):
    corpus = make_corpus()
    track = ex.extract_track(corpus, corpus.videos["va_0"], make_checkpoint(corpus))
    path = tmp_path / "t.csv"
    ex.write_track(track, path)
    lines = path.read_text().splitlines(keepends=True)
    lines = [("# gvf=1.0;2.0\n" if line.startswith("# gvf=") else line) for line in lines]
    path.write_text("".join(lines))
    with pytest.raises(ex.TrackError, match="gvf length 2"):
        ex.read_track(path)


def test_unknown_video_global_feature_recomputed():
    # a checkpoint stores no GVF: a video it never saw gets its GVF from the
    # init encoder, as every video does
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus)
    video = cp.VideoRecord("new_0", "valid", 60.0, 4.0, [cp.AnnotationInstance("b", 5.0, 30.0)],
                           9)
    other = cp.Corpus(corpus.classes, {video.id: video}, corpus.synth)
    other.split_frames("valid")
    track = ex.extract_track(other, video, ckpt)
    assert np.array_equal(track.global_feature,
                          pt.video_global_feature(other, video, ckpt.init_encoder, ckpt.config))
    # as a fresh ``tspkit extract`` meets it: computed without filling a store
    cold = cold_copy(other)
    assert_tracks_equal(ex.extract_track(cold, video, ckpt), track)
    assert not cold._stores


@pytest.mark.parametrize("pool", ["max", "avg"])
def test_dense_global_feature_pools_the_init_encoders_track_at_that_hop(pool):
    # the init encoder's default-hop track, through the action head alone
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus, global_pool=pool)
    init_tac = replace(ckpt, config=replace(ckpt.config, mode="tac"), encoder=ckpt.init_encoder)
    for video in corpus.videos.values():
        track = ex.extract_track(corpus, video, init_tac)
        row = pt.video_global_feature(corpus, video, ckpt.init_encoder, ckpt.config)
        assert np.array_equal(row, pt.pool_features(track.features, pool))


@pytest.mark.parametrize("hop", [None, 8])
def test_a_tracks_gvf_is_the_gvf_computed_alone(hop):
    # at the default hop extract_track pools the clips it gathered for the
    # track; at another it gathers the default grid, as the function alone does
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus)
    for video in corpus.videos.values():
        track = ex.extract_track(cold_copy(corpus), video, ckpt, hop=hop)
        alone = pt.video_global_feature(cold_copy(corpus), video, ckpt.init_encoder, ckpt.config)
        assert track.global_feature.tobytes() == alone.tobytes()


def test_nonpositive_hop_rejected_for_tracks_and_dense_global_features():
    corpus = make_corpus()
    video = corpus.videos["va_0"]
    with pytest.raises(ValueError, match="hop must be positive"):
        ex.extract_track(corpus, video, make_checkpoint(corpus), hop=0)
    with pytest.raises(ValueError, match="hop must be positive"):
        dense_clips(corpus, video, 16, 2, 0)


def cold_copy(corpus):
    """The same manifest with empty caches, as a fresh ``tspkit extract`` loads it."""
    return cp.Corpus(corpus.classes, corpus.videos, corpus.synth)


@pytest.mark.parametrize("clip_len, frame_stride", [(16, 2), (5, 3)])
@pytest.mark.parametrize("hop", [1, 5, None, "span+3"])
def test_cold_corpus_gives_the_warm_track(clip_len, frame_stride, hop):
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus, clip_len=clip_len, frame_stride=frame_stride)
    if hop == "span+3":
        hop = clip_span(clip_len, frame_stride) + 3
    video = corpus.videos["va_0"]
    corpus.split_frames("valid")  # warm: the split's frame store is filled
    cold = cold_copy(corpus)
    assert_tracks_equal(ex.extract_track(cold, video, ckpt, hop=hop),
                        ex.extract_track(corpus, video, ckpt, hop=hop))
    assert not cold._stores


@pytest.mark.parametrize("hop", [1, None, 40])
def test_cold_extraction_synthesizes_exactly_the_rows_its_clips_read(monkeypatch, hop):
    corpus = make_corpus()
    ckpt = make_checkpoint(corpus)
    video = corpus.videos["va_0"]
    cfg = ckpt.config
    span = clip_span(cfg.clip_len, cfg.frame_stride)
    calls, normal_rows = [], cp.normal_rows

    def recording_normal_rows(*prefix, rows, dim):
        calls.append(np.array(rows))
        return normal_rows(*prefix, rows=rows, dim=dim)

    monkeypatch.setattr(cp, "normal_rows", recording_normal_rows)
    track = ex.extract_track(cold_copy(corpus), video, ckpt, hop=hop)
    centers = np.round(track.center_times * video.fps).astype(int)
    # the track's clips; then, at another hop, the GVF's default grid
    grids = [centers] if hop in (None, span) else [centers, np.arange(0, video.num_frames, span)]
    assert [c.tolist() for c in calls] == [
        np.unique(clip_frame_indices(grid[:, None], cfg.clip_len, cfg.frame_stride,
                                     video.num_frames)).tolist() for grid in grids]


def reference_track_rows(track):
    """``write_track``'s data rows written one field at a time, as the format reads."""
    lines = []
    for i in range(len(track)):
        fields = [repr(float(track.center_times[i]))]
        fields += [repr(float(v)) for v in track.features[i]]
        fields.append("" if track.region_probs is None
                      else repr(float(track.region_probs[i])))
        fields += [repr(float(v)) for v in track.action_logits[i]]
        lines.append(",".join(fields) + "\n")
    return lines


@pytest.mark.parametrize("mode", ["tsp", "tac"])
def test_written_rows_equal_the_field_by_field_reference(tmp_path, mode):
    corpus = make_corpus()
    track = ex.extract_track(corpus, corpus.videos["va_0"], make_checkpoint(corpus, mode=mode))
    path = tmp_path / "t.csv"
    ex.write_track(track, path, flags_comment="--x 1")
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0] == "# flags=--x 1\n"
    assert lines[-len(track):] == reference_track_rows(track)
