"""Corpus schema, region derivation, and synthetic generation."""

import hashlib
import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspkit import corpus as cp


def make_video(duration, annotations, fps=4.0, seed=17):
    anns = [cp.AnnotationInstance(label, t0, t1) for label, t0, t1 in annotations]
    return cp.VideoRecord("vid0", "train", duration, fps, anns, seed)


# ---------------------------------------------------------------------------
# derive_segments


def test_single_annotation_partitions_video():
    video = make_video(30.0, [("a", 10.0, 20.0)])
    segs = cp.derive_segments(video)
    assert [(s.t_start, s.t_end, s.kind) for s in segs] == [
        (0.0, 10.0, "background"), (10.0, 20.0, "foreground"), (20.0, 30.0, "background")]
    assert segs[1].class_label == "a"


def test_overlapping_same_class_annotations_merge():
    video = make_video(25.0, [("a", 0.0, 10.0), ("a", 5.0, 15.0)])
    segs = cp.derive_segments(video)
    assert [(s.t_start, s.t_end, s.kind) for s in segs] == [
        (0.0, 15.0, "foreground"), (15.0, 25.0, "background")]


def test_full_length_annotation_yields_single_segment():
    video = make_video(12.0, [("b", 0.0, 12.0)])
    segs = cp.derive_segments(video)
    assert len(segs) == 1
    assert segs[0].kind == "foreground"
    assert (segs[0].t_start, segs[0].t_end) == (0.0, 12.0)


def test_merged_label_is_largest_overlap_ties_to_earliest():
    video = make_video(40.0, [("a", 0.0, 6.0), ("b", 5.0, 20.0)])
    assert cp.derive_segments(video)[0].class_label == "b"
    tie = make_video(40.0, [("a", 0.0, 10.0), ("b", 10.0, 20.0)])
    assert cp.derive_segments(tie)[0].class_label == "a"


def sweep_line_components(intervals, duration, grid=1 / 32):
    """Brute-force region oracle on a fine time grid."""
    n = int(round(duration / grid))
    covered = np.zeros(n, dtype=bool)
    for t0, t1 in intervals:
        covered[int(round(t0 / grid)):int(round(t1 / grid))] = True
    components = int(np.sum(covered[1:] & ~covered[:-1]) + int(covered[0]))
    return components, covered


def test_segment_count_matches_sweep_line_oracle():
    rng = np.random.default_rng(42)
    for trial in range(200):
        duration = float(rng.integers(8, 64))
        k = int(rng.integers(0, 6))
        intervals = []
        for _ in range(k):
            a = int(rng.integers(0, int(duration * 8) - 1)) / 8
            length = int(rng.integers(1, 17)) / 8
            intervals.append((a, min(a + length, duration)))
        video = make_video(duration, [("a", t0, t1) for t0, t1 in intervals if t0 < t1])
        segs = cp.derive_segments(video)
        fg = [s for s in segs if s.kind == "foreground"]
        components, covered = sweep_line_components(
            [(t0, t1) for t0, t1 in intervals if t0 < t1], duration)
        assert len(fg) == components, f"trial {trial}"
        # exact partition of [0, duration]
        assert segs[0].t_start == 0.0
        assert segs[-1].t_end == duration
        for prev, nxt in zip(segs, segs[1:]):
            assert prev.t_end == nxt.t_start
        assert abs(sum(s.length for s in segs) - duration) <= 1e-9


# ---------------------------------------------------------------------------
# manifests


def minimal_manifest(tmp_path):
    doc = {
        "schema_version": 1,
        "classes": ["a"],
        "videos": {
            "v1": {"subset": "train", "duration_sec": 20.0, "fps": 4.0,
                   "annotations": [{"label": "a", "segment": [2.0, 6.0]}]},
        },
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_minimal_manifest(tmp_path):
    corpus = cp.load_manifest(minimal_manifest(tmp_path))
    assert len(corpus.videos) == 1
    assert corpus.videos["v1"].annotations[0].label == "a"


def test_annotation_past_duration_rejected(tmp_path):
    doc = {
        "schema_version": 1,
        "classes": ["a"],
        "videos": {"v1": {"subset": "train", "duration_sec": 10.0, "fps": 4.0,
                          "annotations": [{"label": "a", "segment": [2.0, 11.0]}]}},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cp.ManifestError, match="v1"):
        cp.load_manifest(path)


@pytest.mark.parametrize("background_mode", ["pure", "hard"])
def test_one_class_manifest_loads_only_with_pure_background(background_mode):
    doc = cp.corpus_to_dict(cp.generate_synthetic(
        cp.SynthConfig(num_classes=2, videos_per_subset=(2, 0, 0),
                       duration_range=(40.0, 60.0)), seed=0))
    doc["classes"] = ["act00"]
    doc["synth"]["background_mode"] = background_mode
    for video in doc["videos"].values():
        for ann in video["annotations"]:
            ann["label"] = "act00"
    if background_mode == "pure":
        assert cp.corpus_from_dict(doc).classes == ["act00"]
    else:
        with pytest.raises(cp.ManifestError, match="hard background mode needs at least 2"):
            cp.corpus_from_dict(doc)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
    with pytest.raises(cp.ManifestError, match="line 3"):
        cp.load_manifest(path)


def test_manifest_round_trip_is_value_identical(tmp_path):
    corpus = cp.generate_synthetic(
        cp.SynthConfig(videos_per_subset=(3, 2, 1), duration_range=(40.0, 80.0)), seed=5)
    path1 = tmp_path / "m1.json"
    path2 = tmp_path / "m2.json"
    cp.save_manifest(corpus, path1)
    loaded = cp.load_manifest(path1)
    cp.save_manifest(loaded, path2)
    assert path1.read_bytes() == path2.read_bytes()
    assert cp.corpus_to_dict(corpus) == cp.corpus_to_dict(loaded)


# ---------------------------------------------------------------------------
# synthetic generation


def test_generation_is_deterministic():
    cfg = cp.SynthConfig(videos_per_subset=(4, 2, 0), duration_range=(60.0, 120.0))
    a = cp.corpus_to_dict(cp.generate_synthetic(cfg, seed=9))
    b = cp.corpus_to_dict(cp.generate_synthetic(cfg, seed=9))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = cp.corpus_to_dict(cp.generate_synthetic(cfg, seed=10))
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_zero_instances_gives_all_background():
    cfg = cp.SynthConfig(videos_per_subset=(3, 1, 0), instances_per_video=(0, 0),
                         duration_range=(40.0, 60.0))
    corpus = cp.generate_synthetic(cfg, seed=0)
    for video in corpus.videos.values():
        assert video.annotations == []
        segs = corpus.segments(video.id)
        assert len(segs) == 1 and segs[0].kind == "background"


def test_subsets_disjoint_and_sized():
    cfg = cp.SynthConfig(videos_per_subset=(5, 3, 2), duration_range=(40.0, 80.0))
    corpus = cp.generate_synthetic(cfg, seed=1)
    assert len(corpus.subset_videos("train")) == 5
    assert len(corpus.subset_videos("valid")) == 3
    assert len(corpus.subset_videos("test")) == 2
    ids = list(corpus.videos)
    assert len(set(ids)) == len(ids)


def test_instance_lengths_match_lognormal_quantiles():
    # 1000 single-instance videos with huge durations: clamping is negligible
    cfg = cp.SynthConfig(videos_per_subset=(1000, 0, 0), instances_per_video=(1, 1),
                         duration_range=(5000.0, 6000.0))
    corpus = cp.generate_synthetic(cfg, seed=8)
    lengths = [ann.length for v in corpus.videos.values() for ann in v.annotations]
    assert len(lengths) == 1000
    dist = statistics.NormalDist()
    for q in (0.25, 0.5, 0.75):
        expected = math.exp(cfg.length_log_mu + cfg.length_log_sigma * dist.inv_cdf(q))
        observed = float(np.quantile(lengths, q))
        assert abs(observed - expected) / expected <= 0.05


def test_placement_failure_is_reported():
    # the config is rejected before generation, however long the drawn videos are
    with pytest.raises(ValueError, match="cannot place 50 instances in the shortest duration"):
        cp.SynthConfig(videos_per_subset=(1, 0, 0), duration_range=(10.0, 12.0),
                       instances_per_video=(50, 50), length_log_mu=3.8, length_log_sigma=0.9)


@pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf")])
def test_generation_rejects_a_noise_sigma_loading_would_reject(noise):
    with pytest.raises(ValueError, match="noise_sigma"):
        cp.generate_synthetic(cp.SynthConfig(videos_per_subset=(1, 0, 0),
                                             noise_sigma=noise), seed=0)


def synth_manifest(**synth):
    """A one-video manifest document whose synth block takes ``synth``'s values."""
    block = {"master_seed": 0, "noise_sigma": 0.5, "background_mode": "pure",
             "channels": 1, "height": 1, "width": 1, **synth}
    return {"schema_version": 1, "classes": ["a"], "synth": block,
            "videos": {"v1": {"subset": "train", "duration_sec": 10.0, "fps": 4.0,
                              "frame_seed": 1, "annotations": []}}}


def test_frame_side_limit_holds_for_generation_and_loading():
    side = cp.MAX_FRAME_SIDE
    assert side == 112
    cp.SynthConfig(channels=1, height=side, width=side)
    loaded = cp.corpus_from_dict(synth_manifest(height=side, width=side))
    assert (loaded.synth.height, loaded.synth.width) == (side, side)
    for geometry in (dict(height=side + 1, width=side), dict(height=side, width=side + 1)):
        with pytest.raises(ValueError, match="112"):
            cp.SynthConfig(channels=1, **geometry)
        with pytest.raises(cp.ManifestError, match="bad synth block: .*112"):
            cp.corpus_from_dict(synth_manifest(**geometry))


# ---------------------------------------------------------------------------
# frames


def synth_corpus(noise=0.5, mode="hard", seed=3):
    cfg = cp.SynthConfig(videos_per_subset=(3, 1, 0), duration_range=(40.0, 60.0),
                         noise_sigma=noise, background_mode=mode)
    return cp.generate_synthetic(cfg, seed=seed)


def test_noiseless_fg_frame_is_exactly_the_prototype():
    corpus = synth_corpus(noise=0.0)
    video = next(v for v in corpus.videos.values() if v.annotations)
    ann = video.annotations[0]
    idx = int((ann.t_start + ann.t_end) / 2 * video.fps)
    frame = corpus.frame(video, idx)
    proto = corpus.prototypes[corpus.class_index(ann.label)]
    assert np.array_equal(frame.ravel(), proto)


def test_noiseless_hard_background_is_prototype_midpoint():
    corpus = synth_corpus(noise=0.0, mode="hard")
    video = next(v for v in corpus.videos.values()
                 if corpus.segments(v.id)[0].kind == "background")
    frame = corpus.frame(video, 0)
    diffs = np.array([
        np.linalg.norm(frame.ravel() - (corpus.prototypes[a] + corpus.prototypes[b]) / 2)
        for a in range(len(corpus.classes)) for b in range(len(corpus.classes)) if a != b])
    assert diffs.min() == 0.0


def test_frames_are_bit_identical_across_calls():
    corpus = synth_corpus(noise=0.5)
    video = list(corpus.videos.values())[0]
    f1 = corpus.frame(video, 7)
    f2 = corpus.frame(video, 7)
    assert np.array_equal(f1, f2)
    fresh = cp.corpus_from_dict(cp.corpus_to_dict(corpus))
    assert np.array_equal(fresh.frame(fresh.videos[video.id], 7), f1)


def test_frame_index_out_of_range():
    corpus = synth_corpus()
    video = list(corpus.videos.values())[0]
    with pytest.raises(ValueError):
        corpus.frame(video, video.num_frames)


def test_frame_on_a_segment_boundary_takes_the_later_segment():
    # membership is half-open: at 4 fps, frame 8 (t = 2.0) starts the action
    # and frame 12 (t = 3.0) is already background again
    synth = synth_corpus(noise=0.0)
    video = cp.VideoRecord("edge", "train", 5.0, 4.0,
                           [cp.AnnotationInstance(synth.classes[1], 2.0, 3.0)], 17)
    corpus = cp.Corpus(synth.classes, {video.id: video}, synth.synth)
    proto = corpus.prototypes[1]
    frames = corpus.video_frames(video).reshape(video.num_frames, -1)
    on_action = [i for i in range(video.num_frames) if np.array_equal(frames[i], proto)]
    assert on_action == list(range(8, 12))
    assert np.array_equal(frames[12], corpus.background_prototype(video))

def test_frame_is_a_writable_copy_of_its_video_row():
    corpus = synth_corpus(noise=0.5)
    video = list(corpus.videos.values())[0]
    frames = corpus.video_frames(video)
    assert not frames.flags.writeable
    for i in (0, 7, video.num_frames - 1):
        frame = corpus.frame(video, i)
        assert frame.shape == frames.shape[1:]
        assert np.array_equal(frame, frames[i])
        frame += 1.0  # writable, and the cache keeps its bits
        assert not np.array_equal(frame, frames[i])
    assert np.array_equal(corpus.video_frames(video), frames)


# sha256 of every video's frame shape and float64 bytes, in video order, for the
# small corpus of synth_corpus(noise, mode, seed=3). The frame noise is keyed per
# frame, rng_for(frame_seed, "frame-noise", i), as the manifest contract says;
# these digests were taken from the per-frame implementation.
FRAME_DIGESTS = {
    (0.5, "hard"): "4a26105b4e4819bfcadbfe65fa2a5a8c48c620bfe131c38998ae795c00ac3555",
    (0.5, "pure"): "16ca85d8cb47e0b63a6ddcba8715ab3c96aa91851d3426a86cd2ac856cd528a3",
    (0.0, "hard"): "dcbd94ff3c106908b268e27f62153cde8aceca96c94754da1eeceb1349b2029a",
    (0.0, "pure"): "0d2cb5db4e74807ba7b19df5339e9fd95fdcc49669114ede242355646eaa3726",
}


@pytest.mark.parametrize("noise, mode", sorted(FRAME_DIGESTS))
def test_video_frames_match_golden_digest(noise, mode):
    corpus = synth_corpus(noise=noise, mode=mode)
    digest = hashlib.sha256()
    for video in corpus.videos.values():
        frames = corpus.video_frames(video)
        digest.update(repr(frames.shape).encode())
        digest.update(np.ascontiguousarray(frames, dtype="<f8").tobytes())
    assert digest.hexdigest() == FRAME_DIGESTS[noise, mode]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FRAME_DIGESTS)), st.integers(0, 3),
       st.lists(st.integers(-40, 300), max_size=30),
       st.sampled_from([(-1,), (2, -1), (-1, 1, 2)]))
def test_cold_frames_at_equals_video_frames_rows(noise_mode, video_pos, values, shape):
    # indices clamped to the video as clip_frame_indices clamps them, so the
    # edges repeat; frames_at on a cold corpus leaves the frame store unfilled
    noise, mode = noise_mode
    warm = synth_corpus(noise=noise, mode=mode)
    cold = cp.corpus_from_dict(cp.corpus_to_dict(warm))
    video = list(cold.videos.values())[video_pos]
    values = values[:len(values) // 2 * 2]  # every shape splits an even count
    idx = np.clip(np.array(values, dtype=np.int64), 0, video.num_frames - 1).reshape(shape)
    got = cold.frames_at(video, idx)
    assert not cold._stores
    want = warm.video_frames(warm.videos[video.id])[idx]
    assert got.shape == want.shape == idx.shape + want.shape[idx.ndim:]
    assert got.tobytes() == want.tobytes()
    assert warm.frames_at(video, idx).tobytes() == want.tobytes()


def test_frames_at_rejects_out_of_range_indices_cold_or_warm():
    corpus = synth_corpus()
    video = list(corpus.videos.values())[0]
    for _ in range(2):  # cold, then warm
        for bad in ([-1], [0, video.num_frames]):
            with pytest.raises(ValueError, match="out of range"):
                corpus.frames_at(video, bad)
        corpus.video_frames(video)


# sha256 of save_manifest's bytes for synth_corpus(), taken before the synth block
# was written with dataclasses.asdict: pins the file layout (key names, nesting,
# number formatting), which the frame digests above do not see
GOLDEN_MANIFEST_DIGEST = "d13d60eda4c2166b0102ad1780efaadf434d42b4d6c59baa462350971490abeb"


def test_saved_manifest_matches_golden_digest(tmp_path):
    path = tmp_path / "m.json"
    cp.save_manifest(synth_corpus(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_MANIFEST_DIGEST


def test_saved_invocation_is_one_key_that_loading_skips(tmp_path):
    corpus = synth_corpus()
    plain, tagged = tmp_path / "plain.json", tmp_path / "tagged.json"
    cp.save_manifest(corpus, plain)
    cp.save_manifest(corpus, tagged, invocation="gen-corpus --seed 3")
    doc = json.loads(tagged.read_text())
    assert doc.pop("__invocation__") == "gen-corpus --seed 3"
    assert doc == json.loads(plain.read_text())
    assert cp.corpus_to_dict(cp.load_manifest(tagged)) == cp.corpus_to_dict(corpus)
