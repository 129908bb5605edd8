"""Temporally-sensitive clip-encoder pretraining sandbox.

CPU-only and numpy-backed: synthetic untrimmed-video corpora, a tiny
autodiff engine and clip encoder, two-head pretraining with a frozen global
video feature, dense feature extraction, temporal-localization metrics, and
feature-similarity analysis.

Importing it runs BLAS on one thread per process unless already set (see ``bench``).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .analysis import (AggregateStat, ContrastStats, SimilarityMatrix, aggregate_runs,
                       contrast_stats, cosine_matrix, export_pgm)
from .autodiff import ShapeError, Tape, Tensor
from .bench import BenchConfig, run_bench
from .corpus import (AnnotationInstance, Corpus, GenerationError, ManifestError,
                     RegionSegment, SynthConfig, VideoRecord, derive_segments,
                     generate_synthetic, load_manifest, save_manifest)
from .encoder import EncoderConfig, EncoderParams, init_params, param_count
from .evalkit import (DetectionPrediction, GroundTruthInstance, LocalizerParams,
                      ProposalPrediction, TIOU_GRID, ar_at_an, auc_100, average_map,
                      average_precision, baseline_localize, detad_bucket, detad_report,
                      ground_truth_from_corpus, map_at, tiou)
from .extract import FeatureTrack, extract_track, read_track, write_track
from .pretrain import (Checkpoint, GlobalFeatureTable, HeadParams, TrainConfig,
                       load_checkpoint, lr_at, precompute_global_features, save_checkpoint,
                       train, validate)
from .sampler import ClipSpec, build_epoch, clip_frame_indices, clip_span, sample_segment_clips

__version__ = "0.1.0"
