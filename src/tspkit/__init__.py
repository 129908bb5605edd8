"""Temporally-sensitive clip-encoder pretraining sandbox.

CPU-only and numpy-backed: synthetic untrimmed-video corpora, a clip encoder
with a hand-derived backward, two-head pretraining with a frozen global video
feature, dense feature extraction, temporal-localization metrics, and
feature-similarity analysis.

Importing it runs BLAS on one thread per process unless already set (see ``workers``).
On Linux it also fixes glibc malloc's mmap and trim thresholds unless the
environment sets them: adaptive ones follow the largest block freed so far, so
whether each step's numpy temporaries are faulted in afresh depended on what
the process had freed before (174k to 542k minor faults per bench seed; 3k fixed).
"""

import ctypes
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if sys.platform == "linux" and not {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                                     "GLIBC_TUNABLES"} & set(os.environ):
    _mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if _mallopt is not None:
        _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        _mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD
        _mallopt(-1, 64 * 2**20)  # M_TRIM_THRESHOLD

from .analysis import (AggregateStat, ContrastStats, SimilarityMatrix, aggregate_runs,
                       contrast_stats, cosine_matrix, export_pgm)
from .bench import BenchConfig, run_bench
from .corpus import (AnnotationInstance, Corpus, ManifestError, RegionSegment, SynthConfig,
                     VideoRecord, derive_segments, generate_synthetic, load_manifest,
                     save_manifest)
from .encoder import EncoderConfig, EncoderParams, ShapeError, init_params, param_count
from .evalkit import (DetectionPrediction, GroundTruthInstance, LocalizerParams,
                      ProposalPrediction, TIOU_GRID, ar_at_an, auc_100, average_map,
                      average_precision, baseline_localize, detad_bucket, detad_report,
                      ground_truth_from_corpus, map_at, tiou)
from .extract import FeatureTrack, extract_track, read_track, write_track
from .pretrain import (Checkpoint, HeadParams, TrainConfig, load_checkpoint, lr_at,
                       precompute_global_features, save_checkpoint, train, validate)
from .sampler import ClipSet, build_epoch, clip_frame_indices, clip_span, sample_segment_clips

__version__ = "0.1.0"
