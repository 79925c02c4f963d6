"""Hybrid recommender combining collaborative-filtering latent vectors with
feature-level self-attention over categorical content features, plus a biased
matrix-factorization baseline, a deterministic data pipeline, and a
finite-difference gradient certification suite.
"""

from .baseline import MfParams, mf_backward, mf_loss, mf_scores
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (DatasetManifest, DatasetSplit, FeatureColumns, FeatureVocab,
                   FieldSpec, Interactions, PackedFeatures, PreparedData, build_dataset,
                   build_feature_vocab, encode_entity_features, load_ratings,
                   pack_features, split_dataset)
from .errors import (DivergenceError, IoError, ManifestDriftError, ParseError,
                     SainError, ShapeError)
from .gradcheck import check_biasedmf, check_sain, run_suite
from .model import (FieldLayout, ForwardTrace, ModelConfig, SainParams,
                    backward, forward_batch, joint_loss)
from .ml100k import convert_ml100k, find_ml100k
from .seeding import derive_seed, stream_rng
from .tensor import (ParamSet, adam_step, finite_diff_gradient,
                     relative_error, softmax_rows, top_k_mask_rows)
from .training import (EvalReport, TrainConfig, TrainResult, attention_matrices,
                       evaluate_mf, evaluate_sain, load_model, predict_mf,
                       predict_sain, rmse_mae, run_training, save_model,
                       sweep_top_k, train_biasedmf, train_sain,
                       write_attention_csv, write_sweep_csv, write_training_log)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
