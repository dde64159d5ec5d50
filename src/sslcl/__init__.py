"""Sample-label contrastive learning with Soft-HGR similarity.

A numpy library: a small reverse-mode autodiff engine, the Soft-HGR
sample-label contrastive objective with modality-masking augmentation,
a synthetic imbalanced multimodal benchmark, and an experiment harness
for the batch-size and component ablations.
"""

from .autodiff import NonFiniteError, Tape, Tensor
from .data import (FeatureBatch, FeatureDataset, SyntheticSpec, UtteranceRecord,
                   batch_iter, generate_synthetic, load_features, preset_spec,
                   save_jsonl, split_dataset)
from .encoder import FULL_MASK, ModalityMask, augmentation_views, classify, encode
from .evaluation import (SweepResult, ablation_suite, batch_size_sweep, train_and_score,
                         train_and_score_seeds)
from .label_embedding import embed_labels
from .losses import (STEP_TERMS, FloorCount, HyperParams, cross_entropy, label_label_loss,
                     sslcl_loss, supcon_loss)
from .metrics import weighted_f1
from .similarity import SimilarityContext, build_context, sim_matrix
from .trainer import (Adam, GradCheckReport, RunConfig, TrainResult, gradcheck,
                      load_checkpoint, predict, save_checkpoint, score, train, train_seeds)

__version__ = "0.1.0"
