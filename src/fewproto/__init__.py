"""Few-shot classification over precomputed embeddings.

Pipeline per episode: build a cosine similarity graph over support and
query features, aggregate features through it, train a small linear
head on augmented support rows, obtain class prototypes (class means or
trained against a composite loss), then classify queries by attention-
masked cosine similarity to the prototypes.
"""

from .classify import AttentionMasks, build_masks, classify_batch, score_episode
from .diagnostics import Diagnostics, EpisodeAbort
from .embeddings import (EmbeddingFormatError, EmbeddingSet, Episode,
                         generate_synthetic, load_embedding_set,
                         sample_episode, save_embedding_set)
from .graph import (build_similarity, build_task_graph, normalize_adjacency,
                    propagate, sparsify_top_m)
from .harness import (EvalReport, RunConfig, RunError, SyntheticSpec,
                      emit_report, load_report, run_episode, run_eval)
from .head import (AugmentedSupport, LinearHead, head_predict,
                   manifold_augment, train_head)
from .optim import AdamState, grad_check, softmax
from .prototypes import (LossWeights, PrototypeBank, loss_class,
                         loss_entropy, loss_metric, loss_total,
                         mean_prototypes)
from .verification import run_gradcheck_suite

__all__ = [
    "AttentionMasks", "build_masks", "classify_batch", "score_episode",
    "Diagnostics", "EpisodeAbort", "EmbeddingFormatError", "EmbeddingSet",
    "Episode", "generate_synthetic", "load_embedding_set",
    "sample_episode", "save_embedding_set", "build_similarity",
    "build_task_graph", "normalize_adjacency", "propagate",
    "sparsify_top_m", "EvalReport", "RunConfig", "RunError",
    "SyntheticSpec", "emit_report", "load_report", "run_episode",
    "run_eval", "AugmentedSupport", "LinearHead", "head_predict",
    "manifold_augment", "train_head", "AdamState", "grad_check",
    "softmax", "LossWeights", "PrototypeBank", "loss_class",
    "loss_entropy", "loss_metric", "loss_total", "mean_prototypes",
    "run_gradcheck_suite",
]

__version__ = "0.1.0"
