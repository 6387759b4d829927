"""Few-shot classification over precomputed embeddings.

Pipeline per episode: build a cosine similarity graph over support and
query features, aggregate features through it, train a small linear
head on augmented support rows, obtain class prototypes (class means or
trained against a composite loss), then classify queries by attention-
masked cosine similarity to the prototypes.

The package exports the run surface: configs and runs, reports, pools,
the gradient gate and the per-episode events. The stage functions
import from their modules (`fewproto.graph`, `fewproto.head`, ...).
"""

from .diagnostics import Diagnostics, EpisodeAbort
from .embeddings import (EmbeddingFormatError, EmbeddingSet,
                         generate_synthetic, load_embedding_set,
                         save_embedding_set)
from .harness import (EvalReport, RunConfig, RunError, SyntheticSpec,
                      emit_report, load_report, run_episode, run_eval)
from .verification import run_gradcheck_suite

__all__ = [
    "RunConfig", "SyntheticSpec", "RunError", "run_eval", "run_episode",
    "EvalReport", "emit_report", "load_report",
    "EmbeddingSet", "EmbeddingFormatError", "load_embedding_set",
    "save_embedding_set", "generate_synthetic",
    "run_gradcheck_suite", "Diagnostics", "EpisodeAbort",
]

__version__ = "0.1.0"
