"""Knowledge-graph convolutional recommender.

End-to-end pipeline: ratings preprocessing with negative sampling, knowledge
graph adjacency + fixed-size neighbor sampling, H-hop biased aggregation with
hand-written gradients, Adam training, and CTR / top-K evaluation.
"""

from .data import (
    InteractionDataset,
    SplitDataset,
    implicitize,
    load_ratings,
    preprocess,
    split,
)
from .evaluate import auc, ctr_eval, f1, topk_eval
from .graph import NeighborSample, build_adjacency, load_kg, sample_neighborhood
from .model import KgcnScorer, ModelConfig, aggregate
from .numerics import (
    AdamState,
    GradientStore,
    ParameterStore,
    adam_step,
    finite_difference_gradient,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .trainer import TrainConfig, TrainReport, batch_loss, sweep, train, train_kgcn

__version__ = "0.1.0"
