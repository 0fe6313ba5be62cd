from .checkpoint import load_model, save_model
from .model import (
    ModelConfig,
    Seq2SeqModel,
    decode_greedy,
    encode,
    greedy_reproduces,
    init_model,
    recurrent_cell,
    softmax,
)
from .train import (
    TrainingState,
    compute_loss_and_grads,
    exact_match_rate,
    split_holdout,
    train,
    train_step,
    vocabulary_from_pairs,
)
from .vocab import EOS, PAD, SOS, UNK, Vocabulary, build_vocabulary

__all__ = [
    "EOS",
    "PAD",
    "SOS",
    "UNK",
    "ModelConfig",
    "Seq2SeqModel",
    "TrainingState",
    "Vocabulary",
    "build_vocabulary",
    "compute_loss_and_grads",
    "decode_greedy",
    "encode",
    "exact_match_rate",
    "greedy_reproduces",
    "init_model",
    "load_model",
    "recurrent_cell",
    "save_model",
    "softmax",
    "split_holdout",
    "train",
    "train_step",
    "vocabulary_from_pairs",
]
