"""Learning to prove in a toy rewrite calculus, end to end.

Hash-consed terms, a tactic engine with trace capture and undo, a
generated algebraic-identity benchmark, recursive state embeddings on a
from-scratch reverse-mode autodiff with sharing and dynamic batching,
classifiers for position evaluation / tactic prediction / argument presence,
greedy proof synthesis with an oracle fallback, and a stdio proof service.
"""

from .terms import (
    App,
    Const,
    Prod,
    TermError,
    TermStore,
    Var,
)
from .sexpr import ParseError, parse_sexpr, print_sexpr
from .engine import (
    EngineError,
    Law,
    ProofSession,
    Reflexivity,
    Rewrite,
    declare_domain,
    replay_trace,
    start_session,
    steps_below,
)
from .rewrite import (
    DatasetSpec,
    TheoremSpec,
    eval_word,
    gen_dataset_records,
    gen_expression,
    gen_theorems,
    oracle_proof,
    statement_for,
)
from .traces import (
    DatasetError,
    TacticArg,
    TacticCall,
    TraceRecord,
    bin_depth,
    histograms,
    read_dataset,
    write_dataset,
)
from .autodiff import Adam, CompGraph, Tensor, forward_backward, run_backward, run_forward
from .embeddings import (
    EmbedConfig,
    EmbedParams,
    StateEmbedder,
    load_checkpoint,
    save_checkpoint,
)
from .models import (
    Classifier,
    LabeledState,
    TrainConfig,
    evaluate,
    train_classifier,
)
from .synthesis import ModelPredictor, OraclePredictor, run_benchmark, synthesize
from .protocol import ProtocolServer, serve

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "App",
    "Classifier",
    "CompGraph",
    "Const",
    "DatasetError",
    "DatasetSpec",
    "EmbedConfig",
    "EmbedParams",
    "EngineError",
    "LabeledState",
    "Law",
    "ModelPredictor",
    "OraclePredictor",
    "ParseError",
    "Prod",
    "ProofSession",
    "ProtocolServer",
    "Reflexivity",
    "Rewrite",
    "StateEmbedder",
    "TacticArg",
    "TacticCall",
    "Tensor",
    "TermError",
    "TermStore",
    "TheoremSpec",
    "TraceRecord",
    "TrainConfig",
    "Var",
    "bin_depth",
    "declare_domain",
    "eval_word",
    "evaluate",
    "forward_backward",
    "gen_dataset_records",
    "gen_expression",
    "gen_theorems",
    "histograms",
    "load_checkpoint",
    "oracle_proof",
    "parse_sexpr",
    "print_sexpr",
    "read_dataset",
    "replay_trace",
    "run_backward",
    "run_benchmark",
    "run_forward",
    "save_checkpoint",
    "serve",
    "start_session",
    "statement_for",
    "steps_below",
    "synthesize",
    "train_classifier",
    "write_dataset",
]
