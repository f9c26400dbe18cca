"""tbforge: LLM-driven Verilog testbench generation with simulator feedback,
preference-pair dataset construction, and evaluation metrics."""

__version__ = "0.1.0"

from tbforge.corpus import SpecCodePair
from tbforge.pipeline import (
    PipelineConfig,
    PipelineResult,
    TestbenchPipeline,
    TestbenchRecord,
)
from tbforge.preference import (
    CandidateEval,
    Discard,
    PairMethod,
    PreferencePair,
    build_pair_similarity,
    build_pair_testbench,
    build_pair_with_fails,
    evaluate_candidate,
    ppo_reward,
    sample_candidates,
)
from tbforge.metrics import TaskResults, pass_at_k, perplexity, ppl_alignment_rate
from tbforge.dpo import PairLogProbs, TabularPolicy, dpo_grad, dpo_loss, sft_loss

__all__ = [
    "__version__",
    "SpecCodePair",
    "PipelineConfig",
    "PipelineResult",
    "TestbenchPipeline",
    "TestbenchRecord",
    "CandidateEval",
    "Discard",
    "PairMethod",
    "PreferencePair",
    "build_pair_similarity",
    "build_pair_testbench",
    "build_pair_with_fails",
    "evaluate_candidate",
    "ppo_reward",
    "sample_candidates",
    "TaskResults",
    "pass_at_k",
    "perplexity",
    "ppl_alignment_rate",
    "PairLogProbs",
    "TabularPolicy",
    "dpo_grad",
    "dpo_loss",
    "sft_loss",
]
