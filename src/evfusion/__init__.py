"""Frame-event-text fusion classifier with a from-scratch autodiff engine."""

from .autodiff import Tensor, backward, finite_diff_check
from .encoders import EncoderConfig
from .events import EventStream, Sample, SynthSpec, VideoClip, simulate_dvs, stack_events, synth_dataset
from .fusion import AblationSwitches, FusionConfig, Model, ModelConfig
from .text import PromptTemplate, Vocabulary, render_prompt, tokenize
from .trainer import OptimConfig, cosine_lr, cross_entropy, evaluate, train

__all__ = [
    "Tensor", "backward", "finite_diff_check",
    "EncoderConfig",
    "EventStream", "Sample", "SynthSpec", "VideoClip",
    "simulate_dvs", "stack_events", "synth_dataset",
    "AblationSwitches", "FusionConfig", "Model", "ModelConfig",
    "PromptTemplate", "Vocabulary", "render_prompt", "tokenize",
    "OptimConfig", "cosine_lr", "cross_entropy", "evaluate", "train",
]
