"""Hierarchical MLP vision backbones with serialized token mixing.

The package bundles a small immutable tensor core with reverse-mode
differentiation, an axis-rearrangement language, the mixing blocks and
model presets, a dual analytic/exact cost model, bicubic resolution
adaptation, and binary weight/image IO behind a single CLI.

The top level holds the model-level API: presets, building, the forward
passes, parameters and weights, cost and the gradient check. Lower layers
are imported from their modules, e.g. ``from raftmlp.tensor import unfold``.
"""

from .adapt import forward_adapted
from .autograd import GradCheckReport, grad_check
from .container import ContainerError, load_weights, save_weights
from .cost import CostReport, cost_report
from .models import (
    LevelConfig,
    Model,
    ModelConfig,
    PRESETS,
    build_model,
    build_preset,
    forward,
    level_outputs,
    named_parameters,
    preset_config,
    replace_parameters,
)
from .tensor import ShapeError, Tensor

__version__ = "0.1.0"

__all__ = [
    "ContainerError",
    "CostReport",
    "GradCheckReport",
    "LevelConfig",
    "Model",
    "ModelConfig",
    "PRESETS",
    "ShapeError",
    "Tensor",
    "build_model",
    "build_preset",
    "cost_report",
    "forward",
    "forward_adapted",
    "grad_check",
    "level_outputs",
    "load_weights",
    "named_parameters",
    "preset_config",
    "replace_parameters",
    "save_weights",
]
