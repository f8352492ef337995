"""The package's export list matches what its ``__init__`` binds.

The top level holds the model-level API only; every lower-layer name has
one home, the module that defines it.
"""

import importlib
import inspect
import pkgutil
import sys
import types

import pytest

import raftmlp

MODEL_LEVEL_API = [
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

# The lower-layer names the top level exported alongside the model-level
# API before it was cut down, each with the module that defines it.
LOWER_LAYER_HOMES = {
    "adapt": ["pre_embed_resize"],
    "autograd": ["backward", "trace"],
    "blocks": [
        "EmbedParams",
        "MixingParams",
        "RaftTokenMixingParams",
        "channel_mixing",
        "horizontal_mixing",
        "init_channel_mixing",
        "init_embed",
        "init_layer_norm",
        "init_linear",
        "init_mixing",
        "init_raft_token_mixing",
        "mixing_mlp",
        "multi_scale_patch_embed",
        "raft_token_mixing",
        "vertical_mixing",
    ],
    "container": [
        "ContainerMagicError",
        "ContainerNameError",
        "ContainerTruncatedError",
        "ContainerVersionError",
        "load_tensors",
        "save_tensors",
    ],
    "cost": [
        "CostRow",
        "macs_advantage",
        "params_advantage",
        "raft_mixing_macs_analytic",
        "raft_mixing_params_analytic",
        "token_mixing_macs_analytic",
        "token_mixing_params_analytic",
    ],
    "netpbm": ["ImageFormatError", "read_ppm", "write_pgm"],
    "ops": [
        "LayerNormParams",
        "LinearParams",
        "bicubic_resize",
        "gelu",
        "global_avg_pool",
        "layer_norm",
        "linear",
        "softmax",
    ],
    "rearrange": [
        "RearrangeError",
        "RearrangeSpec",
        "apply_rearrange",
        "invert",
        "parse_rearrange",
        "rearrange",
    ],
    "tensor": ["PatchGrid", "add", "seq_sum", "unfold"],
}

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(raftmlp.__path__))


def test_every_exported_name_resolves():
    missing = [name for name in raftmlp.__all__ if not hasattr(raftmlp, name)]
    assert missing == []
    assert len(set(raftmlp.__all__)) == len(raftmlp.__all__)


def test_every_public_class_and_function_is_exported():
    bound = {
        name
        for name, value in vars(raftmlp).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
    }
    assert sorted(bound - set(raftmlp.__all__)) == []


def test_the_top_level_is_the_model_level_api():
    assert sorted(raftmlp.__all__) == sorted(MODEL_LEVEL_API)


@pytest.mark.parametrize("name", SUBMODULES)
def test_a_submodule_imports_as_a_module(name):
    # ``import a.b as m`` binds the package attribute ``b``, which a
    # re-exported function of the same name would shadow.
    namespace = {}
    exec(f"import raftmlp.{name} as m", namespace)
    assert isinstance(namespace["m"], types.ModuleType)
    assert namespace["m"] is sys.modules[f"raftmlp.{name}"]


def test_the_lower_layer_table_holds_every_dropped_name():
    names = [name for names in LOWER_LAYER_HOMES.values() for name in names]
    assert len(names) == len(set(names)) == 52
    assert set(names).isdisjoint(MODEL_LEVEL_API)


@pytest.mark.parametrize("module_name", sorted(LOWER_LAYER_HOMES))
def test_a_lower_layer_name_imports_from_its_module_only(module_name):
    module = importlib.import_module(f"raftmlp.{module_name}")
    for name in LOWER_LAYER_HOMES[module_name]:
        value = getattr(module, name)
        assert value.__module__ == module.__name__, name
        if name not in SUBMODULES:
            assert not hasattr(raftmlp, name), name
