"""The package's export list matches what its ``__init__`` binds."""

import inspect

import raftmlp


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
