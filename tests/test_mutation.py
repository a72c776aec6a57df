"""The mutation audit's mutant list: one swap per site, in source order."""

import importlib.util
from pathlib import Path


def load_mutation():
    path = Path(__file__).resolve().parent / "mutation.py"
    spec = importlib.util.spec_from_file_location("mutation", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutants_swap_each_operator_and_constant_once_in_source_order():
    source = "x = a ^ b\nif x <= 0:\n    y = x == c\n"
    assert load_mutation().mutants(source) == [
        (1, "x = a | b\nif x <= 0:\n    y = x == c\n"),
        (2, "x = a ^ b\nif x < 0:\n    y = x == c\n"),
        (2, "x = a ^ b\nif x <= 1:\n    y = x == c\n"),
        (3, "x = a ^ b\nif x <= 0:\n    y = x != c\n"),
    ]
