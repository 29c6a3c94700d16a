"""Process templates and their compositions."""

from repro.network.composition import GlobalRule, GlobalState, SharedVariableComposition
from repro.network.free_product import free_product
from repro.network.process import LocalTransition, ProcessTemplate

__all__ = [
    "ProcessTemplate",
    "LocalTransition",
    "SharedVariableComposition",
    "GlobalRule",
    "GlobalState",
    "free_product",
]
