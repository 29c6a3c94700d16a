"""Process templates and their compositions."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "GlobalRule": "composition",
        "GlobalState": "composition",
        "SharedVariableComposition": "composition",
        "free_product": "free_product",
        "LocalTransition": "process",
        "ProcessTemplate": "process",
    },
)

__all__ = [
    "ProcessTemplate",
    "LocalTransition",
    "SharedVariableComposition",
    "GlobalRule",
    "GlobalState",
    "free_product",
]
