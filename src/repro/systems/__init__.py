"""Concrete identical-process systems: the Section 5 token ring, the paper's figures, and four extra families."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "barrier": None,
        "counter": None,
        "figures": None,
        "mutex": None,
        "round_robin": None,
        "token_ring": None,
    },
)

__all__ = ["token_ring", "figures", "round_robin", "barrier", "mutex", "counter"]
