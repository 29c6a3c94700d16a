"""Concrete identical-process systems: the Section 5 token ring, the paper's figures, and four extra families."""

from repro.systems import barrier, counter, figures, mutex, round_robin, token_ring

__all__ = ["token_ring", "figures", "round_robin", "barrier", "mutex", "counter"]
