"""Analysis helpers: state-explosion sweeps, timing, and the experiment drivers."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ExplosionPoint": "explosion",
        "SymbolicExplosionPoint": "explosion",
        "sample_large_ring_correspondence": "explosion",
        "symbolic_token_ring_explosion_sweep": "explosion",
        "token_ring_explosion_sweep": "explosion",
        "Timed": "timing",
        "timed_call": "timing",
        "experiments": None,
    },
)

__all__ = [
    "ExplosionPoint",
    "SymbolicExplosionPoint",
    "token_ring_explosion_sweep",
    "symbolic_token_ring_explosion_sweep",
    "sample_large_ring_correspondence",
    "Timed",
    "timed_call",
    "experiments",
]
