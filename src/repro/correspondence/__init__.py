"""Correspondence (block bisimulation with degrees) and its indexed extension."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "BlockMatching": "blocks",
        "blocks_correspond": "blocks",
        "corresponding_path": "blocks",
        "find_correspondence": "check",
        "minimal_degrees": "check",
        "structures_correspond": "check",
        "assert_correspondence": "definition",
        "correspondence_violations": "definition",
        "is_correspondence": "definition",
        "pair_clause_violations": "definition",
        "IndexRelation": "indexed",
        "IndexedCorrespondenceReport": "indexed",
        "ParameterizedVerifier": "indexed",
        "TransferredResult": "indexed",
        "indexed_correspondence": "indexed",
        "verify_index_relation": "indexed",
        "CorrespondenceRelation": "relation",
    },
)

__all__ = [
    "CorrespondenceRelation",
    "correspondence_violations",
    "pair_clause_violations",
    "is_correspondence",
    "assert_correspondence",
    "find_correspondence",
    "minimal_degrees",
    "structures_correspond",
    "BlockMatching",
    "corresponding_path",
    "blocks_correspond",
    "IndexRelation",
    "IndexedCorrespondenceReport",
    "indexed_correspondence",
    "verify_index_relation",
    "ParameterizedVerifier",
    "TransferredResult",
]
