"""Discriminative attribute identification over explicit sparse vector
spaces built from definitions, scene graphs, and commonsense assertions."""

from .cascade import (CascadeConfig, Explanation, StoreSet, Verdict, classify,
                      classify_batch, render_explanation)
from .commonsense import CkgStore, load_assertions
from .definitions import DefinitionStore, load_definitions
from .errors import ConfigError, DataFormatError, DiscrimAttrError, EvidenceError
from .index import ExplicitVectorSpace
from .text import normalize
from .types import MembershipResult, Term, Triple
from .visual import VisualStore, load_scene_graphs

__all__ = [
    "CascadeConfig", "Explanation", "StoreSet", "Verdict", "classify",
    "classify_batch", "render_explanation", "CkgStore",
    "load_assertions", "DefinitionStore", "load_definitions", "ConfigError",
    "DataFormatError", "DiscrimAttrError", "EvidenceError", "ExplicitVectorSpace",
    "normalize", "MembershipResult", "Term", "Triple", "VisualStore",
    "load_scene_graphs",
]

__version__ = "0.1.0"
