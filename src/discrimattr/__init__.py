"""Discriminative attribute identification over explicit sparse vector
spaces built from definitions, scene graphs, and commonsense assertions."""

from importlib import import_module

# each public name and its module, imported when the name is first asked for
_HOMES = {name: module for module, names in (
    ("cascade", "CascadeConfig Explanation StoreSet Verdict classify classify_batch "
                "render_explanation"),
    ("commonsense", "CkgStore load_assertions"),
    ("definitions", "DefinitionStore load_definitions"),
    ("errors", "ConfigError DataFormatError DiscrimAttrError EvidenceError"),
    ("index", "ExplicitVectorSpace"),
    ("text", "normalize"),
    ("types", "MembershipResult Term Triple"),
    ("visual", "VisualStore load_scene_graphs"),
) for name in names.split()}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOMES[name]}", __name__), name)
