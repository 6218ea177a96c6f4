import importlib

import pytest

import discrimattr
from discrimattr import types
from discrimattr.cascade import STAGES, CascadeConfig, Explanation, StoreSet, Verdict
from discrimattr.commonsense import EdgeEvidence
from discrimattr.definitions import DefinitionEvidence
from discrimattr.types import MembershipResult, Term, Triple
from discrimattr.visual import RegionEvidence

CAT = Term("cats", "cat")
EXPLANATION = Explanation("intensional", "ckg.v1", (), "no CKG evidence", "text")
VALUES = [
    CAT,
    Triple(CAT, Term("lion", "lion"), Term("whiskers", "whisker")),
    MembershipResult(True, ()),
    EXPLANATION,
    Verdict(True, "CKG", EXPLANATION),
    CascadeConfig(),
    StoreSet(None, None, None),
    STAGES["DBM"],
    DefinitionEvidence("cat", "cat.n.01", "supertype", "feline", ("cat",)),
    EdgeEvidence("HasA", "cat", "whisker", 1.0, "forward"),
    RegionEvidence("cat", "black", [[1, 2]]),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_are_read_only(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.not_a_field = 1  # the checked subclasses keep `__slots__ = ()`


def test_membership_result_is_false_when_not_member():
    # a bare NamedTuple with any field is truthy
    assert not MembershipResult(False)
    assert MembershipResult(True)


def test_repr_names_the_type_and_its_fields():
    assert repr(CAT) == "Term(surface='cats', lemma='cat')"
    assert repr(Verdict(False)) == (
        "Verdict(discriminative=False, deciding_component=None, explanation=None)")


@pytest.mark.parametrize("args", [(True,), (True, "DBM"), (True, None, EXPLANATION),
                                  (False, "DBM", EXPLANATION)])
def test_verdict_has_component_and_explanation_exactly_when_positive(args):
    with pytest.raises(ValueError):
        Verdict(*args)
    with pytest.raises(ValueError):
        Verdict._make(args + (None,) * (3 - len(args)))


def test_replace_builds_the_checked_type():
    assert CascadeConfig()._replace(vfm_use_sor=True) == CascadeConfig(vfm_use_sor=True)
    assert type(Verdict(False)._replace()) is Verdict


@pytest.mark.parametrize("stage_order", [("DBM", "DBM", "VFM"), ("DBM", "CKG"), (), 5, "DBM"])
def test_cascade_config_stage_order_is_a_permutation(stage_order):
    with pytest.raises(ValueError):
        CascadeConfig(stage_order=stage_order)
    with pytest.raises(ValueError):
        CascadeConfig(stage_order)
    with pytest.raises(ValueError):  # `_replace` builds through `_make`
        CascadeConfig()._replace(stage_order=stage_order)


@pytest.mark.parametrize("config", [CascadeConfig(stage_order=["DBM", "CKG", "VFM"]),
                                    CascadeConfig()._replace(stage_order=["DBM", "CKG", "VFM"])],
                         ids=["built", "replaced"])
def test_cascade_config_keeps_a_list_stage_order_as_a_tuple(config):
    assert config.stage_order == ("DBM", "CKG", "VFM")
    assert config == CascadeConfig() and hash(config) == hash(CascadeConfig())


@pytest.mark.parametrize("key,value", [
    ("vfm_min_count", 0), ("vfm_min_count", 1.0), ("dbm_max_depth", -1), ("dbm_max_depth", True),
    ("vfm_use_sor", 1),
])
def test_cascade_config_rejects_a_value_the_cli_rejects(key, value):
    with pytest.raises(ValueError, match=repr(key)):
        CascadeConfig(**{key: value})
    with pytest.raises(ValueError, match=repr(key)):
        CascadeConfig()._replace(**{key: value})


PUBLIC = {"CascadeConfig", "Explanation", "StoreSet", "Verdict", "classify", "classify_batch",
          "render_explanation", "CkgStore", "load_assertions", "DefinitionStore",
          "load_definitions", "ConfigError", "DataFormatError", "DiscrimAttrError",
          "EvidenceError", "ExplicitVectorSpace", "normalize", "MembershipResult", "Term",
          "Triple", "VisualStore", "load_scene_graphs"}


def test_each_public_name_is_its_modules_object():
    # the package imports a name's module when the name is first asked for
    assert sorted(discrimattr.__all__) == sorted(PUBLIC)
    for name in discrimattr.__all__:
        value = getattr(discrimattr, name)
        assert value.__module__.startswith("discrimattr.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_an_unknown_package_name_raises_attribute_error():
    assert not hasattr(discrimattr, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        discrimattr.no_such_name


@pytest.mark.parametrize("module,name", [("definitions", "DefinitionEvidence"),
                                         ("definitions", "DEFAULT_MAX_DEPTH"),
                                         ("commonsense", "EdgeEvidence"),
                                         ("visual", "RegionEvidence")])
def test_a_store_module_holds_its_evidence_type_from_types(module, name):
    assert getattr(importlib.import_module(f"discrimattr.{module}"), name) is getattr(types, name)
