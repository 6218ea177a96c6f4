import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrimattr.errors import DataFormatError
from discrimattr.text import (lemma_of, load_lemma_table, load_stopwords,
                              normalize, tokenize)


def test_stopword_removal(lemma_table, stopwords):
    assert normalize("a tall deciduous tree", lemma_table, stopwords) == [
        "tall", "deciduous", "tree",
    ]


def test_lemma_table_lookup(lemma_table, stopwords):
    assert normalize("Apples", lemma_table, stopwords) == ["apple"]


def test_fixture_gloss(lemma_table, stopwords):
    # hand-applied fixture table: distilled->distill, fermented->ferment;
    # stopwords include "from" and "or"
    out = normalize("distilled from wine or fermented fruit juice", lemma_table, stopwords)
    assert out == ["distill", "wine", "ferment", "fruit", "juice"]


def test_empty_input(lemma_table, stopwords):
    assert normalize("", lemma_table, stopwords) == []


def test_tokenize_splits_non_alphanumeric():
    assert tokenize("Light-Brown, metallic!") == ["light", "brown", "metallic"]


@pytest.mark.parametrize("row", ["justonecolumn", "wines\tred wine", "red wine\tclaret",
                                 "Wine-s\twine"],
                         ids=["one-column", "whitespace-in-lemma", "surface-of-two-tokens",
                              "surface-with-hyphen"])
def test_malformed_lemma_table(tmp_path, row):
    p = tmp_path / "bad.tsv"
    p.write_text(f"apples\tapple\n{row}\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as exc:
        load_lemma_table(p)
    assert exc.value.line == 2


def test_lemma_table_chain_resolution(tmp_path):
    p = tmp_path / "chain.tsv"
    p.write_text("running\trun\nran\trunning\n", encoding="utf-8")
    table = load_lemma_table(p)
    assert table["ran"] == "run"


def test_lemma_of_multiword(lemma_table):
    assert lemma_of("ice cream", lemma_table) == "ice_cream"
    with pytest.raises(ValueError):
        lemma_of("  !!  ", lemma_table)


@given(st.text(max_size=80))
def test_normalize_idempotent(lemma_table, stopwords, text):
    once = normalize(text, lemma_table, stopwords)
    twice = normalize(" ".join(once), lemma_table, stopwords)
    assert twice == once


@given(st.text(max_size=80))
def test_lemma_invariants(lemma_table, stopwords, text):
    for lemma in normalize(text, lemma_table, stopwords):
        assert lemma
        assert not any(c.isspace() for c in lemma)


def test_stopword_loader(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("the\n\nA\n# comment\n", encoding="utf-8")
    assert load_stopwords(p) == {"the", "a"}
