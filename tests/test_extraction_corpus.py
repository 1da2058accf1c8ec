"""Golden corpus: twenty hand-written LaTeX documents with known bindings.

Each document in tests/data/extraction was authored together with its
golden by tracing the cleaning and binding rules on paper. The goldens
were never produced by running the code under test, so a regression in
either the cleaner or the binder shows up as a golden mismatch here.
"""

import json
from pathlib import Path

import pytest

from figqa import figure_context
from figqa.errors import RecursionLimitExceeded
from figqa.figure_context import build_figure_contexts
from figqa.latex_prep import RawPaper, clean_paper

from oracles import levenshtein_full_matrix

DATA = Path(__file__).parent / "data" / "extraction"
PAIRS = json.loads((DATA / "pairs.json").read_text(encoding="utf-8"))
GOLDENS = json.loads((DATA / "goldens.json").read_text(encoding="utf-8"))
DOC_IDS = sorted(GOLDENS)
BOUND_IDS = [d for d in DOC_IDS if "skip" not in GOLDENS[d]]

CONTEXT_FIELDS = (
    "figure_index",
    "label",
    "citing_paragraph_count",
    "caption",
    "context",
)


def load_raw(doc_id: str) -> RawPaper:
    source = (DATA / f"{doc_id}.tex").read_text(encoding="utf-8")
    return RawPaper(
        arxiv_id=doc_id,
        primary_category="cs.LG",
        latex_source=source,
        figure_caption_pairs=[tuple(pair) for pair in PAIRS[doc_id]],
    )


def bind(doc_id: str):
    raw = load_raw(doc_id)
    paragraphs = clean_paper(raw)
    contexts, discards = build_figure_contexts(paragraphs, raw)
    return raw, paragraphs, contexts, discards


def test_fixture_files_are_consistent():
    tex_ids = sorted(p.stem for p in DATA.glob("*.tex"))
    assert tex_ids == DOC_IDS
    assert sorted(PAIRS) == DOC_IDS
    assert len(DOC_IDS) == 20


@pytest.mark.parametrize("doc_id", BOUND_IDS)
def test_contexts_match_golden(doc_id):
    _, _, contexts, _ = bind(doc_id)
    got = [{f: getattr(ctx, f) for f in CONTEXT_FIELDS} for ctx in contexts]
    assert got == GOLDENS[doc_id]["contexts"]


@pytest.mark.parametrize("doc_id", BOUND_IDS)
def test_discards_match_golden(doc_id):
    _, _, _, discards = bind(doc_id)
    got = [[index, reason.kind.value] for index, reason in discards]
    assert got == GOLDENS[doc_id]["discards"]


@pytest.mark.parametrize("doc_id", BOUND_IDS)
def test_binding_matches_the_full_matrix_oracle(doc_id, monkeypatch):
    # Same contexts and same discards, the "best similarity" detail text
    # included, when every distance comes from the full-matrix oracle.
    raw, paragraphs, contexts, discards = bind(doc_id)
    calls = []

    def oracle(a, b):
        calls.append((a, b))
        return levenshtein_full_matrix(a, b)

    monkeypatch.setattr(figure_context, "levenshtein_distance", oracle)
    assert build_figure_contexts(paragraphs, raw) == (contexts, discards)
    assert calls


@pytest.mark.parametrize("doc_id", BOUND_IDS)
def test_every_pair_is_accounted_for(doc_id):
    raw, _, contexts, discards = bind(doc_id)
    assert len(contexts) + len(discards) == len(raw.figure_caption_pairs)
    bound = {ctx.figure_index for ctx in contexts}
    dropped = {index for index, _ in discards}
    assert bound | dropped == set(range(len(raw.figure_caption_pairs)))
    assert not bound & dropped


@pytest.mark.parametrize("doc_id", BOUND_IDS)
def test_bound_figures_carry_their_corpus_pair(doc_id):
    raw, _, contexts, _ = bind(doc_id)
    for ctx in contexts:
        image, caption = raw.figure_caption_pairs[ctx.figure_index]
        assert ctx.figure_image_ref == image
        assert ctx.caption == caption
        assert ctx.arxiv_id == doc_id


@pytest.mark.parametrize("doc_id", BOUND_IDS)
def test_cleaning_is_a_fixed_point(doc_id):
    # Running the cleaner on its own output must change nothing.
    _, paragraphs, _, _ = bind(doc_id)
    again = clean_paper(
        RawPaper(
            arxiv_id=doc_id,
            primary_category="cs.LG",
            latex_source="\n\n".join(paragraphs),
        )
    )
    assert again == paragraphs


def test_verbatim_content_survives_while_comments_go():
    _, paragraphs, _, _ = bind("d09")
    body = "\n\n".join(paragraphs)
    for needle in GOLDENS["d09"]["body_contains"]:
        assert needle in body
    for needle in GOLDENS["d09"]["body_excludes"]:
        assert needle not in body


def test_bibliography_blocks_are_removed():
    _, paragraphs, _, _ = bind("d16")
    body = "\n\n".join(paragraphs)
    for needle in GOLDENS["d16"]["body_excludes"]:
        assert needle not in body
    assert "thebibliography" not in body


def test_recursive_macro_document_is_rejected():
    assert GOLDENS["d12"]["skip"] == "macro_recursion_limit"
    with pytest.raises(RecursionLimitExceeded):
        clean_paper(load_raw("d12"))


def test_corpus_wide_tallies():
    # Hand-counted over the goldens: 24 pairs split into 15 bindings
    # and 9 discards across the 19 documents that clean successfully.
    total_pairs = sum(len(PAIRS[d]) for d in BOUND_IDS)
    total_contexts = sum(len(GOLDENS[d]["contexts"]) for d in BOUND_IDS)
    total_discards = sum(len(GOLDENS[d]["discards"]) for d in BOUND_IDS)
    assert total_pairs == 24
    assert total_contexts == 15
    assert total_discards == 9
    for doc_id in BOUND_IDS:
        _, _, contexts, discards = bind(doc_id)
        assert len(contexts) == len(GOLDENS[doc_id]["contexts"])
        assert len(discards) == len(GOLDENS[doc_id]["discards"])
