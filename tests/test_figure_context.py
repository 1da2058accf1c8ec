"""Caption matching, citation scanning, and figure-context assembly."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from figqa import figure_context
from figqa.figure_context import (
    CAPTION_MATCH_THRESHOLD,
    DiscardKind,
    DiscardReason,
    FigureEnvironment,
    build_figure_contexts,
    find_citing_paragraphs,
    find_figure_environments,
    levenshtein_distance,
    levenshtein_similarity,
    match_caption_to_environment,
    normalize_caption,
)
from figqa.latex_prep import RawPaper, clean_paper

from oracles import levenshtein_full_matrix, match_full_scan, similarity_from_distance


class TestLevenshtein:
    def test_kitten_sitting(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_similarity("kitten", "sitting") == 1.0 - 3.0 / 7.0

    def test_identical(self):
        assert levenshtein_distance("same", "same") == 0
        assert levenshtein_similarity("same", "same") == 1.0

    def test_empty_cases(self):
        assert levenshtein_distance("", "") == 0
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_similarity("", "abc") == 0.0

    def test_unicode(self):
        assert levenshtein_distance("naïve", "naive") == 1

    def test_seeded_pairs_match_oracle(self):
        rng = random.Random(42)
        alphabet = "abcde "
        for _ in range(300):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert levenshtein_distance(a, b) == levenshtein_full_matrix(a, b)
            assert levenshtein_similarity(a, b) == similarity_from_distance(a, b)

    def test_long_pairs_match_oracle(self):
        # Past one machine word of the bit vectors: 60-400 characters, with
        # astral-plane characters and combining marks in the alphabet.
        rng = random.Random(2024)
        alphabet = "abcde .é\U0001F600\U0001D538\u0301\u0308"

        def text(n):
            return "".join(rng.choice(alphabet) for _ in range(n))

        def near_duplicate(a):
            chars = list(a)
            for _ in range(rng.randint(1, 12)):
                i = rng.randrange(len(chars) + 1)
                op = rng.choice(("insert", "delete", "substitute"))
                if op == "insert" or i == len(chars):
                    chars.insert(i, rng.choice(alphabet))
                elif op == "delete":
                    del chars[i]
                else:
                    chars[i] = rng.choice(alphabet)
            return "".join(chars)

        pairs = []
        for _ in range(8):
            a = text(rng.randint(60, 400))
            pairs.append((a, near_duplicate(a)))
            short = text(rng.randint(60, 300))
            pairs.append((short, text(len(short) + rng.randint(65, 100))))
            pairs.append((short, short + text(rng.randint(65, 100))))
            pairs.append((text(rng.randint(60, 400)), ""))
        for a, b in pairs:
            want = levenshtein_full_matrix(a, b)
            assert levenshtein_distance(a, b) == want, (a, b)
            assert levenshtein_distance(b, a) == want, (a, b)

    @given(st.text(max_size=24), st.text(max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        d = levenshtein_distance(a, b)
        assert d == levenshtein_distance(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(st.text(max_size=12), st.text(max_size=12), st.text(max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )


class TestNormalizeCaption:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Plain caption.", "Plain caption."),
            (r"\textbf{Results} on clean data.", "Results on clean data."),
            (r"\emph{Important} trend.", "Important trend."),
            (r"Errors for $k=1$ through $k=4$.", "Errors for k=1 through k=4."),
            (r"Inline math \(x+y\) kept.", "Inline math x+y kept."),
            (r"See~the curve.", "See the curve."),
            (r"A 20\% gain and a \$5 cost.", "A 20% gain and a $5 cost."),
            (r"Results\cite{smith2020} are strong.", "Results<cit.> are strong."),
            (r"Results \citep{a,b} hold.", "Results <cit.> hold."),
            (r"As in \ref{fig:other} panel.", "As in panel."),
            (r"Top: \includegraphics[width=3cm]{x.png} view.", "Top: view."),
            ("Line one.\\\\Line two.", "Line one. Line two."),
            (r"Caption text.\label{fig:x}", "Caption text."),
            (r"Spacing\, and\; forms\: here\! end.", "Spacing and forms here end."),
            (r"Bare \noindent command.", "Bare command."),
            ("Braces {stay} textual.", "Braces stay textual."),
            ("  collapse   spaces ", "collapse spaces"),
            (r"\textit{\textbf{nested}} wraps.", "nested wraps."),
            ("", ""),
        ],
    )
    def test_table(self, raw, expected):
        assert normalize_caption(raw) == expected

    @pytest.mark.parametrize(
        "raw",
        [
            "Plain caption.",
            r"\textbf{Results} on $k$ data~with \cite{x}.",
            "Line one.\\\\Line two.",
        ],
    )
    def test_idempotent(self, raw):
        once = normalize_caption(raw)
        assert normalize_caption(once) == once


class TestFindFigureEnvironments:
    def test_basic_env(self):
        body = (
            "intro\n\n\\begin{figure}\n\\includegraphics{x.png}\n"
            "\\caption{A basic plot.}\n\\label{fig:a}\n\\end{figure}\n\ntail"
        )
        envs = find_figure_environments(body)
        assert len(envs) == 1
        env = envs[0]
        assert env.caption_raw == "A basic plot."
        assert env.caption_normalized == "A basic plot."
        assert env.labels == ["fig:a"]
        assert env.outer_labels == ["fig:a"]
        assert body[env.span[0] : env.span[1]].startswith("\\begin{figure}")

    def test_starred_env(self):
        body = "\\begin{figure*}\n\\caption{Wide.}\n\\label{fig:w}\n\\end{figure*}"
        envs = find_figure_environments(body)
        assert len(envs) == 1
        assert envs[0].caption_raw == "Wide."

    def test_caption_optional_argument(self):
        body = "\\begin{figure}\\caption[short]{The long caption.}\\end{figure}"
        assert find_figure_environments(body)[0].caption_raw == "The long caption."

    def test_caption_nested_braces(self):
        body = "\\begin{figure}\\caption{Uses \\textbf{bold} text.}\\end{figure}"
        env = find_figure_environments(body)[0]
        assert env.caption_raw == "Uses \\textbf{bold} text."
        assert env.caption_normalized == "Uses bold text."

    def test_no_caption(self):
        env = find_figure_environments("\\begin{figure}\\label{fig:n}\\end{figure}")[0]
        assert env.caption_raw == ""
        assert env.labels == ["fig:n"]

    def test_subfigure_labels_split(self):
        body = (
            "\\begin{figure}\n\\caption{Two panels.}\\label{fig:main}\n"
            "\\begin{subfigure}{.5\\textwidth}\\caption{left}\\label{fig:sub-a}\\end{subfigure}\n"
            "\\begin{subfigure}{.5\\textwidth}\\caption{right}\\label{fig:sub-b}\\end{subfigure}\n"
            "\\end{figure}"
        )
        env = find_figure_environments(body)[0]
        assert env.labels == ["fig:main", "fig:sub-a", "fig:sub-b"]
        assert env.outer_labels == ["fig:main"]

    def test_multiple_envs_in_order(self):
        body = (
            "\\begin{figure}\\caption{First.}\\end{figure}\n\n"
            "\\begin{figure}\\caption{Second.}\\end{figure}"
        )
        caps = [e.caption_raw for e in find_figure_environments(body)]
        assert caps == ["First.", "Second."]


def _env(caption: str) -> FigureEnvironment:
    return FigureEnvironment(
        span=(0, 0), caption_raw=caption, caption_normalized=normalize_caption(caption)
    )


_CAPTION_CHARS = "abA \t"


@st.composite
def _binding_cases(draw):
    """A caption and environment captions built to sit near the threshold:
    copies, near-duplicates, same-length captions, unrelated ones and empty ones."""
    target = draw(st.text(_CAPTION_CHARS, max_size=30))
    captions = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("copy", "near", "same_length", "any", "empty")))
        if kind == "copy":
            captions.append(target)
        elif kind == "near":
            chars = list(target)
            for _ in range(draw(st.integers(1, 3))):
                pos = draw(st.integers(0, len(chars)))
                op = draw(st.sampled_from(("insert", "delete", "substitute")))
                if op == "insert" or pos == len(chars):
                    chars.insert(pos, draw(st.sampled_from(_CAPTION_CHARS)))
                elif op == "delete":
                    del chars[pos]
                else:
                    chars[pos] = draw(st.sampled_from(_CAPTION_CHARS))
            captions.append("".join(chars))
        elif kind == "same_length":
            size = len(target)
            captions.append(draw(st.text(_CAPTION_CHARS, min_size=size, max_size=size)))
        elif kind == "any":
            captions.append(draw(st.text(_CAPTION_CHARS, max_size=30)))
        else:
            captions.append("")
    return target, captions


class TestMatchCaption:
    def test_exact_match(self):
        envs = [_env("Training loss curves."), _env("Validation accuracy.")]
        assert match_caption_to_environment("Training loss curves.", envs) is envs[0]

    def test_case_and_whitespace_insensitive(self):
        envs = [_env("Training  Loss curves.")]
        assert match_caption_to_environment("training loss CURVES.", envs) is envs[0]

    def test_near_match_above_threshold(self):
        envs = [_env("Training loss curves over epochs.")]
        # One character off: well above 0.9 similarity.
        got = match_caption_to_environment("Training loss curves over epochs", envs)
        assert got is envs[0]

    def test_no_match(self):
        envs = [_env("Training reward across episodes.")]
        got = match_caption_to_environment(
            "Completely different text about bananas and apples.", envs
        )
        assert isinstance(got, DiscardReason)
        assert got.kind is DiscardKind.NO_ENVIRONMENT_MATCH

    def test_ambiguous(self):
        envs = [_env("Distribution of scores."), _env("Distribution of scores.")]
        got = match_caption_to_environment("Distribution of scores.", envs)
        assert isinstance(got, DiscardReason)
        assert got.kind is DiscardKind.AMBIGUOUS_MATCH

    def test_threshold_boundary_inclusive(self):
        # 10-char target, distance 1 gives similarity exactly 0.9.
        envs = [_env("abcdefghij")]
        assert match_caption_to_environment("abcdefghiX", envs) is envs[0]

    def test_default_threshold_constant(self):
        assert CAPTION_MATCH_THRESHOLD == 0.9

    def test_ambiguous_indices_are_listed_in_environment_order(self):
        # Index 2 has the higher length bound (1.0 against 0.9), so it is scored first.
        envs = [_env("abcdefghi"), _env("x"), _env("abcdefghij")]
        got = match_caption_to_environment("abcdefghij", envs)
        assert got == DiscardReason(
            DiscardKind.AMBIGUOUS_MATCH, "caption matches environments [0, 2] at or above 0.9"
        )
        assert got == match_full_scan("abcdefghij", envs)

    def test_best_similarity_comes_from_every_environment_that_could_hold_it(self):
        # The same-length caption (bound 1.0) scores 0.0; the shorter one
        # (bound 0.8) scores 0.8, and the detail must report 0.8.
        envs = [_env("zzzzzzzzzz"), _env("abcdefgh")]
        got = match_caption_to_environment("abcdefghij", envs)
        assert got == DiscardReason(
            DiscardKind.NO_ENVIRONMENT_MATCH, "best similarity 0.800 below threshold 0.9"
        )
        assert got == match_full_scan("abcdefghij", envs)

    def test_a_hit_whose_bound_is_exactly_the_threshold_is_scored(self):
        # 10 characters against 9 at distance 1: bound and similarity are both 0.9.
        envs = [_env("abcdefghij"), _env("abcdefghi")]
        got = match_caption_to_environment("abcdefghij", envs)
        assert got == DiscardReason(
            DiscardKind.AMBIGUOUS_MATCH, "caption matches environments [0, 1] at or above 0.9"
        )

    @settings(max_examples=400, deadline=None)
    @given(_binding_cases())
    @example(("abcdefghij", []))
    @example(("abcdefghij", ["abcdefghiX"]))
    @example(("abc", ["", "abd", "ABC"]))
    @example(("abcdefghij", ["zzzzzzzzzz", "abcdefghzz", "abcdefghij"]))
    @example(("abcdefghij", ["abcdefghi", "x", "abcdefghij", "abcdefghijk"]))
    def test_result_equals_the_full_scan(self, case):
        target, captions = case
        envs = [
            FigureEnvironment(span=(i, i), caption_raw=c, caption_normalized=c)
            for i, c in enumerate(captions)
        ]
        got = match_caption_to_environment(target, envs)
        want = match_full_scan(target, envs)
        if isinstance(want, FigureEnvironment):
            assert got is want
        else:
            assert got == want


class TestFindCitingParagraphs:
    PARAS = [
        "Setup text with no references.",
        "As shown in \\cref{fig:a}, the value rises.",
        "Details in \\ref{fig:b} and \\autoref{fig:a}.",
        "Multi \\cref{fig:a, fig:c} reference.",
        "Math-only \\eqref{fig:a} mention.",
        "Prefix trap \\ref{fig:ab} should not hit fig:a.",
    ]

    def test_single_label(self):
        hits = find_citing_paragraphs(["fig:a"], self.PARAS)
        assert hits == [self.PARAS[1], self.PARAS[2], self.PARAS[3]]

    def test_eqref_not_a_citation(self):
        assert find_citing_paragraphs(["fig:a"], ["Only \\eqref{fig:a} here."]) == []

    def test_exact_key_no_prefix_match(self):
        assert find_citing_paragraphs(["fig:a"], ["See \\ref{fig:ab}."]) == []
        assert find_citing_paragraphs(["fig:ab"], ["See \\ref{fig:ab}."]) == [
            "See \\ref{fig:ab}."
        ]

    def test_multi_key_with_spaces(self):
        assert find_citing_paragraphs(["fig:c"], self.PARAS) == [self.PARAS[3]]

    def test_label_list_any_match(self):
        hits = find_citing_paragraphs(["fig:b", "fig:c"], self.PARAS)
        assert hits == [self.PARAS[2], self.PARAS[3]]

    def test_skip_indices(self):
        hits = find_citing_paragraphs(["fig:a"], self.PARAS, skip_indices=frozenset({1}))
        assert hits == [self.PARAS[2], self.PARAS[3]]

    def test_paragraph_counted_once_despite_two_refs(self):
        para = "Twice \\ref{fig:a} and \\cref{fig:a}."
        assert find_citing_paragraphs(["fig:a"], [para]) == [para]

    def test_starred_variant(self):
        assert find_citing_paragraphs(["fig:a"], ["See \\cref*{fig:a}."]) == [
            "See \\cref*{fig:a}."
        ]

    def test_capitalised_cref_cites(self):
        # cleveref's \Cref, the form that starts a sentence, binds like \cref.
        para = "\\Cref{fig:a} shows the value rising."
        assert find_citing_paragraphs(["fig:a"], [para]) == [para]


def _paper(source: str, pairs: list[tuple[str, str]]) -> tuple:
    raw = RawPaper("2000.00001", "cs.LG", source, figure_caption_pairs=pairs)
    return clean_paper(raw), raw


class TestBuildFigureContexts:
    SOURCE = (
        "Intro paragraph.\n\n"
        "As shown in \\cref{fig:a}, accuracy rises.\n\n"
        "\\begin{figure}\n\\caption{Accuracy curve.}\n\\label{fig:a}\n\\end{figure}\n\n"
        "Later, \\ref{fig:a} confirms the trend.\n\n"
        "\\begin{figure}\n\\caption{Loss curve.}\n\\label{fig:b}\n\\end{figure}\n\n"
        "The loss in \\ref{fig:b} flattens late.\n"
    )

    def test_basic_binding(self):
        paragraphs, raw = _paper(
            self.SOURCE, [("a.png", "Accuracy curve."), ("b.png", "Loss curve.")]
        )
        found, discards = build_figure_contexts(paragraphs, raw)
        assert discards == []
        assert [c.figure_index for c in found] == [0, 1]
        ctx = found[0]
        assert ctx.label == "fig:a"
        assert ctx.citing_paragraph_count == 2
        assert ctx.context == (
            "As shown in \\cref{fig:a}, accuracy rises."
            "\n\nLater, \\ref{fig:a} confirms the trend."
        )
        assert ctx.figure_image_ref == "a.png"
        assert ctx.caption == "Accuracy curve."

    def test_figure_cited_only_by_capitalised_cref_is_kept(self):
        source = (
            "\\Cref{fig:a} shows accuracy rising.\n\n"
            "\\begin{figure}\n\\caption{Accuracy curve.}\n\\label{fig:a}\n\\end{figure}\n"
        )
        paragraphs, raw = _paper(source, [("a.png", "Accuracy curve.")])
        found, discards = build_figure_contexts(paragraphs, raw)
        assert discards == []
        assert [(c.label, c.context) for c in found] == [
            ("fig:a", "\\Cref{fig:a} shows accuracy rising.")
        ]

    def test_never_cited_discarded(self):
        source = (
            "Discussion that cites nothing relevant.\n\n"
            "\\begin{figure}\n\\caption{Orphan plot.}\n\\label{fig:orphan}\n\\end{figure}\n"
        )
        paragraphs, raw = _paper(source, [("x.png", "Orphan plot.")])
        found, discards = build_figure_contexts(paragraphs, raw)
        assert found == []
        assert len(discards) == 1
        idx, reason = discards[0]
        assert idx == 0
        assert reason.kind is DiscardKind.NO_CITING_PARAGRAPH

    def test_empty_caption_discarded_first(self):
        paragraphs, raw = _paper(self.SOURCE, [("x.png", "   ")])
        _, discards = build_figure_contexts(paragraphs, raw)
        assert discards[0][1].kind is DiscardKind.EMPTY_CAPTION

    def test_no_environment_match(self):
        paragraphs, raw = _paper(self.SOURCE, [("x.png", "Totally unrelated words here.")])
        _, discards = build_figure_contexts(paragraphs, raw)
        assert discards[0][1].kind is DiscardKind.NO_ENVIRONMENT_MATCH

    def test_two_pairs_same_environment_both_ambiguous(self):
        paragraphs, raw = _paper(
            self.SOURCE,
            [("x.png", "Accuracy curve."), ("y.png", "Accuracy curve.")],
        )
        found, discards = build_figure_contexts(paragraphs, raw)
        assert found == []
        kinds = {reason.kind for _, reason in discards}
        assert kinds == {DiscardKind.AMBIGUOUS_MATCH}
        assert [idx for idx, _ in discards] == [0, 1]

    def test_unlabeled_environment(self):
        source = (
            "Cited in \\ref{fig:z} once.\n\n"
            "\\begin{figure}\n\\caption{Unlabeled plot.}\n\\end{figure}\n"
        )
        paragraphs, raw = _paper(source, [("x.png", "Unlabeled plot.")])
        _, discards = build_figure_contexts(paragraphs, raw)
        assert discards[0][1].kind is DiscardKind.NO_LABEL

    def test_environment_paragraph_excluded_from_context(self):
        source = (
            "\\begin{figure}\n\\caption{Self-citing panel; see \\cref{fig:s}.}\n"
            "\\label{fig:s}\n\\end{figure}\n"
        )
        paragraphs, raw = _paper(source, [("x.png", "Self-citing panel; see .")])
        found, discards = build_figure_contexts(paragraphs, raw)
        assert found == []
        assert discards[0][1].kind is DiscardKind.NO_CITING_PARAGRAPH

    def test_environment_split_by_a_blank_line_is_skipped_whole(self):
        # Segmenting cuts the environment into two paragraphs; binding must
        # skip both, so the inner note's citation is not context.
        source = (
            "Intro.\n\n" * 8
            + "As \\cref{fig:s} shows, it rises.\n\n"
            "\\begin{figure}\n\\caption{Split panel.}\n\n"
            "\\label{fig:s} Inner note on \\cref{fig:s}.\n\\end{figure}\n\n"
            "Later, \\cref{fig:s} again.\n"
        )
        paragraphs, raw = _paper(source, [("x.png", "Split panel.")])
        found, discards = build_figure_contexts(paragraphs, raw)
        assert discards == []
        assert found[0].citing_paragraph_count == 2
        assert found[0].context == (
            "As \\cref{fig:s} shows, it rises.\n\nLater, \\cref{fig:s} again."
        )

    def test_outer_label_preferred_over_subfigure(self):
        source = (
            "The decoder in \\cref{fig:sub-b} mirrors the encoder.\n\n"
            "\\begin{figure}\n\\caption{Architecture panels.}\\label{fig:arch}\n"
            "\\begin{subfigure}{.5\\textwidth}\\caption{enc}\\label{fig:sub-a}\\end{subfigure}\n"
            "\\begin{subfigure}{.5\\textwidth}\\caption{dec}\\label{fig:sub-b}\\end{subfigure}\n"
            "\\end{figure}\n"
        )
        paragraphs, raw = _paper(source, [("x.png", "Architecture panels.")])
        found, discards = build_figure_contexts(paragraphs, raw)
        assert discards == []
        ctx = found[0]
        assert ctx.label == "fig:arch"
        assert ctx.citing_paragraph_count == 1
        assert "mirrors the encoder" in ctx.context

    def test_explicit_figure_indices(self):
        paragraphs, raw = _paper(
            self.SOURCE, [("a.png", "Accuracy curve."), ("b.png", "Loss curve.")]
        )
        found, discards = build_figure_contexts(paragraphs, raw, figure_indices=[4, 9])
        assert [c.figure_index for c in found] == [4, 9]

    def test_conservation(self):
        paragraphs, raw = _paper(
            self.SOURCE,
            [
                ("a.png", "Accuracy curve."),
                ("b.png", "Loss curve."),
                ("c.png", "No such caption anywhere."),
                ("d.png", ""),
            ],
        )
        found, discards = build_figure_contexts(paragraphs, raw)
        assert len(found) + len(discards) == 4

    def test_binding_scores_few_of_the_environment_pairs(self, monkeypatch):
        # 40 figures with caption lengths 60, 66, ..., 294. A pair can reach the
        # 0.9 threshold only when its lengths are within 10 % of the longer one;
        # 238 of the 1,600 pairs are, and binding scores exactly those 238. The
        # bound asserted is 320, a fifth of the 1,600 a full scan scores.
        rng = random.Random(7)
        lengths = [60 + 6 * i for i in range(40)]
        captions = [
            "".join(
                " " if 0 < j < n - 1 and j % 7 == 6 else rng.choice(string.ascii_lowercase)
                for j in range(n)
            )
            for n in lengths
        ]
        rng.shuffle(captions)
        source = "\n\n".join(
            f"\\begin{{figure}}\n\\caption{{{c}}}\n\\label{{fig:{i}}}\n\\end{{figure}}"
            f"\n\nFigure \\ref{{fig:{i}}} is discussed here."
            for i, c in enumerate(captions)
        )
        pairs = [(f"{i}.png", c) for i, c in enumerate(captions)]
        paragraphs, raw = _paper(source, pairs[::-1])
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return levenshtein_distance(a, b)

        monkeypatch.setattr(figure_context, "levenshtein_distance", counted)
        found, discards = build_figure_contexts(paragraphs, raw)
        assert discards == []
        assert [c.label for c in found] == [f"fig:{i}" for i in range(39, -1, -1)]
        assert len(calls) <= 320

    def test_multi_key_citation_counts_for_both(self):
        source = (
            "Both \\cref{fig:p,fig:q} are summarized here.\n\n"
            "\\begin{figure}\n\\caption{First panel.}\n\\label{fig:p}\n\\end{figure}\n\n"
            "\\begin{figure}\n\\caption{Second panel.}\n\\label{fig:q}\n\\end{figure}\n"
        )
        paragraphs, raw = _paper(
            source, [("p.png", "First panel."), ("q.png", "Second panel.")]
        )
        found, discards = build_figure_contexts(paragraphs, raw)
        assert discards == []
        assert [c.citing_paragraph_count for c in found] == [1, 1]
        assert found[0].context == found[1].context
