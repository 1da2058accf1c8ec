"""Comment stripping, macro expansion, and paragraph segmentation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figqa.errors import RecursionLimitExceeded
from figqa.latex_prep import (
    RawPaper,
    clean_paper,
    expand_macros,
    read_brace_group,
    segment_paragraphs,
    strip_bibliography,
    strip_comments,
)

from oracles import strip_comment_lines_oracle


class TestStripComments:
    def test_basic_comment_removed(self):
        assert strip_comments("keep % drop this\nnext") == "keep \nnext"

    def test_full_line_comment_leaves_empty_line(self):
        assert strip_comments("% gone\ntext") == "\ntext"

    def test_escaped_percent_survives(self):
        assert strip_comments(r"a 20\% gain") == r"a 20\% gain"

    def test_escaped_percent_then_real_comment(self):
        assert strip_comments(r"a 20\% gain % note") == r"a 20\% gain "

    def test_double_backslash_before_percent_is_comment(self):
        # \\% is a line break followed by a comment: the backslash run has
        # even length, so the % is unescaped.
        assert strip_comments("x\\\\% tail") == "x\\\\"

    def test_triple_backslash_percent_is_escaped(self):
        assert strip_comments("x\\\\\\% tail") == "x\\\\\\% tail"

    def test_verbatim_span_untouched(self):
        src = "a % out\n\\begin{verbatim}\nkeep % literally\n\\end{verbatim}\nb % out"
        out = strip_comments(src)
        assert "keep % literally" in out
        assert "out" not in out

    def test_lstlisting_span_untouched(self):
        src = "\\begin{lstlisting}\nx = 1 % not a comment\n\\end{lstlisting}"
        assert strip_comments(src) == src

    def test_newline_count_preserved(self):
        src = "a % x\nb % y\n% z\nc"
        assert strip_comments(src).count("\n") == src.count("\n")

    @given(st.text(alphabet="ab% \\\n", max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_line_preserving(self, src):
        once = strip_comments(src)
        assert strip_comments(once) == once
        assert once.count("\n") == src.count("\n")

    @given(st.text(alphabet="ab% \\\n", max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_oracle(self, src):
        assert strip_comments(src) == strip_comment_lines_oracle(src)


class TestReadBraceGroup:
    def test_simple(self):
        assert read_brace_group("{abc} rest", 0) == ("abc", 5)

    def test_nested(self):
        text = "{a{b{c}}d}"
        assert read_brace_group(text, 0) == ("a{b{c}}d", len(text))

    def test_escaped_braces_do_not_count(self):
        assert read_brace_group(r"{a\}b}", 0) == (r"a\}b", 6)

    def test_not_at_brace(self):
        assert read_brace_group("abc", 0) is None

    def test_unbalanced(self):
        assert read_brace_group("{abc", 0) is None

    def test_offset_start(self):
        assert read_brace_group("xx{y}", 2) == ("y", 5)


class TestExpandMacros:
    def test_braced_newcommand(self):
        src = "\\newcommand{\\sys}{FastDB}\n\\sys{} is quick."
        assert expand_macros(src).strip() == "FastDB{} is quick."

    def test_bare_newcommand_name(self):
        src = "\\newcommand\\sys{FastDB}\n\\sys."
        assert expand_macros(src).strip() == "FastDB."

    def test_renewcommand_overrides(self):
        src = "\\newcommand{\\x}{one}\n\\renewcommand{\\x}{two}\n\\x"
        assert expand_macros(src).strip() == "two"

    def test_positional_arguments(self):
        src = "\\newcommand{\\pct}[2]{#1 of #2 percent}\n\\pct{30}{100}"
        assert expand_macros(src).strip() == "30 of 100 percent"

    def test_def_form(self):
        src = "\\def\\solver{Newton iteration}\nthe \\solver{} pipeline"
        assert expand_macros(src).strip() == "the Newton iteration{} pipeline"

    def test_def_with_parameters(self):
        src = "\\def\\wrap#1{[#1]}\n\\wrap{x}"
        assert expand_macros(src).strip() == "[x]"

    def test_nested_bodies_expand(self):
        src = "\\newcommand{\\a}{A}\n\\newcommand{\\b}{\\a + \\a}\n\\b"
        assert expand_macros(src).strip() == "A + A"

    def test_longer_name_is_not_prefix_captured(self):
        src = "\\newcommand{\\ab}{SHORT}\n\\abc and \\ab"
        out = expand_macros(src)
        assert "\\abc" in out
        assert out.strip().endswith("SHORT")

    def test_optional_default_left_literal(self):
        src = "\\newcommand{\\opt}[2][x]{#1#2}\n\\opt{y}"
        out = expand_macros(src)
        assert "\\newcommand{\\opt}[2][x]{#1#2}" in out
        assert "\\opt{y}" in out

    def test_non_decimal_arity_left_literal(self):
        src = "\\newcommand{\\f}[²]{x}\\f"
        assert expand_macros(src) == src

    @pytest.mark.parametrize(
        "src, expected",
        [
            ("\\def\\a\\def\\b{B}\\b", "\\def\\aB"),
            ("\\newcommand\\x\\newcommand{\\y}{Y}\\y", "\\newcommand\\xY"),
            ("\\newcommand{\\p}{P}\\newcommand{\\pp}{Q}\\pp\\p\\ppx", "QP\\ppx"),
        ],
        ids=["def-inside-def-head", "newcommand-inside-newcommand-head", "name-is-a-prefix"],
    )
    def test_definition_heads_that_overlap(self, src, expected):
        assert expand_macros(src) == expected

    def test_missing_argument_left_literal(self):
        src = "\\newcommand{\\two}[2]{#1#2}\n\\two{only}"
        assert "\\two{only}" in expand_macros(src)

    def test_definitions_removed_from_output(self):
        out = expand_macros("\\newcommand{\\sys}{FastDB}\nbody")
        assert "newcommand" not in out

    def test_self_recursion_raises(self):
        with pytest.raises(RecursionLimitExceeded):
            expand_macros("\\def\\loop{\\loop}\n\\loop")

    def test_mutual_recursion_raises(self):
        src = "\\newcommand{\\p}{\\q}\n\\newcommand{\\q}{\\p}\n\\p"
        with pytest.raises(RecursionLimitExceeded):
            expand_macros(src)

    def test_finite_growth_past_the_limit_raises(self):
        # Each of four levels multiplies the text by eight: the expansion
        # ends, but far past MACRO_GROWTH_LIMIT times the input.
        names = ["ma", "mb", "mc", "md", "me"]
        src = "\\def\\me{x}"
        for outer, inner in zip(names, names[1:]):
            src += "\\def\\" + outer + "{" + ("\\" + inner + " ") * 8 + "}"
        src += "\\ma"
        with pytest.raises(RecursionLimitExceeded):
            expand_macros(src)

    def test_deep_but_finite_nesting_ok(self):
        parts = ["\\newcommand{\\mZ}{base}"]
        prev = "mZ"
        for i in range(10):
            name = f"m{chr(65 + i)}"
            parts.append(f"\\newcommand{{\\{name}}}{{\\{prev}}}")
            prev = name
        parts.append(f"\\{prev}")
        assert expand_macros("\n".join(parts)).strip() == "base"

    @pytest.mark.parametrize("env", ["verbatim", "lstlisting"])
    def test_verbatim_spans_hold_no_definition_or_use(self, env):
        listing = f"\\begin{{{env}}}\n\\sys --help  \\def\\x{{y}}\n\\end{{{env}}}"
        src = "\\newcommand{\\sys}{FastDB}\n" + listing + " \\x \\sys"
        assert expand_macros(src) == "\n" + listing + " \\x FastDB"

    def test_no_definitions_is_identity(self):
        assert expand_macros("plain text \\ref{fig:x}") == "plain text \\ref{fig:x}"


class TestStripBibliography:
    def test_env_removed(self):
        src = "before\n\\begin{thebibliography}{9}\n\\bibitem{a} A.\n\\end{thebibliography}\nafter"
        out = strip_bibliography(src)
        assert "bibitem" not in out
        assert "before" in out and "after" in out

    def test_bibliography_command_removed(self):
        assert strip_bibliography("x \\bibliography{refs} y") == "x  y"

    def test_printbibliography_removed(self):
        assert strip_bibliography("x \\printbibliography y") == "x  y"

    def test_word_boundary_respected(self):
        assert "\\printbibliographyextra" in strip_bibliography("\\printbibliographyextra")


class TestSegmentParagraphs:
    def test_basic_split(self):
        assert segment_paragraphs("a\n\nb\n\nc") == ["a", "b", "c"]

    def test_extra_blank_lines_collapse(self):
        assert segment_paragraphs("a\n\n\n\nb") == ["a", "b"]

    def test_whitespace_only_chunks_dropped(self):
        assert segment_paragraphs("a\n\n   \n\nb") == ["a", "b"]

    def test_leading_trailing_trimmed(self):
        assert segment_paragraphs("\n\n  a  \n\n") == ["a"]

    def test_empty_input(self):
        assert segment_paragraphs("") == []

    @given(st.lists(st.text(alphabet="xy z", min_size=1).map(str.strip).filter(bool), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_join_then_segment_round_trip(self, paras):
        body = "\n\n".join(paras)
        assert segment_paragraphs(body) == paras


class TestCleanupChain:
    def test_full_chain(self):
        raw = RawPaper(
            arxiv_id="2000.00001",
            primary_category="cs.LG",
            latex_source=(
                "% header\n\\newcommand{\\sys}{FastDB}\n\n"
                "\\sys{} is fast. % aside\n\n"
                "\\begin{thebibliography}{9}\n\\bibitem{a} A.\n\\end{thebibliography}\n"
            ),
        )
        assert clean_paper(raw) == ["FastDB{} is fast."]

    def test_joined_paragraphs_segment_back_exactly(self):
        raw = RawPaper("x", "cs.LG", "a\n\n\nb\n\nc % z\n")
        paragraphs = clean_paper(raw)
        assert segment_paragraphs("\n\n".join(paragraphs)) == paragraphs

    def test_recursive_macro_propagates(self):
        raw = RawPaper("x", "cs.LG", "\\def\\loop{\\loop}\n\\loop")
        with pytest.raises(RecursionLimitExceeded):
            clean_paper(raw)
