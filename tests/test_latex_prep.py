"""Comment stripping, macro expansion, and paragraph segmentation."""

from __future__ import annotations

import signal
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figqa.errors import RecursionLimitExceeded
from figqa.figure_context import find_figure_environments
from figqa.latex_prep import (
    MACRO_GROWTH_LIMIT,
    OPAQUE_ENVIRONMENTS,
    RawPaper,
    clean_paper,
    environment_spans,
    expand_macros,
    read_brace_group,
    segment_paragraphs,
    strip_bibliography,
    strip_comments,
)

from helpers import nested_distinct_definitions
from oracles import (
    BIB_ENV_RE,
    FIGURE_ENV_RE,
    OPAQUE_ENV_RE,
    SUBFIGURE_ENV_RE,
    OracleLimit,
    expand_macros_oracle,
    figure_labels_oracle,
    spans_oracle,
    strip_bibliography_oracle,
    strip_comment_lines_oracle,
)


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


class TestEnvironmentSpans:
    def test_each_begin_runs_to_the_first_end_of_its_name(self):
        text = "A\\begin{figure}B\\end{table}C\\end{figure}D\\end{figure}"
        assert environment_spans(text, ("figure",)) == [(1, text.index("D"))]

    def test_a_star_on_either_side_matches(self):
        text = "\\begin{figure*}x\\end{figure} \\begin{figure}y\\end{figure*}"
        starts = [text.index("\\begin"), text.index("\\begin", 1)]
        assert [s for s, _ in environment_spans(text, ("figure",))] == starts

    def test_a_begin_inside_an_earlier_span_is_skipped(self):
        text = "\\begin{verbatim}\\begin{lstlisting}\\end{verbatim}X\\end{lstlisting}"
        assert environment_spans(text, OPAQUE_ENVIRONMENTS) == [(0, text.index("X"))]

    def test_an_unclosed_name_leaves_the_other_names_their_spans(self):
        # The second \\begin{verbatim} is never searched: the first found no \\end.
        text = "\\begin{verbatim} \\begin{lstlisting}x\\end{lstlisting} \\begin{verbatim}"
        listing = text.index("\\begin{lstlisting}")
        end = text.index(" ", listing)
        assert environment_spans(text, OPAQUE_ENVIRONMENTS) == [(listing, end)]

    def test_names_take_no_other_suffix(self):
        assert environment_spans("\\begin{figures}\\end{figures}", ("figure",)) == []

    def test_starred_bibliography_is_dropped(self):
        src = "a\\begin{thebibliography*}{9}\\bibitem{x} X.\\end{thebibliography*}b"
        assert strip_bibliography(src) == "ab"

    def test_starred_subfigure_holds_its_labels(self):
        body = (
            "\\begin{figure}\\label{fig:main}"
            "\\begin{subfigure*}\\label{fig:a}\\end{subfigure*}\\end{figure}"
        )
        env = find_figure_environments(body)[0]
        assert env.labels == ["fig:main", "fig:a"]
        assert env.outer_labels == ["fig:main"]


# Short strings of these tokens reach every extent, definition and argument rule.
LATEX_TOKENS = [
    "\\begin{figure}", "\\end{figure}", "\\begin{figure*}", "\\end{figure*}",
    "\\begin{subfigure}", "\\end{subfigure}", "\\begin{thebibliography}",
    "\\end{thebibliography}", "\\begin{verbatim}", "\\end{verbatim}",
    "\\begin{lstlisting}", "\\end{lstlisting}", "\\newcommand", "\\newcommand{\\q}{",
    "\\newcommand\\r[1]{", "\\renewcommand*{\\q}", "\\def\\q{", "\\def\\r#1{", "\\def\\q",
    "#1", "#2", "[1]", "[", "]", "1", "\\q", "\\r", "\\qq", "\\q\\q", "{", "{", "}", "}", "}",
    "\\{", "\\}", "\\\\", "\\label{a}", "\\label{b}", "\\bibliography{refs}", "x", " ", "\n",
]


@given(st.lists(st.sampled_from(LATEX_TOKENS), max_size=30).map("".join))
@settings(max_examples=600, deadline=None)
def test_extents_and_expansion_equal_the_fresh_scan_oracles(text):
    assert environment_spans(text, ("figure",)) == spans_oracle(FIGURE_ENV_RE, text)
    assert environment_spans(text, ("subfigure",)) == spans_oracle(SUBFIGURE_ENV_RE, text)
    assert environment_spans(text, ("thebibliography",)) == spans_oracle(BIB_ENV_RE, text)
    assert environment_spans(text, OPAQUE_ENVIRONMENTS) == spans_oracle(OPAQUE_ENV_RE, text)
    envs = [(env.span, env.labels, env.outer_labels) for env in find_figure_environments(text)]
    assert envs == figure_labels_oracle(text)
    assert strip_bibliography(text) == strip_bibliography_oracle(text)
    try:
        expected = expand_macros_oracle(text)
    except OracleLimit:
        with pytest.raises(RecursionLimitExceeded):
            expand_macros(text)
    else:
        assert expand_macros(text) == expected


@contextmanager
def within(seconds: float):
    """Fail the block with TimeoutError once it has run for seconds of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestLinearTime:
    """Each hostile shape, about 320 KB, finishes within 2 s.

    A scan that restarts at every unclosed construct is quadratic: at this
    size it takes minutes, so the bound tells linear from quadratic with a
    wide margin.
    """

    @pytest.mark.parametrize(
        "text, run",
        [
            ("\\begin{figure}" * 23_000, find_figure_environments),
            ("\\begin{figure}" + "\\begin{subfigure}" * 19_000, find_figure_environments),
            (
                "\\begin{figure}" + "\\begin{subfigure}\\label{a}\\end{subfigure}" * 8_000
                + "\\end{figure}",
                find_figure_environments,
            ),
            ("\\begin{thebibliography}" * 14_000, strip_bibliography),
            ("\\begin{verbatim}" * 20_000, strip_comments),
            ("\\newcommand{\\q}{" * 20_000, expand_macros),
            ("\\def\\q{" * 46_000, expand_macros),
            ("\\newcommand{\\q}{" * 19_000 + "}" * 19_000, expand_macros),
            ("\\newcommand{\\q}[1]{x#1}\n" + "\\q{" * 107_000, expand_macros),
            ("\\newcommand\\q[" * 23_000, expand_macros),
            ("\\def\\q" + " " * 320_000, expand_macros),
        ],
        ids=[
            "unclosed-figures", "unclosed-subfigures", "labels-in-subfigures",
            "unclosed-bibliographies", "unclosed-verbatims", "unclosed-definitions",
            "unclosed-defs", "nested-definitions", "unclosed-arguments",
            "unclosed-arities", "def-then-spaces",
        ],
    )
    def test_hostile_shape_is_linear(self, text, run):
        assert 300_000 <= len(text) <= 350_000
        with within(2.0):
            run(text)

    def test_nested_distinct_definitions_hit_the_growth_limit(self):
        # The bodies add up to about 2.4 G characters; the cap on the winning
        # bodies is checked before any of them is copied.
        text = nested_distinct_definitions(16_000)
        assert 300_000 <= len(text) <= 350_000
        with within(2.0), pytest.raises(RecursionLimitExceeded, match="grew the text"):
            expand_macros(text)

    def test_nested_distinct_definitions_take_memory_linear_in_the_text(self):
        # Copying every body would take about 2,000 bytes per input character here.
        text = nested_distinct_definitions(4_000)
        tracemalloc.start()
        try:
            with pytest.raises(RecursionLimitExceeded):
                expand_macros(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * len(text)

    @pytest.mark.parametrize("body", ["a\\\\", "a\\}b", "{a}\\{", "a\\\\\\}b", "\\\\{a}"])
    def test_reads_after_the_scan_budget_keep_the_escape_rule(self, body):
        # Two unclosed groups scan to the end, which spends a reader's budget, so
        # the \\def's body and the third use's argument are read from brace tables.
        text = "\\newcommand{\\p}{" * 2 + "\\def\\r#1{" + body + "#1}"
        text += "\\r{" * 3 + body + "}"
        assert expand_macros(text) == expand_macros_oracle(text)
        assert "\\def" not in expand_macros(text)

    def test_growth_limit_counts_only_the_winning_body_of_a_name(self):
        # Nested definitions of one name: only the innermost, "x", is kept.
        text = "\\newcommand{\\q}{" * 2_000 + "x" + "}" * 2_000 + "\\q"
        assert expand_macros(text) == "x"

    def test_winning_bodies_past_the_growth_limit_raise(self):
        text = nested_distinct_definitions(2 * MACRO_GROWTH_LIMIT + 4)
        with pytest.raises(RecursionLimitExceeded, match="grew the text"):
            expand_macros(text)
        with pytest.raises(OracleLimit):
            expand_macros_oracle(text)
