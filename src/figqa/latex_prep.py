"""Clean raw LaTeX source into a normalized form ready for extraction.

The cleanup chain is: strip comments, expand user macros, drop bibliography
blocks, split into paragraphs. Each step is a pure function over strings so
papers can be processed concurrently without shared state.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field

from .errors import RecursionLimitExceeded

PARAGRAPH_SEPARATOR = "\n\n"
MACRO_DEPTH_LIMIT = 32
# Expansion that grows the text past this multiple of its length is runaway.
MACRO_GROWTH_LIMIT = 16
_GROWTH_MESSAGE = f"macro expansion grew the text past {MACRO_GROWTH_LIMIT} times its length"

# Environments whose content comment stripping and macro expansion leave alone.
OPAQUE_ENVIRONMENTS = ("verbatim", "lstlisting")


@dataclass
class RawPaper:
    """A paper as supplied by the corpus: LaTeX blob plus figure-caption pairs."""

    arxiv_id: str
    primary_category: str
    latex_source: str
    figure_caption_pairs: list[tuple[str, str]] = field(default_factory=list)


def environment_spans(text: str, names: tuple[str, ...]) -> list[tuple[int, int]]:
    """Each \\begin{name} to the first \\end{name} after it, in one scan of text.

    Every name takes an optional '*', at its begin and its end alike. A begin
    inside an earlier span is skipped, and a name with no \\end after one
    begin has none after later ones, so each name is searched to the end at
    most once: the time is linear in text.
    """
    spans: list[tuple[int, int]] = []
    unclosed = set()
    for m in re.finditer(r"\\begin\{(" + "|".join(map(re.escape, names)) + r")\*?\}", text):
        if m[1] in unclosed or (spans and m.start() < spans[-1][1]):
            continue
        end = re.compile(r"\\end\{" + re.escape(m[1]) + r"\*?\}").search(text, m.end())
        if end is None:
            unclosed.add(m[1])
        else:
            spans.append((m.start(), end.end()))
    return spans


def in_spans(spans: list[tuple[int, int]], pos: int) -> bool:
    """Whether pos lies inside one of spans (sorted and disjoint)."""
    i = bisect.bisect_right(spans, pos, key=lambda span: span[0])
    return i > 0 and pos < spans[i - 1][1]


def _split_at(text: str, spans: list[tuple[int, int]]) -> list[str]:
    """text cut at sorted spans, [outside, span, ..., outside]; overlapped spans are skipped."""
    pieces, pos = [], 0
    for start, end in spans:
        if start >= pos:
            pieces += (text[pos:start], text[start:end])
            pos = end
    pieces.append(text[pos:])
    return pieces


# A '%' after an even run of backslashes (possibly empty), to the end of the
# line. An odd run escapes the '%'. The substitution keeps the run.
_COMMENT_RE = re.compile(r"(?<!\\)((?:\\\\)*)%.*")


def _strip_comment_lines(chunk: str) -> str:
    """Truncate each line at its first unescaped '%' (the '%' goes too)."""
    return "\n".join(
        _COMMENT_RE.sub(r"\1", line) if "%" in line else line for line in chunk.split("\n")
    )


def strip_comments(latex: str) -> str:
    """Remove '%'-to-end-of-line comments, keeping newlines and verbatim spans."""
    pieces = _split_at(latex, environment_spans(latex, OPAQUE_ENVIRONMENTS))
    pieces[::2] = [_strip_comment_lines(piece) for piece in pieces[::2]]
    return "".join(pieces)


def read_brace_group(text: str, pos: int) -> tuple[str, int] | None:
    """Read one balanced {...} group starting at pos; returns (content, end)."""
    if pos >= len(text) or text[pos] != "{":
        return None
    depth = 0
    i = pos
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            i += 2
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[pos + 1 : i], i + 1
        i += 1
    return None


# What read_brace_group counts, read from the start of a text: an escaped backslash
# or brace (skipped), or a brace. A backslash before any other char escapes no brace.
_BRACE_TOKEN_RE = re.compile(r"\\[\\{}]|[{}]")


class _BraceReader:
    """read_brace_group's end over one text, in time linear in the text over all reads.

    Reads scan directly until their scans total len(text) characters; then one
    pass pairs every brace on a stack, reading escapes from the start of the
    text. The two agree, because no read position follows a backslash.
    """

    def __init__(self, text: str):
        self.text, self.budget, self.ends = text, len(text), None

    def end(self, pos: int) -> int | None:
        if self.ends is None and self.budget > 0:
            group = read_brace_group(self.text, pos)
            if group or self.text.startswith("{", pos):
                self.budget -= (group[1] if group else len(self.text)) - pos
            return group and group[1]
        if self.ends is None:
            self.ends, opens = {}, []
            for m in _BRACE_TOKEN_RE.finditer(self.text):
                if m[0] == "{":
                    opens.append(m.start())
                elif m[0] == "}" and opens:
                    self.ends[opens.pop()] = m.end()
        return self.ends.get(pos)


_SPACES_RE = re.compile(r"[ \t\n]*")  # what may stand between a use and its arguments


# Definition heads. Only the command itself is consumed: the name, arity or
# parameter text and the body's opening brace sit in a lookahead, so a head
# that starts inside another definition's text is still found. The body must
# follow the arity, so an optional default ([n][x]) leaves no match. An arity
# holds only what could be decimal, and no two quantifiers share a character,
# so each head is matched in time linear in the text it reads.
_NAME = r"\\(?P<name>[A-Za-z@]+)"
_NEWCOMMAND_RE = re.compile(
    r"\\(?:re)?newcommand\*?(?=[ \t\n]*(?P<brace>\{\s*)?" + _NAME + r"(?(brace)\s*\})"
    r"[ \t\n]*(?:\[(?P<arity>[\s\d]*)\][ \t\n]*)?(?P<body>\{))"
)
_DEF_RE = re.compile(r"\\def(?=" + _NAME + r"\s*(?:(?P<params>(?:#\d)+)\s*)?(?P<body>\{))")


def _newcommand_arity(m: re.Match) -> int | None:
    spec = "0" if m["arity"] is None else m["arity"].strip()
    return int(spec) if spec.isdecimal() else None


def _def_arity(m: re.Match) -> int | None:
    digits = [int(d) for d in (m["params"] or "")[1::2]]  # params is "#1#2..."
    return len(digits) if digits == list(range(1, len(digits) + 1)) else None


# Every \newcommand is read before any \def, so a \def wins a name both define.
_DEFINITION_HEADS = ((_NEWCOMMAND_RE, _newcommand_arity), (_DEF_RE, _def_arity))


@dataclass
class _MacroDef:
    nargs: int
    body: str


def _parse_definitions(text: str, limit: int) -> tuple[str, dict[str, _MacroDef]]:
    """Collect \\newcommand/\\renewcommand/\\def definitions and cut them out.

    A definition inside a verbatim or lstlisting span is text, not a definition.
    Only the last definition of a name has its body copied; raises
    RecursionLimitExceeded when those bodies add up to more than limit
    characters, which only nested definitions can do.

    Unsupported forms (optional-default arguments, delimited \\def parameters,
    non-decimal arities) are left in place and flow through as literal text.
    """
    found: dict[str, tuple[int, int, int]] = {}  # name -> (nargs, body start, body end)
    remove: list[tuple[int, int]] = []
    opaque = environment_spans(text, OPAQUE_ENVIRONMENTS)
    braces = _BraceReader(text)
    for head, arity in _DEFINITION_HEADS:
        for m in head.finditer(text):
            if in_spans(opaque, m.start()):
                continue
            nargs = arity(m)
            end = None if nargs is None else braces.end(m.start("body"))
            if end is None:
                continue
            found[m["name"]] = (nargs, m.start("body"), end)
            remove.append((m.start(), end))
    if sum(end - start - 2 for _, start, end in found.values()) > limit:
        raise RecursionLimitExceeded(_GROWTH_MESSAGE)
    table = {name: _MacroDef(n, text[i + 1 : end - 1]) for name, (n, i, end) in found.items()}
    return "".join(_split_at(text, sorted(remove))[::2]), table


def _substitute_once(
    text: str, table: dict[str, _MacroDef], uses: re.Pattern, limit: int
) -> tuple[str, int]:
    """One substitution pass, left to right; bodies are not rescanned in-pass.

    uses matches the control words named in table and nothing else. A use
    inside a verbatim or lstlisting span stays. Raises RecursionLimitExceeded
    as soon as the output passes limit characters, so a runaway pass never
    builds its whole text.
    """
    out = []
    pos = count = size = 0
    opaque = environment_spans(text, OPAQUE_ENVIRONMENTS)
    braces = _BraceReader(text)
    for m in uses.finditer(text):
        start = m.start()
        if start < pos or (opaque and in_spans(opaque, start)):
            continue  # inside the arguments of the previous substitution, or opaque
        macro = table[m[1]]
        body = macro.body
        argpos = m.end()
        for i in range(1, macro.nargs + 1):
            start_arg = _SPACES_RE.match(text, argpos).end()
            argpos = braces.end(start_arg)
            if argpos is None:
                break  # too few arguments: the use stays literal
            value = text[start_arg + 1 : argpos - 1]
            if body.count(f"#{i}") * len(value) > limit:
                raise RecursionLimitExceeded(_GROWTH_MESSAGE)
            body = body.replace(f"#{i}", value)
        else:
            out += (text[pos:start], body)
            size += start - pos + len(body)
            pos = argpos
            count += 1
            if size > limit:
                break
    size += len(text) - pos
    if size > limit:
        raise RecursionLimitExceeded(_GROWTH_MESSAGE)
    out.append(text[pos:])
    return "".join(out), count


def expand_macros(latex: str) -> str:
    """Substitute user-defined macros, removing their definition statements.

    Expansion runs in passes; a pass substitutes every known macro occurrence
    once without rescanning substituted bodies, so nesting depth equals pass
    count. Definitions and uses inside verbatim/lstlisting spans are left as
    they are. More than MACRO_DEPTH_LIMIT passes, or text grown past
    MACRO_GROWTH_LIMIT times the input's length, is taken for a
    self-referential macro.
    """
    limit = MACRO_GROWTH_LIMIT * len(latex)
    text, table = _parse_definitions(latex, limit)
    if not table:
        return text
    uses = re.compile(r"\\(" + "|".join(table) + r")(?![A-Za-z@])")
    for _ in range(MACRO_DEPTH_LIMIT + 1):
        text, count = _substitute_once(text, table, uses, limit)
        if count == 0:
            return text
    raise RecursionLimitExceeded(
        f"macro expansion did not terminate within {MACRO_DEPTH_LIMIT} passes"
    )


_BIB_CMD_RE = re.compile(r"\\(?:bibliography\{[^{}]*\}|printbibliography\b)")


def strip_bibliography(latex: str) -> str:
    """Drop thebibliography environments and \\bibliography commands."""
    text = "".join(_split_at(latex, environment_spans(latex, ("thebibliography",)))[::2])
    return _BIB_CMD_RE.sub("", text)


def segment_paragraphs(body: str) -> list[str]:
    """Split on PARAGRAPH_SEPARATOR, trim each chunk, drop empties.

    Joining the result with PARAGRAPH_SEPARATOR and segmenting again gives
    it back exactly; figure binding's span arithmetic relies on that.
    """
    chunks = [c.strip() for c in body.split(PARAGRAPH_SEPARATOR)]
    return [c for c in chunks if c]


def clean_paper(raw: RawPaper) -> list[str]:
    """Run the full cleanup chain on one paper and return its paragraphs.

    Raises RecursionLimitExceeded for self-referential macros; the caller
    skips the paper with a logged reason.
    """
    text = strip_comments(raw.latex_source)
    text = expand_macros(text)
    text = strip_bibliography(text)
    return segment_paragraphs(text)
