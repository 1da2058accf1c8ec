"""Clean raw LaTeX source into a normalized form ready for extraction.

The cleanup chain is: strip comments, expand user macros, drop bibliography
blocks, split into paragraphs. Each step is a pure function over strings so
papers can be processed concurrently without shared state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import RecursionLimitExceeded

PARAGRAPH_SEPARATOR = "\n\n"
MACRO_DEPTH_LIMIT = 32

# Environments whose content must not be touched by comment stripping.
OPAQUE_ENVIRONMENTS = ("verbatim", "lstlisting")

_OPAQUE_RE = re.compile(
    r"\\begin\{(" + "|".join(OPAQUE_ENVIRONMENTS) + r")\*?\}"
    r".*?"
    r"\\end\{\1\*?\}",
    re.DOTALL,
)


@dataclass
class RawPaper:
    """A paper as supplied by the corpus: LaTeX blob plus figure-caption pairs."""

    arxiv_id: str
    primary_category: str
    latex_source: str
    figure_caption_pairs: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class CleanPaper:
    """Comment-free, macro-expanded, bibliography-free paragraphs of one paper."""

    arxiv_id: str
    paragraphs: list[str]

    @property
    def body(self) -> str:
        """The paragraphs joined, so segmenting the body gives them back exactly.

        Downstream span arithmetic relies on that round trip.
        """
        return PARAGRAPH_SEPARATOR.join(self.paragraphs)


def _opaque_spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in _OPAQUE_RE.finditer(text)]


def _strip_comment_lines(chunk: str) -> str:
    """Truncate each line at its first unescaped '%' (the '%' goes too)."""
    out_lines = []
    for line in chunk.split("\n"):
        cut = None
        for i, ch in enumerate(line):
            if ch != "%":
                continue
            backslashes = 0
            j = i - 1
            while j >= 0 and line[j] == "\\":
                backslashes += 1
                j -= 1
            # Odd run of backslashes means the '%' itself is escaped.
            if backslashes % 2 == 0:
                cut = i
                break
        out_lines.append(line if cut is None else line[:cut])
    return "\n".join(out_lines)


def strip_comments(latex: str) -> str:
    """Remove '%'-to-end-of-line comments, keeping newlines and verbatim spans."""
    pieces = []
    pos = 0
    for start, end in _opaque_spans(latex):
        pieces.append(_strip_comment_lines(latex[pos:start]))
        pieces.append(latex[start:end])
        pos = end
    pieces.append(_strip_comment_lines(latex[pos:]))
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


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t\n":
        pos += 1
    return pos


_NEWCOMMAND_RE = re.compile(r"\\(?:re)?newcommand\*?")
_DEF_RE = re.compile(r"\\def\b")
_CONTROL_WORD_RE = re.compile(r"\\([A-Za-z@]+)")


@dataclass
class _MacroDef:
    name: str
    nargs: int
    body: str


def _parse_definitions(text: str) -> tuple[str, dict[str, _MacroDef]]:
    """Collect \\newcommand/\\renewcommand/\\def definitions and cut them out.

    Unsupported forms (optional-default arguments, delimited \\def parameters)
    are left in place and flow through as literal text.
    """
    table: dict[str, _MacroDef] = {}
    remove: list[tuple[int, int]] = []

    for m in _NEWCOMMAND_RE.finditer(text):
        pos = _skip_ws(text, m.end())
        name = None
        if pos < len(text) and text[pos] == "{":
            group = read_brace_group(text, pos)
            if group is None:
                continue
            inner, pos2 = group
            inner = inner.strip()
            if re.fullmatch(r"\\[A-Za-z@]+", inner):
                name = inner[1:]
                pos = pos2
        else:
            cw = _CONTROL_WORD_RE.match(text, pos)
            if cw:
                name = cw.group(1)
                pos = cw.end()
        if name is None:
            continue
        pos = _skip_ws(text, pos)
        nargs = 0
        if pos < len(text) and text[pos] == "[":
            close = text.find("]", pos)
            if close == -1:
                continue
            spec = text[pos + 1 : close].strip()
            if not spec.isdigit():
                continue
            nargs = int(spec)
            pos = _skip_ws(text, close + 1)
            if pos < len(text) and text[pos] == "[":
                # Optional-default parameter: out of scope, leave untouched.
                continue
        group = read_brace_group(text, pos)
        if group is None:
            continue
        body, end = group
        table[name] = _MacroDef(name, nargs, body)
        remove.append((m.start(), end))

    for m in _DEF_RE.finditer(text):
        pos = m.end()
        cw = _CONTROL_WORD_RE.match(text, pos)
        if not cw:
            continue
        name = cw.group(1)
        pos = cw.end()
        brace = text.find("{", pos)
        if brace == -1:
            continue
        params = text[pos:brace].strip()
        if not re.fullmatch(r"(#\d)*", params):
            continue
        digits = re.findall(r"#(\d)", params)
        if [int(d) for d in digits] != list(range(1, len(digits) + 1)):
            continue
        group = read_brace_group(text, brace)
        if group is None:
            continue
        body, end = group
        table[name] = _MacroDef(name, len(digits), body)
        remove.append((m.start(), end))

    if not remove:
        return text, table
    remove.sort()
    pieces = []
    pos = 0
    for start, end in remove:
        if start < pos:
            continue
        pieces.append(text[pos:start])
        pos = end
    pieces.append(text[pos:])
    return "".join(pieces), table


def _substitute_once(text: str, table: dict[str, _MacroDef]) -> tuple[str, int]:
    """One substitution pass, left to right; bodies are not rescanned in-pass."""
    out = []
    pos = 0
    count = 0
    while True:
        m = _CONTROL_WORD_RE.search(text, pos)
        if m is None:
            out.append(text[pos:])
            break
        name = m.group(1)
        macro = table.get(name)
        if macro is None:
            out.append(text[pos : m.end()])
            pos = m.end()
            continue
        args = []
        argpos = m.end()
        ok = True
        for _ in range(macro.nargs):
            next_pos = _skip_ws(text, argpos)
            group = read_brace_group(text, next_pos)
            if group is None:
                ok = False
                break
            value, argpos = group
            args.append(value)
        if not ok:
            out.append(text[pos : m.end()])
            pos = m.end()
            continue
        body = macro.body
        for i, value in enumerate(args, 1):
            body = body.replace(f"#{i}", value)
        out.append(text[pos : m.start()])
        out.append(body)
        pos = argpos
        count += 1
    return "".join(out), count


def expand_macros(latex: str) -> str:
    """Substitute user-defined macros, removing their definition statements.

    Expansion runs in passes; a pass substitutes every known macro occurrence
    once without rescanning substituted bodies, so nesting depth equals pass
    count. Exceeding MACRO_DEPTH_LIMIT passes means a self-referential macro.
    """
    text, table = _parse_definitions(latex)
    if not table:
        return text
    for _ in range(MACRO_DEPTH_LIMIT):
        text, count = _substitute_once(text, table)
        if count == 0:
            return text
    _, count = _substitute_once(text, table)
    if count:
        raise RecursionLimitExceeded(
            f"macro expansion did not terminate within {MACRO_DEPTH_LIMIT} passes"
        )
    return text


_BIB_ENV_RE = re.compile(
    r"\\begin\{thebibliography\}.*?\\end\{thebibliography\}", re.DOTALL
)
_BIB_CMD_RE = re.compile(r"\\(?:bibliography\{[^{}]*\}|printbibliography\b)")


def strip_bibliography(latex: str) -> str:
    """Drop thebibliography environments and \\bibliography commands."""
    text = _BIB_ENV_RE.sub("", latex)
    return _BIB_CMD_RE.sub("", text)


def segment_paragraphs(body: str) -> list[str]:
    """Split on PARAGRAPH_SEPARATOR, trim each chunk, drop empties."""
    chunks = [c.strip() for c in body.split(PARAGRAPH_SEPARATOR)]
    return [c for c in chunks if c]


def clean_paper(raw: RawPaper) -> CleanPaper:
    """Run the full cleanup chain on one paper.

    Raises RecursionLimitExceeded for self-referential macros; the caller
    skips the paper with a logged reason.
    """
    text = strip_comments(raw.latex_source)
    text = expand_macros(text)
    text = strip_bibliography(text)
    return CleanPaper(arxiv_id=raw.arxiv_id, paragraphs=segment_paragraphs(text))
