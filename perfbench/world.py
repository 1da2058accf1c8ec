"""The synthetic world shared by the corpus generator, the fake model and the checks.

Every function here is pure. The corpus generator writes facts of one fixed
shape into the LaTeX; the fake endpoint answers every prompt the pipeline
sends by parsing those facts back out of it; the output check recomputes the
correct option of a retained question the same way the fake did.

A fact reads "We observe that the <metric> of <method> <trend>." The method
name carries the claim's fate, the filter it is scripted to fail or "R" for
retained, as its suffix letter (``Kestrel-S12`` fails SourceConsistency).
The trend is a function of (method, metric), which is what lets the fake
and the check recompute the correct answer from the question alone.
"""

from __future__ import annotations

import hashlib
import math
import re
from statistics import NormalDist

METRICS = (
    "accuracy",
    "validation loss",
    "throughput",
    "recall",
    "latency",
    "F1 score",
    "perplexity",
    "error rate",
    "memory use",
    "energy cost",
    "training time",
    "calibration error",
)
TRENDS = (
    "rises steadily",
    "falls steadily",
    "stays flat",
    "peaks and then declines",
    "dips and then recovers",
    "saturates early",
    "oscillates around its mean",
    "grows exponentially",
)
STEMS = (
    "Kestrel",
    "Osprey",
    "Heron",
    "Falcon",
    "Plover",
    "Ibis",
    "Tern",
    "Egret",
    "Merlin",
    "Harrier",
    "Avocet",
    "Curlew",
)

# Claim fates: the suffix letter of a method name and what the fake does.
FATES = {
    "D": "qa_generate answers None (declined)",
    "M": "qa_generate answers malformed twice (declined after one repeat)",
    "S": "fails SourceConsistency",
    "T": "fails VisualDependenceText",
    "V": "fails VisualDependenceVision",
    "C": "fails VisionConsistency",
    "R": "retained",
}

METHOD = rf"[A-Z][a-z]+-[{''.join(FATES)}]\d+"
_FACT_RE = re.compile(rf"We observe that the (.+?) of ({METHOD}) (.+?)\.")
_CLAIM_RE = re.compile(rf"^The figure shows that the (.+?) of ({METHOD}) (.+)\.$")
_QUESTION_RE = re.compile(rf"^According to the figure, how does the (.+?) of ({METHOD}) behave\?$")


def digest_int(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def fate_of(method: str) -> str:
    return method.split("-", 1)[1][0]


def trend_of(method: str, metric: str) -> str:
    return TRENDS[digest_int(f"trend|{method}|{metric}") % len(TRENDS)]


def fact_sentence(metric: str, method: str) -> str:
    return f"We observe that the {metric} of {method} {trend_of(method, metric)}."


def question_for(metric: str, method: str) -> str:
    return f"According to the figure, how does the {metric} of {method} behave?"


def parse_question(question: str) -> tuple[str, str] | None:
    """(metric, method) of a question this world generated, else None."""
    m = _QUESTION_RE.match(question.strip())
    return (m.group(1), m.group(2)) if m else None


def correct_option(question: str) -> str | None:
    """The option text the fake designated as correct for this question."""
    parsed = parse_question(question)
    if parsed is None:
        return None
    metric, method = parsed
    return f"It {trend_of(method, metric)}"


def distractors(question: str) -> list[str]:
    correct = correct_option(question)
    others = [f"It {t}" for t in TRENDS if f"It {t}" != correct]
    others.sort(key=lambda o: digest_int(f"distractor|{question}|{o}"))
    return others[:3]


# ---------------------------------------------------------------------------
# Fake model answers


def _section(prompt: str, head: str) -> str:
    """Text after a 'Head:' line up to the next blank line."""
    start = prompt.find(f"\n{head}:\n")
    if start < 0:
        return ""
    start += len(head) + 3
    end = prompt.find("\n\n", start)
    return prompt[start:] if end < 0 else prompt[start:end]


def _options(prompt: str) -> dict[str, str]:
    opts = {}
    for line in _section(prompt, "Options").splitlines():
        if len(line) > 3 and line[1:3] == ". ":
            opts[line[0]] = line[3:]
    return opts


def _letters(prompt: str) -> tuple[str | None, str | None, str | None]:
    """(correct letter, first wrong letter, fate) for an answer prompt."""
    question = _section(prompt, "Question")
    parsed = parse_question(question)
    correct = correct_option(question)
    opts = _options(prompt)
    right = next((k for k, v in opts.items() if v == correct), None)
    wrong = next((k for k, v in opts.items() if v != correct), None)
    return right, wrong, fate_of(parsed[1]) if parsed else None


def _category(prompt: str, tag: str) -> str:
    """A category offered by a taxonomy prompt, or an off-vocabulary answer."""
    h = digest_int(f"{tag}|{prompt}")
    if h % 10 == 0:
        return "Something else entirely"
    offered = prompt.split("\n\n", 2)[1].split(", ")
    return offered[(h // 10) % len(offered)].strip()


def answer(model: str, prompt: str) -> str | None:
    """The fake model's reply to one chat request, None if the prompt is unknown."""
    vision = model.endswith("-vision")
    if "Extract every factual statement" in prompt:
        facts = _FACT_RE.findall(prompt)
        if not facts:
            return "None"
        lines = [f"The figure shows that the {m} of {meth} {t}." for m, meth, t in facts]
        return "<Patterns>\n" + "\n".join(lines) + "\n</Patterns>"
    if "Convert the claim into one multiple-choice question" in prompt:
        m = _CLAIM_RE.match(_section(prompt, "Claim about the figure").strip())
        if m is None:
            return "None"
        metric, method = m.group(1), m.group(2)
        fate = fate_of(method)
        if fate == "D":
            return "None"
        question = question_for(metric, method)
        wrongs = distractors(question)
        if fate == "M":
            wrongs = wrongs[:1]
        body = [f"<Question>{question}</Question>", f"<Correct>{correct_option(question)}</Correct>"]
        body += [f"<Distractor>{w}</Distractor>" for w in wrongs]
        return "<QA>\n" + "\n".join(body) + "\n</QA>"
    if "using only the source paragraphs" in prompt:
        right, _, fate = _letters(prompt)
        return "<option>None</option>" if fate == "S" else f"<option>{right}</option>"
    if "using only the figure caption" in prompt:
        right, _, fate = _letters(prompt)
        leaks = fate == ("V" if vision else "T")
        return f"<option>{right}</option>" if leaks else "<option>None</option>"
    if "Explain your reasoning step by step" in prompt:
        right, wrong, fate = _letters(prompt)
        pick = wrong if fate == "C" else right
        return (
            "The plotted curve is read against the question's quantity, and its shape "
            f"matches option {pick}.\n<option>{pick}</option>"
        )
    if "Look at the attached figure and answer the question" in prompt:
        right, wrong, _ = _letters(prompt)
        pick = right if digest_int(f"eval|{prompt}") % 10 < 7 else wrong
        return f"<option>{pick}</option>"
    if "Classify the attached scientific figure" in prompt:
        return _category(prompt, "figure")
    if "Classify the question" in prompt:
        return _category(prompt, "question")
    return None


# ---------------------------------------------------------------------------
# Injected latency

SIGMA = 0.2  # log-normal shape of the injected latency, the same for every workload


def injected_latency_s(
    model: str,
    temperature: float,
    prompt: str,
    image_sha: str,
    text_ms: float,
    vision_ms: float,
) -> float:
    """Log-normal latency keyed by the request's digest, capped at eight medians."""
    median = (vision_ms if model.endswith("-vision") else text_ms) / 1000.0
    if median <= 0:
        return 0.0
    h = digest_int("\x1f".join(("latency", model, f"{temperature:g}", image_sha, prompt)))
    z = NormalDist().inv_cdf((h + 0.5) / 2**64)
    return min(median * math.exp(SIGMA * z), 8 * median)
