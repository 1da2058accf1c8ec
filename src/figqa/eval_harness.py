"""Zero-shot multiple-choice evaluation with per-category breakdowns.

Predictions are parsed with the same fail-closed option parser as the
pipeline: an unparseable answer or an abstention counts as incorrect.
Items whose request still fails after the endpoint's retries are reported
as unevaluated and excluded from every total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP

from .dataset import VerifiedRecord
from .errors import EndpointUnavailable, MalformedResponse
from .gateway import format_options, map_items, parse_option_tag, render_template

UNLABELED = "unlabeled"


def _slot() -> dict:
    return {"correct": 0, "total": 0, "accuracy": 0.0}


@dataclass
class EvalResult:
    """eval_summary.json, as asdict writes it. Every slot is {correct, total, accuracy}."""

    model_name: str
    overall: dict = field(default_factory=_slot)
    by_domain: dict[str, dict] = field(default_factory=dict)
    by_figure_type: dict[str, dict] = field(default_factory=dict)
    by_question_type: dict[str, dict] = field(default_factory=dict)
    per_item: list[dict] = field(default_factory=list)
    unevaluated: int = 0
    unevaluated_keys: list[str] = field(default_factory=list)


def accuracy_pct(correct: int, total: int) -> float:
    """100 x correct / total, half-up at two decimals; 0.0 for empty."""
    if total == 0:
        return 0.0
    value = Decimal(100 * correct) / Decimal(total)
    return float(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def evaluate(
    endpoint, records: list[VerifiedRecord], templates, concurrency: int = 1
) -> EvalResult:
    """Ask the configured model every question on `concurrency` workers; aggregate accuracies."""
    if endpoint.config.temperature != 0:
        raise ValueError("evaluation requires a greedy (temperature 0) endpoint")

    def predict(record: VerifiedRecord) -> str | None:
        prompt = render_template(
            templates["eval_zero_shot"],
            {
                "caption": record.caption,
                "question": record.question,
                "options": format_options(record.options),
            },
        )
        response, _ = endpoint.complete(prompt, record.figure_image_ref)
        try:
            return parse_option_tag(response, len(record.options))
        except MalformedResponse:
            return None  # unparseable counts as wrong

    predictions = map_items(predict, records, concurrency)
    result = EvalResult(model_name=endpoint.config.model_name)
    breakdowns = (result.by_domain, result.by_figure_type, result.by_question_type)

    for record, predicted in zip(records, predictions):
        if isinstance(predicted, EndpointUnavailable):
            result.unevaluated_keys.append(record.key)
            continue
        is_correct = predicted == record.correct_letter
        categories = (record.primary_category, record.figure_type, record.question_type)
        slots = [result.overall] + [
            breakdown.setdefault(category or UNLABELED, _slot())
            for breakdown, category in zip(breakdowns, categories)
        ]
        for slot in slots:
            slot["total"] += 1
            slot["correct"] += int(is_correct)
        result.per_item.append(
            {"key": record.key, "predicted": predicted, "correct": is_correct}
        )

    result.unevaluated = len(result.unevaluated_keys)
    for slot in [result.overall, *(s for b in breakdowns for s in b.values())]:
        slot["accuracy"] = accuracy_pct(slot["correct"], slot["total"])
    return result


def format_report(result: EvalResult) -> str:
    """Category table mirroring the per-category accuracy layout."""
    overall = result.overall
    lines = [
        f"Model: {result.model_name}",
        f"Overall: {overall['correct']}/{overall['total']} = {overall['accuracy']:.2f}%",
        f"Unevaluated: {result.unevaluated}",
    ]
    for title, breakdown in (
        ("By domain", result.by_domain),
        ("By figure type", result.by_figure_type),
        ("By question type", result.by_question_type),
    ):
        lines.append("")
        lines.append(title)
        lines.append(f"  {'Category':<20} {'Correct':>8} {'Total':>8} {'Accuracy':>9}")
        for category in sorted(breakdown):
            slot = breakdown[category]
            lines.append(
                f"  {category:<20} {slot['correct']:>8} {slot['total']:>8} "
                f"{slot['accuracy']:>8.2f}%"
            )
    return "\n".join(lines)
