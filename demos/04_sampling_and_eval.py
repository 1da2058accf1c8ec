"""Stratified subset selection and zero-shot scoring.

Builds a small labeled dataset in memory, draws a proportional sample,
then scores a scripted model on it and prints the per-category report.

Run with: python3 demos/04_sampling_and_eval.py
"""

from collections import Counter

from figqa.dataset import VerifiedRecord, stratified_sample
from figqa.eval_harness import evaluate, format_report
from figqa.gateway import Endpoint, ModelEndpointConfig, load_templates

STRATA = {
    ("cs.LG", "Line Plot", "Descriptive"): 20,
    ("cs.LG", "Bar Chart", "Comparative"): 12,
    ("math.NA", "Heatmap", "Relational"): 8,
}


def make_record(key, domain, ftype, qtype, correct_index=0):
    return VerifiedRecord(
        key=key,
        arxiv_id=key.split(":")[0],
        primary_category=domain,
        figure_index=0,
        figure_image_ref="images/demo.png",
        caption="A demo figure.",
        question="Which way does the curve go?",
        options=["Up", "Down", "Flat", "In circles"],
        correct_index=correct_index,
        reasoning="The curve climbs from left to right.",
        figure_type=ftype,
        question_type=qtype,
        provenance={},
    )


def scripted_endpoint(responses):
    """A greedy vision endpoint that answers with queued responses in order."""
    queue = list(responses)
    config = ModelEndpointConfig(role="vision", model_name="scripted-eval", temperature=0.0)
    return Endpoint(config, lambda request: queue.pop(0))


def main() -> None:
    records = []
    for (domain, ftype, qtype), size in STRATA.items():
        for i in range(size):
            records.append(make_record(f"{domain}.{i:04d}:f0:c0", domain, ftype, qtype))
    print(f"dataset: {len(records)} records across {len(STRATA)} strata")

    sample = stratified_sample(
        records, 10, ("primary_category", "figure_type", "question_type"), seed=5
    )
    counts = Counter(
        (r.primary_category, r.figure_type, r.question_type) for r in sample
    )
    print("sample of 10, proportional per stratum (expected 5/3/2):")
    for stratum, size in STRATA.items():
        print(f"  {stratum}: {counts[stratum]} of {size}")
    print()

    # Score a scripted model on the sample: first six answers right
    # (option A is always correct here), the rest wrong or unusable.
    answers = ["<option>A</option>"] * 6 + [
        "<option>B</option>",
        "<option>None</option>",
        "no tag at all",
        "<option>D</option>",
    ]
    result = evaluate(scripted_endpoint(answers), sample, load_templates())
    print(format_report(result))


if __name__ == "__main__":
    main()
