"""Funnel accounting, record schema, taxonomy labels, and sampling."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, fields
from decimal import ROUND_HALF_UP, Decimal

import pytest

from figqa.dataset import (
    FIGURE_TYPES,
    QUESTION_TYPES,
    FunnelStats,
    VerifiedRecord,
    annotate_taxonomy,
    compute_funnel,
    from_row,
    read_dataset,
    row_check,
    stratified_sample,
    write_dataset,
    write_jsonl,
)
from figqa.errors import EndpointUnavailable, InvalidFunnel, SchemaViolation
from figqa.gateway import load_templates

from helpers import StubEndpoint, make_record
from oracles import proportional_allocation_oracle

TEMPLATES = load_templates()

PUBLISHED = dict(
    papers=44_345,
    claims=680_877,
    qa_generated=261_116,
    after_text_filtering=55_372,
    after_vision_filtering=20_351,
)


class TestComputeFunnel:
    def test_published_counts_reproduce_published_percentages(self):
        stats = compute_funnel(**PUBLISHED)
        assert stats.retention == {
            "claims": 100.0,
            "qa_generated": 38.4,
            "after_text_filtering": 8.1,
            "after_vision_filtering": 3.0,
        }

    def test_two_step_rounding_differs_from_single_step(self):
        # 261116/680877 is 38.3499...%: one-step rounding to a single decimal
        # gives 38.3, but rounding to hundredths first (38.35) then tenths
        # gives 38.4, which is what the published table shows.
        exact = Decimal(100 * 261_116) / Decimal(680_877)
        single = exact.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
        assert float(single) == 38.3
        stats = compute_funnel(**PUBLISHED)
        assert stats.retention["qa_generated"] == 38.4

    def test_small_run(self):
        stats = compute_funnel(3, 6, 5, 2, 1)
        assert stats.retention == {
            "claims": 100.0,
            "qa_generated": 83.3,
            "after_text_filtering": 33.3,
            "after_vision_filtering": 16.7,
        }

    def test_zero_downstream_ok(self):
        stats = compute_funnel(1, 4, 0, 0, 0)
        assert stats.retention["qa_generated"] == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(papers=-1),
            dict(claims=0),
            dict(claims=-5),
            dict(qa_generated=-1),
            dict(papers=1.5),
        ],
    )
    def test_invalid_values(self, kwargs):
        args = dict(papers=1, claims=10, qa_generated=5, after_text_filtering=3,
                    after_vision_filtering=1)
        args.update(kwargs)
        with pytest.raises(InvalidFunnel):
            compute_funnel(**args)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(qa_generated=11),  # exceeds claims
            dict(after_text_filtering=6),  # exceeds qa_generated
            dict(after_vision_filtering=4),  # exceeds after_text_filtering
        ],
    )
    def test_non_monotonic_chain(self, kwargs):
        args = dict(papers=1, claims=10, qa_generated=5, after_text_filtering=3,
                    after_vision_filtering=1)
        args.update(kwargs)
        with pytest.raises(InvalidFunnel):
            compute_funnel(**args)

    def test_papers_not_part_of_monotonic_chain(self):
        # Fewer papers than claims is the normal case, and claims never
        # compare against papers.
        stats = compute_funnel(2, 100, 50, 10, 5)
        assert stats.papers == 2

    def test_format_table(self):
        table = compute_funnel(**PUBLISHED).format_table()
        lines = table.splitlines()
        assert lines[0].split() == ["Stage", "Count", "Retention"]
        assert "Papers" in lines[1] and "44,345" in lines[1] and lines[1].rstrip().endswith("-")
        assert "Claims extracted" in lines[2] and "680,877" in lines[2] and "100.0%" in lines[2]
        assert "QA pairs generated" in lines[3] and "261,116" in lines[3] and "38.4%" in lines[3]
        assert "After text-based filtering" in lines[4] and "55,372" in lines[4] and "8.1%" in lines[4]
        assert "After vision-based filtering" in lines[5] and "20,351" in lines[5] and "3.0%" in lines[5]

    def test_to_json_dict_round_trip(self):
        stats = compute_funnel(3, 6, 5, 2, 1)
        data = asdict(stats)
        again = FunnelStats(**data)
        assert again == stats


class TestRecordSerialization:
    def test_write_read_round_trip(self, tmp_path):
        records = [
            make_record(),
            make_record(
                key="2000.00001:f1:c0",
                figure_index=1,
                figure_type="Line Plot",
                question_type="Descriptive",
                provenance={"claim_text": "The figure shows x.", "context_digest": "e" * 64,
                            "verdict_keys": ["a|b"]},
            ),
        ]
        path = tmp_path / "data.jsonl"
        write_dataset(records, path)
        loaded = read_dataset(path)
        assert loaded == records

    def test_unicode_preserved_verbatim(self, tmp_path):
        record = make_record(caption="Années α→β ≤ 20%")
        path = tmp_path / "data.jsonl"
        write_dataset([record], path)
        assert "Années α→β" in path.read_text(encoding="utf-8")
        assert read_dataset(path)[0].caption == "Années α→β ≤ 20%"

    def test_field_order_stable(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset([make_record()], path)
        keys = list(json.loads(path.read_text().splitlines()[0]))
        assert keys == [f.name for f in fields(VerifiedRecord)]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset([make_record()], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_dataset(path)) == 1

    def test_failed_write_leaves_the_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"old": 1}\n', encoding="utf-8")

        def rows():
            yield {"new": 1}
            yield {"new": 2}
            raise RuntimeError("crash mid-write")

        with pytest.raises(RuntimeError):
            write_jsonl(path, rows())
        assert path.read_bytes() == b'{"old": 1}\n'
        assert list(tmp_path.iterdir()) == [path]


def _valid_dict(**overrides):
    data = asdict(make_record(
        figure_type="Line Plot",
        question_type="Descriptive",
        provenance={"claim_text": "t", "context_digest": "d", "verdict_keys": []},
    ))
    data.update(overrides)
    return data


def _write_lines(tmp_path, *dicts):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(json.dumps(d) for d in dicts) + "\n")
    return path


class TestSchemaValidation:
    def test_missing_field(self, tmp_path):
        bad = _valid_dict()
        del bad["question"]
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, bad))
        assert exc.value.field == "question"
        assert exc.value.line == 1

    def test_wrong_type(self, tmp_path):
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, _valid_dict(figure_index="0")))
        assert exc.value.field == "figure_index"

    def test_bool_is_not_int(self, tmp_path):
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, _valid_dict(correct_index=True)))
        assert exc.value.field == "correct_index"

    @pytest.mark.parametrize("field", ["key", "arxiv_id", "caption", "question", "reasoning"])
    def test_required_non_empty(self, tmp_path, field):
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, _valid_dict(**{field: ""})))
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"options": ["a", "", "c", "d"]}, "options"),
            ({"options": ["a", " \n", "c", "d"]}, "options"),
            ({"question": " \t "}, "question"),
            ({"caption": "\n"}, "caption"),
        ],
        ids=["empty-option", "blank-option", "blank-question", "blank-caption"],
    )
    def test_blank_question_parts_are_rejected(self, tmp_path, changes, field):
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, _valid_dict(**changes)))
        assert exc.value.field == field

    def test_primary_category_may_be_empty(self, tmp_path):
        path = _write_lines(tmp_path, _valid_dict(primary_category=""))
        assert read_dataset(path)[0].primary_category == ""

    def test_wrong_option_count(self, tmp_path):
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, _valid_dict(options=["a", "b", "c"])))
        assert exc.value.field == "options"

    def test_non_string_option(self, tmp_path):
        with pytest.raises(SchemaViolation):
            read_dataset(_write_lines(tmp_path, _valid_dict(options=["a", "b", "c", 4])))

    def test_duplicate_options_after_whitespace_normalization(self, tmp_path):
        opts = ["x", "y", "z", "x "]
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, _valid_dict(options=opts)))
        assert exc.value.field == "options"

    @pytest.mark.parametrize("idx", [-1, 4, 12])
    def test_correct_index_range(self, tmp_path, idx):
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, _valid_dict(correct_index=idx)))
        assert exc.value.field == "correct_index"

    def test_unknown_figure_type(self, tmp_path):
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, _valid_dict(figure_type="Sculpture")))
        assert exc.value.field == "figure_type"

    def test_unknown_question_type(self, tmp_path):
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, _valid_dict(question_type="Trivia")))
        assert exc.value.field == "question_type"

    def test_null_labels_allowed(self, tmp_path):
        path = _write_lines(tmp_path, _valid_dict(figure_type=None, question_type=None))
        record = read_dataset(path)[0]
        assert record.figure_type is None
        assert record.question_type is None

    def test_provenance_must_be_object(self, tmp_path):
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, _valid_dict(provenance=[1, 2])))
        assert exc.value.field == "provenance"

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(path)
        assert exc.value.line == 1

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(SchemaViolation):
            read_dataset(path)

    def test_line_number_reported(self, tmp_path):
        good = _valid_dict()
        bad = _valid_dict(correct_index=9)
        with pytest.raises(SchemaViolation) as exc:
            read_dataset(_write_lines(tmp_path, good, bad))
        assert exc.value.line == 2


@dataclass
class _Row:
    name: str
    count: int
    weight: float
    flags: list[bool]
    tags: list[str] | None = None
    meta: dict[str, int] = field(default_factory=dict)


_ROW = dict(name="a", count=1, weight=0.5, flags=[True])


class TestRowCheck:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("count", True),
            ("count", 1.0),
            ("name", None),
            ("weight", "0.5"),
            ("weight", False),
            ("flags", [1]),
            ("flags", "x"),
            ("tags", ["a", 2]),
            ("meta", {"k": "1"}),
        ],
    )
    def test_wrong_type(self, name, value):
        with pytest.raises(SchemaViolation) as exc:
            row_check(_Row)({**_ROW, name: value}, 7)
        assert (exc.value.field, exc.value.line) == (name, 7)

    def test_int_is_a_float_and_none_fills_an_optional(self):
        row_check(_Row)({**_ROW, "weight": 2, "tags": None, "meta": {"k": 1}}, 1)

    def test_field_without_a_default_is_required(self):
        row = dict(_ROW)
        del row["flags"]
        with pytest.raises(SchemaViolation) as exc:
            row_check(_Row)(row, 1)
        assert exc.value.field == "flags"

    def test_defaulted_fields_may_be_absent(self):
        row_check(_Row)(_ROW, 1)
        assert from_row(_Row, _ROW) == _Row("a", 1, 0.5, [True])

    def test_unknown_keys_ignored_unless_closed(self):
        row = {**_ROW, "extra": 1}
        row_check(_Row)(row, 1)
        assert from_row(_Row, row) == from_row(_Row, _ROW)
        with pytest.raises(SchemaViolation) as exc:
            row_check(_Row, closed=True)(row, 1)
        assert exc.value.field == "extra"


class TestVocabularies:
    def test_figure_types(self):
        assert len(FIGURE_TYPES) == 12
        assert len(set(FIGURE_TYPES)) == 12
        for expected in ("Line Plot", "Bar Chart", "Scatter Plot", "Heatmap",
                         "Diagram", "Composite", "Other"):
            assert expected in FIGURE_TYPES

    def test_question_types(self):
        assert set(QUESTION_TYPES) == {
            "Relational", "Comparative", "Descriptive", "Compositional", "Structural",
        }


class TestAnnotateTaxonomy:
    def test_figure_type_uses_vision_with_image(self):
        record = make_record(figure_image_ref="images/f.png")
        ep = StubEndpoint(role="vision", responses=["Line Plot"])
        got = annotate_taxonomy(record, "figure_type", ep, TEMPLATES)
        assert got == "Line Plot"
        prompt, image = ep.calls[0]
        assert image == "images/f.png"
        assert record.caption in prompt

    def test_question_type_uses_text(self):
        record = make_record()
        ep = StubEndpoint(role="text", responses=["Comparative"])
        assert annotate_taxonomy(record, "question_type", ep, TEMPLATES) == "Comparative"
        assert record.question in ep.calls[0][0]

    @pytest.mark.parametrize(
        "response,expected",
        [
            ("Bar Chart", "Bar Chart"),
            ("bar chart", "Bar Chart"),
            ("  Bar  Chart.  ", "Bar Chart"),
            ("<answer>Bar Chart</answer>", "Bar Chart"),
            ("'Bar Chart'", "Bar Chart"),
        ],
    )
    def test_response_normalization(self, response, expected):
        record = make_record()
        ep = StubEndpoint(role="vision", responses=[response])
        assert annotate_taxonomy(record, "figure_type", ep, TEMPLATES) == expected

    def test_off_vocabulary_retries_once_then_none(self):
        record = make_record()
        ep = StubEndpoint(role="vision", responses=["A sketch", "Something else"])
        assert annotate_taxonomy(record, "figure_type", ep, TEMPLATES) is None
        assert len(ep.calls) == 2

    def test_off_vocabulary_then_valid(self):
        record = make_record()
        ep = StubEndpoint(role="vision", responses=["A sketch", "Heatmap"])
        assert annotate_taxonomy(record, "figure_type", ep, TEMPLATES) == "Heatmap"

    def test_first_line_is_the_answer(self):
        # A wrong first line is not rescued by a valid category further down.
        record = make_record()
        ep = StubEndpoint(role="vision", responses=["My pick:\nLine Plot", "Line Plot"])
        assert annotate_taxonomy(record, "figure_type", ep, TEMPLATES) == "Line Plot"
        assert len(ep.calls) == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            annotate_taxonomy(make_record(), "mood", StubEndpoint(), TEMPLATES)

    def test_transport_error_propagates(self):
        ep = StubEndpoint(role="vision", responses=[EndpointUnavailable("down")])
        with pytest.raises(EndpointUnavailable):
            annotate_taxonomy(make_record(), "figure_type", ep, TEMPLATES)


def _labeled_record(i, category, ftype, qtype):
    return make_record(
        key=f"2000.{i:05d}:f0:c0",
        arxiv_id=f"2000.{i:05d}",
        primary_category=category,
        figure_type=ftype,
        question_type=qtype,
    )


class TestStratifiedSample:
    def test_two_strata_proportions(self):
        records = [_labeled_record(i, "cs.LG", "Line Plot", "Descriptive") for i in range(75)]
        records += [_labeled_record(100 + i, "math.NA", "Line Plot", "Descriptive") for i in range(25)]
        sample = stratified_sample(records, 8, ("primary_category",), seed=3)
        by_cat = {}
        for r in sample:
            by_cat[r.primary_category] = by_cat.get(r.primary_category, 0) + 1
        assert by_cat == {"cs.LG": 6, "math.NA": 2}

    def test_largest_remainder_tiebreak(self):
        records = [_labeled_record(i, "cs.LG", "Line Plot", "Descriptive") for i in range(5)]
        records += [_labeled_record(10 + i, "math.NA", "Line Plot", "Descriptive") for i in range(3)]
        records += [_labeled_record(20 + i, "stat.ML", "Line Plot", "Descriptive") for i in range(2)]
        sample = stratified_sample(records, 6, ("primary_category",), seed=0)
        by_cat = {}
        for r in sample:
            by_cat[r.primary_category] = by_cat.get(r.primary_category, 0) + 1
        assert by_cat == {"cs.LG": 3, "math.NA": 2, "stat.ML": 1}

    # (population seed, population size, n): 80 possible strata, so the
    # small populations have strata of size 1; two cases take everything.
    @pytest.mark.parametrize(
        "seed, population, n",
        [(11, 1000, 137), (11, 1000, 1000), (3, 60, 17), (3, 60, 60), (8, 25, 1), (8, 25, 24)],
    )
    def test_three_key_allocation_matches_oracle(self, seed, population, n):
        rng = random.Random(seed)
        cats = ["cs.LG", "cs.CV", "math.NA", "physics.comp-ph"]
        ftypes = ["Line Plot", "Bar Chart", "Scatter Plot", "Heatmap"]
        qtypes = list(QUESTION_TYPES)
        records = [
            _labeled_record(i, rng.choice(cats), rng.choice(ftypes), rng.choice(qtypes))
            for i in range(population)
        ]
        keys = ("primary_category", "figure_type", "question_type")
        sample = stratified_sample(records, n, keys, seed=5)
        assert len(sample) == n

        sizes: dict[tuple, int] = {}
        for r in records:
            k = tuple(getattr(r, a) for a in keys)
            sizes[k] = sizes.get(k, 0) + 1
        assert population > 100 or 1 in sizes.values()
        expected = proportional_allocation_oracle(sizes, n)

        got: dict[tuple, int] = {}
        for r in sample:
            k = tuple(getattr(r, a) for a in keys)
            got[k] = got.get(k, 0) + 1
        assert got == {k: v for k, v in expected.items() if v > 0}

        total = len(records)
        for k, size in sizes.items():
            exact = n * size / total
            assert abs(got.get(k, 0) - exact) <= 1, (k, got.get(k, 0), exact)

    def test_deterministic_for_seed(self):
        rng = random.Random(2)
        records = [
            _labeled_record(i, rng.choice(["a", "b", "c"]), "Line Plot", "Descriptive")
            for i in range(60)
        ]
        s1 = stratified_sample(records, 20, ("primary_category",), seed=9)
        s2 = stratified_sample(records, 20, ("primary_category",), seed=9)
        assert [r.key for r in s1] == [r.key for r in s2]
        s3 = stratified_sample(records, 20, ("primary_category",), seed=10)
        assert [r.key for r in s3] != [r.key for r in s1]

    def test_no_duplicates_and_members_of_population(self):
        records = [_labeled_record(i, "a" if i % 3 else "b", "Line Plot", "Descriptive")
                   for i in range(30)]
        sample = stratified_sample(records, 11, ("primary_category",), seed=1)
        keys = [r.key for r in sample]
        assert len(set(keys)) == len(keys) == 11
        assert set(keys) <= {r.key for r in records}

    def test_n_equals_population_takes_everything(self):
        records = [_labeled_record(i, "a" if i % 2 else "b", "Line Plot", "Descriptive")
                   for i in range(10)]
        sample = stratified_sample(records, 10, ("primary_category",), seed=0)
        assert sorted(r.key for r in sample) == sorted(r.key for r in records)

    def test_n_zero(self):
        records = [_labeled_record(0, "a", "Line Plot", "Descriptive")]
        assert stratified_sample(records, 0, ("primary_category",), seed=0) == []

    def test_overdraw_raises(self):
        records = [_labeled_record(0, "a", "Line Plot", "Descriptive")]
        with pytest.raises(ValueError):
            stratified_sample(records, 2, ("primary_category",), seed=0)

    def test_unlabeled_record_raises(self):
        records = [make_record(figure_type=None)]
        with pytest.raises(ValueError):
            stratified_sample(records, 1, ("figure_type",), seed=0)
