"""Unit tests for the record / imputed-record / instance model (Defs 1 and 4)."""

import pytest

from repro.core.tuples import (
    ImputedRecord,
    Instance,
    Record,
    Schema,
    SchemaError,
)


class TestSchema:
    def test_basic_properties(self):
        schema = Schema(attributes=("a", "b", "c"))
        assert len(schema) == 3
        assert schema.dimensionality == 3
        assert list(schema) == ["a", "b", "c"]
        assert "a" in schema
        assert "z" not in schema

    def test_index(self):
        schema = Schema(attributes=("a", "b"))
        assert schema.index("b") == 1

    def test_index_unknown_attribute(self):
        schema = Schema(attributes=("a",))
        with pytest.raises(SchemaError):
            schema.index("missing")

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema(attributes=())

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Schema(attributes=("a", "a"))


class TestRecord:
    schema = Schema(attributes=("x", "y"))

    def test_getitem_and_get(self):
        record = Record(rid="r1", values={"x": "hello", "y": None})
        assert record["x"] == "hello"
        assert record["y"] is None
        assert record.get("y", "default") == "default"

    def test_is_missing(self):
        record = Record(rid="r1", values={"x": "hello", "y": None})
        assert not record.is_missing("x")
        assert record.is_missing("y")
        assert record.is_missing("unknown")

    def test_missing_attributes_in_schema_order(self):
        record = Record(rid="r1", values={"x": None, "y": None})
        assert record.missing_attributes(self.schema) == ["x", "y"]

    def test_is_complete(self):
        complete = Record(rid="r1", values={"x": "a", "y": "b"})
        incomplete = Record(rid="r2", values={"x": "a", "y": None})
        assert complete.is_complete(self.schema)
        assert not incomplete.is_complete(self.schema)

    def test_tokens_of_missing_attribute_empty(self):
        record = Record(rid="r1", values={"x": "a b", "y": None})
        assert record.tokens("y") == frozenset()
        assert record.tokens("x") == {"a", "b"}

    def test_all_tokens(self):
        record = Record(rid="r1", values={"x": "a b", "y": "b c"})
        assert record.all_tokens(self.schema) == {"a", "b", "c"}

    def test_with_value_returns_new_record(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        updated = record.with_value("y", "filled")
        assert updated["y"] == "filled"
        assert record["y"] is None
        assert updated.rid == record.rid

    def test_identity_is_rid_and_source(self):
        left = Record(rid="r1", values={"x": "a"}, source="s1")
        right = Record(rid="r1", values={"x": "completely different"}, source="s1")
        other = Record(rid="r1", values={"x": "a"}, source="s2")
        assert left == right
        assert left != other
        assert hash(left) == hash(right)


class TestInstance:
    def test_probability_validation(self):
        record = Record(rid="r1", values={"x": "a"})
        with pytest.raises(ValueError):
            Instance(record=record, probability=1.5)
        with pytest.raises(ValueError):
            Instance(record=record, probability=-0.1)

    def test_tokens_delegate(self):
        record = Record(rid="r1", values={"x": "a b"})
        instance = Instance(record=record, probability=0.5)
        assert instance.tokens("x") == {"a", "b"}


class TestImputedRecord:
    schema = Schema(attributes=("x", "y"))

    def test_trivial_complete_record(self):
        record = Record(rid="r1", values={"x": "a", "y": "b"})
        imputed = ImputedRecord.from_complete(record, self.schema)
        assert not imputed.candidates
        instances = imputed.instances()
        assert len(instances) == 1
        assert instances[0].probability == 1.0
        assert sum(i.probability for i in instances) == pytest.approx(1.0)

    def test_single_missing_attribute_instances(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        imputed = ImputedRecord(base=record, schema=self.schema,
                                candidates={"y": {"b": 0.5, "c": 0.5}})
        instances = imputed.instances()
        assert len(instances) == 2
        values = {instance.record["y"] for instance in instances}
        assert values == {"b", "c"}
        assert sum(i.probability for i in instances) == pytest.approx(1.0)

    def test_multiple_missing_attributes_cross_product(self):
        record = Record(rid="r1", values={"x": None, "y": None})
        imputed = ImputedRecord(
            base=record, schema=self.schema,
            candidates={"x": {"a": 0.5, "b": 0.5}, "y": {"c": 0.4, "d": 0.6}})
        instances = imputed.instances()
        assert len(instances) == 4
        assert sum(i.probability for i in instances) == pytest.approx(1.0)
        probabilities = sorted(instance.probability for instance in instances)
        assert probabilities == pytest.approx([0.2, 0.2, 0.3, 0.3])

    def test_probabilities_may_sum_below_one(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        imputed = ImputedRecord(base=record, schema=self.schema,
                                candidates={"y": {"b": 0.4, "c": 0.3}})
        assert sum(instance.probability
                   for instance in imputed.instances()) == pytest.approx(0.7)

    def test_probabilities_above_one_rejected(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        with pytest.raises(ValueError):
            ImputedRecord(base=record, schema=self.schema,
                          candidates={"y": {"b": 0.8, "c": 0.4}})

    def test_empty_candidate_distribution_rejected(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        with pytest.raises(ValueError):
            ImputedRecord(base=record, schema=self.schema, candidates={"y": {}})

    def test_unknown_candidate_attribute_rejected(self):
        record = Record(rid="r1", values={"x": "a", "y": "b"})
        with pytest.raises(SchemaError):
            ImputedRecord(base=record, schema=self.schema,
                          candidates={"z": {"v": 1.0}})

    def test_possible_values_for_observed_attribute(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        imputed = ImputedRecord(base=record, schema=self.schema,
                                candidates={"y": {"b": 1.0}})
        assert imputed.possible_values("x") == {"a": 1.0}
        assert imputed.possible_values("y") == {"b": 1.0}

    def test_possible_values_unimputed_missing(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        imputed = ImputedRecord(base=record, schema=self.schema, candidates={})
        assert imputed.possible_values("y") == {"": 1.0}

    def test_token_size_bounds(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        imputed = ImputedRecord(base=record, schema=self.schema,
                                candidates={"y": {"one two": 0.5, "three": 0.5}})
        assert imputed.token_size_bounds("y") == (1, 2)
        assert imputed.token_size_bounds("x") == (1, 1)

    def test_may_contain_keyword_on_candidates(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        imputed = ImputedRecord(base=record, schema=self.schema,
                                candidates={"y": {"diabetes risk": 0.2,
                                                  "flu": 0.8}})
        assert imputed.may_contain_keyword(["diabetes"])
        assert not imputed.may_contain_keyword(["allergy"])
        assert not imputed.may_contain_keyword([])

    def test_expected_instance_is_most_probable(self):
        record = Record(rid="r1", values={"x": "a", "y": None})
        imputed = ImputedRecord(base=record, schema=self.schema,
                                candidates={"y": {"b": 0.7, "c": 0.3}})
        assert imputed.instances()[0].record["y"] == "b"

    def test_instance_cap_keeps_most_probable(self):
        record = Record(rid="r1", values={"x": None, "y": None})
        many = {f"value{i}": 1.0 / 40 for i in range(40)}
        imputed = ImputedRecord(base=record, schema=self.schema,
                                candidates={"x": dict(many), "y": dict(many)})
        instances = imputed.instances()
        assert len(instances) == ImputedRecord.MAX_INSTANCES
        assert sum(i.probability for i in instances) <= 1.0 + 1e-9
