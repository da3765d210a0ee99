"""Tests for stream schema declarations."""

import pytest

from repro.streams import Attribute, SchemaError, StreamSchema


class TestAttribute:
    def test_type_validation(self):
        a = Attribute("x", float)
        assert a.validates(1.5)
        assert not a.validates("nope")

    def test_callable_validation(self):
        a = Attribute("x", lambda v: v > 0)
        assert a.validates(3)
        assert not a.validates(-1)


class TestStreamSchema:
    def test_empty_schema_accepts_anything(self):
        s = StreamSchema("free")
        s.validate({"anything": object()})
        s.validate(None)

    def test_single_attribute_bare_payload(self):
        s = StreamSchema("S1", (Attribute("value", float),))
        s.validate(3.14)
        with pytest.raises(SchemaError):
            s.validate("text")

    def test_multi_attribute_requires_dict(self):
        s = StreamSchema("S", (Attribute("a", float), Attribute("b", int)))
        s.validate({"a": 1.0, "b": 2})
        with pytest.raises(SchemaError):
            s.validate(1.0)

    def test_missing_attribute(self):
        s = StreamSchema("S", (Attribute("a", float), Attribute("b", int)))
        with pytest.raises(SchemaError, match="missing attribute"):
            s.validate({"a": 1.0})

    def test_wrong_attribute_type(self):
        s = StreamSchema("S", (Attribute("a", float), Attribute("b", int)))
        with pytest.raises(SchemaError, match="fails validation"):
            s.validate({"a": 1.0, "b": "x"})

    def test_arity(self):
        assert StreamSchema("S", (Attribute("value", float),)).arity == 1
        assert StreamSchema("S").arity == 0
