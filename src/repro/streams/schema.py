"""Lightweight stream schema declarations.

The paper does not enforce a schema type — streams may carry single-valued,
set-valued, user-defined or binary attributes (Section 2).  The classes here
give examples and user code a way to declare and validate what a stream
carries without constraining the join machinery, which only ever touches the
join attribute through a predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


class SchemaError(ValueError):
    """Raised when a tuple payload does not conform to its declared schema."""


@dataclass(frozen=True, slots=True)
class Attribute:
    """A named, typed attribute of a stream schema.

    Attributes:
        name: Attribute name.
        kind: A python type or a predicate ``value -> bool``.  A type means
            ``isinstance`` validation; a callable is applied directly.
    """

    name: str
    kind: type | Callable[[Any], bool] = float

    def validates(self, value: Any) -> bool:
        """Return True if ``value`` conforms to this attribute."""
        if isinstance(self.kind, type):
            return isinstance(value, self.kind)
        return bool(self.kind(value))


@dataclass(frozen=True)
class StreamSchema:
    """Schema of one input stream: a name plus attribute declarations.

    When a schema declares a single attribute, tuple payloads are the bare
    attribute value; with multiple attributes, payloads are dicts keyed by
    attribute name.
    """

    name: str
    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    @property
    def arity(self) -> int:
        """Number of declared attributes."""
        return len(self.attributes)

    def validate(self, payload: Any) -> None:
        """Raise :class:`SchemaError` unless ``payload`` conforms.

        A schema with no attributes accepts anything (free-form payloads,
        the paper's default stance).
        """
        if not self.attributes:
            return
        if self.arity == 1:
            attr = self.attributes[0]
            if not attr.validates(payload):
                raise SchemaError(
                    f"stream {self.name!r}: payload {payload!r} does not "
                    f"conform to attribute {attr.name!r}"
                )
            return
        if not isinstance(payload, dict):
            raise SchemaError(
                f"stream {self.name!r}: multi-attribute payload must be a "
                f"dict, got {type(payload).__name__}"
            )
        for attr in self.attributes:
            if attr.name not in payload:
                raise SchemaError(
                    f"stream {self.name!r}: missing attribute {attr.name!r}"
                )
            if not attr.validates(payload[attr.name]):
                raise SchemaError(
                    f"stream {self.name!r}: attribute {attr.name!r} value "
                    f"{payload[attr.name]!r} fails validation"
                )
