"""The pieces genbound's records share.

A record that only holds values is a `typing.NamedTuple`. A record that
validates, normalizes or caches is a plain class: its written `__init__`
checks the inputs and stores the fields with `set_fields`, `immutable` is
its `__setattr__` and `__delattr__`, and `_fields` names the fields its
`repr` shows and, where it compares or hashes by value, its `==` and hash
read. Neither form generates and compiles methods when its module is
imported, as a code-generating class decorator from the standard library
would (one `exec` per method), so a CLI process starts sooner.
"""


def immutable(record, name, *value):
    """`__setattr__` and `__delattr__` of a record: its fields never change."""
    raise AttributeError(f"{type(record).__name__}.{name} is read-only")


def set_fields(record, **values):
    """Store each field of a record under construction."""
    for name, value in values.items():
        object.__setattr__(record, name, value)


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def record_repr(record) -> str:
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    return f"{type(record).__name__}({shown})"


def record_eq(record, other):
    if other.__class__ is not record.__class__:
        return NotImplemented
    return _values(record) == _values(other)


def record_hash(record) -> int:
    return hash(_values(record))
