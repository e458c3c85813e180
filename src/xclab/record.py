"""Frozen value records.

`@record` turns a class whose body annotates its fields into an immutable
value type, as `@dataclass(frozen=True)` would, without importing
`dataclasses` (which pulls in `inspect`, `ast`, `dis` and `tokenize`) or
compiling code per class, so every process that imports xclab starts
faster.  The decorated class gets:

- `__init__` taking the fields in annotation order, by position or by
  keyword; a field assigned in the class body defaults to that value, which
  stays readable as a class attribute and is shared by every instance that
  takes it.  `__post_init__`, when the class defines one, runs once the
  fields are set.
- `==` between instances of the same class with equal field tuples, `hash`
  of the field tuple, and `repr` as `Name(field=value, ...)`.
- `FrozenInstanceError` on assigning or deleting any attribute.

`cls._fields` holds the field names in order.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """An attribute of a record was assigned or deleted."""


# Fields are set through object's own __setattr__, past the record's refusal.
# Writing to the instance __dict__ instead would turn the instance's inline
# attribute values into a dict, and reading a field would get slower.
_set = object.__setattr__


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def record(cls):
    """Make `cls` a frozen record over its annotated fields; see the module
    docstring."""
    names = tuple(vars(cls).get("__annotations__", {}))
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post_init = getattr(cls, "__post_init__", None)
    many = len(names)
    get = attrgetter(*names)
    key = get if many > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if len(args) > many:
            raise TypeError(f"{cls.__name__}() takes {many} arguments but {len(args)} were given")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in defaults:
                _set(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected argument {next(iter(kwargs))!r}")
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{type(self).__qualname__}({body})"

    cls._fields = names
    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls
