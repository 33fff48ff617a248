"""Immutable records whose methods are closures, not generated source.

``@frozen`` reads a class's annotated fields and defaults.  ``__init__``
binds positional and keyword arguments, fills in defaults, then calls
``__post_init__`` (which may set fields with ``object.__setattr__``);
``==``, ``hash`` and ``repr`` go by the field tuple; assignment and
deletion raise ``AttributeError``.  Defining a record compiles nothing.
"""


def frozen(cls: type) -> type:
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __init__(self, *args, **kwargs) -> None:
        label = type(self).__qualname__
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args) :]):
            raise TypeError(f"{label}() takes the fields {', '.join(names)} once each")
        state = {**defaults, **dict(zip(names, args)), **kwargs}
        missing = [name for name in names if name not in state]
        if missing:
            raise TypeError(f"{label}() missing arguments: {', '.join(missing)}")
        self.__dict__.update({name: state[name] for name in names})
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
