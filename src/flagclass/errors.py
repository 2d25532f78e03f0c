"""Exception types raised across the package, and the base of its value classes."""
from __future__ import annotations

from operator import attrgetter


class FlagclassError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidLieTypeError(FlagclassError, ValueError):
    """Family letter or rank outside the classification."""


class InvalidInputError(FlagclassError, ValueError):
    """A precondition on an argument failed."""


class DimensionMismatchError(InvalidInputError):
    """Vector length does not match the rank in play."""


class RootArgumentError(InvalidInputError):
    """An argument was expected to be a (suitable) root and is not."""


class ProjectsToZeroError(RootArgumentError):
    """Restriction to the center of the isotropy vanishes."""


class CartanBracketError(RootArgumentError):
    """Bracket lands in the Cartan subalgebra, not on a root vector."""


class NotAFlagManifoldError(InvalidInputError):
    """Theta covering every node, none painted, leaves no flag manifold."""


class NotConnectedError(FlagclassError):
    """No chain or bridge exists between the requested endpoints."""


class NotInSubgroupError(InvalidInputError):
    """Weyl element does not stabilize the unpainted subsystem R_Theta."""


class CapExceededError(FlagclassError):
    """An enumeration would exceed its configured cap."""


class InvariantViolationError(FlagclassError, AssertionError):
    """Two routes that must agree disagreed; this is a bug, not bad input."""


class _Frozen:
    """Base of the package's immutable value classes.

    The fields are the names annotated in the class body, in order, and a
    value given in the class body is that field's default.  Instances refuse
    assignment and deletion, print as `Name(field=value, ...)`, and copy and
    pickle by calling the constructor on their fields.  They compare equal
    when they share a class and equal fields, and hash as the field tuple; a
    class stated with `eq=False` compares by identity.  A subclass that
    annotates no field keeps its parent's.  A class that checks its input or
    has __slots__ writes its own __init__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True):
        super().__init_subclass__()
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ())) or cls._fields
        # the field tuple; attrgetter gives a bare value for a single name
        get, single = attrgetter(*cls._fields), len(cls._fields) == 1
        cls._values = lambda self: (get(self),) if single else get(self)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call that gives keywords or leaves defaults."""
        cls, names = type(self), self._fields
        if len(args) > len(names) or kwargs.keys() - set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() takes {names}, got {args!r} and {kwargs!r}")
        values = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        values.update(zip(names, args), **kwargs)
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments {missing}")
        return [values[name] for name in names]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
