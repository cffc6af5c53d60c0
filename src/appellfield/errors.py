"""Exception hierarchy shared by all appellfield modules."""

import functools


class AppellFieldError(Exception):
    """Base class for errors raised by this package."""


class DomainError(AppellFieldError, ValueError):
    """Arguments outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation requested at (or too close to) a genuine singularity:
    poles, singular elliptic characteristics, charged surfaces, edge circles,
    coincident points."""


class ConvergenceError(AppellFieldError, ArithmeticError):
    """A series or adaptive scheme exhausted its term/subdivision budget, or
    a step of a computation left the float range (typed_float_errors)."""


def typed_float_errors(fn):
    """fn, raising ConvergenceError where it raised OverflowError or
    ZeroDivisionError: a float power that overflows, or a divisor that
    underflowed to 0, at arguments whose value, or a step on its way to it,
    lies beyond the float range."""
    def typed(*args):
        try:
            return fn(*args)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ConvergenceError(f"{fn.__name__}: a step leaves the float range") from exc
    return functools.update_wrapper(typed, fn)
