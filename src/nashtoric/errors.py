"""Exception types shared across the package."""


class NashToricError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NashToricError, ValueError):
    """Malformed or out-of-contract input (bad matrix, bad parameter)."""


class NotPointedError(NashToricError, ValueError):
    """An operation that requires a pointed cone received one with a line."""


class NotFullRankError(NashToricError, ValueError):
    """An operation that requires full rank received a degenerate input."""


class CapExceeded(NashToricError, RuntimeError):
    """A count exceeded its configured cap, .cap; a subclass names the count in `counted`."""

    def __init__(self, cap: int):
        super().__init__(f"{self.counted} exceeded the cap of {cap}")
        self.cap = cap

    def __reduce__(self):
        # Rebuilt from cap, as when it returns from a worker process; the
        # default would pass the message to __init__ as the cap.
        return type(self), (self.cap,)


class BasisCapExceeded(CapExceeded):
    """The number of linear bases exceeded the configured cap."""

    counted = "number of linear bases"


class SearchCapExceeded(CapExceeded):
    """The canonical search placed more columns than the configured cap."""

    counted = "canonical search nodes"


class StoreError(NashToricError, ValueError):
    """Digraph store violation: bad file, meta mismatch, unknown key."""
