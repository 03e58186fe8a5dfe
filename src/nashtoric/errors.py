"""Exception types shared across the package."""


class NashToricError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NashToricError, ValueError):
    """Malformed or out-of-contract input (bad matrix, bad parameter)."""


class NotPointedError(NashToricError, ValueError):
    """An operation that requires a pointed cone received one with a line."""


class NotFullRankError(NashToricError, ValueError):
    """An operation that requires full rank received a degenerate input."""


class BasisCapExceeded(NashToricError, RuntimeError):
    """The number of linear bases exceeded the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"number of linear bases exceeded the cap of {cap}")
        self.cap = cap

    def __reduce__(self):
        # Rebuilt from cap, as when it returns from a worker process; the
        # default would pass the message to __init__ as the cap.
        return type(self), (self.cap,)


class SearchCapExceeded(NashToricError, RuntimeError):
    """The canonical search placed more columns than the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"canonical search nodes exceeded the cap of {cap}")
        self.cap = cap

    def __reduce__(self):
        # Rebuilt from cap, as when it returns from a worker process; the
        # default would pass the message to __init__ as the cap.
        return type(self), (self.cap,)


class StoreError(NashToricError, ValueError):
    """Digraph store violation: bad file, meta mismatch, unknown key."""
