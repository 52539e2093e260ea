"""Exception types shared across the package.

Each class is typed by where the bad input came from, not by what is wrong
with it: config text and CLI values, checkpoint bytes, a non-finite value, or
a call outside a function's documented preconditions, shapes included. The
CLI exits 2 on all but ``NumericError``, which exits 3.
"""


class ContractError(ValueError):
    """A call outside its documented preconditions, wrong shapes included."""


class NumericError(RuntimeError):
    """A non-finite value (NaN/Inf) showed up during computation."""


class ConfigError(ValueError):
    """Config text or a CLI value is malformed or violates an invariant."""


class CheckpointError(ValueError):
    """Checkpoint file bytes are malformed, truncated or inconsistent."""
