"""Exception types shared across the package, and the diagnostics dicts
that validation reports."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class SolverFailureError(RuntimeError):
    """Iterative solve did not reach the requested tolerance.

    Carries the relative-residual history so callers can diagnose
    stagnation vs. slow convergence.
    """

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class ConfigError(ValueError):
    """A run configuration failed schema validation."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.get("message", str(d)) for d in self.diagnostics))


def diagnostics_of(checks):
    """The diagnostics dicts of the (violated, field, message) checks."""
    return [{"field": field, "message": message}
            for violated, field, message in checks if violated]


def refusal(field, call, *args, context=""):
    """The diagnostics of `call(*args)`: none when it returns, else its
    InvalidArgumentError's message, after `context`, at `field`."""
    try:
        call(*args)
    except InvalidArgumentError as exc:
        return [{"field": field, "message": f"{context}{exc}"}]
    return []


def raise_diagnostics(diags):
    """Raise the diagnostics dicts, if any, as one InvalidArgumentError."""
    if diags:
        raise InvalidArgumentError("; ".join(d["message"] for d in diags))
