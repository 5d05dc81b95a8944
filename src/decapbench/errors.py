"""Shared exception types, mapped to CLI exit codes, and the schema check
that turns a malformed input file into a ContractViolation."""


class ContractViolation(ValueError):
    """A caller broke a documented precondition. CLI exit code 2."""


class NumericFailure(RuntimeError):
    """A numerical routine failed (singular/ill-conditioned system,
    non-finite loss). CLI exit code 3."""

    def __init__(self, message, frequency_index=None):
        super().__init__(message)
        self.frequency_index = frequency_index


def check_schema(doc, schema: dict, what: str) -> None:
    """Raise ContractViolation unless doc matches the JSON schema."""
    import jsonschema
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise ContractViolation(f"bad {what}: {exc.message}") from exc
