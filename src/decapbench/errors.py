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


# id(schema) -> (schema, validator). The schemas are module constants; the
# entry holds the schema too, so its id cannot be reused while cached.
_VALIDATORS: dict = {}


def check_schema(doc, schema: dict, what: str) -> None:
    """Raise ContractViolation unless doc matches the JSON schema (draft
    2020-12). The schema itself is checked and compiled once per process;
    the message is that of jsonschema.validate."""
    import jsonschema
    entry = _VALIDATORS.get(id(schema))
    if entry is None:
        jsonschema.Draft202012Validator.check_schema(schema)
        entry = (schema, jsonschema.Draft202012Validator(schema))
        _VALIDATORS[id(schema)] = entry
    error = jsonschema.exceptions.best_match(entry[1].iter_errors(doc))
    if error is not None:
        raise ContractViolation(f"bad {what}: {error.message}") from error
