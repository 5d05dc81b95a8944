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


# JSON Schema's type names under draft 2020-12: a bool is neither an
# integer nor a number, and a float with an integral value is an integer.
_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: (not isinstance(v, bool)
                         and isinstance(v, (int, float))),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


def _is_type_arg(arg) -> bool:
    names = [arg] if isinstance(arg, str) else arg
    return (isinstance(names, list) and len(names) > 0
            and all(isinstance(n, str) and n in _TYPES for n in names)
            and len(set(names)) == len(names))


# keyword -> test of its value. Subschemas are checked on their own.
_KEYWORD_ARGS = {
    "$schema": lambda a: isinstance(a, str),  # an annotation
    "type": _is_type_arg,
    "properties": lambda a: isinstance(a, dict),
    "required": lambda a: (isinstance(a, list)
                           and all(isinstance(n, str) for n in a)
                           and len(set(a)) == len(a)),
    "additionalProperties": lambda a: a is False,
    "prefixItems": lambda a: isinstance(a, list) and len(a) > 0,
    "items": lambda a: a is False or isinstance(a, dict),
    "minItems": lambda a: _TYPES["integer"](a) and a >= 0,
    "minimum": lambda a: _TYPES["number"](a),
    "const": lambda a: not isinstance(a, (list, dict)),
}


def _check_keywords(schema: dict) -> None:
    """Raise ValueError unless schema and all its subschemas use only the
    keywords in _KEYWORD_ARGS, each with a well-formed value."""
    stack = [("#", schema)]
    while stack:
        where, sub = stack.pop()
        if not isinstance(sub, dict):
            raise ValueError(f"schema {where} is not an object")
        for key, arg in sub.items():
            if key not in _KEYWORD_ARGS:
                raise ValueError(f"schema {where}: unknown keyword {key!r}")
            if not _KEYWORD_ARGS[key](arg):
                raise ValueError(f"schema {where}: bad {key!r}: {arg!r}")
        stack += [(f"{where}/properties/{k}", s)
                  for k, s in sub.get("properties", {}).items()]
        stack += [(f"{where}/prefixItems/{i}", s)
                  for i, s in enumerate(sub.get("prefixItems", []))]
        if isinstance(sub.get("items"), dict):
            stack.append((f"{where}/items", sub["items"]))


def _errors(doc, schema: dict, path: tuple, out: list) -> None:
    """Append (path, message) for every keyword doc fails, in the order of
    the schema's keys; nested failures come where their keyword stands."""
    for key, arg in schema.items():
        if key == "type":
            names = [arg] if isinstance(arg, str) else arg
            if not any(_TYPES[n](doc) for n in names):
                out.append((path, f"{doc!r} is not of type "
                                  + ", ".join(map(repr, names))))
        elif key == "const":  # true is not 1, but 1 is 1.0
            if doc != arg or isinstance(doc, bool) != isinstance(arg, bool):
                out.append((path, f"{arg!r} was expected"))
        elif key == "minimum":
            if _TYPES["number"](doc) and doc < arg:
                out.append((path, f"{doc!r} is less than the minimum of "
                                  f"{arg!r}"))
        elif isinstance(doc, dict):
            if key == "properties":
                for name, sub in arg.items():
                    if name in doc:
                        _errors(doc[name], sub, path + (name,), out)
            elif key == "required":
                out += [(path, f"{name!r} is a required property")
                        for name in arg if name not in doc]
            elif key == "additionalProperties":
                known = schema.get("properties", {})
                extras = sorted(n for n in doc if n not in known)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    out.append((path, "Additional properties are not allowed "
                                      f"({', '.join(map(repr, extras))} "
                                      f"{verb} unexpected)"))
        elif isinstance(doc, list):
            if key == "prefixItems":
                for i, (item, sub) in enumerate(zip(doc, arg)):
                    _errors(item, sub, path + (i,), out)
            elif key == "items":
                start = len(schema.get("prefixItems", ()))
                extra = len(doc) - start
                if arg is False and extra > 0:
                    rest = doc[start:] if extra != 1 else doc[start]
                    noun = "items" if start != 1 else "item"
                    out.append((path, f"Expected at most {start} {noun} but "
                                      f"found {extra} extra: {rest!r}"))
                elif arg is not False:
                    for i in range(start, len(doc)):
                        _errors(doc[i], arg, path + (i,), out)
            elif key == "minItems" and len(doc) < arg:
                out.append((path, f"{doc!r} " + ("should be non-empty"
                                                 if arg == 1 else
                                                 "is too short")))


# id(schema) -> schema, once _check_keywords has passed it. The schemas are
# module constants; the entry holds the schema, so its id cannot be reused.
_CHECKED: dict = {}


def check_schema(doc, schema: dict, what: str) -> None:
    """Raise ContractViolation unless doc matches the JSON schema (draft
    2020-12). The schema may use only the keywords `$schema` (ignored),
    `type` (a name or a list), `properties`, `required`,
    `additionalProperties: false`, `prefixItems`, `items` (a schema or
    false), `minItems`, `minimum` and `const` (a scalar). That is checked
    once per process, on first use: any other keyword or a malformed value
    raises ValueError. For these keywords the message equals the one
    jsonschema.exceptions.best_match picks: among the failures highest in
    the document, the one whose path sorts last, and of those the first
    in schema-key order."""
    if id(schema) not in _CHECKED:
        _check_keywords(schema)
        _CHECKED[id(schema)] = schema
    out = []
    _errors(doc, schema, (), out)
    if out:
        _, message = max(out, key=lambda e: (-len(e[0]), e[0]))
        raise ContractViolation(f"bad {what}: {message}")
