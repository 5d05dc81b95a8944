"""errors.check_schema against jsonschema (draft 2020-12) as the oracle: on
every input file schema, and on one that uses the keywords' other values,
the same documents fail, with best_match's message."""
import copy

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decapbench import autodiff as ad
from decapbench import env, report, search
from decapbench.errors import ContractViolation, check_schema
from decapbench.policy import MODEL_CONFIG_SCHEMA, toy_config

_PROBLEMS = [{"rows": 3, "cols": 3, "probe": 4, "keepout": [1, 2]},
             {"rows": 2, "cols": 4, "probe": 0, "keepout": []}]
_CONFIG = toy_config().to_dict()

# schema name -> (schema, a valid document)
VALID = {
    "problem file": (env.PROBLEM_FILE_SCHEMA,
                     {"schema_version": 1, "problems": _PROBLEMS}),
    "expert dataset": (search.DATASET_SCHEMA, [
        {"schema_version": 1, "kind": "expert-dataset", "k": 2,
         "sim": "chip5", "keepout_max": 2},
        {"problem": _PROBLEMS[0], "placement": [0, 3], "score": 12.5,
         "budget": 8, "seed": 0},
        {"problem": _PROBLEMS[1], "placement": [5, 7], "score": 3.0,
         "budget": 8, "seed": 1}]),
    "report": (report.REPORT_SCHEMA, {
        "schema_version": 1, "problems": _PROBLEMS,
        "rows": [{"method": "ga", "budget": 8, "k": 2, "mean_score": 7.75,
                  "std_score": 4.75, "placements": [[0, 3], [5, 7]],
                  "scores": [12.5, 3.0]}],
        "metadata": {"seed": 0}}),
    "model config": (MODEL_CONFIG_SCHEMA, _CONFIG),
    "checkpoint header": (ad.CHECKPOINT_HEADER_SCHEMA, {
        "config": _CONFIG, "config_hash": ad.config_hash(_CONFIG),
        "meta": {"steps": 1},
        "params": [["enc.w", [2, 3]], ["enc.b", [3]]],
        "buffers": [["bn.mean", [3]]]}),
    # Keyword values no input file schema uses: one prefix item before
    # `items: false`, minItems above 1, a float minimum, a const of 0 and a
    # list of types.
    "other keywords": ({
        "type": "object",
        "properties": {
            "pair": {"type": "array", "prefixItems": [{"type": "number"}],
                     "items": False},
            "some": {"type": ["array", "boolean"], "minItems": 2},
            "x": {"type": "number", "minimum": 0.5},
            "tag": {"const": 0}},
        "required": ["pair"]},
        {"pair": [1.5], "some": [0, 1], "x": 0.5, "tag": 0}),
}

# What replaces a node: each JSON type, integral and fractional floats,
# values below both minimums in use, and 1.0 for a const of 1.
_REPLACEMENTS = [True, False, None, "1", 1.5, 2.0, 1.0, -1, 0, [], {}, [3]]


def _oracle(doc, schema):
    error = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(doc))
    return None if error is None else error.message


def _mine(doc, schema):
    try:
        check_schema(doc, schema, "doc")
    except ContractViolation as exc:
        return str(exc).removeprefix("bad doc: ")
    return None


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _mutations(doc):
    """Every node replaced by each of _REPLACEMENTS; every key of an object
    dropped and an extra key added; every array emptied and grown by an
    item."""
    for path in _paths(doc):
        node = doc
        for key in path:
            node = node[key]
        for value in _REPLACEMENTS:
            yield _replaced(doc, path, copy.deepcopy(value))
        if isinstance(node, dict):
            for key in node:
                yield _replaced(doc, path, {k: v for k, v in node.items()
                                            if k != key})
            yield _replaced(doc, path, {**node, "extra": 1})
        if isinstance(node, list):
            yield _replaced(doc, path, [])
            for item in (3, "x", *node[-1:]):
                yield _replaced(doc, path, [*node, copy.deepcopy(item)])


@pytest.mark.parametrize("name", list(VALID))
def test_valid_document_passes(name):
    schema, doc = VALID[name]
    jsonschema.Draft202012Validator.check_schema(schema)
    assert _oracle(doc, schema) is None
    check_schema(doc, schema, name)


@pytest.mark.parametrize("name", list(VALID))
def test_systematic_mutations_match_jsonschema(name):
    schema, doc = VALID[name]
    seen = failed = 0
    for bad in _mutations(doc):
        ref = _oracle(bad, schema)
        assert _mine(bad, schema) == ref, bad
        seen, failed = seen + 1, failed + (ref is not None)
    assert 0 < failed < seen


@pytest.mark.parametrize("name", ["problem file", "report"])
def test_const_tells_true_from_one_not_one_from_float(name):
    schema, doc = VALID[name]
    assert _mine({**doc, "schema_version": True}, schema) == "1 was expected"
    assert _mine({**doc, "schema_version": 1.0}, schema) is None


def test_message_examples():
    schema, doc = VALID["problem file"]
    problem = {k: v for k, v in _PROBLEMS[0].items() if k != "keepout"}
    assert _mine({**doc, "problems": [problem]}, schema) \
        == "'keepout' is a required property"
    assert _mine({**doc, "y": 0, "x": 0}, schema) \
        == "Additional properties are not allowed ('x', 'y' were unexpected)"
    assert _mine({**doc, "schema_version": 2}, schema) == "1 was expected"
    schema, doc = VALID["report"]
    assert _mine({**doc, "problems": []}, schema) == "[] should be non-empty"
    header = VALID["checkpoint header"][1]
    assert _mine({**header, "params": [["w", [2], 3]]},
                 ad.CHECKPOINT_HEADER_SCHEMA) \
        == "Expected at most 2 items but found 1 extra: 3"


def test_highest_failure_wins_then_the_last_path():
    schema, doc = VALID["problem file"]
    deep = copy.deepcopy(doc)
    deep["problems"][1]["keepout"] = ["x"]
    deep["problems"][0]["rows"] = 0
    # path length 3 beats 4; among siblings the later index wins
    assert _mine(deep, schema) == "0 is less than the minimum of 1"
    deep["problems"][1]["cols"] = "y"
    assert _mine(deep, schema) == "'y' is not of type 'integer'"
    assert _mine(deep, schema) == _oracle(deep, schema)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@st.composite
def _edited(draw, doc):
    """doc with one node replaced by a drawn JSON value, or removed from
    its container."""
    if isinstance(doc, (dict, list)) and doc and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(list(doc) if isinstance(doc, dict)
                                   else range(len(doc))))
        doc = dict(doc) if isinstance(doc, dict) else list(doc)
        if draw(st.integers(0, 4)):
            doc[key] = draw(_edited(doc[key]))
        else:
            del doc[key]
        return doc
    return draw(JSON)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(list(VALID)))
def test_drawn_edits_match_jsonschema(data, name):
    schema, doc = VALID[name]
    bad = data.draw(_edited(doc))
    assert _mine(bad, schema) == _oracle(bad, schema)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(doc=JSON, name=st.sampled_from(list(VALID)))
def test_drawn_documents_match_jsonschema(doc, name):
    schema = VALID[name][0]
    assert _mine(doc, schema) == _oracle(doc, schema)

