"""The runtime's third-party imports are exactly its declared
dependencies, and reading input files imports no schema library."""
import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "decapbench"


def _top_level_imports(path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imports_are_the_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]
                for dep in project["dependencies"]}
    imported = set().union(*map(_top_level_imports, SRC.glob("*.py")))
    third_party = {name for name in imported
                   if name not in sys.stdlib_module_names
                   and name != "decapbench"}
    assert third_party == declared == {"numpy"}


# Writes and reads one file of each kind the commands take: a problem file,
# an expert dataset, a report and a checkpoint (its header and model config).
_READ_EVERY_KIND = """
import sys, pathlib
import decapbench.cli
from decapbench import env, policy, report, search
d = pathlib.Path(sys.argv[1])
problems = env.gen_problem_set(0, 2, 3, 3, 1)
env.write_problem_file(d / "p.json", problems)
assert env.read_problem_file(d / "p.json") == problems
rec = search.ExpertRecord(problems[0], tuple(problems[0].allowed_ports[:2]),
                          1.0, 4, 0)
search.write_expert_dataset(d / "x.jsonl", [rec], k=2, sim=None,
                            keepout_max=1)
assert search.read_expert_dataset(d / "x.jsonl")[0] == [rec]
r = report.BenchReport(problems)
r.add_method("rs", 4, 1, [(p.allowed_ports[0],) for p in problems], [1, 2])
r.save(d / "r.json")
report.BenchReport.load(d / "r.json")
cfg = policy.toy_config()
policy.save_policy(d / "m.ckpt", policy.init_params(cfg), cfg)
policy.load_policy(d / "m.ckpt")
print(sorted(m for m in sys.modules if m.split(".")[0] == "jsonschema"))
"""


def test_reading_every_input_kind_imports_no_jsonschema(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", _READ_EVERY_KIND, tmp_path],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
