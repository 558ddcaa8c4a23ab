"""Seeded fuzzing of the CLI on mutated fixture documents.

Each run takes one command's checked-in input documents, mutates one of
them in one place (a value replaced by null, a bool, an int, a float, a
string or a short list, or a key deleted) and runs the command in
process.  Every run must end the way the CLI promises: exit 0 or 1 with a
report or one ``SigmaNablaError`` line, or exit 2 with ``parse error``;
never with an uncaught exception.
"""

import json
import os
import random

from conftest import CliRunner
from sigma_nabla import errors
from sigma_nabla.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

# (arguments before the documents, the documents), taken in turn.
COMMANDS = [
    (["check-module"], ["module.json"]),
    (["check-module"], ["glue/m1.json"]),
    (["factor", "gamma"], ["factor_gamma/x.json"]),
    (["factor", "robba"], ["factor_robba/x.json"]),
    (["check-product"], ["factor_gamma/Y.json", "factor_gamma/Z.json",
                         "factor_gamma/x.json"]),
    (["descend"], ["descend/module.json", "descend/x.json"]),
    (["glue"], ["glue/m1.json", "glue/m2.json", "glue/x.json"]),
    (["--kmax", "4", "horizontal"], ["glue/m2.json"]),
    (["probe-nilpotence"], ["module.json"]),
    (["slopes"], ["slopes/frobenius.json"]),
    (["average-projector"], ["average_projector/orbit.json"]),
    (["average-projector"], ["average_projector/group.json"]),
    (["companion"], ["companion/job.json"]),
    (["lfunction", "--place", "p", "-T", "4"], ["lfunction/table.json"]),
    (["trace-check", "--place", "p", "-T", "4"],
     ["lfunction/table.json", "lfunction/cohomology.json"]),
    (["compat"], ["charpoly/table.json"]),
    (["purity", "-w", "1"], ["charpoly/table.json"]),
    (["pole-order", "--q", "2", "--d", "2"], ["pole_order/poly.json"]),
]

SEED = 20261018
# About 4 ms a run (most mutations stop at the parser): some 6 s.
RUNS = 1500

# Integers stay small: a mutated size such as a companion's n only
# chooses how much work a valid job asks for.
REPLACEMENTS = [None, True, False, -3, -1, 0, 1, 2, 3, 7, 0.5, -2.0, "",
                "x", "1/0", [], [1], ["1"], [None], [[0, "1"]], {}]

ERROR_NAMES = {name for name, cls in vars(errors).items()
               if isinstance(cls, type)
               and issubclass(cls, errors.SigmaNablaError)}


def _sites(node, path=()):
    """The path of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _sites(value, path + (key,))


def _mutate(doc, rng):
    """Replace or delete one value of ``doc`` in place; says which."""
    path = rng.choice(list(_sites(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.25:
        del parent[path[-1]]
        return f"delete {path}"
    value = rng.choice(REPLACEMENTS)
    parent[path[-1]] = json.loads(json.dumps(value))
    return f"{path} = {value!r}"


def _problem(res):
    """How a run broke the CLI's promise, or None."""
    if res.exception is not None and not isinstance(res.exception,
                                                    SystemExit):
        return f"uncaught {res.exception!r}"
    if res.exit_code == 2:
        return None if res.stderr.startswith("parse error") \
            and not res.stdout else f"exit 2 with {res.stderr!r}"
    if res.exit_code not in (0, 1):
        return f"exit {res.exit_code}"
    if res.stdout:
        report = json.loads(res.stdout)
        return None if report["kind"] == "report" and \
            report["ok"] is (res.exit_code == 0) else "bad report"
    name = res.stderr.partition(":")[0]
    return None if res.exit_code == 1 and name in ERROR_NAMES else \
        f"exit {res.exit_code} with {res.stderr!r}"


def test_cli_fuzz_mutated_fixtures(tmp_path):
    rng = random.Random(SEED)
    runner = CliRunner()
    docs = {}
    for _, names in COMMANDS:
        for name in names:
            with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
                docs[name] = json.load(fh)
    failures = []
    for run in range(RUNS):
        prefix, names = COMMANDS[run % len(COMMANDS)]
        target = rng.randrange(len(names))
        paths = []
        for k, name in enumerate(names):
            doc = json.loads(json.dumps(docs[name]))
            if k == target:
                what = f"{' '.join(prefix)} {name}: {_mutate(doc, rng)}"
            path = tmp_path / f"doc{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        problem = _problem(runner.invoke(main, prefix + paths))
        if problem:
            failures.append(f"{what}: {problem}")
    assert not failures, "\n".join(failures)
