"""The verdict ledger: every ledger scenario still decides as ``verdicts.json`` records."""

import copy
import json

import pytest

from verdicts import LEDGER, band, differences, ledger


@pytest.fixture(scope="module")
def recorded():
    with open(LEDGER, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_the_verdict_ledger_holds(recorded):
    assert differences(recorded, ledger()) == []


def _first_gate(entries, op):
    """(scenario, suite, key) of the first gate with operator ``op`` on a float residual."""
    for name, entry in sorted(entries.items()):
        for suite, data in sorted(entry["suites"].items()):
            for key, (gate_op, _) in sorted(data["gates"].items()):
                if gate_op == op and isinstance(data["residuals"][key], float):
                    return name, suite, key
    raise AssertionError(f"no {op!r} gate in the ledger")


def test_the_comparison_sees_each_kind_of_change(recorded):
    name, suite, key = _first_gate(recorded, "<")
    changes = {
        "exit code": lambda e: e[name].update(exit_code=1 - e[name]["exit_code"]),
        "passed": lambda e: e[name]["suites"][suite].update(passed=False),
        "note": lambda e: e[name]["suites"][suite]["notes"].append("a new note"),
        "violations": lambda e: e[name]["suites"][suite].update(violations=1),
        "bar": lambda e: e[name]["suites"][suite]["gates"][key].__setitem__(1, 1.0),
        "gate key": lambda e: e[name]["suites"][suite]["gates"].pop(key),
        "scenario": lambda e: e.pop(name),
    }
    for what, change in changes.items():
        current = copy.deepcopy(recorded)
        change(current)
        assert differences(recorded, current), what


def test_a_residual_may_move_within_its_band_and_no_further(recorded):
    name, suite, key = _first_gate(recorded, "<")
    data = recorded[name]["suites"][suite]
    x, bar = data["residuals"][key], data["gates"][key][1]
    for step, found in ((0.5, False), (2.0, True)):
        current = copy.deepcopy(recorded)
        current[name]["suites"][suite]["residuals"][key] = x + step * band(x, bar)
        assert bool(differences(recorded, current)) == found, step
    current = copy.deepcopy(recorded)
    current[name]["suites"][suite]["residuals"][key] = float("inf")
    assert differences(recorded, current)
