"""The verdict ledger: what each ledger scenario's report decides, kept in ``verdicts.json``.

For each scenario the ledger holds the exit code the run earns and, per
suite, ``passed``, the notes, the number of violation records, the gate
table (each gated key with its operator and bar) and the gated residuals.
``test_verdicts.py`` regenerates it and compares: everything exactly but
the float residuals, which may move within ``band`` of the recorded value,
as rounding does under another BLAS.  ``wall_clock_s`` is left out, as
the determinism checks leave it out.

Rewrite the ledger after a change that is meant to move it, and name
every changed entry in CHANGES.md::

    PYTHONPATH=src python tests/verdicts.py
"""

import json
import math
import os

from mdf import cli

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verdicts.json")

#: a float residual may move by this fraction of its bar ...
BAND_OF_BAR = 0.1
#: ... or by this fraction of its own size, whichever is larger
BAND_RELATIVE = 1e-6


def scenarios():
    """{name: scenario object}: the corpus, generated kinds at n = 2, 4, 8 (seed 1), a signed control."""
    out = {}
    for path in cli.corpus_paths():
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        out[obj["name"]] = obj
    for kind in cli.KINDS:
        for n in (2, 4, 8):
            obj = cli.generate_scenario(1, n, kind)
            out[obj["name"]] = obj
    obj = cli.generate_scenario(1, 8, "balanced_pair")
    obj.update(name="generated_signed_control_n8_seed1", kernel={"signed_f0": {"alpha": 6.0}},
               negative_control=True)
    out[obj["name"]] = obj
    return out


def entry(report):
    """The ledger entry of one report."""
    suites = {}
    for name, data in report["suites"].items():
        suites[name] = {
            "passed": data["passed"],
            "notes": data["notes"],
            "violations": len(data.get("violations", [])),
            "gates": data["gates"],
            "residuals": {key: data["residuals"][key] for key in data["gates"]},
        }
    return {"exit_code": 0 if report["passed"] else 1, "suites": suites}


def ledger():
    """The ledger of the current code: one in-process run per scenario."""
    return {name: entry(cli.run_scenario_object(cli.parse_scenario(obj)))
            for name, obj in scenarios().items()}


def band(recorded, bar):
    """How far a float residual may move from ``recorded`` under the gate bar ``bar``."""
    return max(BAND_OF_BAR * abs(bar), BAND_RELATIVE * abs(recorded))


def differences(recorded, current):
    """Every way ``current`` departs from ``recorded``, as readable lines; [] if it does not."""
    out = []
    if recorded.keys() != current.keys():
        out.append(f"scenarios {sorted(recorded)} != {sorted(current)}")
    for name in sorted(recorded.keys() & current.keys()):
        old, new = recorded[name], current[name]
        if old["exit_code"] != new["exit_code"]:
            out.append(f"{name}: exit code {old['exit_code']} -> {new['exit_code']}")
        if old["suites"].keys() != new["suites"].keys():
            out.append(f"{name}: suites {sorted(old['suites'])} -> {sorted(new['suites'])}")
        for suite in sorted(old["suites"].keys() & new["suites"].keys()):
            a, b = old["suites"][suite], new["suites"][suite]
            where = f"{name}.{suite}"
            for field in ("passed", "notes", "violations", "gates"):
                if a[field] != b[field]:
                    out.append(f"{where}: {field} {a[field]!r} -> {b[field]!r}")
            for key in sorted(a["gates"].keys() & b["gates"].keys()):
                x, y = a["residuals"][key], b["residuals"][key]
                if isinstance(x, float) and isinstance(y, float) and math.isfinite(x):
                    held = abs(y - x) <= band(x, a["gates"][key][1])
                else:
                    held = x == y  # counts, booleans and infinite residuals, exactly
                if not held:
                    out.append(f"{where}: residual {key} {x!r} -> {y!r}")
    return out


def main():
    with open(LEDGER, "w", encoding="utf-8") as fh:
        json.dump(ledger(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {LEDGER}")


if __name__ == "__main__":
    main()
