"""Seeded scenario sets, one per benchmark workload.

Every workload is a list of scenario files that ``mdf run`` accepts.
The benchmark seed fixes every random choice in them; the program under
test only ever sees the files.  Each scenario carries the exit code the
mathematics demands: 0 for admissible kernels and for the negative
control (which passes exactly when it observes violations).

Why each workload exists is recorded in ``README.md`` next to this file.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from mdf import cli
from mdf.linalg import dagger, haar_unitary

#: suites that build n^2 x n^2 superoperators but never project onto [0, xi0]
ASSEMBLY_SUITES = ["modular", "dirichlet", "lindblad", "proof_regression"]

#: Hamiltonian spectra of the projection (and Cauchy) states, spread linearly over
#: [0, width] at beta = 1 (so max |kappa| = width).  Fixed spectra keep the
#: Dykstra iteration count within a few percent from seed to seed; random
#: Gibbs states at beta = 1 (max |kappa| ~ 8-10 at n = 8) vary 2-3x in
#: cost and some of them fail ``interval_projection_idempotent``, which is
#: the known projection defect listed in README.md.
PROJECTION_DENSITY_WIDTH = 2.0
PROJECTION_GIBBS_WIDTH = 4.0


@dataclass(frozen=True)
class Scenario:
    """One generated scenario and the exit code it must produce."""

    name: str
    obj: dict
    expected_code: int = 0

    @property
    def suites(self):
        return tuple(s for s in cli.SUITES if s in self.obj.get("suites", cli.SUITES))


def _seeds(seed, count):
    """Independent non-negative sub-seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _state_rng(seed):
    """A stream independent of the one ``mdf generate`` draws the couplings from."""
    return np.random.default_rng((seed, 1))


def _fixed_spectrum_hamiltonian(n, width, rng):
    """Hermitian h = U diag(linspace(0, width, n)) U* with Haar-random U."""
    U = haar_unitary(n, rng)
    return (U * np.linspace(0.0, width, n)) @ dagger(U)


def _fixed_spectrum_density(n, width, rng):
    """The Gibbs density exp(-h)/Z of :func:`_fixed_spectrum_hamiltonian`, as a matrix."""
    w, V = np.linalg.eigh(_fixed_spectrum_hamiltonian(n, width, rng))
    p = np.exp(-(w - w.min()))
    return cli.matrix_to_json((V * (p / p.sum())) @ dagger(V))


def projection(seed, tiny=False):
    """Full six-suite scenarios dominated by the order-interval projection."""
    n = 3 if tiny else 8
    s_density, s_gibbs = _seeds(seed, 2)

    density = cli.generate_scenario(s_density, n, "hermitian")
    density["state"] = {
        "density": _fixed_spectrum_density(n, PROJECTION_DENSITY_WIDTH, _state_rng(s_density))
    }
    density["name"] = f"projection_density_n{n}_{s_density}"

    gibbs = cli.generate_scenario(s_gibbs, n, "hermitian")
    h = _fixed_spectrum_hamiltonian(n, PROJECTION_GIBBS_WIDTH, _state_rng(s_gibbs))
    gibbs["state"] = {"gibbs": {"hamiltonian": cli.matrix_to_json(h), "beta": 1.0}}
    gibbs["name"] = f"projection_gibbs_n{n}_{s_gibbs}"
    return [Scenario(density["name"], density), Scenario(gibbs["name"], gibbs)]


def projection_known_defects(seed):
    """Scenarios the mathematics says must pass but the program fails.

    The bundled two-level Hamiltonian at beta = 14 is faithful
    (smallest eigenvalue ~2e-7 > 1e-8), its kernel is f0, so the
    expected exit code is 0; Dykstra raises ``NoConvergence`` instead.
    """
    obj = _corpus_objects()["gibbs_two_level"]
    obj["state"]["gibbs"]["beta"] = 14.0
    obj["name"] = "gibbs_two_level_beta14"
    obj["seed"] = _seeds(seed, 1)[0]
    return [Scenario(obj["name"], obj)]


def assembly_n16(seed, tiny=False):
    """Balanced-pair couplings under f0: the dense superoperator layer only."""
    n = 5 if tiny else 16
    out = []
    for s in _seeds(seed, 2):
        obj = cli.generate_scenario(s, n, "balanced_pair")
        obj["suites"] = list(ASSEMBLY_SUITES)
        out.append(Scenario(obj["name"], obj))
    return out


def cauchy_n3(seed, tiny=False):
    """Balanced pairs under the Cauchy kernel: the quadrature oracle dominates."""
    n = 2 if tiny else 3
    out = []
    for s in _seeds(seed, 2):
        obj = cli.generate_scenario(s, n, "balanced_pair")
        # the suites project onto [0, xi0]; a fixed spectrum keeps that share steady
        obj["state"] = {
            "density": _fixed_spectrum_density(n, PROJECTION_DENSITY_WIDTH, _state_rng(s))
        }
        obj["kernel"] = {"cauchy": {"scale": 1.0}}
        obj["name"] = f"cauchy_balanced_pair_n{n}_{s}"
        out.append(Scenario(obj["name"], obj))
    return out


def _corpus_objects():
    out = {}
    for path in cli.corpus_paths():
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        out[obj["name"]] = obj
    return out


def corpus(seed, tiny=False):
    """The six bundled scenarios (n <= 3), each with a seeded sampling seed."""
    objs = _corpus_objects()
    out = []
    for (name, obj), s in zip(sorted(objs.items()), _seeds(seed, len(objs))):
        obj["seed"] = s
        out.append(Scenario(name, obj))
    return out


WORKLOADS = {
    "projection": projection,
    "assembly_n16": assembly_n16,
    "cauchy_n3": cauchy_n3,
    "corpus": corpus,
}

KNOWN_DEFECTS = {"projection": projection_known_defects}


def build(workload, seed, tiny=False, known_defects=False):
    """The scenarios of a workload for a seed (plus its known defects if asked)."""
    scenarios = WORKLOADS[workload](seed, tiny=tiny)
    if known_defects and workload in KNOWN_DEFECTS:
        scenarios = scenarios + KNOWN_DEFECTS[workload](seed)
    return scenarios


def write(scenarios, directory):
    """Write each scenario as ``<name>.json``; returns the paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for sc in scenarios:
        path = os.path.join(directory, f"{sc.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sc.obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths
