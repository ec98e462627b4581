"""Layer spans and counters around the public functions of ``mdf``.

The tracer patches functions from the outside, so ``src/mdf`` needs no
change: each target is replaced in every ``mdf`` module namespace (and
every module-level dict, such as the suite table of ``mdf.cli``) that
holds it, or on its defining class for methods.  ``uninstall`` puts
every original back.

Spans nest on a stack, so a layer's self time is its span's duration
minus the time covered by the spans it caused.  Spans are aggregated in
memory per layer (calls, self time, total time); counters record work
as exact counts.
"""

import functools
import hashlib
import importlib
import inspect
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

#: layer -> public functions ("module:qualname") whose spans it owns
SPANS = {
    **{
        f"cli.suite.{suite}": [f"mdf.cli:_suite_{suite}"]
        for suite in (
            "standard_form",
            "modular",
            "dirichlet",
            "lindblad",
            "semigroup",
            "proof_regression",
        )
    },
    "standard_form.project_order_interval": ["mdf.standard_form:project_order_interval"],
    "standard_form.superop_norm": [
        "mdf.standard_form:SuperOperator.norm",
        "mdf.standard_form:SuperOperator.selfadjoint_defect",
        "mdf.standard_form:SuperOperator.j_real_defect",
    ],
    "standard_form.superop_basis_change": [
        "mdf.standard_form:StandardForm.superop_basis_change"
    ],
    "standard_form.superop_eigh": ["mdf.standard_form:SuperOperator.eigh"],
    "kernels.hat_quadrature": ["mdf.kernels:KernelFunction.hat_quadrature"],
    "kernels.check_admissible": ["mdf.kernels:check_admissible"],
    "modular.superop_multiplier": [
        "mdf.modular:superop_smear",
        "mdf.modular:superop_sigma",
        "mdf.modular:superop_modular_map",
        "mdf.modular:superop_smear_quadrature",
    ],
    "modular.matrix_calculus": [
        "mdf.modular:sigma",
        "mdf.modular:smear",
        "mdf.modular:modular_map",
        "mdf.modular:apply_I0",
        "mdf.modular:smear_quadrature",
    ],
    "dirichlet.operator": ["mdf.dirichlet:dirichlet_operator"],
    "dirichlet.boundary_shift": ["mdf.dirichlet:verify_boundary_shift"],
    "dirichlet.crosscheck": ["mdf.dirichlet:crosscheck_engines"],
    "dirichlet.verify": ["mdf.dirichlet:verify_dirichlet"],
    "lindblad.induced_operator": [
        "mdf.lindblad:induced_operator",
        "mdf.lindblad:induced_operator_shifted",
        "mdf.lindblad:induced_adjoint_shifted",
    ],
    "lindblad.balance": ["mdf.lindblad:check_balance_condition"],
    "lindblad.general_embedding": ["mdf.lindblad:general_f_embedding_residual"],
    "semigroup.semigroup_operator": ["mdf.semigroup:semigroup_operator"],
    "semigroup.markovianity_report": ["mdf.semigroup:markovianity_report"],
}

#: layers reported by time only (their call counts say nothing new)
TIME_ONLY = ("dirichlet.operator", "dirichlet.verify", "semigroup.markovianity_report")

#: counter -> hot n x n functions that are counted but get no span
COUNTED = {
    "mdf.linalg:psd_clip": ("linalg.small_eigh", "linalg.psd_clip"),
    "mdf.linalg:min_eigenvalue": ("linalg.small_eigh",),
    "mdf.linalg:eigh_fixed": ("linalg.small_eigh",),
}

#: bytes of one complex128 integrand entry, for the computed-bytes count
COMPLEX_BYTES = 16


def resolve(target):
    """(owner class or None, attribute name, original function) of a target."""
    module_name, qualname = target.split(":")
    obj = importlib.import_module(module_name)
    owner = None
    for part in qualname.split("."):
        owner, obj = obj, getattr(obj, part)
    if inspect.ismodule(owner):
        owner = None
    return owner, qualname.split(".")[-1], obj


def mdf_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "mdf"]


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Installs spans and counters on ``mdf``; collects one pass at a time."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.stats = {}
        self.counts = Counter()
        self.dirichlet_builds = set()
        self.reset()

    # -- collection ----------------------------------------------------------
    def reset(self):
        """Start a new pass (in place: installed wrappers hold these objects)."""
        self.stats.update({layer: LayerStat() for layer in SPANS})
        self.counts.clear()
        self.dirichlet_builds.clear()

    def _span(self, layer, fn, after=None):
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[0]
                stat = stats[layer]
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def _counter(self, names, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for name in names:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_dirichlet_build(self, signature):
        from mdf.dirichlet import DirichletSpec
        from mdf.kernels import F0Kernel

        def after(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            spec = bound.arguments["spec"]
            if isinstance(spec, DirichletSpec):
                x, kernel, engine = spec.x, spec.kernel, spec.engine
            else:
                x, kernel, engine = spec, bound.arguments["kernel"], bound.arguments["engine"]
            kernel = kernel if kernel is not None else F0Kernel()
            self.counts[f"dirichlet.operator.builds.{engine}"] += 1
            self.dirichlet_builds.add(
                (
                    _digest(bound.arguments["sf"].xi0),
                    _digest(np.asarray(x, dtype=complex)),
                    type(kernel).__name__,
                    tuple(sorted((k, repr(v)) for k, v in vars(kernel).items())),
                    engine,
                )
            )

        return after

    def _count_hat_quadrature(self):
        from mdf.kernels import PANEL_NODES, PANEL_WIDTH

        def after(args, kwargs):
            kernel = args[0]
            kappa = args[1] if len(args) > 1 else kwargs["kappa"]
            entries = int(np.size(kappa))
            radius = kernel.truncation_radius or kernel._grow_truncation()
            nodes = sum(
                math.ceil(2 * radius / width) * PANEL_NODES
                for width in (PANEL_WIDTH, PANEL_WIDTH / 2)
            )
            self.counts["kernels.hat_quadrature.grid_entries"] += entries
            self.counts["kernels.hat_quadrature.bytes_computed"] += nodes * entries * COMPLEX_BYTES

        return after

    # -- patching ------------------------------------------------------------
    def install(self):
        """Patch every target in every namespace that holds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer, targets in SPANS.items():
            for target in targets:
                owner, name, fn = resolve(target)
                after = None
                if target == "mdf.dirichlet:dirichlet_operator":
                    after = self._count_dirichlet_build(inspect.signature(fn))
                elif target == "mdf.kernels:KernelFunction.hat_quadrature":
                    after = self._count_hat_quadrature()
                self._replace(owner, name, fn, self._span(layer, fn, after))
        for target, names in COUNTED.items():
            owner, name, fn = resolve(target)
            self._replace(owner, name, fn, self._counter(names, fn))

    def _replace(self, owner, name, original, wrapper):
        if owner is not None:
            self._patches.append((owner, name, original, setattr))
            setattr(owner, name, wrapper)
            return
        for module in mdf_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, attr, original, setattr))
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if item is original:
                            self._patches.append((value, key, original, dict.__setitem__))
                            value[key] = wrapper

    def uninstall(self):
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, key, original, put = self._patches.pop()
            put(owner, key, original)
        self._stack.clear()

    # -- results -------------------------------------------------------------
    def layer_values(self):
        """Per-layer counts and times of the pass collected since ``reset``.

        Suite times are inclusive (a suite's wall time); every other time
        is a self time.
        """
        c = self.counts
        out = {}
        for layer, stat in self.stats.items():
            if layer.startswith("cli.suite."):
                out["cli.suite_s." + layer[len("cli.suite."):]] = stat.total_s
                continue
            if layer not in TIME_ONLY:
                out[f"{layer}.calls"] = stat.calls
            out[f"{layer}.s"] = stat.self_s
        exact = c["dirichlet.operator.builds.exact_spectral"]
        quadrature = c["dirichlet.operator.builds.quadrature"]
        builds = exact + quadrature
        out.update(
            {
                "standard_form.project_order_interval.iterations": c["linalg.psd_clip"] // 2,
                "kernels.hat_quadrature.grid_entries": c["kernels.hat_quadrature.grid_entries"],
                "kernels.hat_quadrature.bytes_computed": c["kernels.hat_quadrature.bytes_computed"],
                "dirichlet.operator.builds.exact": exact,
                "dirichlet.operator.builds.quadrature": quadrature,
                "dirichlet.operator.useful_ratio": (
                    len(self.dirichlet_builds) / builds if builds else 0.0
                ),
                "linalg.small_eigh.calls": c["linalg.small_eigh"],
            }
        )
        return out


def _digest(array):
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()
