"""Seeded workloads of the opnormlab benchmark, and their output checks.

A workload turns a seed into a small pool of distinct jobs.  The timed loop
runs the pool in rotation, one job at a time, through a public entry point
of the package: ``opnormlab.cli.run_cli`` for ``sweep`` and ``opnorm``, and
``opnormlab.corner.solve_corner`` for the corner system.  The package sees
only the generated inputs, never the seed.

Every check runs after the timed loop and recomputes what it needs with
plain numpy from the inputs: the threshold formulas, the kernel formulas,
the growth fit, the norm bracket and the manufactured corner data are
written out here again, so a defect in the package cannot hide itself.

Import this module only after ``opnormlab.cli``: the worker times that
import on its own.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np

import opnormlab.cli
import opnormlab.corner
from opnormlab.grids import parse_grid
from opnormlab.kernels import KernelSpec
from opnormlab.spaces import SampledFunction, SpaceSpec


def _dual(p: float) -> float:
    return p / (p - 1.0)


def _threshold(family: str, s1: float, s2: float, p1: float, p2: float) -> float:
    """Sufficient decay threshold max(inner, outer) of one mapping family."""
    q1 = _dual(p1)
    if family == "h":
        return max(0.5 - s1, 1.0 + s2 - s1)
    if family == "hsp":
        return max(1.0 / q1 - s1, 1.0 / p2 + 1.0 / q1 + s2 - s1)
    return max(1.0 / q1 - 2.0 * s1 / p1,
               1.0 / p2 + 1.0 / q1 + 2.0 * s2 / p2 - 2.0 * s1 / p1)


def _weight_exponent(family: str, s: float, p: float) -> float:
    """Exponent w of the space weight (1+|x|)^w."""
    return p * s if family == "hsp" else 2.0 * s


def _kernel_values(kind: str, kappa: float, omega: float, x, y) -> np.ndarray:
    """The three kernel formulas, broadcast over x and y."""
    value = (1.0 + np.abs(x) + np.abs(y)) ** (-kappa)
    if kind == "cosmod":
        value = value * np.cos(omega * x * y)
    elif kind == "altmod":
        value = value * np.sign(np.sin(x + y))
    return value


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = opnormlab.cli.run_cli(argv)
    return code, out.getvalue()


class _DeterministicOutputs:
    """Remembers the first output of each pool entry; repeats must match it."""

    def __init__(self):
        self._first: dict[int, object] = {}

    def differs(self, index: int, output) -> bool:
        return self._first.setdefault(index, output) != output


class SweepSaturation:
    """One ``opnormlab sweep`` of one query per job, over eight nested radii.

    Why: each job builds many mid-sized nested matrices (n = 640 .. 1312).
    Assembly is about three quarters of a cell; the rest is the p != 2 power
    method, grid nesting, the growth fit and CSV output.  Incremental nested
    assembly, a mirror reduction or a shared log(1+|x|+|y|) would show here.
    """

    name = "sweep-saturation"
    # The nine (family, s1, s2, p1, p2) sets of acceptance criterion 6.
    QUERY_SETS = (
        ("h", -0.25, -0.25, 2.0, 2.0), ("h", -1.0, -1.0, 2.0, 2.0),
        ("h", -0.5, 0.5, 2.0, 2.0),
        ("hsp", -1.0, -1.0, 1.5, 1.5), ("hsp", -0.5, 0.0, 3.0, 2.0),
        ("hsp", -0.3, 0.2, 3.0, 3.0),
        ("hps", -0.5, -0.5, 4.0, 4.0), ("hps", -1.0, -1.0, 2.0, 4.0),
        ("hps", -1.0, 0.0, 2.0, 2.0),
    )
    FAMILY_INDEX = {"h": 1, "hsp": 2, "hps": 3}
    MARGINS = (0.5, 1.5)
    GAMMA_SATURATING = 0.05

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 1])
        # base panels, extra panels per radius, panel order, radii 10 * 4^k
        panels, extra, order, steps = (4, 1, 4, 3) if tiny else (40, 6, 8, 8)
        self.schedule = [10.0 * 4.0 ** k for k in range(steps)]
        self.nodes = [2 * order * (panels + extra * k) for k in range(steps)]
        self.jobs = []
        for family, s1, s2, p1, p2 in self.QUERY_SETS:
            kappa = _threshold(family, s1, s2, p1, p2) + float(rng.uniform(*self.MARGINS))
            query = (f"thm={self.FAMILY_INDEX[family]},s1={s1!r},s2={s2!r},"
                     f"p1={p1!r},p2={p2!r},kappa={kappa!r}")
            self.jobs.append([
                "sweep", "--query", query,
                "--r-schedule", ",".join(repr(R) for R in self.schedule),
                "--panels", str(panels), "--extra-panels", str(extra),
                "--order", str(order)])
        self._repeats = _DeterministicOutputs()

    def run(self, index: int):
        return _run_cli(self.jobs[index])

    def failure(self, index: int, output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        rows = list(csv.DictReader(line for line in text.splitlines()
                                   if not line.startswith("#")))
        cells = [row for row in rows if row["row"] == "cell"]
        summaries = [row for row in rows if row["row"] == "summary"]
        if len(cells) != len(self.schedule) or len(summaries) != 1:
            return f"{len(cells)} cells and {len(summaries)} summaries"
        if [float(c["R"]) for c in cells] != self.schedule:
            return "radii differ from the schedule"
        if [int(c["nodes"]) for c in cells] != self.nodes:
            return "node counts differ from the nested grid sizes"
        if any(c["converged"] != "true" for c in cells):
            return "a cell did not converge"
        norms = [float(c["norm"]) for c in cells]
        if any(b < a - 1e-10 for a, b in zip(norms, norms[1:])):
            return f"norms decrease along R: {norms}"
        gamma = float(np.polyfit(np.log(self.schedule), np.log(norms), 1)[0])
        if not math.isclose(gamma, float(summaries[0]["gamma"]), rel_tol=1e-9, abs_tol=1e-12):
            return f"reported gamma {summaries[0]['gamma']} != refit {gamma!r}"
        if abs(gamma) >= self.GAMMA_SATURATING or summaries[0]["verdict"] != "saturating":
            return f"verdict {summaries[0]['verdict']} with gamma {gamma!r}"
        if self._repeats.differs(index, text):
            return "report differs from an earlier run of the same query"
        return None


class OpnormDense:
    """One ``opnormlab opnorm`` per job on one large grid (n = 2000).

    Why: each job is one large, memory-bound matrix with no nesting, which
    isolates the cost per entry of assembly and of each matvec, and shows
    the memory a change saves.  altmod is not even in either variable, so it
    bypasses a mirror reduction; altmod with p1 < p2 takes the most
    iterations and sets the tail.
    """

    name = "opnorm-dense"
    KERNELS = ("envelope", "cosmod", "altmod")
    # (family, p1, p2): p1 = p2 = 2, p1 < p2, p1 > p2
    SPACE_PAIRS = (("h", 2.0, 2.0), ("hps", 1.5, 3.0), ("hsp", 3.0, 1.5))

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 2])
        self.grid_spec = "grid(100,6,1.3,4)" if tiny else "grid(10000,125,1.3,8)"
        self.params = []
        self.jobs = []
        # job j uses kernel j % 3 and space pair j // 3
        for family, p1, p2 in self.SPACE_PAIRS:
            for kind in self.KERNELS:
                s1 = float(rng.uniform(-1.0, -0.25))
                s2 = float(rng.uniform(-1.0, 0.0))
                kappa = _threshold(family, s1, s2, p1, p2) + float(rng.uniform(0.5, 1.5))
                omega = float(rng.uniform(0.5, 2.0))
                self.params.append((kind, kappa, omega, family, s1, s2, p1, p2))
                kernel = {"envelope": f"envelope({kappa!r})",
                          "cosmod": f"cosmod({kappa!r},{omega!r})",
                          "altmod": f"altmod({kappa!r})"}[kind]
                self.jobs.append([
                    "opnorm", "--kernel", kernel,
                    "--source", self._space(family, s1, p1),
                    "--target", self._space(family, s2, p2),
                    "--grid", self.grid_spec])
        self._brackets: dict[int, tuple[float, float]] = {}
        self._repeats = _DeterministicOutputs()

    @staticmethod
    def _space(family: str, s: float, p: float) -> str:
        if family == "h":
            return f"H({s!r})"
        if family == "hsp":
            return f"Hsp({s!r},{p!r})"
        return f"Hps({p!r},{s!r})"

    def run(self, index: int):
        return _run_cli(self.jobs[index])

    def bracket(self, index: int) -> tuple[float, float]:
        """Lower and upper bound on the discrete l^p1 -> l^p2 norm.

        Lower: ||B 1||_p2 / ||1||_p1, the power method's first iterate.
        Upper: the Holder mixed norm (sum_i (sum_j |b_ij|^q1)^(p2/q1))^(1/p2).
        """
        if index not in self._brackets:
            kind, kappa, omega, family, s1, s2, p1, p2 = self.params[index]
            grid = parse_grid(self.grid_spec)
            x, w = grid.nodes, grid.weights
            q1 = _dual(p1)
            rows = w ** (1.0 / p2) * (1.0 + np.abs(x)) ** (_weight_exponent(family, s2, p2) / p2)
            cols = w ** (1.0 / q1) * (1.0 + np.abs(x)) ** (-_weight_exponent(family, s1, p1) / p1)
            b = rows[:, None] * _kernel_values(kind, kappa, omega, x[:, None], x[None, :]) * cols
            lower = np.sum(np.abs(b.sum(axis=1)) ** p2) ** (1.0 / p2) / x.size ** (1.0 / p1)
            inner = np.sum(np.abs(b) ** q1, axis=1) ** (1.0 / q1)
            upper = np.sum(inner ** p2) ** (1.0 / p2)
            self._brackets[index] = (float(lower), float(upper))
        return self._brackets[index]

    def failure(self, index: int, output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if not report["converged"]:
            return f"did not converge in {report['iterations']} iterations"
        lower, upper = self.bracket(index)
        value = report["value"]
        if not lower * (1.0 - 1e-9) <= value <= upper * (1.0 + 1e-9):
            return f"value {value!r} outside the bracket [{lower!r}, {upper!r}]"
        if self._repeats.differs(index, text):
            return "report differs from an earlier run of the same query"
        return None


class CornerSolve:
    """One ``solve_corner`` per job on manufactured data, n1 = n2 = 1000.

    Why: a dense direct solve dominated by LU.  It shares only the grids
    and kernel evaluation with the other two workloads, so a change to the
    operators or sweeps layers should not move it, and it is the one
    workload that needs scipy at import.
    """

    name = "corner-solve"
    POOL = 3
    ERROR_LIMIT = 1e-8
    CONDITION_LIMIT = 1e12

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 3])
        specs = (("grid(5,5,1.2,4)", "grid(8,5,1.2,4)") if tiny
                 else ("grid(20,125,1.02,4)", "grid(30,125,1.02,4)"))
        self.grid1, self.grid2 = (parse_grid(spec) for spec in specs)
        self.jobs = []
        self.truth = []
        for _ in range(self.POOL):
            kappa1, kappa2 = (float(v) for v in rng.uniform(1.5, 3.0, size=2))
            t = float(rng.uniform(1.0, 2.0))
            sigma = float(rng.uniform(0.5, 2.0))
            s = float(rng.uniform(-0.5, -0.1))
            t_nodes, t_weights = self.grid1.nodes, self.grid1.weights
            u_nodes, u_weights = self.grid2.nodes, self.grid2.weights
            c_star = (1.0 + np.abs(t_nodes)) ** (-t)
            d_star = np.exp(-u_nodes ** 2 / (2.0 * sigma ** 2))
            # f = A1 c* + d* on grid 2, g = c* + A2 d* on grid 1
            a1 = _kernel_values("envelope", kappa1, 0.0, t_nodes[None, :], u_nodes[:, None]) * t_weights
            a2 = _kernel_values("envelope", kappa2, 0.0, t_nodes[:, None], u_nodes[None, :]) * u_weights
            system = opnormlab.corner.CornerSystem(
                kernel_1=KernelSpec(kappa=kappa1), kernel_2=KernelSpec(kappa=kappa2),
                f_data=SampledFunction(self.grid2, a1 @ c_star + d_star),
                g_data=SampledFunction(self.grid1, c_star + a2 @ d_star),
                space=SpaceSpec.h(s))
            self.jobs.append(system)
            self.truth.append((c_star, d_star, s))

    def run(self, index: int):
        return opnormlab.corner.solve_corner(self.jobs[index], self.grid1, self.grid2)

    def _relative_error(self, grid, got, want, s: float) -> float:
        weight = grid.weights * (1.0 + np.abs(grid.nodes)) ** (2.0 * s)
        return math.sqrt(np.sum(weight * (got - want) ** 2) / np.sum(weight * want ** 2))

    def failure(self, index: int, output) -> str | None:
        c_star, d_star, s = self.truth[index]
        if not output.condition_estimate < self.CONDITION_LIMIT:
            return f"condition estimate {output.condition_estimate!r}"
        err_c = self._relative_error(self.grid1, output.c.values, c_star, s)
        err_d = self._relative_error(self.grid2, output.d.values, d_star, s)
        if not (err_c < self.ERROR_LIMIT and err_d < self.ERROR_LIMIT):
            return f"manufactured solution missed: errors {err_c:.2e}, {err_d:.2e}"
        return None


WORKLOADS = {cls.name: cls for cls in (SweepSaturation, OpnormDense, CornerSolve)}
