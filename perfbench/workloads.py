"""The benchmark's three workloads and the oracle checks on their outputs.

Each workload builds its inputs from the seed (``build``), runs one full
pass through mclab's public entry points as a list of operations
(``operations``), and checks a pass's outputs (``check``). The reference for every distance is the
literal ``product()`` fold; passes after the first must reproduce the
first pass's outputs exactly.

- ``scenario-sweep``: the scenario runner over many short first-passage
  walks at N <= 64 (per-step overhead: i.i.d. dispatch, renormalisation,
  relsup, small-N TV) plus long cyclic walks (mirrored pair up to N=64).
- ``trajectory-256``: ``mclab merge`` on the cyclic mirrored pair at
  N=256, recording both distances and both certificates at every step
  (O(N^3) worst-pair TV, block-1 certificate through ``product()``).
- ``certify``: ``mclab bound``, ``stability`` and ``spectral``; the only
  workload touching the singular, stability and spectral modules.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from functools import partial
from itertools import product as iter_product
from pathlib import Path

import numpy as np

#: slack on threshold crossings and bound domination, as in the library
SLACK = 1e-12
#: relative agreement required between a reported distance and the oracle
DISTANCE_RTOL = 1e-9


class Tally:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


def reference_tv(matrix) -> float:
    """Worst-pair total variation, one row against all later rows at a time.

    The benchmark's own implementation, so that a changed distance kernel
    in the library is checked against code it does not share.
    """
    n = matrix.shape[0]
    return max((float((0.5 * np.abs(matrix[i + 1:] - matrix[i]).sum(axis=1)).max())
                for i in range(n - 1)), default=0.0)


def reference_relsup(matrix) -> float:
    """``max_y max_x M(x,y) / min_x M(x,y) - 1``; a column mixing zero and positive mass is inf."""
    worst = 0.0
    for column in matrix.T:
        hi, lo = float(column.max()), float(column.min())
        if hi == 0.0:
            continue
        if lo == 0.0:
            return math.inf
        worst = max(worst, hi / lo - 1.0)
    return worst


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a, b) -> bool:
    if a is None or b is None or math.isinf(a) or math.isinf(b):
        return (a is None or math.isinf(a)) and (b is None or math.isinf(b))
    return abs(a - b) <= DISTANCE_RTOL * max(1.0, abs(b))


def _call_cli(mclab, argv: list[str]) -> int:
    """``mclab.cli.main`` in-process; argparse exits become exit codes."""
    try:
        return int(mclab.cli.main(argv) or 0)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


class Workload:
    name = ""

    def __init__(self, mclab, seed: int, workdir: Path):
        self.mclab = mclab
        self.seed = seed
        self.workdir = workdir
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "outputs"

    def build(self) -> dict:
        """Write the inputs; return the effective configuration (hashed with the files)."""
        raise NotImplementedError

    def input_files(self) -> list[Path]:
        return sorted(p for p in self.inputs.rglob("*") if p.is_file())

    def operations(self) -> list[tuple[str, object]]:
        """One full pass as ``(label, fn)`` in order.

        ``fn(tally)`` returns what ``collect`` reads under ``label``; its
        errors count as failed operations.
        """
        raise NotImplementedError

    def run_pass(self, tally: Tally) -> dict:
        return {label: op(tally) for label, op in self.operations()}

    def check(self, result, tally: Tally) -> list[str]:
        """Oracle checks on one pass; returns report-only notes."""
        raise NotImplementedError

    def collect(self, raw):
        """Read back what a pass wrote; runs outside the timed region."""
        return raw

    def same(self, first, later) -> bool:
        return first == later


# ---------------------------------------------------------------------------


#: benchmark-owned mirrored-pair config; the built-in one stops at N=32
MIRRORED_64 = {
    "name": "mirrored-pair-64",
    "description": "Mirrored drifted birth-death pair up to N=64 (long cyclic first passage).",
    "generator": {"family": "mirrored_bd_pair", "params": {"p": 0.54, "q": 0.36, "r": 0.1}},
    "analysis": {"kind": "merging_time", "metric": "tv", "epsilon": 0.25, "n_max": 100000},
    "grid": {"N": [16, 32, 64]},
    "replicas": 1,
    "checks": [{"kind": "doubling_ratio_min", "column": "t_merge", "by": "N", "lo": 3.2}],
}


class ScenarioSweep(Workload):
    name = "scenario-sweep"

    def build(self) -> dict:
        self.inputs.mkdir(parents=True, exist_ok=True)
        own = self.inputs / "mirrored-pair-64.json"
        own.write_text(json.dumps(dict(MIRRORED_64, seed=self.seed), indent=2) + "\n",
                       encoding="utf-8")
        # (source, seed override); only the randomized scenarios take the seed
        self.runs = [("drifted-bd-scaling", self.seed), ("uniform-bd-probe", self.seed),
                     ("mirrored-pair", None), (str(own), None)]
        effective = {}
        for source, seed in self.runs:
            config, _ = self.mclab.scenarios.load_scenario(source)
            if seed is not None:
                config = dict(config, seed=seed)
            effective[config["name"]] = config
        self.configs = effective
        return {"scenarios": effective, "threads": 1}

    def operations(self):
        return [(source, partial(self._run, source, seed)) for source, seed in self.runs]

    def _run(self, source: str, seed, tally: Tally):
        try:
            return self.mclab.scenarios.run_scenario(source, seed=seed, threads=1)
        except Exception as exc:  # one failed scenario must not hide the others
            tally.error(f"run_scenario({source})", exc)
            return None

    def same(self, first, later) -> bool:
        def rows(results):
            return {k: None if r is None else (r.rows, r.violations) for k, r in results.items()}
        return rows(first) == rows(later)

    def check(self, results, tally: Tally) -> list[str]:
        notes = []
        for source, _ in self.runs:
            result = results[source]
            if not tally.check(result is not None, f"{source}: no result"):
                continue
            config = self.configs[result.name]
            self._check_points(config, result.rows, tally)
            verdict = "ok" if not result.violations else "; ".join(result.violations)
            notes.append(f"{result.name}: {len(result.rows)} points, checks {verdict}")
        return notes

    def _check_points(self, config: dict, rows: list[dict], tally: Tally) -> None:
        m = self.mclab
        chain_core = m.chain_core
        grid = config["grid"]
        keys = list(grid)
        points = [dict(zip(keys, combo), replica=rep)
                  for combo in iter_product(*(grid[k] for k in keys))
                  for rep in range(int(config.get("replicas", 1)))]
        if not tally.check(len(points) == len(rows), f"{config['name']}: row count"):
            return
        generate = m.scenarios.GENERATORS[config["generator"]["family"]]
        params = config["generator"].get("params", {})
        analysis = config["analysis"]
        metric, eps, n_max = analysis["metric"], float(analysis["epsilon"]), int(analysis["n_max"])
        measure = reference_tv if metric == "tv" else reference_relsup
        for index, (point, row) in enumerate(zip(points, rows)):
            label = f"{config['name']}[{index}]"
            try:
                if not tally.check(all(row[k] == v for k, v in point.items()),
                                   f"{label}: grid point out of order"):
                    continue
                rng = m.rng.substream(int(config["seed"]), m.rng.fold_path(index))
                seq, _ = generate(params, point, rng)
                t = int(row["t_merge"])
                if t < 0:
                    tally.check(measure(chain_core.product(seq, 0, n_max).entries) > eps - SLACK,
                                f"{label}: reported not reached, oracle merged by n_max")
                    continue
                # product() is the literal compose fold, so extending K_{0,t-1}
                # by K_t repeats exactly the operations of product(seq, 0, t)
                before = chain_core.product(seq, 0, max(t - 1, 0))
                at = chain_core.compose(before, seq.kernel_at(t)) if t > 0 else before
                before, at = before.entries, at.entries
                ok = measure(at) <= eps + SLACK and (t == 0 or measure(before) > eps - SLACK)
                tally.check(ok, f"{label}: t_merge={t} is not the first passage under {eps}")
                tally.check(_close(row["tv_final"], reference_tv(at))
                            and _close(row["relsup_final"], reference_relsup(at)),
                            f"{label}: final distances disagree with the product fold")
            except Exception as exc:
                tally.error(label, exc)


# ---------------------------------------------------------------------------


class Trajectory256(Workload):
    name = "trajectory-256"
    N = 256
    N_MAX = 200
    SAMPLED_ROWS = 4

    def build(self) -> dict:
        m = self.mclab
        self.inputs.mkdir(parents=True, exist_ok=True)
        zoo = m.zoo
        seq = m.chain_core.KernelSequence.cyclic([zoo.constant_rate_bd(self.N, 0.54, 0.36, 0.1),
                                                  zoo.constant_rate_bd(self.N, 0.36, 0.54, 0.1)])
        self.sequence = self.inputs / "mirrored-256.json"
        m.chain_core.dump_json(m.chain_core.sequence_to_json(seq), self.sequence)
        self.outputs.mkdir(parents=True, exist_ok=True)
        self.argv = ["merge", "--sequence", str(self.sequence), "--n-max", str(self.N_MAX),
                     "--out", str(self.outputs / "merge")]
        # the seed picks the rows checked against the oracle; the program's
        # input does not depend on it
        picks = random.Random(self.seed).sample(range(1, self.N_MAX), self.SAMPLED_ROWS)
        self.rows = sorted(picks) + [self.N_MAX]
        return {"argv": self.argv[:2] + [self.sequence.name] + self.argv[3:5],
                "oracle_rows": self.rows}

    def operations(self):
        return [("merge", self._merge)]

    def _merge(self, tally: Tally):
        try:
            return _call_cli(self.mclab, self.argv)
        except Exception as exc:
            tally.error("merge", exc)
            return None

    def collect(self, raw):
        code = raw["merge"]
        if code is None:
            return None
        report = json.loads((self.outputs / "merge.json").read_text(encoding="utf-8"))
        return code, report

    def check(self, result, tally: Tally) -> list[str]:
        if not tally.check(result is not None, "merge: no result"):
            return []
        code, report = result
        if not tally.check(code == 0, f"merge exited {code}"):
            return []
        m = self.mclab
        seq = m.chain_core.sequence_from_json(m.chain_core.load_json(self.sequence))
        tv, relsup = report["tv"], report["relsup"]
        for n in self.rows:
            try:
                exact = m.merging.pairwise_distances(seq, n)
                fold = m.chain_core.product(seq, 0, n).entries
                tally.check(_close(exact[0], reference_tv(fold))
                            and _close(exact[1], reference_relsup(fold)),
                            f"row {n}: pairwise_distances disagrees with the reference distances")
                tally.check(_close(tv[n], exact[0]) and _close(relsup[n], exact[1]),
                            f"row {n}: distances disagree with pairwise_distances")
            except Exception as exc:
                tally.error(f"row {n}", exc)
        for name in ("doeblin_bound", "block_bound"):
            bound = report[name]
            tally.check(all(t <= b + SLACK for t, b in zip(tv, bound)) and len(bound) == len(tv),
                        f"{name} does not dominate tv")
        # both certificates from the step kernels: block 1 is the product of
        # their Dobrushin coefficients (worst-pair TV), Doeblin the product of
        # 1 - max_y min_x K_i(x, y). On this input every step kernel has rows
        # with disjoint supports, so both products are exactly 1.
        per_kernel = {}
        block, doeblin = [1.0], [1.0]
        for i in range(1, self.N_MAX + 1):
            k = seq.kernel_at(i).entries
            key = hashlib.sha256(k.tobytes()).digest()
            if key not in per_kernel:
                per_kernel[key] = (reference_tv(k), 1.0 - float(k.min(axis=0).max()))
            block.append(block[-1] * per_kernel[key][0])
            doeblin.append(doeblin[-1] * per_kernel[key][1])
        for n in self.rows:
            tally.check(_close(report["block_bound"][n], block[n])
                        and _close(report["doeblin_bound"][n], doeblin[n]),
                        f"row {n}: certificates disagree with the step kernels")
        hits = [n for n, v in enumerate(tv) if v <= report["epsilon"]]
        tally.check(report["tv_time"] == (hits[0] if hits else None), "tv_time inconsistent")
        return [f"tv({self.N_MAX})={tv[-1]:.6g}, tv_time={report['tv_time']}"]


# ---------------------------------------------------------------------------


class Certify(Workload):
    name = "certify"

    def build(self) -> dict:
        m = self.mclab
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)
        params = {"ratio_min": 1.2, "ratio_max": 2.0, "hold_max": 0.3, "set_size": 8}
        seq, _ = m.scenarios.GENERATORS["bd_ratio_set"](
            params, {"N": 128}, m.rng.substream(self.seed, m.rng.fold_path(0)))
        bd_set = self.inputs / "drifted-bd-128.json"
        m.chain_core.dump_json(m.chain_core.sequence_to_json(seq), bd_set)
        pair = self.inputs / "stick-pair-11.json"
        stick = self.inputs / "lazy-stick-64.json"
        built = [_call_cli(m, ["zoo", "emit", "perturbed_stick_pair", "-P", "N=11",
                               "-P", "p=0.6", "-P", "q=0.4", "--out", str(pair)]),
                 _call_cli(m, ["zoo", "emit", "lazy_stick", "-P", "N=64", "--out", str(stick)])]
        if any(built):
            raise RuntimeError(f"zoo emit exited {built}")
        out = self.outputs
        self.bd_set = bd_set
        # the seed picks the bound rows checked against the product fold
        self.bound_rows = sorted(random.Random(self.seed).sample(range(1, 500), 4)) + [500]
        self.commands = {
            "bound": ["bound", "--sequence", str(bd_set), "--n", "500",
                      "--out", str(out / "bound.csv")],
            # depth 19 is the deepest binary word tree within the default node budget
            "stability": ["stability", "--kernels", str(pair), "--depth", "19",
                          "--out", str(out / "stability.json")],
            "spectral": ["spectral", "--graph", str(stick), "--weights", f"random:{self.seed}",
                         "--b", "2", "--n-max", "40960", "--out", str(out / "spectral")],
        }
        return {"bd_ratio_set": dict(params, N=128), "oracle_rows": self.bound_rows,
                "commands": {k: [a if not a.startswith(str(self.workdir)) else Path(a).name
                                 for a in v] for k, v in self.commands.items()}}

    def operations(self):
        return [(name, partial(self._command, name, argv)) for name, argv in self.commands.items()]

    def _command(self, name: str, argv: list[str], tally: Tally):
        try:
            return _call_cli(self.mclab, argv)
        except Exception as exc:
            tally.error(name, exc)
            return None

    def collect(self, codes):
        """Verdicts, the seed-picked bound rows and a digest of every output file.

        CSVs are streamed, not kept, so that the benchmark holds little
        memory of its own while later passes run.
        """
        out = self.outputs
        result = {"codes": codes}
        if codes["bound"] is not None:
            path = out / "bound.csv"
            rows, dominated, sampled = 0, True, {}
            with open(path, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    rows += 1
                    exact = float(row["max_tv_exact"])
                    dominated &= exact <= float(row["max_tv_bound"]) + SLACK
                    if int(row["n"]) in self.bound_rows:
                        sampled[int(row["n"])] = exact
            result["bound"] = {"rows": rows, "dominated": dominated, "max_tv_exact": sampled,
                               "sha256": _digest(path)}
        if codes["stability"] is not None:
            path = out / "stability.json"
            result["stability"] = {"c_estimate": json.loads(path.read_text(encoding="utf-8"))
                                   ["c_estimate"], "sha256": _digest(path)}
        if codes["spectral"] is not None:
            summary, table = out / "spectral.json", out / "spectral.csv"
            rows, dominated = 0, True
            with open(table, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    rows += 1
                    dominated &= float(row["exact_max"]) <= float(row["bound"]) + SLACK
            result["spectral"] = {
                "gap_holds": json.loads(summary.read_text(encoding="utf-8"))["gap_holds"],
                "rows": rows, "dominated": dominated,
                "sha256": (_digest(summary), _digest(table))}
        return result

    def check(self, result, tally: Tally) -> list[str]:
        codes = result["codes"]
        for name, code in codes.items():
            tally.check(code == 0, f"{name} exited {code}")
        bound = result.get("bound")
        if bound is not None:
            tally.check(bound["rows"] == 501 and bound["dominated"],
                        "bound: singular-value bounds do not dominate")
            self._check_bound_rows(bound["max_tv_exact"], tally)
        spectral = result.get("spectral")
        if spectral is not None:
            tally.check(spectral["gap_holds"] is True, "spectral: gap comparison fails")
            tally.check(spectral["rows"] == 40961 and spectral["dominated"],
                        "spectral: convergence bound does not dominate")
        if "stability" not in result:
            return []
        c = result["stability"]["c_estimate"]
        tally.check(isinstance(c, float) and c >= 1.0, f"stability: c_estimate {c!r}")
        return [f"stability c_estimate={c!r}"]

    def _check_bound_rows(self, reported: dict, tally: Tally) -> None:
        """``max_x TV(K_{0,t}(x, .), mu_t)`` from the ``product()`` fold, uniform mu_0."""
        m = self.mclab
        chain_core = m.chain_core
        try:
            seq = chain_core.sequence_from_json(chain_core.load_json(self.bd_set))
            fold = chain_core.StochasticKernel.identity(seq.space)
            for t in range(1, self.bound_rows[-1] + 1):
                fold = chain_core.compose(fold, seq.kernel_at(t))
                if t not in self.bound_rows:
                    continue
                entries = fold.entries
                mu = entries.mean(axis=0)
                exact = float((0.5 * np.abs(entries - mu).sum(axis=1)).max())
                tally.check(t in reported and _close(reported[t], exact),
                            f"bound row {t}: max_tv_exact disagrees with the product fold")
        except Exception as exc:
            tally.error("bound rows", exc)


WORKLOADS = {w.name: w for w in (ScenarioSweep, Trajectory256, Certify)}
