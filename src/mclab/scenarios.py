"""Scenario runner: declarative parameter sweeps with reproducible output.

A scenario is a JSON document naming a kernel-family generator, a
parameter grid, one analysis, and optional threshold checks on the grouped
medians. Rows come out in grid order; a ``merging_time`` analysis walks
consecutive points of one state count together as one stack
(:func:`~mclab.merging.first_passages`). Randomness is drawn from
counter-based substreams keyed by ``(seed, grid index)``, so each point's
result depends only on the seed and its index. Scenarios marked
``report_only`` never fail, matching the open problems they probe.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.resources
import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from itertools import groupby
from itertools import product as iter_product
from pathlib import Path

import numpy as np

from . import __version__
from .chain_core import (
    KernelSequence,
    ProbMeasure,
    dump_json,
    load_json,
    number,
    required_key,
    sequence_from_json,
    write_csv,
    write_plotdata,
)
from .merging import first_passage, first_passages  # first_passage stays importable from here
from .rng import fold_path, substream
from .singular import singular_value_bounds
from .spectral import comparison_check
from .zoo import WeightedGraph, _reversible_measures, constant_rate_bd, constant_rate_bd_set, \
    general_bd_set, graph_kernel, lazy_stick, perturbed_stick_pair, random_weights
from .zoo import general_bd  # noqa: F401  general_bd stays importable from here

MAX_INLINE_STATES = 64

SCENARIO_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "seed", "generator", "analysis", "grid"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "report_only": {"type": "boolean"},
        "replicas": {"type": "integer", "minimum": 1},
        "generator": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "properties": {
                "family": {"type": "string", "minLength": 1},
                "params": {"type": "object"},
            },
        },
        "analysis": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["merging_time", "singular_domination", "spectral_comparison"]},
                "metric": {"enum": ["tv", "relsup"]},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "n_max": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 0},
                "b": {"type": "number", "minimum": 1},
            },
        },
        "grid": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {"type": "array", "minItems": 1},
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "column", "by"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["doubling_ratio", "doubling_ratio_min"]},
                    "column": {"type": "string"},
                    "by": {"type": "string"},
                    "lo": {"type": "number"},
                    "hi": {"type": "number"},
                },
            },
        },
    },
}


def _blas_version() -> str:
    """Name and version of the BLAS numpy was built against, e.g. ``scipy-openblas 0.3.31``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


@dataclass
class ResultSet:
    """Rows, grouped summary, and itemized invariant violations of one run."""

    name: str
    scenario_hash: str
    tool_version: str
    columns: list[str]
    rows: list[dict]
    summary: dict
    violations: list[str]
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    report_only: bool = False
    provenance: dict = field(default_factory=dict)
    blas: str = field(default_factory=_blas_version)

    @property
    def passed(self) -> bool:
        return self.report_only or not self.violations

    def to_json_obj(self) -> dict:
        """Every field but ``series``, which goes to plotdata."""
        return {k: v for k, v in asdict(self).items() if k != "series"}


# ---------------------------------------------------------------------------
# generators: family name -> (sequence, metadata) for one grid point


def _number(obj: dict, key: str, default=None, integer: bool = False):
    """``obj[key]``, or ``default`` when absent (required if ``None``), by the rule of
    :func:`~mclab.chain_core.number`."""
    value = required_key(obj, key) if default is None else obj.get(key, default)
    return number(value, repr(key), integer)


def _seed_from(rng) -> int:
    return int(rng.integers(0, 2 ** 62))


def _gen_bd_ratio_set(params: dict, point: dict, rng) -> tuple[KernelSequence, dict]:
    """An i.i.d. sequence over ``set_size`` constant-rate birth-death kernels on ``{0, ..., N}``.

    Each kernel draws its drift ratio ``p/q`` log-uniformly from
    ``[ratio_min, ratio_max]`` and its holding ``r`` uniformly from
    ``[0, hold_max]``, with ``q = (1 − r)/(1 + ratio)``. The kernels are
    built as one stack by :func:`~mclab.zoo.constant_rate_bd_set`, with the
    bits of a loop of :func:`~mclab.zoo.constant_rate_bd`.
    """
    n = _number(point, "N", integer=True)
    lo = _number(params, "ratio_min", 1.2)
    hi = _number(params, "ratio_max", 2.0)
    hold_max = _number(params, "hold_max", 0.3)
    size = _number(params, "set_size", 32, integer=True)
    # one (log ratio, holding) pair per kernel, drawn in the order a loop of
    # scalar draws takes them: rng.uniform applies each element's bounds alone
    draws = rng.uniform(np.array([math.log(lo), 0.0]), np.array([math.log(hi), hold_max]),
                        size=(size, 2))
    ps, qs, rs = [], [], []
    for log_ratio, r in draws.tolist():
        ratio = math.exp(log_ratio)
        q = (1.0 - r) / (1.0 + ratio)
        ps.append(ratio * q)
        qs.append(q)
        rs.append(r)
    return KernelSequence.iid(constant_rate_bd_set(n, ps, qs, rs), seed=_seed_from(rng)), {}


def _gen_mirrored_bd_pair(params: dict, point: dict, rng) -> tuple[KernelSequence, dict]:
    n = _number(point, "N", integer=True)
    p, q, r = (_number(params, key) for key in ("p", "q", "r"))
    return KernelSequence.cyclic([constant_rate_bd(n, p, q, r),
                                  constant_rate_bd(n, q, p, r)]), {}


def _accepted_pairs(count: int, rng) -> np.ndarray:
    """The first ``count`` draws ``(u, d)`` from ``U[1/4, 1/2)²`` with ``u + d <= 3/4``.

    The pairs and the state ``rng`` is left in are those of a loop that
    draws one pair at a time until ``count`` are accepted. Candidates are
    drawn in blocks; then the state is rewound and exactly the pairs that
    loop would have consumed are drawn again.
    """
    state = rng.bit_generator.state
    drawn = np.empty((0, 2))
    accepted = np.zeros(0, dtype=np.intp)
    while accepted.size < count:
        # about half of the pairs are accepted
        drawn = np.concatenate((drawn, rng.uniform(0.25, 0.5, size=(2 * count + 8, 2))))
        accepted = np.flatnonzero(drawn[:, 0] + drawn[:, 1] <= 0.75)
    rng.bit_generator.state = state
    rng.uniform(0.25, 0.5, size=(accepted[count - 1] + 1 if count else 0, 2))
    return drawn[accepted[:count]]


def _sample_banded_chain(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The rates ``(up, down)`` of a birth-death chain on ``{0, ..., N}`` in the target class.

    Rejection sampling: the end rates ``up[0]`` and ``down[N]`` from
    ``U[1/4, 3/4)`` and the interior pairs from :func:`_accepted_pairs`,
    until the reversible measure lies in the measure band
    (:func:`~mclab.zoo._reversible_measures`, from the rates alone). No
    kernel is built for a try, and the rate band is not tested: every draw
    lies in it. Interior rates lie in ``[1/4, 1/2)`` with ``u + d <= 3/4``,
    so holding ``1 - u - d`` lies in ``[1/4, 1/2]``; end rates in
    ``[1/4, 3/4)``, so their holding lies in ``(1/4, 3/4]``. Forming the
    holding and normalizing a kernel row each move an entry by at most an
    ulp, against the flag's ``1e-15`` slack.
    """
    for _ in range(10000):
        up = np.zeros(n + 1)
        down = np.zeros(n + 1)
        up[0] = rng.uniform(0.25, 0.75)
        down[n] = rng.uniform(0.25, 0.75)
        up[1:n], down[1:n] = _accepted_pairs(n - 1, rng).T
        if _reversible_measures(n, up[None], down[None])[1][0]:
            return up, down
    raise RuntimeError("could not sample a chain in the target class")


def _gen_uniform_bd_set(params: dict, point: dict, rng) -> tuple[KernelSequence, dict]:
    """An i.i.d. sequence over ``set_size`` chains drawn by :func:`_sample_banded_chain`.

    The kernels are built as one stack by :func:`~mclab.zoo.general_bd_set`.
    """
    n = _number(point, "N", integer=True)
    size = _number(params, "set_size", 8, integer=True)
    ups, downs = zip(*(_sample_banded_chain(n, rng) for _ in range(size)))
    kernels = [spec.kernel for spec in general_bd_set(n, ups, downs)]
    return KernelSequence.iid(kernels, seed=_seed_from(rng)), {}


def _gen_stick_pair(params: dict, point: dict, rng) -> tuple[KernelSequence, dict]:
    n = _number(point, "N", integer=True)
    q1, q2 = perturbed_stick_pair(n, _number(params, "p"), _number(params, "q"),
                                  *(_number(params, key, 0.0) for key in ("r", "eta1", "eta2")))
    return KernelSequence.cyclic([q1, q2]), {}


def _gen_lazy_stick_weights(params: dict, point: dict, rng) -> tuple[KernelSequence, dict]:
    n = _number(point, "N", integer=True)
    b = _number(params, "b", 2.0)
    size = _number(params, "set_size", 8, integer=True)
    graph = lazy_stick(n)
    weight_draws = [random_weights(graph, b, _seed_from(rng)) for _ in range(size)]
    kernels = [graph_kernel(graph.with_weights(w))[0] for w in weight_draws]
    meta = {"graph": graph, "weights": weight_draws[0], "b": b}
    return KernelSequence.iid(kernels, seed=_seed_from(rng)), meta


def _gen_sequence_file(params: dict, point: dict, rng) -> tuple[KernelSequence, dict]:
    # run_scenario has already resolved a relative path against the scenario file
    return sequence_from_json(load_json(required_key(params, "path"))), {}


def _gen_inline_sequence(params: dict, point: dict, rng) -> tuple[KernelSequence, dict]:
    seq = sequence_from_json(required_key(params, "sequence"))
    if seq.space.size > MAX_INLINE_STATES:
        raise ValueError(
            f"inline kernels are limited to {MAX_INLINE_STATES} states; "
            "use the sequence_file family for larger systems")
    return seq, {}


GENERATORS = {
    "bd_ratio_set": _gen_bd_ratio_set,
    "mirrored_bd_pair": _gen_mirrored_bd_pair,
    "uniform_bd_set": _gen_uniform_bd_set,
    "stick_pair": _gen_stick_pair,
    "lazy_stick_weights": _gen_lazy_stick_weights,
    "sequence_file": _gen_sequence_file,
    "inline_sequence": _gen_inline_sequence,
}


# ---------------------------------------------------------------------------
# analyses


# the columns each analysis adds to a grid point's keys, in row order
COLUMNS = {
    "merging_time": ("t_merge", "tv_final", "relsup_final"),
    "singular_domination": ("max_violation", "sigma_product_final"),
    "spectral_comparison": ("sigma_w", "sigma_unit", "gap_margin"),
}


def _columns(kind: str, *values) -> dict:
    return dict(zip(COLUMNS[kind], values, strict=True))


def _run_merging(points: list[dict], make, options: dict) -> list[dict]:
    """Rows of a ``merging_time`` scenario, one per grid point, in grid order.

    Each run of consecutive points with one ``N`` (all points, for a family
    without ``N``) goes to one :func:`~mclab.merging.first_passages` call as
    a generator of ``make(index, point)``, the point's sequence, which
    batches it: a point is generated only when the walk reads it, so no
    point of the next ``N`` is made before the last stack of this one has
    been walked, and the first failing point's error is raised.
    """
    epsilon = float(options.get("epsilon", 0.25))
    metric = options.get("metric", "tv")
    n_max = int(options.get("n_max", 1000))
    results = []
    for _, run in groupby(enumerate(points), key=lambda item: item[1].get("N")):
        results += first_passages((make(index, point) for index, point in run),
                                  epsilon, metric, n_max)
    return [{**point, **_columns("merging_time", -1 if t is None else t, float(tv), float(relsup))}
            for point, (t, tv, relsup) in zip(points, results)]


def _run_singular_domination(seq: KernelSequence, meta: dict, options: dict) -> tuple[dict, list[str]]:
    mu0 = ProbMeasure.uniform(seq.space)
    report = singular_value_bounds(seq, mu0, int(options.get("n", 100)))
    worst = report.max_violation()
    violations = []
    if not report.dominates():
        violations.append(f"singular-value bound violated by {worst:.3e}")
    row = _columns("singular_domination", worst, float(report.sigma_product[-1]))
    return row, violations


def _run_spectral(seq: KernelSequence, meta: dict, options: dict) -> tuple[dict, list[str]]:
    graph: WeightedGraph | None = meta.get("graph")
    if graph is None:
        raise ValueError("spectral_comparison needs a graph-backed generator family")
    report = comparison_check(graph, meta.get("weights"), options.get("b", meta.get("b")),
                              int(options.get("n_max", 0)))
    violations = []
    if not report.gap_holds:
        violations.append(f"gap comparison violated by {-report.gap_margin:.3e}")
    if not report.dominates():
        violations.append("convergence bound fell below the exact deviation")
    row = _columns("spectral_comparison", report.sigma_w, report.sigma_unit, report.gap_margin)
    return row, violations


# per-point analyses; merging_time walks batches of points in _run_merging
ANALYSES = {
    "singular_domination": _run_singular_domination,
    "spectral_comparison": _run_spectral,
}


# ---------------------------------------------------------------------------
# runner


def builtin_scenario_names() -> list[str]:
    root = importlib.resources.files("mclab") / "scenario_configs"
    return sorted(p.name.removesuffix(".json") for p in root.iterdir() if p.name.endswith(".json"))


def _locate_scenario(source):
    """The built-in config named ``source`` if there is one, else ``source`` as a path."""
    candidate = importlib.resources.files("mclab") / "scenario_configs" / f"{source}.json"
    try:
        if candidate.is_file():
            return candidate
    except (TypeError, OSError):
        pass
    return Path(source)


@functools.cache
def _scenario_validator():
    """The validator of ``SCENARIO_SCHEMA``, the schema itself checked once, on first use."""
    # imported here so that `import mclab` does not load jsonschema for this one check
    from jsonschema.validators import validator_for

    cls = validator_for(SCENARIO_SCHEMA)
    cls.check_schema(SCENARIO_SCHEMA)
    return cls(SCENARIO_SCHEMA)


def load_scenario(source) -> tuple[dict, bytes]:
    """Load a scenario from a path or a built-in name; returns (config, bytes)."""
    text = _locate_scenario(source).read_bytes()
    config = json.loads(text.decode("utf-8"))
    # the error jsonschema.validate raises, without checking the schema again on every load
    from jsonschema.exceptions import best_match

    error = best_match(_scenario_validator().iter_errors(config))
    if error is not None:
        raise error
    if config["generator"]["family"] not in GENERATORS:
        raise ValueError(f"unknown generator family {config['generator']['family']!r}; "
                         f"known: {sorted(GENERATORS)}")
    return config, text


def _grid_points(config: dict) -> list[dict]:
    grid = config["grid"]
    keys = list(grid.keys())
    replicas = int(config.get("replicas", 1))
    points = []
    for combo in iter_product(*(grid[k] for k in keys)):
        for rep in range(replicas):
            point = dict(zip(keys, combo))
            point["replica"] = rep
            points.append(point)
    return points


def _median_by(rows: list[dict], column: str, by: str) -> dict:
    """Median of ``column`` over the rows of each ``by`` value, in sorted order.

    A ``t_merge`` of -1 (not reached within ``n_max``) ranks after every
    reached time, so a median is the true order statistic, and reads
    ``inf`` when it falls on an unreached point.
    """
    groups: dict = {}
    for row in rows:
        value = row[column]
        if column == "t_merge" and value == -1:
            value = math.inf
        groups.setdefault(row[by], []).append(value)
    return {k: float(np.median(v)) for k, v in sorted(groups.items())}


def _apply_checks(config: dict, rows: list[dict]) -> tuple[dict, list[str]]:
    summary: dict = {"medians": {}, "checks": []}
    violations: list[str] = []
    for check in config.get("checks", []):
        med = _median_by(rows, check["column"], check["by"])
        summary["medians"][f"{check['column']}|{check['by']}"] = med
        keys = sorted(med)
        ratios, first = [], len(violations)
        for key in keys:
            if math.isinf(med[key]):
                what = "not reached within n_max" if check["column"] == "t_merge" else "infinite"
                violations.append(f"median {check['column']} at {check['by']}={key} is {what}; "
                                  "ratio undefined")
        for small, large in zip(keys, keys[1:]):
            if math.isinf(med[small]) or math.isinf(med[large]):
                continue
            if med[small] <= 0:
                violations.append(f"median {check['column']} at {check['by']}={small} "
                                  "is non-positive; ratio undefined")
                continue
            ratios.append(med[large] / med[small])
        for ratio in ratios:
            lo = check.get("lo", -math.inf)
            hi = check.get("hi", math.inf) if check["kind"] == "doubling_ratio" else math.inf
            if not lo <= ratio <= hi:
                violations.append(
                    f"{check['column']} doubling ratio {ratio:.4g} outside "
                    f"[{lo:.4g}, {'inf' if math.isinf(hi) else format(hi, '.4g')}]")
        summary["checks"].append({"check": check, "ratios": ratios,
                                  "pass": len(violations) == first})
    return summary, violations


def run_scenario(source, seed: int | None = None, threads: int = 1) -> ResultSet:
    """Execute a scenario (path or built-in name) and return its results.

    ``seed`` overrides the config seed; an effective seed outside
    ``[0, 2^64)`` raises ``ValueError``, as :func:`~mclab.rng.substream`
    would fold it onto another seed's stream. Rows come out in grid order, and
    a failure raises the error of the first failing point; ``merging_time``
    points are walked in stacks (:func:`_run_merging`). A check whose
    ``by`` or ``column`` is neither a grid key, ``replica`` nor one of the
    analysis's ``COLUMNS`` raises ``ValueError`` before any point runs.
    ``threads`` is accepted for compatibility and selects nothing.
    ``scenario_hash`` is the SHA-256 of the effective config (after the
    override) as canonical JSON, followed for ``sequence_file`` by the
    SHA-256 of the data file's bytes. A relative ``sequence_file`` path is
    read from the scenario file's directory. ``provenance`` records the
    effective seed and the numpy and scipy versions; ``blas`` names the BLAS
    numpy was built with.
    """
    config, _ = load_scenario(source)
    if seed is not None:
        config = dict(config, seed=int(seed))
    base_seed = int(config["seed"])
    if not 0 <= base_seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {base_seed}")
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8"))
    family = config["generator"]["family"]
    generate = GENERATORS[family]
    params = config["generator"].get("params", {})
    if family == "sequence_file":
        data = Path(_locate_scenario(source)).parent / required_key(params, "path")
        params = dict(params, path=str(data))
        digest.update(hashlib.sha256(data.read_bytes()).digest())
    kind = config["analysis"]["kind"]
    options = config["analysis"]
    row_keys = dict.fromkeys([*config["grid"], "replica", *COLUMNS[kind]])
    for check in config.get("checks", []):  # before any point is generated
        required_key(row_keys, check["by"])
        required_key(row_keys, check["column"])
    points = _grid_points(config)

    def make(index: int, point: dict):
        return generate(params, point, substream(base_seed, fold_path(index)))

    rows: list[dict] = []
    violations: list[str] = []
    if kind == "merging_time":
        rows = _run_merging(points, lambda index, point: make(index, point)[0], options)
    else:
        for index, point in enumerate(points):
            row, point_violations = ANALYSES[kind](*make(index, point), options)
            rows.append({**point, **row})
            violations.extend(f"grid[{index}]: {v}" for v in point_violations)

    summary, check_violations = _apply_checks(config, rows)
    violations.extend(check_violations)
    columns = list(rows[0].keys()) if rows else []
    series: dict[str, list[tuple[float, float]]] = {}
    for label, med in summary["medians"].items():
        try:
            series[f"median {label}"] = [(float(k), v) for k, v in med.items() if math.isfinite(v)]
        except (TypeError, ValueError):
            pass
    import scipy  # here, not at module level, so that `import mclab` does not load scipy

    return ResultSet(
        name=config["name"],
        scenario_hash=digest.hexdigest(),
        tool_version=__version__,
        columns=columns,
        rows=rows,
        summary=summary,
        violations=violations,
        series=series,
        report_only=bool(config.get("report_only", False)),
        provenance={"seed": base_seed, "numpy": np.__version__, "scipy": scipy.__version__},
    )


# ---------------------------------------------------------------------------
# emit


def emit(fmt: str, result: ResultSet, path) -> None:
    """Write a result set as ``csv``, ``json`` or ``plotdata``.

    CSV starts with comment lines (scenario, hash, tool version, the
    provenance entries, the BLAS, and a timestamp, the single
    non-deterministic line) followed by a stable header and one row per
    grid point. JSON is :func:`~mclab.chain_core.dump_json` of
    ``result.to_json_obj()``. Plotdata is
    :func:`~mclab.chain_core.write_plotdata` of ``result.series``.
    """
    if fmt == "csv":
        comments = [
            f"scenario: {result.name}",
            f"hash: {result.scenario_hash}",
            f"tool_version: {result.tool_version}",
            *(f"{key}: {value}" for key, value in result.provenance.items()),
            f"blas: {result.blas}",
            f"timestamp: {datetime.now(timezone.utc).isoformat()}",
        ]
        write_csv(path, result.columns, ([row[k] for k in result.columns] for row in result.rows),
                  comments)
    elif fmt == "json":
        dump_json(result.to_json_obj(), path)
    elif fmt == "plotdata":
        write_plotdata(path, result.series)
    else:
        raise ValueError(f"unknown emit format {fmt!r}")
