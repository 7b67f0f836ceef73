"""Command-line front end.

Subcommands mirror the library: ``zoo emit`` writes kernels, sequences and
graphs as JSON; ``merge``, ``bound``, ``stability`` and ``spectral`` run
one analysis on files; ``run`` executes a scenario (a JSON path or a
built-in name) and persists CSV/JSON results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chain_core import (
    KernelSequence,
    ProbMeasure,
    dump_json,
    kernel_to_json,
    load_json,
    measure_from_json,
    measure_to_json,
    number,
    numbers,
    required_key,
    sequence_from_json,
    sequence_to_json,
    write_plotdata,
)
from .merging import merging_time
from .scenarios import builtin_scenario_names, emit, run_scenario
from .singular import singular_value_bounds
from .spectral import comparison_check, srw_spectrum  # srw_spectrum stays importable from here
from .stability import (
    DEFAULT_BUDGET_NODES,
    EnumerationBudgetError,
    envelope_summary_csv,
    ratio_envelope,
)
from .zoo import (
    WeightedGraph,
    constant_rate_bd,
    graph_kernel,
    lazy_stick,
    perturbed_stick_pair,
    random_weights,
    small_example,
)


class _Params(dict):
    """``-P`` values; reading one that was not given is an error naming it."""

    def __missing__(self, key):
        raise ValueError(f"missing parameter {key!r}; pass -P {key}=<value>")

    def number(self, key: str, integer: bool = False):
        """``-P key`` by the rule of :func:`~mclab.chain_core.number`."""
        return number(self[key], f"-P {key}", integer)

    def optional(self, key: str, default=None):
        """``-P key`` as :meth:`number` reads it, or ``default`` when not given."""
        return self.number(key) if key in self else default


def _parse_params(pairs: list[str]) -> dict:
    out = _Params()
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"bad parameter {pair!r}; expected key=value")
        key, value = pair.split("=", 1)
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _measure_from_arg(arg: str, space) -> ProbMeasure:
    if arg == "uniform":
        return ProbMeasure.uniform(space)
    return measure_from_json(load_json(arg))


def _load_sequence(path: str) -> KernelSequence:
    return sequence_from_json(load_json(path))


def _cmd_zoo_emit(args) -> int:
    params = _parse_params(args.param)
    name = args.name
    if name == "constant_rate_bd":
        k = constant_rate_bd(params.number("N", integer=True), params.number("p"),
                             params.number("q"), params.number("r"))
        obj = kernel_to_json(k)
    elif name == "perturbed_stick_pair":
        q1, q2 = perturbed_stick_pair(params.number("N", integer=True), params.number("p"),
                                      params.number("q"), params.optional("r", 0.0),
                                      params.optional("eta1", 0.0), params.optional("eta2", 0.0))
        obj = sequence_to_json(KernelSequence.cyclic([q1, q2]))
    elif name in ("two_point", "five_point", "seven_point", "adjoint_pair"):
        kernels = small_example(name, a=params.optional("a"), b=params.optional("b"))
        obj = sequence_to_json(KernelSequence.cyclic(list(kernels)))
    elif name == "lazy_stick":
        obj = lazy_stick(params.number("N", integer=True)).to_json()
    elif name == "lazy_stick_kernel":
        kernel, pi = graph_kernel(lazy_stick(params.number("N", integer=True)))
        obj = kernel_to_json(kernel)
        obj["reversible_measure"] = measure_to_json(pi)["weights"]
    else:
        raise ValueError(f"unknown zoo name {name!r}")
    dump_json(obj, args.out)
    return 0


def _cmd_merge(args) -> int:
    seq = _load_sequence(args.sequence)
    report = merging_time(seq, args.epsilon, args.metric, args.n_max, args.block)
    out = Path(args.out)
    report.to_csv(out.with_suffix(".csv"))
    report.to_json(out.with_suffix(".json"))
    if args.plotdata:
        write_plotdata(out.with_suffix(".plotdata"), {
            "tv": list(enumerate(report.tv_trajectory)),
            "relsup": [(i, v) for i, v in enumerate(report.relsup_trajectory) if np.isfinite(v)],
        })
    t = report.time(args.metric)
    print(f"{args.metric} merging time at epsilon={args.epsilon}: "
          f"{t if t is not None else 'not reached'}")
    return 0


def _cmd_bound(args) -> int:
    seq = _load_sequence(args.sequence)
    mu0 = _measure_from_arg(args.mu0, seq.space)
    report = singular_value_bounds(seq, mu0, args.n)
    report.to_csv(args.out)
    dominated = report.dominates()
    print(f"largest exact-minus-bound gap: {report.max_violation():.3e} "
          f"({'dominated' if dominated else 'VIOLATED'})")
    return 0 if dominated else 1


def _cmd_stability(args) -> int:
    seq = _load_sequence(args.kernels)
    pi = _measure_from_arg(args.pi, seq.space)
    mu0 = _measure_from_arg(args.mu0, seq.space) if args.mu0 else pi
    report = ratio_envelope(list(seq.kernels), mu0, pi, args.depth,
                            budget_nodes=args.budget_nodes, c_threshold=args.criterion_c)
    out = Path(args.out)
    dump_json(report.to_json(), out)
    if args.csv_summary:
        envelope_summary_csv([report], args.csv_summary)
    print(f"c estimate at depth {args.depth}: {report.c_estimate:.6g}")
    return 0


def _cmd_spectral(args) -> int:
    graph = WeightedGraph.from_json(load_json(args.graph))
    if args.weights == "unit":
        weights = None
    elif args.weights.startswith("random:"):
        if args.b is None:
            raise ValueError("--weights random:<seed> needs --b, the weight-ratio band")
        weights = random_weights(graph, args.b, int(args.weights.split(":", 1)[1]))
    else:
        weights = numbers(required_key(load_json(args.weights), "weights"), "weights", 1)
    report = comparison_check(graph, weights, args.b, args.n_max)
    out = Path(args.out)
    dump_json({"srw": report.unit.to_json(), "sigma_w": report.sigma_w,
               "gap_margin": report.gap_margin, "gap_holds": report.gap_holds}, out.with_suffix(".json"))
    if args.n_max > 0:
        report.to_csv(out.with_suffix(".csv"))
    print(f"sigma(unit)={report.sigma_unit:.6g} sigma(w)={report.sigma_w:.6g} "
          f"gap comparison {'holds' if report.gap_holds else 'VIOLATED'}")
    return 0 if report.gap_holds else 1


def _cmd_run(args) -> int:
    result = run_scenario(args.scenario, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit("csv", result, out_dir / f"{result.name}.csv")
    emit("json", result, out_dir / f"{result.name}.json")
    if result.series:
        emit("plotdata", result, out_dir / f"{result.name}.plotdata")
    for violation in result.violations:
        print(f"violation: {violation}", file=sys.stderr)
    status = "ok" if result.passed else "FAILED"
    if result.report_only and result.violations:
        status = "ok (report only)"
    print(f"{result.name}: {len(result.rows)} rows, {status}")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mclab",
                                     description="numerical laboratory for time-inhomogeneous "
                                                 "finite Markov chains")
    parser.add_argument("--version", action="version", version=f"mclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    zoo = sub.add_parser("zoo", help="emit model-zoo objects as JSON")
    zoo_sub = zoo.add_subparsers(dest="zoo_command", required=True)
    emit_p = zoo_sub.add_parser("emit", help="write a named kernel/sequence/graph")
    emit_p.add_argument("name")
    emit_p.add_argument("-P", "--param", action="append", default=[],
                        help="key=value (JSON-parsed), repeatable")
    emit_p.add_argument("--out", required=True)
    emit_p.set_defaults(func=_cmd_zoo_emit, parser=emit_p)

    merge = sub.add_parser("merge", help="distance trajectories and merging time")
    merge.add_argument("--sequence", required=True, help="sequence JSON file")
    merge.add_argument("--metric", choices=["tv", "relsup"], default="tv")
    merge.add_argument("--epsilon", type=float, default=0.25)
    merge.add_argument("--n-max", type=int, default=1000)
    merge.add_argument("--block", type=int, default=1)
    merge.add_argument("--plotdata", action="store_true")
    merge.add_argument("--out", required=True, help="output stem (.csv/.json appended)")
    merge.set_defaults(func=_cmd_merge, parser=merge)

    bound = sub.add_parser("bound", help="singular-value bounds vs exact distances")
    bound.add_argument("--sequence", required=True)
    bound.add_argument("--mu0", default="uniform", help="'uniform' or a measure JSON file")
    bound.add_argument("--n", type=int, default=100)
    bound.add_argument("--out", required=True)
    bound.set_defaults(func=_cmd_bound, parser=bound)

    stab = sub.add_parser("stability", help="exact ratio envelope over the word tree")
    stab.add_argument("--kernels", required=True, help="sequence JSON (its kernel set is used)")
    stab.add_argument("--pi", default="uniform")
    stab.add_argument("--mu0", default=None)
    stab.add_argument("--depth", type=int, required=True)
    stab.add_argument("--criterion-c", type=float, default=None)
    stab.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET_NODES)
    stab.add_argument("--csv-summary", default=None, help="also write depth,c_estimate CSV")
    stab.add_argument("--out", required=True)
    stab.set_defaults(func=_cmd_stability, parser=stab)

    spec = sub.add_parser("spectral", help="graph spectra and the weight-comparison bound")
    spec.add_argument("--graph", required=True, help="graph JSON file")
    spec.add_argument("--weights", default="unit",
                      help="'unit', 'random:<seed>', or a JSON file with a weights array")
    spec.add_argument("--b", type=float, default=None, help="declared weight-ratio band")
    spec.add_argument("--n-max", type=int, default=0)
    spec.add_argument("--out", required=True)
    spec.set_defaults(func=_cmd_spectral, parser=spec)

    run = sub.add_parser("run", help="run a scenario (path or built-in name)")
    run.add_argument("scenario",
                     help=f"scenario JSON path or one of: {', '.join(builtin_scenario_names())}")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default="results")
    run.set_defaults(func=_cmd_run, parser=run)
    return parser


def _schema_errors() -> tuple[type[Exception], ...]:
    # jsonschema loads on a scenario's first validation, never with the package,
    # so until it is in sys.modules no schema error can have been raised
    jsonschema = sys.modules.get("jsonschema")
    return (jsonschema.ValidationError,) if jsonschema is not None else ()


def main(argv=None) -> int:
    """Run one subcommand; an unknown argument, a ``ValueError``, an ``OSError``,
    an ``EnumerationBudgetError`` or a scenario that fails the schema exits
    with the subcommand's usage and status 2."""
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # argparse would report these with the top-level usage
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except (ValueError, OSError, EnumerationBudgetError) as exc:
        args.parser.error(str(exc))
    except _schema_errors() as exc:
        where = ".".join(map(str, exc.absolute_path)) or "top level"
        args.parser.error(f"scenario fails the schema ({where}): {exc.message}")


if __name__ == "__main__":
    sys.exit(main())
