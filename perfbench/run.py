"""mclab benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a source checkout (mclab is imported from ``src``)::

    python3 perfbench/run.py --workload scenario-sweep --seed 1 --seconds 25 --trace 0

Workloads: ``scenario-sweep``, ``trajectory-256``, ``certify`` (see
``workloads.py`` and ``README.md``). BLAS is pinned to one thread and the
scenario runner runs with ``threads=1``.

A run sets up ``SETUP_REPEATS`` times (a fresh interpreter importing mclab,
then building the input files and configs in-process), then repeats full
passes until ``--seconds`` have elapsed and at least ``MIN_PASSES`` passes
ran, then checks the first pass against the ``product()`` oracle and the
later passes against the first. Reported times are scaled to a reference
machine speed, operation by operation, by the probe in ``probe.py``; raw
times go to the result file. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it reports the per-layer metrics from the traced ones plus
the tracing overhead. The last line of standard output is the result as
one JSON object; provenance and notes go to the lines above it and to
``perfbench/out/<workload>/result-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mclab; print(time.perf_counter() - t)")

UNITS = {"calls": "count", "kernel_steps": "count", "points": "count", "self_s": "s",
         "overhead_s": "s", "flops_computed": "flop", "N64": "us", "N256": "us"}


@contextlib.contextmanager
def quiet():
    """Swallow the CLI's progress prints so the benchmark's last line stays its result."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scenario-sweep", "trajectory-256", "certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_seconds() -> float:
    """Time ``import mclab`` in a fresh interpreter with the same environment."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mclab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_provenance(np) -> dict:
    """OpenBLAS version from numpy's build config and its live thread count."""
    import ctypes

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def inputs_sha256(name: str, seed: int, effective: dict, files: list[Path], base: Path) -> str:
    """Hash of the workload's effective configuration and the bytes of its input files."""
    digest = hashlib.sha256(json.dumps({"workload": name, "seed": seed, "config": effective},
                                       sort_keys=True).encode())
    for path in files:
        digest.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_passes(workload, mclab, seconds: float, tally, tracer, probe):
    """Full passes until ``seconds`` elapsed and ``MIN_PASSES`` ran.

    An untraced pass runs one operation at a time with a speed probe after
    each, and each operation's time is scaled by the probes around it: the
    shorter the window, the closer the probes follow the machine's speed.
    With a tracer, odd passes are traced, without probes inside them; its
    wrappers are installed only for those passes. Returns the samples (raw
    and probe-scaled times of untraced passes, raw times of traced ones)
    and the first pass's collected output.
    """
    samples = {name: [] for name in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s",
                                     "traced_wall_s", "probe_s")}
    first = None
    before = probe()
    began = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - began < seconds:
        if tracer is not None and index % 2 == 1:
            tracer.install(mclab)
            try:
                with quiet():
                    t0 = time.perf_counter()
                    raw = tracer.wrap("bench.pass", workload.run_pass)(tally)
                    samples["traced_wall_s"].append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            before = probe()
            samples["probe_s"].append(before[0])
        else:
            raw, totals = {}, dict.fromkeys(("raw_wall_s", "raw_cpu_s", "wall_s", "cpu_s"), 0.0)
            for label, operation in workload.operations():
                with quiet():
                    t0, c0 = time.perf_counter(), time.process_time()
                    raw[label] = operation(tally)
                    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                after = probe()
                samples["probe_s"].append(after[0])
                totals["raw_wall_s"] += wall
                totals["raw_cpu_s"] += cpu
                totals["wall_s"] += wall * probe.reference_s / ((before[0] + after[0]) / 2)
                totals["cpu_s"] += cpu * probe.reference_s / ((before[1] + after[1]) / 2)
                before = after
            for name, value in totals.items():
                samples[name].append(value)
        index += 1
        try:
            result = workload.collect(raw)
        except (OSError, ValueError, KeyError) as exc:
            tally.error(f"pass {index}: reading outputs", exc)
            continue
        if first is None:
            first = result
        else:
            tally.check(workload.same(first, result), f"pass {index}: outputs differ from pass 1")
    return samples, first


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mclab" / "__init__.py").is_file():
        print(f"perfbench: no mclab sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy is imported anywhere in this process or its children
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy as np
    import scipy

    import mclab
    import mclab.cli
    cold_import_s = time.perf_counter() - t0
    if Path(mclab.__file__).resolve().parent != SRC / "mclab":
        print(f"perfbench: imported mclab from {mclab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from probe import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS, Tally

    workdir = OUT / args.workload
    workload = WORKLOADS[args.workload](mclab, args.seed, workdir)
    probe = SpeedProbe()
    setups, raw_setups, imports = [], [], []
    for _ in range(SETUP_REPEATS):
        speed = probe()[0]
        imported = import_seconds()
        t1 = time.perf_counter()
        with quiet():
            effective = workload.build()
        raw_setups.append(imported + time.perf_counter() - t1)
        setups.append(raw_setups[-1] * probe.reference_s / speed)
        imports.append(imported)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mclab": mclab.__version__,
        **blas_provenance(np),
        "scenario_threads": 1,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "inputs_sha256": inputs_sha256(args.workload, args.seed, effective,
                                       workload.input_files(), workdir),
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    tally = Tally()
    tracer = Tracer() if args.trace else None
    samples, first = run_passes(workload, mclab, args.seconds, tally, tracer, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = []
    if first is not None:
        try:
            notes = workload.check(first, tally)
        except Exception as exc:  # a malformed output must still yield a result line
            tally.error("oracle", exc)

    samples.update(setup_s=setups, raw_setup_s=raw_setups, import_s=imports)
    traced, raw_walls = samples["traced_wall_s"], samples["raw_wall_s"]
    if args.trace:
        layers = tracer.layer_metrics(len(traced))
        # the first pass is untraced and doubles as the warm-up: the
        # overhead compares traced passes with the untraced ones after it
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(raw_walls[1:])
        metrics = {name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[-1]]}
                   for name, value in layers.items()}
        tracer.write(workdir / "spans.npz")
        module_s = sum(v for k, v in layers.items() if k.endswith(".self_s")
                       and k != "bench.pass.self_s")
        print(f"trace: {len(traced)} traced passes, mean {statistics.mean(traced):.4f} s; "
              f"module self times {module_s:.4f} s, benchmark's own "
              f"{layers['bench.pass.self_s']:.4f} s, overhead {layers['trace.overhead_s']:.4f} s")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(samples["wall_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(samples["cpu_s"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_frac": {"value": (tally.attempted - tally.failed) / max(tally.attempted, 1),
                          "unit": "frac"},
        }

    correct = tally.failed == 0 and tally.attempted > 0
    for note in notes:
        print(f"report: {note}")
    for note in tally.notes[:20]:
        print(f"FAILED: {note}")
    if len(tally.notes) > 20:
        print(f"FAILED: ... and {len(tally.notes) - 20} more")
    print(f"oracle: {'ok' if correct else 'FAILED'}; fail_frac = "
          f"{tally.failed / max(tally.attempted, 1):g} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    print(f"cold import (numpy, scipy, mclab): {cold_import_s:.4f} s; "
          f"passes: {len(raw_walls)} untraced, {len(traced)} traced; setups: {len(setups)}")
    print(f"speed probe: median {statistics.median(samples['probe_s']):.4f} s against "
          f"{probe.reference_s} s on the reference machine; raw medians: "
          + ", ".join(f"{name} {statistics.median(samples['raw_' + name]):.4f} s"
                      for name in ("wall_s", "cpu_s", "setup_s") if samples["raw_" + name]))
    for name, metric in metrics.items():
        count = len(samples.get(name, ())) or None
        print(f"{name:<46} {metric['value']:>16.6f} {metric['unit']}"
              + (f"  (median of {count})" if count else ""))
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps({
        "provenance": provenance, "metrics": metrics, "samples": samples,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.notes, "report": notes}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
