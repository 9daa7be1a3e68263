#!/usr/bin/env python3
"""fairvec benchmark: closed-loop runs of one workload, checked and timed.

    python3 perfbench/run.py --workload all                # every workload, untraced
    python3 perfbench/run.py --workload protocol-paper --trace 1

One client runs iterations back to back until --seconds have passed (at
least one). End-to-end metrics come from untraced iterations. With --trace 1
untraced and traced iterations alternate; the traced ones give the per-layer
metrics and the difference of the two gives the tracing overhead. Every
iteration's outputs are hashed: they must be byte-identical across
iterations, and for the pinned seed equal to perfbench/reference.json.
A failed command or check counts as a failed operation and makes the run
incorrect. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"

PINNED_SEED = 13
SETUP_REPEATS = 3
# Untraced runs time at least two iterations, so that a median is taken even
# where one iteration outlasts --seconds; traced runs need one
# untraced/traced pair for the overhead.
MIN_ROUNDS = {0: 2, 1: 1}
WORKLOADS = ("protocol-paper", "protocol-small", "edit-cli")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
E2E_EXTRA_UNITS = {
    "sweep_points_per_s": "1/s", "train_steps_per_s": "1/s",
    "edit_mb_per_s": "MB/s", "eval_records_per_s": "1/s", "failed_frac": "ratio",
}


def layer_units(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if "bytes" in name:
        return "B"
    if name == "toymodel.step_gflop":
        return "GFLOP-computed"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    return "count"


def environment(seed: int, fairvec_threads: str | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
            fn.restype = ctypes.c_int
            threads = fn()
        except (OSError, AttributeError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "FAIRVEC_THREADS": fairvec_threads if fairvec_threads is not None
        else "unset (program default: 1)",
        "seed": seed,
    }


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(files, root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): sha256_file(p) for p in sorted(files)}


def diff_digests(got: dict, want: dict, what: str) -> list[tuple[str, str]]:
    """(file, reason) for every file whose digest differs or is missing."""
    return [(k, what) for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]


def describe(found: list[tuple[str, str]]) -> list[str]:
    """One line per failing output file: its first reason and how many more."""
    by_file: dict[str, list[str]] = {}
    for path, reason in found:
        by_file.setdefault(path, []).append(reason)
    return [f"{path}: {reasons[0]}" + (f" (+{len(reasons) - 1} more)" if len(reasons) > 1 else "")
            for path, reasons in by_file.items()]


class Workload:
    """Binds a workload's inputs, iteration, outputs and checks."""

    def __init__(self, name: str, tiny: bool):
        # imported here: they import fairvec, which main() puts on sys.path
        import editcli
        import protocol

        self.name = name
        if name.startswith("protocol-"):
            full = protocol.PAPER if name == "protocol-paper" else protocol.SMALL
            self.scale, self.warm_scale = (protocol.TINY if tiny else full), protocol.TINY
            self.make_inputs, self.iterate = protocol.make_inputs, protocol.run_protocol
            self.check = None
            self.outputs = lambda out: [p for p in out.rglob("*") if p.is_file()]
        else:
            self.scale, self.warm_scale = (editcli.TINY if tiny else editcli.FULL), editcli.TINY
            self.make_inputs, self.iterate = editcli.make_inputs, editcli.run_edit
            self.check = editcli.check
            self.outputs = editcli.output_files

    def e2e(self, stats: list[dict], walls: list[float]) -> dict[str, float | None]:
        def med(num, den, scale=1.0):
            rates = [s[num] / s[den] * scale for s in stats if s[den] > 0]
            return statistics.median(rates) if rates else None

        out = {"wall_s": statistics.median(walls)}
        if self.name.startswith("protocol-"):
            out["sweep_points_per_s"] = med("sweep_points", "sweep_s")
            out["train_steps_per_s"] = med("train_steps", "train_s")
        else:
            out["edit_mb_per_s"] = med("edit_bytes", "edit_s", 1e-6)
            out["eval_records_per_s"] = med("eval_records", "eval_s")
        return out


def run_workload(name: str, args, import_s: float, work: Path) -> dict:
    import spans  # imports fairvec, like the workload modules

    wl = Workload(name, args.scale == "tiny")
    reference = None
    if args.seed == PINNED_SEED and args.scale == "full" and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text())["digests"].get(name)

    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t = time.perf_counter()
        warm = wl.make_inputs(args.seed, wl.warm_scale, work / "warm-in")
        wl.iterate(warm, work / "warm-out")
        inputs = wl.make_inputs(args.seed, wl.scale, work / "in")
        setups.append(time.perf_counter() - t)
    shutil.rmtree(work / "warm-in", ignore_errors=True)
    shutil.rmtree(work / "warm-out", ignore_errors=True)

    first = None

    def verify(out: Path) -> list[tuple[str, str]]:
        nonlocal first
        got = digests(wl.outputs(out), out)
        if first is not None:
            return diff_digests(got, first, "differs from the first iteration")
        first = got
        found = [] if reference is None else diff_digests(got, reference,
                                                          "differs from reference.json")
        return found + (wl.check(inputs, out) if wl.check is not None else [])

    tracer = spans.Tracer() if args.trace else None
    modes = [False, True] if args.trace else [False]
    walls, stats = [], []
    attempted = failed = 0
    problems: list[str] = []
    loop_start = time.perf_counter()
    k = rounds = 0
    while rounds < MIN_ROUNDS[args.trace] or time.perf_counter() - loop_start < args.seconds:
        rounds += 1
        for traced in modes:
            out = work / f"it{k}"
            k += 1
            try:
                if traced:
                    tracer.install()
                    try:
                        st = tracer.run_iteration(wl.iterate, inputs, out)
                    finally:
                        tracer.uninstall()
                else:
                    t = time.perf_counter()
                    st = wl.iterate(inputs, out)
                    walls.append(time.perf_counter() - t)
                    stats.append(st)
                found = verify(out)
            except Exception as exc:  # a crash in an iteration or its checks: one failed op
                attempted += 1
                failed += 1
                problems.append(f"iteration {k - 1}: {type(exc).__name__}: {exc}")
                continue
            # each operation writes one output file, so a bad file is a failed op
            attempted += st["ops"]
            failed += min(st["ops"], st["failed_ops"] + len({path for path, _ in found}))
            problems += [f"iteration {k - 1}: {p}" for p in describe(found)]
            shutil.rmtree(out, ignore_errors=True)

    result = {
        "name": name, "attempted": attempted, "failed": failed, "problems": problems,
        "samples": len(walls), "setup_samples": len(setups), "digests": first,
        "e2e": {"setup_s": import_s + statistics.median(setups), "wall_s": None,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
    }
    if stats:
        result["e2e"].update(wl.e2e(stats, walls))
    result["e2e"]["failed_frac"] = failed / attempted if attempted else 1.0
    if tracer is not None and tracer.iterations and walls:
        per = [spans.layer_metrics(sp, c) for sp, c in zip(tracer.iterations, tracer.counters)]
        layers = {m: statistics.fmean(p[m] for p in per) for m in per[0]}
        untraced = statistics.fmean(walls)
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / untraced
        layers["trace.iterations"] = len(per)
        result["layers"] = layers
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        result["spans_file"] = spans_dir / f"{name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(result["spans_file"])
    return result


def report(res: dict, args) -> dict[str, dict]:
    """Print one workload's table; return its contract metrics."""
    print(f"workload {res['name']}: seed {args.seed}, closed loop, 1 client, "
          f"{res['samples']} untraced iterations, {res['attempted']} ops, "
          f"{res['failed']} failed")
    for p in res["problems"]:
        print(f"  FAILED {p}")
    metrics = {}
    e2e = res["e2e"]
    notes = {"setup_s": f"median of {res['setup_samples']} set-ups",
             "peak_rss_mb": "process peak",
             "failed_frac": f"{res['failed']} of {res['attempted']} ops"}
    for name, unit in {**E2E_UNITS, **E2E_EXTRA_UNITS}.items():
        if name not in e2e:
            continue
        value = e2e[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        note = notes.get(name, f"median of {res['samples']} iterations")
        print(f"  {name:<22} {shown:>14} {unit:<8} {note}")
        if name in E2E_UNITS and not args.trace:
            metrics[name] = {"value": value, "unit": unit}
    if "layers" in res:
        print(f"  per-layer (mean of {res['layers']['trace.iterations']} traced iterations; "
              f"spans in {res['spans_file'].relative_to(ROOT)})")
        for name, value in res["layers"].items():
            unit = layer_units(name)
            print(f"  {name:<26} {value:>14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="tiny: seconds-long inputs for the benchmark's own tests")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's output digests in reference.json "
                         f"(full scale, seed {PINNED_SEED} only)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairvec" / "__init__.py").is_file():
        print(f"error: {SRC / 'fairvec'} not found; run from a fairvec checkout",
              file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != PINNED_SEED or args.scale != "full"):
        print(f"error: --write-reference needs --seed {PINNED_SEED} --scale full",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    fairvec_threads = os.environ.pop("FAIRVEC_THREADS", None)
    started = time.perf_counter()
    import fairvec
    import fairvec.cli  # noqa: F401  (imports every fairvec module and numpy)

    if Path(fairvec.__file__).resolve().parent != SRC / "fairvec":
        print(f"error: imported fairvec from {fairvec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    print("env " + json.dumps(environment(args.seed, fairvec_threads), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run_dir = WORK / f"run-{os.getpid()}"
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args, import_s, run_dir / name))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.write_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {
            "seed": PINNED_SEED, "digests": {}}
        for res in results:
            if res["failed"]:
                print(f"error: {res['name']} failed; reference not written", file=sys.stderr)
                return 1
            ref["digests"][res["name"]] = res["digests"]
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    metrics = {}
    for res in results:
        m = report(res, args)
        if len(results) == 1:
            metrics = m
        else:
            metrics.update({f"{res['name']}.{k}": v for k, v in m.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
