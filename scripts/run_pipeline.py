#!/usr/bin/env python3
"""End-to-end demo: corpus -> models -> vectors -> sweeps -> emitted runs.

Runs ``fairvec.protocol.run`` (the paper's protocol) into --out and prints a
summary of what it returns."""

import argparse
import sys
import time
from pathlib import Path

from fairvec.protocol import run
from fairvec.sweep import select_lambda


def main(argv=None) -> int:
    # an omitted flag takes run's default
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], argument_default=argparse.SUPPRESS
    )
    ap.add_argument("--out", type=Path, default=Path("runs"), help="output root")
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--total", type=int, help="examples per corpus")
    ap.add_argument("--dim", type=int)
    ap.add_argument("--hidden", type=int)
    ap.add_argument("--epochs", type=int)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    res = run(**vars(args))

    for seed, r in res.seeds.items():
        print(f"[seed {seed}] corpus: {len(r.train)} train / {len(r.test)} test")
        print(f"[seed {seed}] full fine-tune macro accuracy "
              f"{r.report.macro_accuracy:.4f}")
    lam = select_lambda(res.merge)
    agg = res.merge.aggregates()[lam]["macro_accuracy"]
    print(f"merge sweep: lambda*={lam} "
          f"macro accuracy {agg['mean']:.4f} +/- {agg['stderr']:.4f}")
    for seed, r in res.seeds.items():
        print(f"[seed {seed}] worst subgroups: {', '.join(r.worst)}")
    best_eod = min(a["overall_eod"]["mean"] for a in res.inject.aggregates().values())
    print(f"inject sweep: best mean EOD {best_eod:.4f} across grid")
    print(f"done in {time.perf_counter() - started:.1f}s -> {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
