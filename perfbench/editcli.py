"""The `fairvec` command line on large checkpoints and a large prediction log.

Inputs, all generated from the workload seed: a many-tensor F32 base, seven
task checkpoints (four F32, three BF16) that perturb it, and a JSONL
prediction log over the 7-group default mix, where half of the records carry
an explicit ``y_pred`` and the rest leave it to the score threshold.

One iteration calls ``fairvec.cli.main(argv)`` in process: ``diff`` for each
task, one 7-vector ``merge``, one ``inject`` and one ``eval``. It does no
featurization or training, so its time goes to checkpoint I/O, the BF16 and
F32 codecs, task-vector arithmetic, manifest hashing and metric evaluation.

``check`` compares the outputs against values the benchmark derives on its
own: it decodes the checkpoint files itself, folds the vectors left to right
in float32, and counts the fairness report from the generated labels.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fairvec import cli, corpus
from fairvec.ckpt import Checkpoint, Dtype, Tensor, write_checkpoint


@dataclass(frozen=True)
class Scale:
    layers: int
    width: int
    vocab: int
    records: int


# ~4.1M parameters: 16.4 MB per F32 checkpoint, 71 tensors; 10^5 records.
FULL = Scale(layers=10, width=180, vocab=1024, records=100_000)
TINY = Scale(layers=2, width=8, vocab=16, records=2_000)

N_TASKS = 7
N_F32_TASKS = 4
ATTRIBUTE = "gender"


@dataclass
class Inputs:
    dir: Path
    base: Path
    tasks: list[Path]
    preds: Path
    lambdas: list[float]
    inject_lambda: float
    # per record: group index, y_true and the y_pred the log implies
    group: np.ndarray
    y_true: np.ndarray
    y_pred: np.ndarray
    groups: list[str]


def _shapes(sc: Scale) -> dict[str, tuple[int, ...]]:
    w = sc.width
    shapes = {"embed.weight": (sc.vocab, w)}
    for i in range(sc.layers):
        p = f"layers.{i:02d}."
        shapes.update({
            p + "attn.qkv.weight": (w, 3 * w),
            p + "attn.qkv.bias": (3 * w,),
            p + "attn.out.weight": (w, w),
            p + "mlp.in.weight": (w, 4 * w),
            p + "mlp.in.bias": (4 * w,),
            p + "mlp.out.weight": (4 * w, w),
            p + "norm.weight": (w,),
        })
    return shapes


def make_inputs(seed: int, sc: Scale, work: Path) -> Inputs:
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 7])
    shapes = _shapes(sc)

    base_arrays = {n: rng.normal(0.0, 0.02, s).astype(np.float32) for n, s in shapes.items()}
    base = work / "base.ckpt"
    write_checkpoint(
        Checkpoint({n: Tensor.from_numpy(a) for n, a in base_arrays.items()}, {"id": "base"}),
        base,
    )
    tasks = []
    for i in range(N_TASKS):
        dtype = Dtype.F32 if i < N_F32_TASKS else Dtype.BF16
        tensors = {
            n: Tensor.from_numpy(a + rng.normal(0.0, 0.005, a.shape).astype(np.float32), dtype)
            for n, a in base_arrays.items()
        }
        path = work / f"task{i}.ckpt"
        write_checkpoint(Checkpoint(tensors, {"id": f"task{i}"}), path)
        tasks.append(path)
    lambdas = [round(float(v), 3) for v in rng.uniform(0.05, 0.5, N_TASKS)]
    inject_lambda = round(float(rng.uniform(0.1, 1.0)), 3)

    groups = sorted(corpus.DEFAULT_GROUP_COUNTS)
    counts = np.array([corpus.DEFAULT_GROUP_COUNTS[g] for g in groups], dtype=np.float64)
    n = sc.records
    group = rng.choice(len(groups), size=n, p=counts / counts.sum())
    y_true = (rng.random(n) < rng.uniform(0.2, 0.5, len(groups))[group]).astype(np.int64)
    skill = rng.uniform(0.1, 0.6, len(groups))[group]
    score = np.clip(0.5 + (y_true - 0.5) * skill + rng.normal(0.0, 0.25, n), 0.0, 1.0)
    explicit = rng.random(n) < 0.5
    flipped = (score >= 0.5) ^ (rng.random(n) < 0.05)
    y_pred = np.where(explicit, flipped, score >= 0.5).astype(np.int64)

    preds = work / "preds.jsonl"
    with open(preds, "w", encoding="utf-8") as fh:
        for i, (g, yt, s, ex, yp) in enumerate(zip(group.tolist(), y_true.tolist(),
                                                     score.tolist(), explicit.tolist(),
                                                     y_pred.tolist())):
            extra = f', "y_pred": {yp}' if ex else ""
            fh.write(f'{{"groups": {{"{ATTRIBUTE}": "{groups[g]}"}}, "id": "r{i:06d}", '
                     f'"score": {s!r}, "y_true": {yt}{extra}}}\n')
    return Inputs(work, base, tasks, preds, lambdas, inject_lambda,
                  group, y_true, y_pred, groups)


def _commands(inp: Inputs, out: Path) -> list[tuple[str, list[str], list[Path], Path]]:
    """(kind, argv, checkpoint inputs, output) for one iteration, in order."""
    vecs = [out / f"vec{i}.ckpt" for i in range(N_TASKS)]
    cmds = [("edit", ["diff", str(t), str(inp.base), "-o", str(v)], [t, inp.base], v)
            for t, v in zip(inp.tasks, vecs)]
    merge_argv = ["merge", str(inp.base)]
    for v, lam in zip(vecs, inp.lambdas):
        merge_argv += ["--vec", f"{v}:{lam!r}"]
    cmds.append(("edit", merge_argv + ["-o", str(out / "merged.ckpt")],
                 [inp.base, *vecs], out / "merged.ckpt"))
    cmds.append(("edit", ["inject", str(inp.tasks[0]), str(vecs[-1]),
                          "--lambda", repr(inp.inject_lambda), "-o", str(out / "injected.ckpt")],
                 [inp.tasks[0], vecs[-1]], out / "injected.ckpt"))
    cmds.append(("eval", ["eval", "--preds", str(inp.preds), "--attribute", ATTRIBUTE,
                          "-o", str(out / "report.json")], [], out / "report.json"))
    return cmds


def run_edit(inp: Inputs, out: Path) -> dict:
    """One iteration of CLI calls; returns the timings the metrics need."""
    out.mkdir(parents=True, exist_ok=True)
    stats = {"ops": 0, "failed_ops": 0, "edit_bytes": 0, "edit_s": 0.0,
             "eval_records": 0, "eval_s": 0.0}
    for kind, argv, ckpt_inputs, output in _commands(inp, out):
        t = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t
        stats["ops"] += 1
        if code != 0:
            stats["failed_ops"] += 1
            continue
        if kind == "edit":
            stats["edit_s"] += elapsed
            stats["edit_bytes"] += sum(p.stat().st_size for p in ckpt_inputs)
            stats["edit_bytes"] += output.stat().st_size
        else:
            stats["eval_s"] += elapsed
            stats["eval_records"] += len(inp.group)
    return stats


# -- independent checks ------------------------------------------------------

class _Ckpt:
    """Reads single tensors of a checkpoint file, decoding F32/BF16 itself."""

    def __init__(self, path: Path):
        self.fh = open(path, "rb")
        (n,) = struct.unpack("<Q", self.fh.read(8))
        self.header = json.loads(self.fh.read(n))
        self.header.pop("__metadata__", None)
        self.data_start = 8 + n

    def tensor(self, name: str) -> np.ndarray:
        entry = self.header[name]
        begin, end = entry["data_offsets"]
        self.fh.seek(self.data_start + begin)
        raw = self.fh.read(end - begin)
        if entry["dtype"] == "F32":
            arr = np.frombuffer(raw, dtype="<f4")
        elif entry["dtype"] == "BF16":
            arr = (np.frombuffer(raw, dtype="<u2").astype(np.uint32) << 16).view(np.float32)
        else:
            raise ValueError(f"unexpected dtype {entry['dtype']}")
        return arr.reshape(entry["shape"])

    def close(self):
        self.fh.close()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_tensors(inp: Inputs, out: Path) -> list[tuple[str, str]]:
    """vec_i = task_i - base, merged = the float32 left-to-right fold of the
    weighted vectors onto base, injected = task_0 + lambda * vec_6.

    Returns (output file, reason) for every mismatch."""
    problems = []
    files = {}
    try:
        files["base"] = _Ckpt(inp.base)
        for i, t in enumerate(inp.tasks):
            files[f"task{i}"] = _Ckpt(t)
            files[f"vec{i}"] = _Ckpt(out / f"vec{i}.ckpt")
        files["merged"] = _Ckpt(out / "merged.ckpt")
        files["injected"] = _Ckpt(out / "injected.ckpt")
        names = sorted(files["base"].header)
        for key in ("merged", "injected", *(f"vec{i}" for i in range(N_TASKS))):
            header = files[key].header
            if sorted(header) != names or any(e["dtype"] != "F32" for e in header.values()):
                problems.append((f"{key}.ckpt", "tensor names or dtypes differ from the base's F32 set"))
        if problems:
            return problems
        for name in names:
            base = files["base"].tensor(name)
            acc = base
            vecs = []
            for i in range(N_TASKS):
                vec = files[f"task{i}"].tensor(name) - base
                vecs.append(vec)
                if not _same_bits(vec, files[f"vec{i}"].tensor(name)):
                    problems.append((f"vec{i}.ckpt", f"[{name}] != task{i} - base"))
                acc = acc + np.float32(inp.lambdas[i]) * vec
            if not _same_bits(acc, files["merged"].tensor(name)):
                problems.append(("merged.ckpt", f"[{name}] != float32 left-to-right fold"))
            injected = files["task0"].tensor(name) + np.float32(inp.inject_lambda) * vecs[-1]
            if not _same_bits(injected, files["injected"].tensor(name)):
                problems.append(("injected.ckpt", f"[{name}] != task0 + lambda * vec{N_TASKS - 1}"))
    finally:
        for f in files.values():
            f.close()
    return problems


def brute_force_report(inp: Inputs) -> dict:
    """The eval report from plain integer counts over the generated records."""
    k = len(inp.groups)
    n = [0] * k
    pos_pred = [0] * k
    correct = [0] * k
    tp, pos, fp, neg = [0] * k, [0] * k, [0] * k, [0] * k
    for g, yt, yp in zip(inp.group.tolist(), inp.y_true.tolist(), inp.y_pred.tolist()):
        n[g] += 1
        pos_pred[g] += yp
        correct[g] += yt == yp
        if yt == 1:
            pos[g] += 1
            tp[g] += yp
        else:
            neg[g] += 1
            fp[g] += yp

    def ratio(a, b):
        return a / b if b else None

    present = [g for g in range(k) if n[g]]
    rows, acc, sel, tprs, fprs, undefined = [], [], [], [], [], []
    for g in present:
        rest = [h for h in present if h != g]
        sel_rest = sum(pos_pred[h] for h in rest) / sum(n[h] for h in rest)
        gaps = []
        for mine_hits, mine_all, hits, alls, tag in (
            (tp[g], pos[g], tp, pos, "tpr"), (fp[g], neg[g], fp, neg, "fpr"),
        ):
            mine = ratio(mine_hits, mine_all)
            theirs = ratio(sum(hits[h] for h in rest), sum(alls[h] for h in rest))
            (tprs if tag == "tpr" else fprs).append(mine)
            if mine is None:
                undefined.append([inp.groups[g], tag])
            if mine is not None and theirs is not None:
                gaps.append(abs(mine - theirs))
        acc.append(correct[g] / n[g])
        sel.append(pos_pred[g] / n[g])
        rows.append({
            "group": inp.groups[g], "n": n[g], "accuracy": acc[-1],
            "selection_rate": sel[-1], "dpd_ovr": abs(sel[-1] - sel_rest),
            "eod_ovr": max(gaps) if gaps else None,
        })

    def spread(values):
        values = [v for v in values if v is not None]
        return max(values) - min(values) if len(values) >= 2 else None

    gaps = [v for v in (spread(tprs), spread(fprs)) if v is not None]
    return {
        "attribute": ATTRIBUTE,
        "rows": rows,
        "overall": {
            "macro_accuracy": sum(acc) / len(acc),
            "overall_dpd": max(sel) - min(sel),
            "overall_eod": max(gaps) if gaps else None,
            "accuracy_parity_gap": max(acc) - min(acc),
        },
        "undefined": undefined,
    }


def check(inp: Inputs, out: Path) -> list[tuple[str, str]]:
    problems = check_tensors(inp, out)
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    if report != brute_force_report(inp):
        problems.append(("report.json", "!= brute-force integer count"))
    return problems


def output_files(out: Path) -> list[Path]:
    """The deterministic outputs; the CLI manifests record wall time and are skipped."""
    return [p for p in out.iterdir() if not p.name.endswith(".manifest.json")]
