"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload infer-clips --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` times the calls
into each layer and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

Timings are reported at reference machine speed: between operations the run
times a fixed reference kernel (refkernel.py), and each operation's time is
scaled by the kernel's nominal duration over its duration measured just
before and after that operation. Raw figures are printed beside them.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy loads its library
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
WARMUP_SLICES = 20


class Meter:
    """Times operations between bursts of the reference kernel.

    On shared vCPUs the machine's speed can flip between states several
    times a second, so after an operation the kernel runs for a tenth of
    that operation's time, at least one slice, and the burst's mean slice
    time stands for the machine's speed around then.
    """

    BURST_SHARE = 0.1

    def __init__(self, kernel):
        self.kernel = kernel
        self.before: float | None = None
        self.ops: list[dict] = []
        self.failed = 0
        self.round: int | str = "setup"

    def reference(self, budget_s: float = 0.0) -> float:
        """Run a burst of slices lasting about ``budget_s``; return the mean
        slice duration."""
        slices = [self.kernel.slice()]
        while sum(slices) < budget_s:
            slices.append(self.kernel.slice())
        self.before = sum(slices) / len(slices)
        return self.before

    def time(self, kind: str, samples: int, fn):
        """Run ``fn`` once as a timed operation; returns its result, or
        None after counting a failure."""
        if self.before is None:
            self.reference()
        ref_before = self.before
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            result = None
        raw = time.perf_counter() - t0
        ref = (ref_before + self.reference(raw * self.BURST_SHARE)) / 2
        self.ops.append({"round": self.round, "kind": kind, "samples": samples, "raw_s": raw,
                         "adj_s": raw * self.kernel.NOMINAL_S / ref, "ref_s": ref})
        return result


def machine_facts(kernel, ref_slices_per_s: float) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "reference_kernel": type(kernel).__name__,
        "reference_slices_per_s": ref_slices_per_s,
    }


def checks(wl) -> list[str]:
    """The workload's failed output checks; a check that raises fails."""
    try:
        return wl.check()
    except Exception:
        return ["output check raised:\n" + traceback.format_exc()]


def summarise(ops: list[dict], key: str, workload: str) -> dict:
    """samples_per_s (the median over rounds of each round's rate) and
    clip_ms_p50 from the timed operations, using the raw or the
    reference-adjusted durations. Outside infer-clips, where no clip is
    classified alone, clip_ms_p50 is the median time per sample of a round."""
    rounds: dict[int, list[dict]] = {}
    for o in ops:
        if o["kind"] != "setup":
            rounds.setdefault(o["round"], []).append(o)
    per_round = [sum(o[key] for o in r) / sum(o["samples"] for o in r)
                 for r in rounds.values()]
    if workload == "infer-clips":
        per_clip = [o[key] for r in rounds.values() for o in r if o["kind"] == "clip"]
    else:
        per_clip = per_round
    return {"samples_per_s": 1.0 / statistics.median(per_round),
            "clip_ms_p50": statistics.median(per_clip) * 1e3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import evfusion
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(evfusion.__file__).resolve().parents:
        print(f"evfusion was imported from {evfusion.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    imported = time.perf_counter()

    kernel = workloads.WORKLOADS[args.workload].REFERENCE()
    for _ in range(WARMUP_SLICES):
        kernel.slice()
    meter = Meter(kernel)
    import_raw = imported - PROCESS_START
    import_ref = meter.reference(import_raw * Meter.BURST_SHARE)

    tmp = BENCH_DIR / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        tracer = layertrace.Tracer() if args.trace else None
        wl.prepare()
        if tracer:
            layertrace.install_layers(tracer)
        for _ in range(SETUP_REPEATS):
            meter.time("setup", 0, wl.setup)

        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            meter.round = rounds
            if tracer:
                tracer.op_id = rounds
            wl.run_round(meter)
            rounds += 1
        measured_s = time.perf_counter() - start
        if tracer:
            tracer.op_id = "probe"
            workloads.coverage_probe(tmp)
            tracer.uninstall()
        problems = checks(wl) if meter.failed == 0 else ["operations failed"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setups = [o for o in meter.ops if o["kind"] == "setup"]
    work_ops = [o for o in meter.ops if o["kind"] != "setup"]
    refs = [o["ref_s"] for o in meter.ops]
    adjusted = summarise(meter.ops, "adj_s", args.workload)
    raw = summarise(meter.ops, "raw_s", args.workload)
    for key, value in (("raw_s", import_raw),
                       ("adj_s", import_raw * kernel.NOMINAL_S / import_ref)):
        setup_s = value + statistics.median(o[key] for o in setups)
        (adjusted if key == "adj_s" else raw)["setup_s"] = setup_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "measured_s": measured_s,
        "raw": raw, "adjusted": adjusted,
        "reference_slice_ms_median": statistics.median(refs) * 1e3,
        "machine": machine_facts(kernel, 1.0 / statistics.median(refs)),
        "problems": problems,
    }
    results = BENCH_DIR / "results"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer:
        spans = tracer.spans
        layers = layertrace.per_layer_metrics(spans, lambda s: s["op"] != "probe")
        probe = layertrace.per_layer_metrics(spans, lambda s: s["op"] == "probe")
        detail["from_probe"] = sorted(k for k, v in layers.items() if v is None)
        values = {k: probe[k] if v is None else v for k, v in layers.items()}
        tracer.write(results / f"trace-{args.workload}-{args.seed}.json", detail)
        listed = spec["per_layer"]
    else:
        values = {**adjusted, "peak_rss_mb": peak_rss_mb}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    results.mkdir(exist_ok=True)
    (results / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "ops": meter.ops}) + "\n")
    print(json.dumps({"detail": detail}))
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(work_ops),
                      "failed": meter.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
