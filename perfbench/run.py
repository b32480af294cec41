"""limitlab benchmark: one run of one workload, plus the tools around it.

    python3 perfbench/run.py --workload classify_session --seed 1 --seconds 30 --trace 0

prints a summary and, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1).
Without --workload it runs every workload in turn.

Other modes:
    --regenerate          rerun every workload's whole universe and rewrite
                          perfbench/expected/*.json (the frozen answers)
    --steadiness N        run a workload N times with seeds 1..N and print
                          each end-to-end metric's spread against its bound
    --smoke               tiny runs of every workload in both modes, and the
                          check that a tree without limitlab sources fails

See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402

WORKER = HERE / "worker.py"
WORKLOADS = ("classify_session", "set_session", "cli_cold")
SETUP_REPEATS = 3  # fresh-process set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 170


def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Worker:
    """A worker process that has finished its set-up."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int, freeze: bool = False):
        cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + (["--freeze"] if freeze else [])
        probe = SpeedProbe()
        probe.sample()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        t1 = time.perf_counter()
        probe.sample()
        probe.close()
        self.setup_s = (t1 - t0) * probe.scale(t0, t1)
        if line.strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise SystemExit(f"{workload} worker failed during set-up (exit {self.proc.returncode})")

    def stop(self) -> None:
        self.proc.communicate("stop\n", timeout=CHILD_TIMEOUT_S)

    def go(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        try:
            out, _ = self.proc.communicate("go\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise SystemExit("worker did not finish in time")
        if self.proc.returncode != 0 or not out.strip():
            raise SystemExit(f"worker exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def measured_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[float]]:
    setups = []
    for i in range(SETUP_REPEATS):
        w = Worker(workload, seed, seconds, trace=0)
        setups.append(w.setup_s)
        if i + 1 < SETUP_REPEATS:
            w.stop()
    return w.go(), setups


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The traced run, and an untraced run of the same requests to price
    the tracing: overhead compares the requests both runs completed."""
    plain = Worker(workload, seed, seconds, trace=0).go()
    traced = Worker(workload, seed, seconds, trace=1).go()
    n = min(len(plain["request_ms"]), len(traced["request_ms"]))
    base = sum(plain["request_ms"][:n])
    overhead = {
        "trace.overhead_share": sum(traced["request_ms"][:n]) / base - 1 if base else 0.0,
        "trace.overhead_ms_per_request": (sum(traced["request_ms"][:n]) - base) / n if n else 0.0,
    }
    return traced, overhead


def summary_lines(result: dict) -> list[str]:
    """Human-readable lines, with the roadmap's names for each workload's metrics."""
    info, m = result["info"], result["metrics"]
    names = {
        "classify_session": ("classify_per_s", "classify_p50_ms", "classify_p90_ms", "decompose_p50_ms"),
        "set_session": ("set_query_per_s", "set_query_p50_ms", "set_query_p90_ms", "estimate_p50_ms"),
        "cli_cold": ("cli_per_s", "cli_p50_ms", "cli_p90_ms", "cli_followup_p50_ms"),
    }[info["workload"]]
    keys = ("ops_per_s", "op_p50_ms", "op_p90_ms", "followup_p50_ms")
    lines = [
        f"workload {info['workload']} seed {info['seed']}: {info['requests']} requests, "
        f"{info['followups']} follow-ups, {result['attempted']} ops checked",
        f"  inputs: universe {info['universe_sha256'][:16]} stream {info['stream_sha256'][:16]} "
        f"run {info['requests_sha256'][:16]}",
    ]
    for alias, key in zip(names, keys):
        lines.append(f"  {alias} ({key}) = {m[key][0]:.4f} {m[key][1]}")
    for key in ("setup_s", "peak_rss_mb", "decided_share"):
        if key in m:
            lines.append(f"  {key} = {m[key][0]:.4f} {m[key][1]}")
    lines.append(f"  failed_share = {info['failed_share']:.4f} share")
    raw = ", ".join(f"{k} {v:.4f}" for k, v in info["raw_ms"].items())
    lines.append(f"  machine speed {info['speed']:.3f} of nominal; times above are scaled to nominal, raw: {raw}")
    if "estimate_samples_per_s" in info:
        lines.append(f"  estimate_samples_per_s = {info['estimate_samples_per_s']:.1f} 1/s")
    if info.get("mc_checked"):
        lines.append(f"  mc within 3 sigma: {info['mc_checked'] - info['mc_outside_3sigma']}/{info['mc_checked']}")
    for kind, row in sorted(info["kinds"].items()):
        lines.append(f"  ops {kind}: " + " ".join(f"{k}={v}" for k, v in row.items()))
    if info["unfrozen"]:
        lines.append(f"  {info['unfrozen']} ops ran past the frozen universe (reference checks only)")
    for nd in info["newly_decided"]:
        lines.append(f"  newly decided {nd['kind']} {nd['key']}: {nd['was']!r} -> {nd['now']!r}")
    for part, shares in info.get("layer_share", {}).items():
        lines.append(f"  self-time share by module ({part}): "
                     + ", ".join(f"{mod} {v:.1%}" for mod, v in shares.items()))
    for kd in info.get("known_defects", []):
        state = ("still fails" if kd["still_fails"] else
                 "NOW PASSES: take it out of KNOWN_DEFECTS in worker.py and rerun --regenerate")
        lines.append(f"  known defect {kd['key']}, kept out of the timed stream: {state} ({kd['defect']})")
    for failure in info["failures"]:
        lines.append(f"  FAILED {failure}")
    return lines


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spec = manifest()
    if trace:
        result, overhead = traced_run(workload, seed, seconds)
        measured = dict(result["layers"], **overhead)
        wanted = spec["per_layer"]
        for name in sorted(set(measured) - {m["name"] for m in wanted}):
            print(f"  unlisted layer metric {name} = {measured[name]}")
    else:
        result, setups = measured_run(workload, seed, seconds)
        measured = {k: v for k, (v, _) in result["metrics"].items()}
        measured["setup_s"] = statistics.median(setups)
        result["metrics"]["setup_s"] = (measured["setup_s"], "s")
        wanted = spec["end_to_end"]
    for line in summary_lines(result):
        print(line)
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# --- tools ------------------------------------------------------------------------


def regenerate(workloads) -> int:
    for workload in workloads:
        t0 = time.perf_counter()
        result = Worker(workload, 0, 0, trace=0, freeze=True).go(timeout=3600)
        print(f"{workload}: froze {result['attempted']} answers in {time.perf_counter() - t0:.0f} s, "
              f"{result['failed']} failed")
        for line in summary_lines(result)[2:]:
            print(line)
    return 0


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def steadiness(workload: str, runs: int, seconds: float) -> int:
    spec = manifest()
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(1, runs + 1):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
    worst = "steady"
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        s = spread(vals)
        verdict = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
        if verdict != "ok" and m["name"] != "setup_s":
            worst = "not steady"
        print(f"{workload} {m['name']}: median {statistics.median(vals):.4g} {m['unit']}, "
              f"spread {s:.3f} of median, bound {m['bound']}: {verdict}")
    print(f"{workload}: {worst}")
    return 0


def smoke() -> int:
    """Tiny runs of every workload in both modes; then the must-fail check."""
    spec = manifest()
    ok = True
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                                   "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                                  capture_output=True, text=True, cwd=ROOT, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            names = {m["name"] for m in spec[section]}
            good = (proc.returncode == 0 and result["correct"] and result["attempted"] >= 1
                    and set(result) == {"correct", "attempted", "failed", "metrics"}
                    and set(result["metrics"]) == names)
            ok &= good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'} ({result['attempted']} ops)")
    bare = ROOT / ".bench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    ok &= refused
    print(f"smoke without limitlab sources: {'fails as it should' if refused else 'DID NOT FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regenerate", action="store_true")
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "limitlab" / "__init__.py").is_file():
        print(f"no limitlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.regenerate:
        return regenerate([args.workload] if args.workload else WORKLOADS)
    seconds = args.seconds if args.seconds is not None else manifest()["run_seconds"]
    if args.steadiness:
        if args.workload is None:
            ap.error("--steadiness needs --workload")
        return steadiness(args.workload, args.steadiness, seconds)
    for workload in [args.workload] if args.workload else WORKLOADS:
        print(json.dumps(run_once(workload, args.seed, seconds, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
