"""The powerdom benchmark.

    python3 perfbench/run.py --workload sparse-long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Runs from the root of a source checkout and imports `powerdom` from its
`src/`.  Each workload runs in its own child process (`worker.py`) under an
address-space limit and a wall-clock deadline; a crashed or hung child
counts its op as failed and the run goes on from the next op.  One client
issues the workload's ops back to back, in whole passes over a fixed,
seeded list, for about `--seconds`.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics; with `--trace 1` untraced and traced passes
alternate and it carries the per-layer metrics instead.  The lines before
it show the same figures for a reader, with the machine stamp.  Spans and a
full result record go to `.perfbench_run/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_run"
WORKLOADS = ("sparse-long", "grid-width", "ptas-planar", "cli-pipeline")
# Fixed limits for the worker process only; never read from the machine.
ADDRESS_SPACE_BYTES = 3 << 30
RUN_DEADLINE_S = 170
SETUP_PROBES = 9
MAX_RESTARTS = 3
TAIL_ABOVE = 10
# Typical time of worker.reference_slice on a 2-core Xeon with Python 3.11.
REF_NOMINAL_S = 0.010
NOTE = ("note: to_nice and validate_td are quadratic in the bag count (about 1.1 s and "
        "2.7 s on a 5,000-node path); no op reaches that size, because the bound set-up "
        "of solve_dp grows faster")


def stamp(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "commit": commit or "unknown", "seed": seed}


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def _worker_cmd(args, workdir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace),
            "--workdir", str(workdir), *extra]


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_probes(args, workdir: Path) -> list[float]:
    """Set-up times of fresh processes: import, instance generation,
    relabelling and file writing, up to the first op."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(_worker_cmd(args, workdir, "--seconds", "0", "--setup-only"),
                              env=_env(), capture_output=True, text=True, timeout=60,
                              preexec_fn=_limit_address_space)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.splitlines()[0])
        if not record["powerdom"].startswith(str(ROOT / "src")):
            raise RuntimeError(f"powerdom imported from {record['powerdom']}, not from {ROOT / 'src'}")
        out.append(record["setup"])
    return out


def run_worker(args, workdir: Path, resume: str, seconds: float, deadline: float):
    """Yield the worker's records; a final None means it died or hung."""
    cmd = _worker_cmd(args, workdir, "--seconds", str(seconds), "--resume", resume)
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, text=True,
                            preexec_fn=_limit_address_space)
    lines: queue.Queue = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                yield None
                return
            if line is None:
                break
            record = json.loads(line)
            yield record
            if record.get("done"):
                return
        yield None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join(timeout=10)
        proc.stdout.close()


def run_workload(args) -> dict:
    workdir = OUT_DIR / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(args, workdir)
    finally:
        spans = workdir / "spans.jsonl"
        if spans.exists():
            spans.replace(OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl")
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, workdir: Path) -> dict:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    setups = setup_probes(args, workdir)
    ops: list[dict] = []
    passes: list[dict] = []
    done: list[dict] = []
    failures: list[str] = []
    resume = "0:0"
    loop_start = None
    last = None
    for _ in range(MAX_RESTARTS + 1):
        seconds = args.seconds if loop_start is None else args.seconds - (time.monotonic() - loop_start)
        inflight = None
        for rec in run_worker(args, workdir, resume, max(seconds, 0), deadline):
            if rec is None:
                break
            if "setup" in rec:
                setups.append(rec["setup"])
                loop_start = loop_start or time.monotonic()
            elif "start" in rec:
                inflight = rec["start"]
            elif "op" in rec:
                ops.append(rec)
                inflight = None
                last = (rec["pass"], rec["pos"])
                if rec["fail"]:
                    failures.append(f"op {rec['op']} (pass {rec['pass']}): {rec['fail']}")
            elif "done" in rec:
                done.append(rec)
            else:
                passes.append(rec)
        if done:
            break
        # The worker died or hung.  Its op in flight fails, and a new
        # worker goes on from the next op while time remains.
        if inflight is not None:
            p, k = inflight
            failures.append(f"worker died or timed out in pass {p} at position {k}")
            ops.append({"op": -1, "pass": p, "pos": k, "mode": "plain", "lat": None,
                        "size": None, "opt": None, "fail": "worker died or timed out"})
        else:
            failures.append("worker died between ops")
            ops.append({"op": -1, "pass": -1, "pos": -1, "mode": "plain", "lat": None,
                        "size": None, "opt": None, "fail": "worker died between ops"})
            if last is None:
                break
        p, k = inflight or last
        last = (p, k)
        resume = f"{p}:{k + 1}"
        if time.monotonic() >= deadline or time.monotonic() - loop_start >= args.seconds:
            break
    return summarize(args, ops, passes, done, setups, failures)


def tail(lat: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples above
    it, that percentile, and the sample count."""
    xs = sorted(lat)
    n = len(xs)
    if n <= 2 * TAIL_ABOVE:
        # Too few samples for that percentile to lie above the median.
        return xs[-1], 100.0, n
    return xs[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n, n


def speed_scale(ops: list[dict]) -> float:
    """The reference slice's nominal time over its median time in this run.

    The worker times a fixed piece of work that does not involve powerdom
    after every op.  Latencies times this factor are latencies at the
    reference speed, which cancels most of the slow and fast spells of a
    shared machine, whose spells last longer than one op.
    """
    refs = [o["ref"] for o in ops if o.get("ref")]
    return REF_NOMINAL_S / statistics.median(refs) if refs else 1.0


def latency_metrics(plain: list[dict], scale: float) -> dict:
    lat = [o["lat"] * scale for o in plain]
    # Throughput of the median pass: each op's median latency over the
    # run's passes, so that one slow pass moves it less than a plain sum.
    by_op: dict[int, list[float]] = {}
    for o, x in zip(plain, lat):
        by_op.setdefault(o["op"], []).append(x)
    pass_s = sum(statistics.median(v) for v in by_op.values())
    verified = sum(1 for o in plain if not o["fail"]) / len(plain) if plain else 0.0
    t_val, t_pct, t_n = tail(lat) if lat else (0.0, 0.0, 0)
    return {
        "ops_per_s": verified * len(by_op) / pass_s if pass_s else 0.0,
        "op_s.p50": statistics.median(lat) if lat else 0.0,
        "op_s.tail": t_val,
        "tail_percentile": t_pct,
        "tail_samples": t_n,
    }


def summarize(args, ops, passes, done, setups, failures) -> dict:
    whole = {(p["pass"], p["mode"]) for p in passes}
    plain = [o for o in ops if (o["pass"], o["mode"]) in whole and o["mode"] == "plain"
             and o["lat"] is not None]
    attempted = len(ops)
    failed = sum(1 for o in ops if o["fail"])
    scale = speed_scale(ops)
    at_ref = latency_metrics(plain, scale)
    raw = latency_metrics(plain, 1.0)
    sized = [o for o in plain if o["size"] is not None and o["opt"]]
    rss_key = "rss_children_mb" if args.workload == "cli-pipeline" else "rss_self_mb"
    result = {
        "workload": args.workload,
        "stamp": stamp(args.seed),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "tail_percentile": at_ref["tail_percentile"],
        "tail_samples": at_ref["tail_samples"],
        "passes": len({p["pass"] for p in passes if p["mode"] == "plain"}),
        "speed_scale": scale,
        "raw": raw,
        "ops": [[o["op"], o["pass"], o["mode"], o["lat"], o["fail"], o.get("ref")] for o in ops],
        "metrics": {
            "ops_per_s": (at_ref["ops_per_s"], "1/s"),
            "op_s.p50": (at_ref["op_s.p50"], "s"),
            "op_s.tail": (at_ref["op_s.tail"], "s"),
            "peak_rss_mb": (max((d[rss_key] for d in done), default=0.0), "MB"),
            "size_ratio": (sum(o["size"] for o in sized) / sum(o["opt"] for o in sized)
                           if sized else 0.0, "ratio"),
            "setup_s": (statistics.median(setups), "s"),
        },
    }
    if args.trace:
        layers = dict(done[-1]["layers"]) if done else {}
        per_pass: dict[tuple, float] = {}
        for o in ops:
            if (o["pass"], o["mode"]) in whole and o["lat"] is not None:
                key = (o["pass"], o["mode"])
                per_pass[key] = per_pass.get(key, 0.0) + o["lat"] * scale
        per_mode: dict[str, list[float]] = {}
        for (_, mode), v in per_pass.items():
            per_mode.setdefault(mode, []).append(v)
        mean = {m: statistics.fmean(v) for m, v in per_mode.items()}
        base = mean.get("inproc", mean.get("plain"))
        layers["trace.overhead_frac"] = mean["traced"] / base - 1 if base and "traced" in mean else 0.0
        layers["cli.spawn_s"] = mean["plain"] - mean["inproc"] if "inproc" in mean else 0.0
        result["metrics"] = {k: (v, unit_of(k)) for k, v in sorted(layers.items())}
    return result


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def report(result: dict) -> None:
    st = result["stamp"]
    print(f"# {result['workload']}: seed {st['seed']}, commit {st['commit']}, "
          f"{st['nproc']} x {st['cpu']}, Python {st['python']}")
    for name, (value, unit) in result["metrics"].items():
        extra = ""
        if name == "op_s.tail":
            extra = f"  (p{result['tail_percentile']:.1f} of {result['tail_samples']} samples)"
        print(f"{result['workload']:>13} {name:<32} {value:>14.6g} {unit}{extra}")
    if not any(k.startswith("trace.") for k in result["metrics"]):
        raw = result["raw"]
        print(f"{result['workload']:>13} {'(as timed) ops_per_s':<32} {raw['ops_per_s']:>14.6g} 1/s")
        print(f"{result['workload']:>13} {'(as timed) op_s.p50':<32} {raw['op_s.p50']:>14.6g} s")
        print(f"{result['workload']:>13} {'(as timed) op_s.tail':<32} {raw['op_s.tail']:>14.6g} s")
        print(f"{result['workload']:>13} {'speed_scale':<32} {result['speed_scale']:>14.6g}"
              " (reference slice: nominal over measured time)")
    print(f"{result['workload']:>13} {'fail_frac':<32} {result['fail_frac']:>14.6g} fraction"
          f"  ({result['failed']} of {result['attempted']} ops)")
    for line in result["failures"]:
        print(f"{result['workload']:>13} failed: {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "powerdom" / "__init__.py").is_file():
        print(f"error: no powerdom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        report(res)
        (OUT_DIR / f"result-{name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(res, indent=1) + "\n")
        results.append(res)
    print(NOTE)
    prefix = len(names) > 1
    final = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": u}
            for r in results for k, (v, u) in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
