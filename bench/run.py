"""jobrec pipeline benchmark: raw challenge files to a scored submission.

Usage (from the repository root):

    python3 bench/run.py --workload c6-blend --seed 0 --seconds 40 --trace 0

Inputs are generated once per (workload, seed) with jobrec.synth and
written as challenge-format TSV under .bench_data/, outside every timed
phase. Each measured run is a fresh worker process (bench/worker.py) that
only sees those files. Runs repeat until --seconds have passed; the
medians of their end-to-end metrics (--trace 0) or of their per-layer
metrics (--trace 1) are printed, one JSON object on the last line.
Every run's submission is checked; a run fails if it raises or if any
check fails. Seed 99 is held out: do not use it while tuning a change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = ROOT / ".bench_data"
EXPECTED = BENCH / "expected.json"
MIN_RUNS = 2
RUN_LIMIT_S = 160.0  # the whole command must end within 180 s


PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pin_environment() -> None:
    """No thread knob of jobrec's, and one BLAS/OpenMP thread (nproc is 2
    on the reference machine); workers inherit this environment."""
    os.environ.pop("RECSYS_THREADS", None)
    os.environ.update(PINNED_ENV)


def environment() -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jobrec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def prepare_inputs(workload: str, seed: int) -> Path:
    """Challenge-format TSV inputs plus independently read facts, made once."""
    from check import read_facts
    from workloads import WORKLOADS

    config = WORKLOADS[workload]["synth"]
    tag = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:8]
    target = DATA / "inputs" / f"{workload}-s{seed}-{tag}"
    if (target / "facts.json").exists():
        return target
    sys.path.insert(0, str(ROOT / "src"))
    from jobrec import dataio, synth

    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    dataset = synth.generate(synth.SynthConfig(seed=seed, **config))
    dataio.save_dataset(dataset, tmp / "raw")
    facts = read_facts(tmp / "raw")
    (tmp / "facts.json").write_text(json.dumps(facts), encoding="utf-8")
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    return target


def run_worker(workload: str, seed: int, inputs: Path, trace: bool, timeout: float) -> dict:
    work = DATA / "work" / f"{workload}-s{seed}-{os.getpid()}"
    out = work.with_suffix(".json")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--inputs", str(inputs / "raw"), "--work", str(work), "--seed", str(seed),
           "--trace", str(int(trace)), "--facts", str(inputs / "facts.json"), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-5:]
            return {"error": f"worker exited {proc.returncode}: " + " | ".join(tail)}
        return json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f}s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        out.unlink(missing_ok=True)


def check_run(res: dict, facts: dict) -> list[str]:
    """Submission checks plus independent scoring of every submission."""
    from check import check_submission, score

    problems = check_submission(res["submissions"]["model"], facts, res["candidate_users"])
    scores = {}
    for name, sub in res["submissions"].items():
        scores[name] = score(sub, facts["truth"])
        told = res["program_scores"][name]
        if abs(scores[name] - told) > res["score_tolerance"] * max(1.0, abs(scores[name])):
            problems.append(f"{name}: jobrec scored {told}, recomputed {scores[name]}")
    res["score"] = scores["model"]
    res["lift"] = scores["model"] / max(scores["recency"], scores["popular"]) - 1.0
    return problems


def check_reference(runs: list[dict], expected: dict | None) -> None:
    """Score and lift must repeat exactly across fresh processes and, when
    recorded for this seed, equal the recorded values."""
    ref = expected or (runs[0] if runs else None)
    for res in runs:
        for key in ("score", "lift"):
            if abs(res[key] - ref[key]) > 1e-9 * max(1.0, abs(ref[key])):
                res["problems"].append(f"{key} {res[key]!r} differs from reference {ref[key]!r}")


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's score and lift in bench/expected.json")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "jobrec" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no jobrec sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    pin_environment()
    started = time.monotonic()
    inputs = prepare_inputs(args.workload, args.seed)
    facts = json.loads((inputs / "facts.json").read_text(encoding="utf-8"))

    clock = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = streak = 0
    last_run_s = 0.0
    while True:
        # stop at the run boundary nearest to --seconds
        elapsed = time.monotonic() - clock + 0.5 * last_run_s
        enough = (len(untraced) >= 1 and len(traced) >= 1) if args.trace else len(untraced) >= MIN_RUNS
        if (elapsed >= args.seconds and enough) or streak >= 3:
            break
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        if remaining < 1.2 * last_run_s:
            break
        trace = bool(args.trace) and len(traced) < len(untraced)
        t = time.monotonic()
        res = run_worker(args.workload, args.seed, inputs, trace, remaining)
        last_run_s = time.monotonic() - t
        attempted += 1
        if "error" in res:
            failed += 1
            streak += 1
            print(f"# run {attempted} failed: {res['error']}", file=sys.stderr)
            continue
        streak = 0
        res["problems"] = check_run(res, facts)
        (traced if trace else untraced).append(res)

    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    recorded = expected.get(args.workload, {}).get(str(args.seed))
    check_reference(untraced + traced, recorded)
    for res in untraced + traced:
        if res["problems"]:
            failed += 1
            print(f"# run failed checks: {res['problems'][:3]}", file=sys.stderr)
    # metrics come from every run that completed; check failures show in `failed`
    if not untraced or (args.trace and not traced):
        print(f"# no run completed ({attempted} attempted)", file=sys.stderr)
        return 1

    if args.record and failed == 0:
        expected.setdefault(args.workload, {})[str(args.seed)] = {
            "score": untraced[0]["score"], "lift": untraced[0]["lift"]}
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for res in untraced:
        served = sum(1 for items in res["submissions"]["model"].values() if items)
        res["users_per_s"] = served / res["submission_s"]
    if args.trace:
        values = {"evaluation.score": traced[0]["score"], "evaluation.lift": traced[0]["lift"]}
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        for stage in untraced[0]["hwm_mb"]:
            values[f"memory.{stage}_hwm_mb"] = statistics.median(r["hwm_mb"][stage] for r in untraced)
        values["trace.overhead_s"] = median_of(traced, "submission_s") - median_of(untraced, "submission_s")
        wanted = spec["per_layer"]
    else:
        values = {k: median_of(untraced, k) for k in
                  ("setup_s", "submission_s", "users_per_s", "cpu_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]
        print(f"# score = {untraced[0]['score']!r} points, lift = {untraced[0]['lift']!r}"
              " (deterministic per seed; checked against bench/expected.json)")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    env_info = environment()
    print(f"# env {json.dumps(env_info, sort_keys=True)}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} runs={len(untraced)}"
          f"+{len(traced)} traced, attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    results = DATA / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"env": env_info, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "metrics": metrics,
              "runs": [{k: v for k, v in r.items() if k not in ("submissions", "candidate_users")}
                       for r in untraced + traced]}
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
