#!/usr/bin/env python3
"""Repository benchmark: builds tsctool from source, then per workload
runs generate -> compress -> serve and drives the server with a
closed-loop load generator that checks every response in process.

    python3 perfbench/run.py --workload disk_point --seed 1 --seconds 10 --trace 0

Run from the repository root. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
(and writes spans under .bench_build/traces/). A full record with the
machine fields and diagnostics lands in .bench_build/results/.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

BUILD_TYPE = "Release"
# The paper's phone100K shape. The matrix is generated with a fixed
# generator seed: k_opt swings 3..10 across generator seeds, which would
# make every metric measure the data rather than the code. --seed drives
# the request streams (rows, cells, windows, Zipf permutation).
SCALES = {
    "paper": {"rows": 100000, "cols": 366},
    "tiny": {"rows": 3000, "cols": 366},
}
DATA_SEED = 42
SPACE_PCT = 5
CONNECTIONS = 2
SETUP_ROUNDS = 3
WARMUP_S = 1.0
BLOCK_BYTES = 8192
CACHE_FRACTION = 8  # disk_point caches 1/8 of U's blocks
WORKLOADS = ("disk_point", "mem_dashboard")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Fatal(Exception):
    """The benchmark cannot produce a result (build or setup broke)."""


class Processes:
    """Every child this run starts; stop_all() terminates and reaps them."""

    def __init__(self):
        self.live = []

    def start(self, argv, **kwargs):
        proc = subprocess.Popen(argv, **kwargs)
        self.live.append(proc)
        return proc

    def stop(self, proc):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self):
        for proc in list(self.live):
            self.stop(proc)


def run_checked(argv, timeout, **kwargs):
    done = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, **kwargs)
    if done.returncode != 0:
        raise Fatal(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()[-400:]}")
    return done.stdout


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise Fatal("no src/CMakeLists.txt here: run from the repository root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", build_dir, "-j", jobs, "--target", "tsctool",
                 "tsc_perfbench"], timeout=880)
    return (os.path.join(build_dir, "src", "cli", "tsctool"),
            os.path.join(build_dir, "tsc_perfbench"))


def machine_fields(root, simd):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "kernel": platform.release(),
            "build_type": BUILD_TYPE, "simd": simd, "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def wait_healthy(port, deadline):
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=2) as r:
                if r.status == 200:
                    return
        except OSError:
            time.sleep(0.02)
    raise Fatal("server never answered /healthz")


def timed_child(argv, timeout):
    """Runs a child to completion; returns wall s, user+sys s, max RSS MiB."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise Fatal(f"{argv[1]} timed out")
        time.sleep(0.005)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode(errors="replace")
    proc.stderr.close()
    if proc.returncode != 0:
        raise Fatal(f"{' '.join(argv)} exited {proc.returncode}: {err[-400:]}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def setup_round(tool, work, scale, workload, procs, threads):
    """generate -> compress -> serve until /healthz answers. Returns the
    running server plus the round's timings."""
    data = os.path.join(work, "phone.bin")
    model = os.path.join(work, "phone.model")
    start = time.perf_counter()
    run_checked([tool, "generate", "--kind=phone", f"--rows={scale['rows']}",
                 f"--cols={scale['cols']}", f"--seed={DATA_SEED}", f"--out={data}"], timeout=120)
    build_s, build_cpu_s, build_rss = timed_child(
        [tool, "compress", f"--input={data}", f"--out={model}", f"--space={SPACE_PCT}",
         f"--threads={threads}"], timeout=150)
    serve = [tool, "serve", f"--model={model}", "--port=0"]
    cache_blocks = 0
    if workload == "disk_point":
        info = run_checked([tool, "info", f"--model={model}"], timeout=60)
        k = int(next(line.split(":")[1] for line in info.splitlines()
                     if line.startswith("components:")))
        u_blocks = math.ceil((scale["rows"] * k * 8 + 24) / BLOCK_BYTES)
        cache_blocks = max(4, u_blocks // CACHE_FRACTION)
        serve.append(f"--cache-blocks={cache_blocks}")
    server = procs.start(serve, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    port = None
    deadline = time.monotonic() + 60
    while port is None and time.monotonic() < deadline:
        line = server.stdout.readline()
        if not line:
            break
        if line.startswith("listening on "):
            port = int(line.split()[2].rsplit(":", 1)[1])
    if port is None:
        raise Fatal("server did not start")
    wait_healthy(port, deadline)
    setup_s = time.perf_counter() - start
    with open(model, "rb") as f:
        model_sha = hashlib.sha256(f.read()).hexdigest()
    return {"server": server, "port": port, "data": data, "model": model,
            "cache_blocks": cache_blocks, "setup_s": setup_s, "build_s": build_s,
            "build_cpu_s": build_cpu_s, "build_peak_rss_mb": build_rss,
            "model_sha": model_sha}


def load(client, state, workload, seed, seconds, trace, work, spans):
    argv = [client, "load", f"--workload={workload}", f"--port={state['port']}",
            f"--server-pid={state['server'].pid}", f"--model={state['model']}",
            f"--cache-blocks={state['cache_blocks']}", f"--seed={seed}",
            f"--seconds={seconds}", f"--warmup-s={WARMUP_S}",
            f"--connections={CONNECTIONS}", f"--trace={trace}",
            f"--scratch={os.path.join(work, 'oracle')}"]
    if spans:
        argv.append(f"--spans={spans}")
    return json.loads(run_checked(argv, timeout=seconds + 120).strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper",
                        help="tiny is for the self-test only")
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    bench_dir = os.path.join(root, ".bench_build")
    try:
        tool, client = build(root, os.path.join(bench_dir, "perfbench"))
    except Fatal as error:
        log(f"benchmark failed: {error}")
        return 1
    work = os.path.join(bench_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    scale = SCALES[args.scale]
    # One core stays free: a 4-thread build on 4 shared cores doubled the
    # run-to-run spread of build time against 3 threads.
    threads = max(1, min(4, os.cpu_count() or 1) - 1)
    procs = Processes()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    values = {}  # everything measured; BENCHMARK.json picks what is reported
    diag = {}
    attempted = failed = 0
    try:
        rounds = []
        for _ in range(1 if args.trace else SETUP_ROUNDS):
            if rounds:
                procs.stop(rounds[-1]["server"])
            rounds.append(setup_round(tool, work, scale, args.workload, procs, threads))
        state = rounds[-1]
        for key in ("setup_s", "build_s", "build_cpu_s", "build_peak_rss_mb"):
            values[key] = statistics.median(r[key] for r in rounds)
            diag[key + "_rounds"] = [r[key] for r in rounds]
        # Builds are deterministic: every round must write the same model.
        attempted += len(rounds)
        failed += sum(r["model_sha"] != rounds[0]["model_sha"] for r in rounds)
        quality = json.loads(run_checked(
            [client, "evaluate", f"--model={state['model']}", f"--input={state['data']}"],
            timeout=120).strip().splitlines()[-1])
        values.update(rmspe_pct=quality["rmspe_pct"], space_pct=quality["space_pct"])
        diag.update(k=quality["k"], deltas=quality["deltas"])
        attempted += 1
        if not quality["space_pct"] <= SPACE_PCT + 1e-9 or not quality["rmspe_pct"] < 5.0:
            failed += 1

        spans = None
        if args.trace:
            os.makedirs(os.path.join(bench_dir, "traces"), exist_ok=True)
            spans = os.path.join(bench_dir, "traces", f"{args.workload}-seed{args.seed}.json")
        result = load(client, state, args.workload, args.seed, args.seconds, args.trace, work,
                      spans)
        procs.stop(state["server"])
        for group in ("metrics", "diagnostics", "layers"):
            values.update(result[group])
        diag.update(first_mismatch=result["first_mismatch"], simd=result["simd"])
        attempted += result["attempted"]
        failed += result["failed"]
        if args.trace:
            built = json.loads(run_checked(
                [client, "build-trace", f"--input={state['data']}", f"--space={SPACE_PCT}",
                 f"--threads={threads}"], timeout=150).strip().splitlines()[-1])
            values.update(built["layers"])
    except (Fatal, subprocess.TimeoutExpired) as error:
        log(f"benchmark failed: {error}")
        return 1
    finally:
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        log(f"benchmark failed: metrics not measured: {missing}")
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    diag.update({name: value for name, value in values.items() if name not in units})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale,
              "machine": machine_fields(root, diag["simd"]), "diagnostics": diag,
              "metrics": metrics}
    os.makedirs(os.path.join(bench_dir, "results"), exist_ok=True)
    with open(os.path.join(bench_dir, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"machine": record["machine"], "diagnostics": diag}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
