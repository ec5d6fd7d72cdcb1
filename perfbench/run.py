#!/usr/bin/env python3
"""Run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload criteo-full-75k --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark runner with sbt when their sources
changed (perfbench/build.sbt), then starts the runner in one JVM with pinned
heap and GC settings. The runner prints a metric summary and, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
Working data goes to perfbench/.work and is removed afterwards; per-run
details and trace spans go to perfbench/out.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
RUNNER_SRC = os.path.join(HERE, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "perfbench.stamp")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("criteo-full-75k", "criteo-uniform-3k", "cloc-pipeline")

# Pinned JVM settings. The heap is fixed so that peak_heap_mb does not depend
# on the machine's memory; the parallel collector with a fixed young
# generation keeps heap figures comparable between runs.
JVM_OPTS = [
    "-Xms2g", "-Xmx2g", "-Xmn512m",
    "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy",
    "-XX:ParallelGCThreads=2",
    "-Dfile.encoding=UTF-8",
]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of every file the build compiles, so a stale build is noticed."""
    h = hashlib.sha256()
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for base in (PROGRAM_SRC, RUNNER_SRC):
        for d, _, names in sorted(os.walk(base)):
            files += [os.path.join(d, n) for n in sorted(names) if n.endswith(".scala")]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run_group(cmd, cwd, env, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout} s", 3)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(digest):
    if os.path.exists(STAMP) and os.path.exists(CLASSPATH):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    # Resolve only from the local caches, through the user's repository
    # configuration when there is one, as the repository's own build does.
    opts = env.get("SBT_OPTS", "")
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    if "sbt.repository.config" not in opts and os.path.exists(repos):
        opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    env["SBT_OPTS"] = opts.strip()
    started = time.time()
    code, _ = run_group(["sbt", "-batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                         "writeClasspath"], HERE, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        fail(f"build failed with exit code {code}", 3)
    with open(STAMP, "w") as fh:
        fh.write(digest)
    print(f"perfbench: built in {time.time() - started:.0f} s", file=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    # A terminated run still stops its build or runner (see run_group).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SRC, os.getcwd())}")
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java must be on PATH")

    digest = source_digest()
    build(digest)
    with open(CLASSPATH) as fh:
        classpath = fh.read().strip()

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    cmd = (["java"] + JVM_OPTS + [f"-Djava.io.tmpdir={tmp}", "-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", work, "--out-dir", OUT, "--source", digest])
    try:
        code, out = run_group(cmd, ROOT, dict(os.environ), RUN_TIMEOUT_S, subprocess.PIPE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = out.decode("utf-8", "replace")
    lines = text.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines) + "\n")
        fail(f"benchmark runner exited with code {code} and no result", 1)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"runner metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}", 1)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


if __name__ == "__main__":
    main()
