#!/usr/bin/env python3
"""Build and run the PBDS benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run compiles the repository and the benchmark harness with sbt
(`perfbench/build.sbt`) and stores the runtime classpath under `.bench_build/`;
later runs reuse it while the sources are unchanged. Each run then starts one
JVM that sets up the workload, runs the measured loop and prints the result as
the last line of standard output (see perfbench/README.md).
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("selftune-sof", "reuse-zonemap-tpch")
HEAP = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# The program's sources; the benchmark cannot run without them.
REQUIRED = ("build.sbt", "src/main/scala/repro/core/Pbds.scala",
            "src/main/scala/repro/storage/TableStore.scala")
HASHED = ("build.sbt", "project", "src/main", "jobs",
          "perfbench/build.sbt", "perfbench/project", "perfbench/src")

# Spark's module opens for Java 17, as in the repository's build.sbt.
JAVA_OPENS = ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    for rel in HASHED:
        top = os.path.join(ROOT, rel)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(top)
            if "target" not in os.path.relpath(d, top).split(os.sep) for f in files)
        for p in paths:
            if p.endswith((".scala", ".sbt", ".properties")):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build():
    """Compile with sbt unless the classpath for these sources exists."""
    stamp = source_stamp()
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "stamp.txt")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
             "compile", "export Runtime/fullClasspath"],
            cwd=HERE, stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
            text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("build timed out")
        log.write(out)
    lines = [l.strip() for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or ".jar" not in lines[-1]:
        sys.stderr.write("".join(open(log_path).readlines()[-40:]))
        fail("build failed (log: %s)" % log_path)
    with open(cp_file, "w") as f:
        f.write(lines[-1])
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    missing = [r for r in REQUIRED if not os.path.isfile(os.path.join(ROOT, r))]
    if missing:
        fail("program sources not found: %s" % ", ".join(missing), 2)

    classpath = build()
    run_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java] + JAVA_OPENS + [
        "-Xss64m", "-Xms" + HEAP, "-Xmx" + HEAP, "-Djava.io.tmpdir=" + tmp,
        "-cp", classpath, "pbdsbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--out", os.path.join(BUILD, "out"), "--data", run_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    last = ""

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
    for sig in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        code = proc.wait()
    finally:
        signal.alarm(0)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if code != 0:
        fail("benchmark exited with code %d" % code)
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail("benchmark printed no result line")


if __name__ == "__main__":
    main()
