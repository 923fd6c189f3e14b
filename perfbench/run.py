#!/usr/bin/env python3
"""DomainNet benchmark: builds the program from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sb --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run compiles the program and the harness with sbt (the build is
reused while no source changes); every run then starts one JVM that prints
human-readable lines and, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(HERE, "target", "classpath.txt")
STAMP = os.path.join(BUILD_DIR, "perfbench.stamp")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# A fixed heap and young generation keep G1 from resizing either on GC timing,
# so peak RSS follows what the program keeps live rather than GC heuristics.
HEAP = "4g"
YOUNG = "1g"

# Java 17 strong encapsulation: Spark needs these opens (as in build.sbt).
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
        "sun.nio.cs", "sun.security.action", "sun.util.calendar",
    ]
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads: the program's build and sources, and the harness."""
    files = [os.path.join(ROOT, "build.sbt")]
    for top in [os.path.join(ROOT, "project"), os.path.join(ROOT, "src", "main"), HERE]:
        for d, subdirs, names in os.walk(top):
            subdirs[:] = sorted(s for s in subdirs if s != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    return [f for f in files if os.path.isfile(f)]


def fingerprint():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("the program's sources (build.sbt, src/main/scala) are missing from " + ROOT)
    stamp = fingerprint()
    if os.path.isfile(CLASSPATH) and os.path.isfile(STAMP):
        with open(STAMP) as fh:
            if fh.read() == stamp:
                return
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.join(os.path.expanduser("~"), ".sbt", "repositories")
        if os.path.isfile(repos):
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
        env["SBT_OPTS"] = " ".join(opts)
    print("perfbench: building program and harness with sbt", file=sys.stderr)
    code = run_group([sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false", "writeClasspath"],
                     BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.isfile(CLASSPATH):
        fail("sbt build failed (exit %d)" % code)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def java_cmd(main, args):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else shutil.which("java")
    if not java:
        fail("java not found")
    work = os.path.join(BUILD_DIR, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    return [java, "-Xms" + HEAP, "-Xmx" + HEAP, "-Xmn" + YOUNG, "-Djava.io.tmpdir=" + tmp] + JVM_OPENS + [
        "-cp", cp, main] + args + ["--work-dir", work]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true", help="check every metric on the Figure-1 example lake")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.self_test:
        cmd = java_cmd("repro.perfbench.SelfTest", ["--benchmark", os.path.join(ROOT, "BENCHMARK.json")])
    else:
        cmd = java_cmd("repro.perfbench.Bench", ["--workload", a.workload, "--seed", str(a.seed),
                                                  "--seconds", str(a.seconds), "--trace", a.trace])
    sys.stdout.flush()
    code = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL)
    sys.exit(code)


if __name__ == "__main__":
    main()
