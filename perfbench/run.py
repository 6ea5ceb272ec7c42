#!/usr/bin/env python3
"""Ingestion benchmark of the IDEA reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the program together with the benchmark driver (sbt, once per
source state; outputs under .bench_build/ and perfbench/target/), then runs
one workload in a fresh JVM. Workload parameters and Spark settings come
from perfbench/spec.json. The last line of standard output is the JSON
result; everything the build and Spark log goes to standard error.
`--master local[1]` gives the single-thread floor run.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
RUN_TIMEOUT_S = 170

# Module opens Spark's own launcher adds on JDK 17+ (as in the root build).
MODULE_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    files = []
    for top in (PROGRAM_SOURCES, os.path.join(HERE, "src")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    files += [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    return sorted(files)


def spark_home():
    """The Spark distribution whose bin/ on PATH has spark-submit next to jars/."""
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
        if os.path.isfile(submit) and os.path.isdir(os.path.join(home, "jars")):
            return home
    fail("set SPARK_HOME: the build needs Spark's jars")


def build():
    """Compile with sbt unless the sources are unchanged; return the classpath."""
    digest = hashlib.sha256()
    for f in source_files():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath.txt")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as cf:
                    return cf.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    if "SPARK_HOME" not in env:
        env["SPARK_HOME"] = spark_home()
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos} -Xmx2g")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=840)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0 or not lines:
        fail(f"build failed (sbt exit {proc.returncode})")
    classpath = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(classpath)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--master", help="override the Spark master, e.g. local[1]")
    args = ap.parse_args()

    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads)}")
    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"no program sources at {os.path.relpath(PROGRAM_SOURCES, ROOT)}; run from a checkout root")
    w = workloads[args.workload]
    classpath = build()

    tmp = os.path.join(BUILD, "tmp")
    spark_local = os.path.join(BUILD, "spark-local")
    for d in (tmp, spark_local):
        os.makedirs(d, exist_ok=True)
    session = spec["spark"]
    conf = dict(session["conf"], **{"spark.local.dir": spark_local})
    cmd = [os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java",
           f"-Xmx{spec['jvm']['heap']}", f"-Djava.io.tmpdir={tmp}"] + spec["jvm"]["options"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in MODULE_OPENS]
    cmd += ["-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--enrichment", w["enrichment"], "--batch-size", str(w["batch_size"]),
            "--rate", str(w["rate_per_sec"]), "--upserts-per-batch", str(w["upserts_per_batch"]),
            "--batches-per-feed", str(w["batches_per_feed"]), "--warmup-batches", str(w["warmup_batches"]),
            "--queue-capacity", str(spec["queue_capacity"]),
            "--tail-percentile", str(spec["tail_percentile"]), "--setup-reps", str(spec["setup_reps"]),
            "--master", args.master or session["master"], "--out", os.path.join(BUILD, "traces")]
    for k, v in conf.items():
        cmd += ["--conf", f"{k}={v}"]

    env = dict(os.environ, SPARK_LOCAL_DIRS=spark_local)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        fail(f"run failed (exit {proc.returncode})")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
