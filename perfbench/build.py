#!/usr/bin/env python3
"""Build the SAQL benchmark from source.

Compiles the engine (src/main/scala) together with the benchmark
(perfbench/src) with the Scala compiler that ships in Spark's jars, packs the
classes into one jar and records a class-data-sharing archive from a short
training run, so each benchmark JVM starts in ~3 s instead of ~7 s.

Everything is written under .bench_build/ at the repository root. The build
is skipped when the sources, this script and the Spark jars are unchanged.

    python3 perfbench/build.py
"""
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
JAR = os.path.join(BUILD, "perfbench.jar")
CDS = os.path.join(BUILD, "perfbench.jsa")
STAMP = os.path.join(BUILD, "stamp")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]

# Spark's standard Java 17 module options, as in the repository's build.sbt.
JVM_OPENS = ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent",
    "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print("perfbench build: " + msg, file=sys.stderr)
    sys.exit(1)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        fail("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        fail("java not found: set JAVA_HOME or put java on PATH")
    return exe


def sources():
    found = []
    for d in SOURCE_DIRS:
        for base, _, files in os.walk(d):
            found += [os.path.join(base, f) for f in files if f.endswith(".scala")]
    if not any(s.startswith(SOURCE_DIRS[0]) for s in found):
        fail("no engine sources under src/main/scala")
    return sorted(found)


def fingerprint(srcs, jars):
    h = hashlib.sha256()
    for path in srcs + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    return h.hexdigest()


def jvm_command(jars, cds_flag):
    """The scratch directory and java command line of a benchmark JVM (main
    class and args follow); run it with jvm_env(scratch)."""
    tmp = os.path.join(BUILD, "tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    return tmp, [
        java(), "-Xmx2g", "-Xss8m", cds_flag,
        # JVM log lines go to stderr so the result stays the last stdout line.
        "-Xlog:disable", "-Xlog:all=warning:stderr",
        *JVM_OPENS,
        "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
        "-Dspark.driver.host=127.0.0.1",
        "-Djava.io.tmpdir=" + tmp,
        "-cp", JAR + os.pathsep + os.path.join(jars, "*"),
    ]


def jvm_env(tmp):
    """Environment of a benchmark JVM: Spark's scratch space inside the build."""
    return dict(os.environ, SPARK_LOCAL_DIRS=tmp)


def build():
    """Build if needed; returns the source fingerprint."""
    jars = spark_jars()
    srcs = sources()
    stamp = fingerprint(srcs, jars)
    if os.path.exists(STAMP) and os.path.exists(CDS):
        with open(STAMP) as f:
            if f.read().strip() == stamp:
                return stamp
    print("perfbench build: compiling %d sources" % len(srcs), file=sys.stderr)
    classes = os.path.join(BUILD, "classes")
    shutil.rmtree(BUILD, ignore_errors=True)
    os.makedirs(classes)
    argfile = os.path.join(BUILD, "sources.txt")
    with open(argfile, "w") as f:
        f.write("\n".join(srcs))
    cp = os.path.join(jars, "*")
    subprocess.run([java(), "-Xss8m", "-Xmx1g", "-cp", cp, "scala.tools.nsc.Main",
                    "-usejavacp", "-nowarn", "-d", classes, "-classpath", cp,
                    "@" + argfile], check=True, stdout=sys.stderr)
    with zipfile.ZipFile(JAR, "w") as z:
        for base, _, files in os.walk(classes):
            for name in files:
                path = os.path.join(base, name)
                z.write(path, os.path.relpath(path, classes))
    shutil.rmtree(classes)
    # Training run for the class-data-sharing archive: loads the classes a
    # benchmark run needs (every workload shares them) and dumps them at exit.
    print("perfbench build: recording the class-data-sharing archive", file=sys.stderr)
    tmp, cmd = jvm_command(jars, "-XX:ArchiveClassesAtExit=" + CDS)
    with open(os.path.join(BUILD, "cds-training.log"), "w") as log:
        subprocess.run(cmd + ["repro.perfbench.Main", "--workload", "slice8", "--seed", "0",
                              "--seconds", "1", "--trace", "1",
                              "--out", os.path.join(BUILD, "training")],
                       check=True, stdout=log, stderr=subprocess.STDOUT, timeout=600,
                       env=jvm_env(tmp))
    shutil.rmtree(tmp, ignore_errors=True)
    with open(STAMP, "w") as f:
        f.write(stamp)
    return stamp


if __name__ == "__main__":
    build()
