#!/usr/bin/env python3
"""coopfs benchmark: builds coopfs_perfbench, runs one workload, checks it.

Usage (from the repository root):

    python3 perfbench/run.py --workload sprite_long|auspex_sweep|serve_mixed
        [--seed N] [--seconds S] [--trace 0|1]
        [--size N] [--reference PATH] [--update-reference]

The first run configures and builds the benchmark (Release) under
.bench_build/perfbench; later runs rebuild only what changed. --trace 0
measures the end-to-end metrics with every observer off; --trace 1 is the
traced run that gives the per-layer metrics. See perfbench/README.md.

Each run checks the program's outputs: the binary's own checks (status,
cache/directory consistency, determinism, engine-replay fidelity) plus, for
seeds that perfbench/reference.json covers, every simulated statistic
against the stored value. Every check is one attempted operation and every
mismatch one failed operation.

stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. The full record (workload description, simulated behaviour,
outputs, error rate) is written to .bench_out/<workload>-seed<N>-trace<T>.json.
The description names the code that ran: the git sha and dirty flag, read
at run time (the build's own sha is fixed when CMake configures), and a
SHA-256 of src/ and perfbench/, which also identifies a checkout without git.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "coopfs_perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("sprite_long", "auspex_sweep", "serve_mixed")

# Simulated statistics are deterministic; the tolerance only absorbs the
# last-digit rounding of the JSON round trip.
REL_TOL = 1e-12


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: coopfs sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "coopfs_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def git_revision():
    """HEAD's sha and whether tracked files differ from it; ("unknown", None)
    when the checkout is not the top of a git work tree."""
    def git(*args):
        proc = subprocess.run(["git", "-C", ROOT] + list(args), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown", None
        status = git("status", "--porcelain", "--untracked-files=no")
        return git("rev-parse", "HEAD") or "unknown", None if status is None else bool(status)
    except OSError:
        return "unknown", None


def source_digest():
    """SHA-256 over the paths and contents of every file the benchmark builds
    from (src/ and perfbench/), so results identify their code even outside
    git."""
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, tree)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def load_reference(path):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def check_reference(outputs, expected):
    """Compares every reported output with its stored value; returns mismatches.

    A traced sprite_long run replays only the first of the untraced run's
    traces, so it reports a subset of the stored keys.
    """
    mismatches = []
    for key, got in sorted(outputs.items()):
        want = expected.get(key)
        if want is None or not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            mismatches.append("%s: got %r, reference %r" % (key, got, want))
    return mismatches


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=0,
                        help="workload size override (events or ops); 0 = default")
    parser.add_argument("--reference", default=REFERENCE)
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    args = parser.parse_args(argv)

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", str(args.size)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (args.workload, proc.returncode))
        return 1
    doc = json.loads(lines[-1])

    attempted = doc["attempted"]
    failed = doc["failed"]
    failures = list(doc["failures"])
    outputs = doc["outputs"]
    reference = load_reference(args.reference)
    key = "%s/size=%d/seed=%d" % (args.workload, args.size, args.seed)
    if args.update_reference:
        if outputs:
            reference[key] = outputs
            with open(args.reference, "w") as f:
                json.dump(reference, f, indent=1, sort_keys=True)
                f.write("\n")
    elif key in reference:
        mismatches = check_reference(outputs, reference[key])
        attempted += len(outputs)
        failed += len(mismatches)
        failures += ["reference " + m for m in mismatches]
        for mismatch in mismatches:
            log("perfbench: FAILED reference " + mismatch)

    error_rate = failed / attempted if attempted else 1.0
    context = doc["context"]
    context["reference_checked"] = key in reference and not args.update_reference
    context["git_sha"], context["git_dirty"] = git_revision()
    context["source_sha256"] = source_digest()
    print("coopfs benchmark: %s seed %d, %s" % (args.workload, args.seed,
          "traced (per-layer metrics)" if args.trace else "untraced (end-to-end metrics)"))
    print("workload: " + json.dumps(context, sort_keys=True))
    for name, metric in doc["metrics"].items():
        print("  %-30s %16.6g %s" % (name, metric["value"], metric["unit"]))
    if doc["simulated"]:
        print("simulated behaviour (no better direction; a pure speed-up leaves it unchanged):")
    for name, metric in doc["simulated"].items():
        print("  %-30s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-30s %16.6g (%d of %d operations failed)" % ("error_rate", error_rate,
                                                          failed, attempted))

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"context": context, "metrics": doc["metrics"], "simulated": doc["simulated"],
              "outputs": outputs, "attempted": attempted, "failed": failed,
              "error_rate": error_rate, "failures": failures}
    record_path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                                    args.trace))
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
