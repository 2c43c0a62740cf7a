#!/usr/bin/env python3
"""The repo benchmark: build tstream, drive one workload, check its
outputs and print its metrics as one JSON line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Workloads and metrics are defined in
BENCHMARK.json and explained in perfbench/README.md. The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; a provenance
line (source digest, build type, nproc, seed) precedes it, and the full
record goes to .bench_build/perfbench/runs/<workload>-s<seed>-t<trace>/.

    python3 perfbench/run.py --workload W --seed 42 --write-pins

re-pins the reference outputs in perfbench/pinned/ from a run.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PINNED = os.path.join(HERE, "pinned")
HARNESS = os.path.join(BUILD, "perfbench")
TSTREAM_BENCH = os.path.join(BUILD, "tools", "tstream-bench")
PAPER_BENCHES = ["fig1_miss_classification", "fig2_stream_fraction",
                 "fig3_stride_breakdown", "fig4_length_reuse",
                 "table3_web_origins", "table4_oltp_origins",
                 "table5_dss_origins"]
WORKLOADS = ["sim-dss", "paper-quick"]
DEFAULT_SEED = 42
# Set-up is process start plus config, a few milliseconds, so setup_s
# is the median of this many repetitions.
SETUP_REPS = 31
CLASSES = ["compulsory", "replacement", "coherence", "io_coherence"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the harness, CLI and paper benches."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no tstream source tree next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True)
        if r.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed:\n" + r.stderr[-4000:])
    targets = ["perfbench", "tstream_bench"] + \
        ["bench_" + b for b in PAPER_BENCHES]
    r = subprocess.run(["cmake", "--build", BUILD, "-j",
                        str(os.cpu_count() or 1), "--target", *targets],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        fail("build failed:\n" + r.stderr[-4000:])


def provenance(seed):
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "bench", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    build_type = None
    with open(os.path.join(BUILD, "CMakeCache.txt")) as fh:
        for line in fh:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail(f"benchmark build type is {build_type!r}, Release required")
    return {"commit": commit, "source_sha256": h.hexdigest(),
            "build_type": build_type, "nproc": os.cpu_count(), "seed": seed}


def spawn(argv, out_path, env=None):
    """Run argv to completion; returns (wall_s, rusage, returncode).

    The rusage of the reaped child covers its own waited-for children,
    so cpu and peak RSS include every process the command started."""
    with open(out_path, "w") as out, open(out_path + ".err", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru, proc.returncode


def harness(args, run_dir, name, *extra):
    """Run one harness command; returns (document, wall_s, rusage)."""
    out = os.path.join(run_dir, name + ".json")
    wall, ru, rc = spawn([HARNESS, *extra, "--workload", args.workload,
                          "--seed", str(args.seed), "--dir", run_dir], out)
    if rc != 0:
        with open(out + ".err") as fh:
            fail(f"harness {name} exited {rc}:\n{fh.read()[-4000:]}")
    with open(out) as fh:
        return json.loads(fh.read().strip().splitlines()[-1]), wall, ru


def cpu_of(ru):
    return ru.ru_utime + ru.ru_stime


def med(xs):
    return statistics.median(xs)


def by_id(ops):
    groups = {}
    for op in ops:
        groups.setdefault(op["id"], []).append(op)
    return groups


def sum_median(groups, key, sub=None):
    """Sum over operations of the median of a field across passes."""
    total = 0.0
    for ops in groups.values():
        vals = [(op[sub] if sub else op)[key] for op in ops if key in
                (op[sub] if sub else op)]
        total += med(vals) if vals else 0.0
    return total


def load_pins(workload):
    path = os.path.join(PINNED, workload + ".json")
    with open(path) as fh:
        return json.load(fh)


class Checker:
    """Failure accounting: an operation fails if it threw, differs
    between passes, differs from its pinned value (default seed only)
    or from its traced twin."""

    def __init__(self, pins):
        self.pins = pins
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, key, value, extra_ok=True):
        self.attempted += 1
        ok = extra_ok
        if key in self.first and self.first[key] != value:
            ok = False
            self.problems.append(f"{key}: differs between passes")
        self.first.setdefault(key, value)
        if self.pins is not None and self.pins.get(key) != value:
            ok = False
            self.problems.append(f"{key}: differs from pinned reference")
        if not extra_ok:
            self.problems.append(
                f"{key}: traced twin or stored trace differs")
        if not ok:
            self.failed += 1


# ---- sim-dss ----------------------------------------------------------------

def run_harness_workload(args, run_dir, pins):
    setup_walls = []
    for r in range(SETUP_REPS):
        _, wall, _ = harness(args, run_dir, f"setup{r}", "setup")
        setup_walls.append(wall)
    doc, _, ru = harness(args, run_dir, "run", "run", "--seconds",
                         str(args.seconds), "--trace", str(args.trace))
    ops = doc["ops"]
    chk = Checker(pins)
    good = [op for op in ops if "error" not in op]
    for op in ops:
        if "error" in op:
            chk.attempted += 1
            chk.failed += 1
            chk.problems.append(f"{op['id']}: {op['error']}")
    if not good:
        fail("every operation failed:\n" + "\n".join(chk.problems[:20]))
    for op in good:
        twin = op.get("traced")
        chk.check(op["id"], op["outputs"],
                  extra_ok=twin is None or twin["outputs"] == op["outputs"])
    groups = by_id(good)
    wall = sum_median(groups, "wall_s")
    instr = sum(ops_[0]["outputs"]["instructions"] for ops_ in groups.values())
    m = {"setup_s": med(setup_walls),
         "wall_s": wall,
         "cpu_s": sum_median(groups, "cpu_s"),
         "peak_rss_mib": ru.ru_maxrss / 1024.0,
         "sim_minstr_per_s": instr / sum_median(groups, "sim_s") / 1e6}
    layers = layer_metrics(groups) if args.trace else {}
    return m, layers, chk, {"harness": doc, "setup_walls": setup_walls}


def layer_metrics(groups):
    """Per-layer metrics from the traced twins (median across passes of
    each operation, summed over operations)."""
    traced = {i: [op["traced"] for op in ops] for i, ops in groups.items()}
    L = {}
    wall = sum_median(traced, "wall_s")
    L["traced.wall_s"] = wall
    L["tracing_overhead_s"] = wall - sum_median(groups, "wall_s")
    for k in ["sim.setup_s", "sim.teardown_s", "kernel.self_s",
              "mem.busy_s", "mem.runs", "mem.blocks",
              "trace.encode_s", "trace.decode_s"]:
        L[k] = sum_median(traced, k, "layers")
    out = [ops[0]["outputs"] for ops in groups.values()]
    misses = sum(o["offchip_misses"] for o in out)
    nbytes = sum(ops[0]["layers"]["trace.bytes"] for ops in traced.values())
    L["mem.mblocks_per_s"] = L["mem.blocks"] / L["mem.busy_s"] / 1e6
    L["mem.offchip_misses"] = misses
    L["mem.intra_misses"] = sum(o["intra_misses"] for o in out)
    for c in CLASSES:
        L["mem.class." + c] = sum(o["classes"][c] for o in out)
    L["trace.encode_mmiss_per_s"] = misses / L["trace.encode_s"] / 1e6
    L["trace.bytes_per_miss"] = nbytes / misses
    L["trace.decode_mmiss_per_s"] = misses / L["trace.decode_s"] / 1e6
    L["sim.simulate_s"] = sum(L[k] for k in [
        "sim.setup_s", "kernel.self_s", "mem.busy_s", "sim.teardown_s"])
    L["layers.accounted_frac"] = (L["sim.simulate_s"] +
                                  L["trace.encode_s"]) / wall
    return L


# ---- paper-quick ------------------------------------------------------------

def paper_quick(args, run_dir):
    ref = os.path.join(PINNED, "paper_quick.json")
    jobs = min(4, os.cpu_count() or 1)
    env = dict(os.environ)
    env.pop("TSTREAM_TRACE_CACHE", None)
    env.pop("TSTREAM_TELEMETRY", None)
    env["TSTREAM_LOG"] = "warn"

    # Set-up: process start plus config of the CLI, which resolves the
    # bench aliases.
    setup = []
    for r in range(SETUP_REPS):
        wall, _, rc = spawn([TSTREAM_BENCH, "list"],
                            os.path.join(run_dir, f"setup{r}.txt"), env)
        if rc != 0:
            fail("tstream-bench list failed")
        setup.append(wall)

    chk = Checker(None)

    def one_pass(k, traced):
        report = os.path.join(run_dir, f"pass{k}.json")
        argv = [TSTREAM_BENCH, "run", "--quick", "--jobs", str(jobs),
                "--slowest", "0", "-o", report, "paper"]
        tele = os.path.join(run_dir, f"tele{k}")
        if traced:
            argv[2:2] = ["--telemetry-out", tele]
        wall, ru, rc = spawn(argv, os.path.join(run_dir, f"pass{k}.txt"),
                             env)
        cells, spans = [], {}
        if rc == 0:
            with open(report) as fh:
                cells = [c for b in json.load(fh)["benches"]
                         for c in b["cells"]]
            _, _, rc = spawn([TSTREAM_BENCH, "check-equal", ref, report],
                             os.path.join(run_dir, f"check{k}.txt"), env)
        if traced and cells:
            for b in PAPER_BENCHES:
                with open(f"{tele}.{b}.json") as fh:
                    by_name = json.load(fh)["spans"]["byName"]
                for name, v in by_name.items():
                    spans[name] = spans.get(name, 0.0) + v["totalUs"] / 1e6
        n = len(cells) or 84
        chk.attempted += n
        if rc != 0:
            chk.failed += n
            chk.problems.append(f"pass {k}: run or check-equal failed")
        return {"wall_s": wall, "cpu_s": cpu_of(ru), "traced": traced,
                "rss_mib": ru.ru_maxrss / 1024.0, "cells": cells,
                "spans": spans}

    # Passes repeat while the next is expected to end within --seconds;
    # a traced run alternates untraced and traced (telemetry) passes.
    passes = []
    start = time.monotonic()
    step = 2 if args.trace else 1
    while not passes or (time.monotonic() - start +
                         sum(p["wall_s"] for p in passes[-step:])
                         <= args.seconds):
        passes.append(one_pass(len(passes), False))
        if args.trace:
            passes.append(one_pass(len(passes), True))

    plain = [p for p in passes if not p["traced"]]
    ok = [p for p in plain if p["cells"]] or plain
    m = {"setup_s": med(setup),
         "wall_s": med([p["wall_s"] for p in ok]),
         "cpu_s": med([p["cpu_s"] for p in ok]),
         "peak_rss_mib": med([p["rss_mib"] for p in ok])}
    instr = sum(c["instructions"] for c in ok[0]["cells"]) or 1
    m["sim_minstr_per_s"] = instr / m["wall_s"] / 1e6
    layers = {}
    if args.trace:
        # The traced replay must not perturb any cell the grid runs.
        doc, _, _ = harness(args, run_dir, "nonperturb", "nonperturb")
        for c in doc["cells"]:
            chk.attempted += 1
            if not c["identical"]:
                chk.failed += 1
                chk.problems.append(f"{c['id']}: traced replay differs "
                                    f"from runExperiment {c.get('error', '')}")
        traced = [p for p in passes if p["traced"] and p["cells"]]
        if not traced:
            fail("no traced paper-quick pass succeeded")
        cell_s = med([sum(c["wall_seconds"] for c in p["cells"])
                      for p in ok])
        cells = ok[0]["cells"]
        spans = traced[0]["spans"]
        L = {"driver.cells": len(cells),
             "driver.distinct_cells": len({c["config_hash"]
                                           for c in cells}),
             "driver.cell_s_sum": cell_s,
             "driver.parallel_eff": cell_s / (m["wall_s"] * jobs),
             "traced.wall_s": med([p["wall_s"] for p in traced]),
             "sim.simulate_s": spans.get("simulate", 0.0),
             "core.analyze_s": spans.get("analyze", 0.0),
             "core.sequitur_s": spans.get("analysis.sequitur", 0.0),
             "core.stride_s": spans.get("analysis.stride_seq", 0.0),
             "core.modules_s": spans.get("analysis.modules", 0.0)}
        L["tracing_overhead_s"] = L["traced.wall_s"] - m["wall_s"]
        L["core.walk_s"] = (L["core.analyze_s"] - L["core.sequitur_s"] -
                            L["core.stride_s"])
        L["layers.accounted_frac"] = (
            (L["sim.simulate_s"] + L["core.analyze_s"]) /
            max(spans.get("cell", 0.0), 1e-9))
        layers = L
    return m, layers, chk, {"passes": [{k: v for k, v in p.items()
                                        if k != "cells"} for p in passes],
                            "setup_s": setup}


# ---- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    if args.write_pins and args.seed != DEFAULT_SEED:
        fail("pins are taken at the default seed only")

    build()
    prov = provenance(args.seed)
    run_dir = os.path.join(BUILD, "runs", f"{args.workload}-s{args.seed}"
                                          f"-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    if args.workload == "paper-quick":
        # The CLI takes no seed: the paper grid always runs seed 42 and
        # is always checked against the pinned report.
        m, layers, chk, raw = paper_quick(args, run_dir)
    else:
        pins = None
        if args.seed == DEFAULT_SEED and not args.write_pins:
            pins = load_pins(args.workload)
        m, layers, chk, raw = run_harness_workload(args, run_dir, pins)
        if args.write_pins:
            with open(os.path.join(PINNED, args.workload + ".json"),
                      "w") as fh:
                json.dump(chk.first, fh, indent=1, sort_keys=True)
                fh.write("\n")

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {**m, **layers}
    metrics = {}
    for w in wanted:
        metrics[w["name"]] = {"value": values.get(w["name"], 0.0),
                              "unit": w["unit"]}
    result = {"correct": chk.failed == 0 and chk.attempted > 0,
              "attempted": chk.attempted, "failed": chk.failed,
              "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"provenance": prov, "result": result, "all": values,
                   "problems": chk.problems, "raw": raw}, fh, indent=1)
    for p in chk.problems[:20]:
        print(f"perfbench: check: {p}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
