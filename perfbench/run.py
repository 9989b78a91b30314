"""End-to-end benchmark of `jrom romize`, run in-process through cli.main.

    python3 perfbench/run.py --workload corpus-verify --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36

Run from the root of a checkout.  Each workload writes its class set under
``.bench_work/``, then repeats one op for ``--seconds``: a timed
`jrom romize` call, a timed ``romizer.load_image`` of the image it wrote,
and output checks kept out of both timed regions.  Every time is scaled to
a reference machine speed by the probe in ``pace.py``, which runs while the
run measures; the table also prints the raw wall time of a romize call.
With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` the run first measures untraced ops
for half the time, then traced ops, and the JSON carries the per-layer
metrics.  ``--workload all`` runs every workload in its own child process,
so no two share one peak RSS.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import pace  # noqa: E402

SETUP_MIN = (5, 1.0)    # set up at least 5 times and for at least 1 s
MIN_OPS = 2
RELOAD_SHARE = 0.1      # time load_image for a tenth of each romize call

# name: (generated classes, or None for the test corpus; romize flags)
# The corpus is fixed, so its seed only shuffles the order of the targets.
# Its vectors keep `--seed 0`: the vector seed decides how many corpus loops
# run out of fuel, which swings the interpreted work sixfold between seeds.
WORKLOADS = {
    "corpus-verify": (None, ["--verify", "--seed", "0"]),
    "scale-build": (1600, ["--closed-world", "--no-introspection"]),
    "scale-verify": (200, ["--verify", "--seed", "{seed}"]),
}

END_TO_END = [("romize_s", "s"), ("reload_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("image_bytes", "B"),
              ("linked_pool_ratio", "ratio")]

STAGES = ("unloaded", "loaded", "linked")
LDC_QUICK = ("ldc_quick_i", "ldc_quick_f", "ldc_quick_a", "ldc_quick_i_w",
             "ldc_quick_f_w", "ldc_quick_a_w", "ldc2_quick_l", "ldc2_quick_d",
             "anewarray_quick")

PER_LAYER = (
    [("classfile.parse_s", "s"), ("classfile.classes", "count"),
     ("classfile.bytes", "B"),
     ("constpool.prelink_s", "s"), ("constpool.pack_s", "s")]
    + [("constpool.entries." + st, "count") for st in STAGES]
    + [("constpool.pool_bytes." + st, "B") for st in STAGES]
    + [("lifecycle.load_s", "s"), ("lifecycle.ready_s", "s"),
       ("lifecycle.clinit_runs", "count"), ("lifecycle.clinit_exec_s", "s"),
       ("lifecycle.clinit_world_s", "s"),
       ("lifecycle.clinit_instructions", "count"),
       ("lifecycle.ldc_quick", "count"), ("lifecycle.ready_failures", "count"),
       ("linker.link_s", "s"), ("linker.classes", "count"),
       ("linker.link_failures", "count"),
       ("linker.invokevirtual_quick", "count"),
       ("linker.invokevirtual_quick_ratio", "ratio"),
       ("linker.static_quick", "count"), ("linker.field_quick", "count"),
       ("linker.bytecode_bytes", "B"),
       ("verify.verify_s", "s"), ("verify.exec_s", "s"),
       ("verify.executions", "count"), ("verify.instructions", "count"),
       ("verify.instr_per_s", "1/s"), ("verify.world_s", "s"),
       ("verify.worlds", "count"), ("verify.digest_s", "s"),
       ("verify.methods_checked", "count"),
       ("verify.methods_skipped", "count"),
       ("verify.checked_ratio", "ratio"), ("verify.fuel_outs", "count"),
       ("verify.mismatches", "count"),
       ("romizer.emit_s", "s"), ("romizer.report_s", "s"),
       ("romizer.load_image_s", "s"), ("romizer.image_bytes", "B"),
       ("cli.self_s", "s"), ("python.gc_s", "s"),
       ("python.gc_full", "count"),
       ("trace.overhead_ratio", "ratio"), ("repo.src_lines", "count")])

# timings vary from op to op; when the collector runs is no output of the
# program, so its count is reported but not held to the exact repeat; every
# other metric must repeat exactly
TIMES = {name for name, unit in END_TO_END + PER_LAYER
         if unit in ("s", "1/s")} | {"trace.overhead_ratio", "python.gc_full",
                                     "romize_wall_s", "speed"}


class Problem(Exception):
    """An op whose outputs fail a check."""


# --- set-up ---

def corpus_set():
    from tests import corpus
    corpus._cache = None        # build every class again, not from its cache
    built = corpus.build_corpus()
    return gen.ClassSet({n: d for n, (d, _) in built.items()},
                        sum(gen.count_code(cb) for _, cb in built.values()))


def set_up(n, seed, class_dir, clock):
    """Generate and write the class set repeatedly; median scaled time.

    Each time starts from a collected heap, so the collector's work on the
    previous class set is not timed again.
    """
    times, scaled, cs = [], [], None
    shutil.rmtree(class_dir, ignore_errors=True)
    while len(times) < SETUP_MIN[0] or sum(times) < SETUP_MIN[1]:
        cs = None
        gc.collect()
        mark = clock.mark()
        start = clock.now()
        cs = corpus_set() if n is None else gen.generate(n, seed)
        gen.write(cs.files, class_dir)
        times.append(clock.now() - start)
        scaled.append(times[-1] * clock.speed(mark))
    return cs, statistics.median(scaled)


# --- one op ---

class Op:
    def __init__(self, workload, seed, class_set, work, clock):
        from jrom import cli, romizer
        from jrom.pipeline import Pipeline
        self.cli, self.rz = cli, romizer
        self.clock = clock
        self.emit_again = romizer.emit_image     # a traced run must not time it
        _, flags = WORKLOADS[workload]
        flags = [f.format(seed=seed) for f in flags]
        self.verify = "--verify" in flags
        targets = sorted(class_set.files)
        random.Random(seed).shuffle(targets)
        self.image_path = os.path.join(work, "system.rom")
        self.argv = (["romize", "--classpath", os.path.join(work, "classes"),
                      "--out", self.image_path] + flags + targets)
        self.expected_checked = class_set.methods_with_code
        self.flags = types.SimpleNamespace(
            introspection="--no-introspection" not in flags,
            private_field_opt=False, closed_world="--closed-world" in flags,
            closed_packages=set())
        self.first_image = None
        self.reports = []           # (pipeline, report) of each build_report
        orig = Pipeline.build_report

        def build_report(pipe, *args, **kwargs):
            report = orig(pipe, *args, **kwargs)
            self.reports.append((pipe, report))
            return report
        Pipeline.build_report = build_report

    def run(self, tracer=None):
        """One romize call plus reload; returns metrics, raises Problem."""
        clock = self.clock
        self.reports.clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            mark = clock.mark()
            start = clock.now()
            if tracer is None:
                rc = self.cli.main(self.argv)
            else:
                rc = tracer.span("cli", self.cli.main, self.argv)
            romize_wall_s = clock.now() - start
            speed = clock.speed(mark)
        romize_s = romize_wall_s * speed
        text = out.getvalue() + err.getvalue()
        if rc != 0:
            raise Problem("exit code %r: %s" % (rc, text.strip()[-400:]))
        bad = [ln for ln in text.splitlines()
               if ln.startswith(("MISMATCH", "FAIL"))]
        if bad:
            raise Problem("; ".join(bad[:3]))
        if self.verify:
            m = re.search(r"^verified (\d+) methods", text, re.M)
            if m is None or int(m.group(1)) != self.expected_checked:
                raise Problem("expected 'verified %d methods', got %r"
                              % (self.expected_checked, text.strip()))
        with open(self.image_path, "rb") as fh:
            image = fh.read()
        if self.first_image is None:
            self.first_image = image
        elif image != self.first_image:
            raise Problem("image differs from the first op's image")

        # like the romize call, each reload starts from a collected heap;
        # otherwise it pays for collecting the romize call's garbage.  Each
        # reload is scaled by the probe speed during it, not by the mean over
        # the series, since the speed changes within a series: with the mean,
        # eight scale-verify runs spread 0.14 of their median, not 0.09
        reloads, registry, took = [], None, 0.0
        while not reloads or took < RELOAD_SHARE * romize_wall_s:
            registry = None
            gc.collect()
            mark = clock.mark()
            start = clock.now()
            registry = self.rz.load_image(image)
            wall = clock.now() - start
            took += wall
            reloads.append(wall * clock.speed(mark))
        again = self.emit_again(
            sorted(registry.loadable(), key=lambda c: c.name), self.flags)
        if again != image:
            raise Problem("load_image round trip does not re-emit the image")

        if len(self.reports) != 1:
            raise Problem("expected one footprint report, got %d"
                          % len(self.reports))
        pipe, report = self.reports.pop()
        unloaded = report.aggregate("unloaded").pool_bytes
        result = {"romize_s": romize_s,
                  "reload_s": reloads,
                  "romize_wall_s": romize_wall_s, "speed": speed,
                  "image_bytes": len(image),
                  "linked_pool_ratio":
                      report.aggregate("linked").pool_bytes / unloaded}
        if tracer is not None:
            result.update(layer_metrics(tracer, pipe, report, image, speed))
        return result


def layer_metrics(tracer, pipe, report, image, speed):
    """Per-layer metrics of one traced op; times scaled by the op's speed."""
    from jrom import opcodes as ops
    s, calls, c, cap = tracer.self_s, tracer.calls, tracer.counts, tracer.captured
    linked = pipe.linked_classes()
    op_counts, ldc_quick, code_bytes = {}, 0, 0
    quick_loaded = {ops.BY_NAME[n] for n in LDC_QUICK}
    for cls in linked:
        for m in cls.methods:
            if m.code is None:
                continue
            code_bytes += len(m.code.bytecode)
            for _, op, _ in ops.walk(m.code.bytecode):
                op_counts[op] = op_counts.get(op, 0) + 1
            ldc_quick += sum(1 for _, op, _ in ops.walk(m.code_loaded.bytecode)
                             if op in quick_loaded)

    def count(*names):
        return sum(op_counts.get(ops.BY_NAME[n], 0) for n in names)

    iv_quick = count("invokevirtual_quick")
    iv_all = iv_quick + count("invokevirtual")
    outcome = cap.get("verify_outcome")
    checked = len(outcome.checked) if outcome else 0
    skipped = len(outcome.skipped) if outcome else 0
    exec_s = s["verify.exec"] + s["verify.exec.clinit"]
    instructions = c["verify.instructions"] + c["verify.instructions.clinit"]
    m = {
        "classfile.parse_s": s["classfile.parse"],
        "classfile.classes": calls["classfile.parse"],
        "classfile.bytes": c["classfile.bytes"],
        "constpool.prelink_s": s["constpool.prelink"],
        "constpool.pack_s": s["constpool.pack"],
        "lifecycle.load_s": s["lifecycle.load"],
        "lifecycle.ready_s": s["lifecycle.ready"],
        "lifecycle.clinit_runs": calls["verify.exec.clinit"],
        "lifecycle.clinit_exec_s": s["verify.exec.clinit"],
        "lifecycle.clinit_world_s": s["verify.world.clinit"],
        "lifecycle.clinit_instructions": c["verify.instructions.clinit"],
        "lifecycle.ldc_quick": ldc_quick,
        "lifecycle.ready_failures": len(cap["ready_failures"]),
        "linker.link_s": s["linker.link"],
        "linker.classes": len(linked),
        "linker.link_failures": len(cap["link_failures"]),
        "linker.invokevirtual_quick": iv_quick,
        "linker.invokevirtual_quick_ratio": iv_quick / iv_all if iv_all else 0.0,
        "linker.static_quick": count("getstatic_quick", "putstatic_quick"),
        "linker.field_quick": count("getfield_quick", "putfield_quick"),
        "linker.bytecode_bytes": code_bytes,
        "verify.verify_s": s["verify.verify"],
        "verify.exec_s": exec_s,
        "verify.executions": calls["verify.exec"] + calls["verify.exec.clinit"],
        "verify.instructions": instructions,
        "verify.instr_per_s": instructions / exec_s if exec_s else 0.0,
        "verify.world_s": s["verify.world"] + s["verify.world.clinit"],
        "verify.worlds": calls["verify.world"] + calls["verify.world.clinit"],
        "verify.digest_s": s["verify.digest"],
        "verify.methods_checked": checked,
        "verify.methods_skipped": skipped,
        "verify.checked_ratio": (checked / (checked + skipped)
                                 if checked + skipped else 0.0),
        "verify.fuel_outs": c["verify.fuel_outs"],
        "verify.mismatches": len(outcome.failures) if outcome else 0,
        "romizer.emit_s": s["romizer.emit"],
        "romizer.report_s": s["romizer.report"],
        "romizer.load_image_s": (s["romizer.load_image"]
                                 / calls["romizer.load_image"]),
        "romizer.image_bytes": len(image),
        "cli.self_s": s["cli"],
        "python.gc_s": s["gc"],
        "python.gc_full": c["gc.full"],
    }
    for stage in STAGES:
        agg = report.aggregate(stage)
        m["constpool.entries." + stage] = agg.entries
        m["constpool.pool_bytes." + stage] = agg.pool_bytes
    for name, unit in PER_LAYER:
        if name in m and unit == "s":
            m[name] *= speed
    m["verify.instr_per_s"] /= speed
    return m


# --- measuring ---

def measure(op, seconds, tracer=None):
    """Repeat the op for ``seconds``, at least MIN_OPS times.

    No op starts that would, at the median op time so far, end after the
    deadline, so a run takes ``seconds`` whatever the op length.
    """
    results, failures, took = [], [], []
    start = time.perf_counter()
    while len(took) < MIN_OPS or (time.perf_counter() - start
                                  + statistics.median(took) <= seconds):
        if tracer is not None:
            tracer.reset()
        began = time.perf_counter()
        try:
            results.append(op.run(tracer))
        except Problem as e:
            failures.append(str(e))
            print("FAILED op: %s" % e, file=sys.stderr)
        took.append(time.perf_counter() - began)
    return results, failures


def repeat_key(result):
    """The counts that must be equal for every op of one seed."""
    return {k: v for k, v in result.items() if k not in TIMES}


def src_files():
    """(name, bytes) of each module of the checkout's src/jrom."""
    src = os.path.join(ROOT, "src", "jrom")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                yield name, fh.read()


def src_digest():
    h = hashlib.sha256()
    for name, data in src_files():
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()[:16]


def check_repeat(results, path):
    """Every op, and every earlier run with this seed, gives equal counts."""
    keys = [repeat_key(r) for r in results]
    problems = ["op %d: %s" % (i, diff(keys[0], k))
                for i, k in enumerate(keys) if k != keys[0]]
    if keys and not problems:
        if os.path.exists(path):
            with open(path) as fh:
                before = json.load(fh)
            if before != keys[0]:
                problems.append("earlier run: %s" % diff(before, keys[0]))
        else:
            with open(path, "w") as fh:
                json.dump(keys[0], fh, sort_keys=True)
    for p in problems:
        print("EXACT-REPEAT FAILURE %s" % p, file=sys.stderr)
    return problems


def diff(a, b):
    return ", ".join("%s %r != %r" % (k, a.get(k), b.get(k))
                     for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k))


def median_of(results, name):
    """Median over ops; a list-valued metric pools its samples."""
    values = []
    for r in results:
        values.extend(r[name] if isinstance(r[name], list) else [r[name]])
    return statistics.median(values)


def run_workload(name, seed, seconds, trace):
    n, _ = WORKLOADS[name]
    bench_dir = os.path.join(ROOT, ".bench_work")
    work = os.path.join(bench_dir, "%s-%d" % (name, seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    clock = pace.Pace()
    clock.install()
    try:
        class_set, setup_s = set_up(n, seed, os.path.join(work, "classes"),
                                    clock)
        op = Op(name, seed, class_set, work, clock)
        if not trace:
            results, failures = measure(op, seconds)
            traced = []
        else:
            import spans
            results, failures = measure(op, seconds / 2)
            tracer = spans.Tracer(clock.now)
            tracer.install()
            try:
                traced, traced_failures = measure(op, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            failures += traced_failures
    finally:
        clock.uninstall()
    attempted = len(results) + len(traced) + len(failures)
    problems = []
    stamp = "%s-%d-%s" % (name, seed, src_digest())
    problems += check_repeat(results, os.path.join(
        bench_dir, "repeat-%s-e2e.json" % stamp))
    problems += check_repeat(traced, os.path.join(
        bench_dir, "repeat-%s-layers.json" % stamp))

    error_rate = len(failures) / attempted
    rows = []
    if not trace and results:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": setup_s, "peak_rss_mb": peak_mib,
                  "romize_s": median_of(results, "romize_s"),
                  "reload_s": median_of(results, "reload_s"),
                  "image_bytes": results[0]["image_bytes"],
                  "linked_pool_ratio": results[0]["linked_pool_ratio"]}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        rows = [(m, values[m], u) for m, u in END_TO_END]
    elif trace and traced and results:
        values = {"trace.overhead_ratio": median_of(traced, "romize_s")
                  / median_of(results, "romize_s"),
                  "repo.src_lines": sum(data.count(b"\n")
                                        for _, data in src_files())}
        for m, _ in PER_LAYER:
            if m not in values:
                values[m] = (median_of(traced, m) if m in TIMES
                             else traced[0][m])
        metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}
        rows = [(m, values[m], u) for m, u in PER_LAYER]
    else:
        metrics = {}
    rows.append(("error_rate", error_rate, "ratio"))
    for metric, value, unit in rows:
        print("%-14s %-34s %16.6g %s" % (name, metric, value, unit))
    if results:
        times = [r["romize_s"] for r in results]
        print("%-14s %d untraced ops, romize_s min %.4f max %.4f; "
              "%d reloads" % (name, len(results), min(times), max(times),
                              sum(len(r["reload_s"]) for r in results)))
        print("%-14s romize wall time median %.4f s at median speed %.3f "
              "of the reference" % (name, median_of(results, "romize_wall_s"),
                                    median_of(results, "speed")))
    correct = not failures and not problems and bool(metrics)
    return {"correct": correct, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def run_all(args):
    """Each workload in a child process; one combined table and result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s:%s" % (name, metric)] = value
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    gen.use_checkout(ROOT)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
