"""Checks of the benchmark's own parts.

    python3 -m pytest -q perfbench
"""

import json
import os

import pytest

import gen
import run

gen.use_checkout(run.ROOT)


def test_same_n_and_seed_give_identical_class_files():
    a = gen.generate(30, 7)
    b = gen.generate(30, 7)
    assert a.files == b.files
    assert a.methods_with_code == b.methods_with_code


def test_another_seed_changes_the_class_files():
    a = gen.generate(30, 7).files
    b = gen.generate(30, 8).files
    assert a.keys() == b.keys()
    changed = [name for name in a if a[name] != b[name]]
    assert len(changed) >= 30


def test_generated_set_has_the_documented_shape():
    n = 25
    cs = gen.generate(n, 3)
    generated = [name for name in cs.files if name.startswith("gen/")]
    interfaces = [name for name in generated if name.endswith("/Sized")]
    assert len(generated) - len(interfaces) == n
    assert len(interfaces) == -(-n // gen.PACKAGE)
    clinits = sum(1 for name in generated if b"<clinit>" in cs.files[name])
    assert clinits == -(-n // gen.CHAIN)


def test_generated_set_romizes_and_verifies(tmp_path):
    from jrom.pipeline import Pipeline
    cs = gen.generate(20, 5)
    gen.write(cs.files, str(tmp_path))
    pipe = Pipeline([str(tmp_path)])
    pipe.load_targets(sorted(cs.files), closure=True)
    assert pipe.ready_all() == []
    assert pipe.link_all() == []
    outcome = pipe.verify_all(seed=5)
    assert outcome.failures == []
    assert outcome.skipped == []
    assert len(outcome.checked) == cs.methods_with_code


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_pace_clock_leaves_out_the_probe_and_scales_by_its_speed():
    import time
    import pace
    assert pace._interpret(40) == sum(range(40))
    clock = pace.Pace()
    clock.install()
    try:
        mark = clock.mark()
        wall, start = time.perf_counter(), clock.now()
        while clock.taken - mark < 20:
            pace._interpret(40)
        wall, net = time.perf_counter() - wall, clock.now() - start
        speed = clock.speed(mark)
    finally:
        clock.uninstall()
    assert 0 < net < wall
    assert clock.probe_s > 0
    times = clock.samples[mark:clock.taken]
    assert speed == pytest.approx(
        sum(pace.REF_S / t for t in times) / len(times))
