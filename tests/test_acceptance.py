"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The corpus is assembled in-repo (no JDK is available here); every
threshold below is fixed, not tuned at runtime.
"""

import time
from contextlib import contextmanager

import pytest

from jrom import constpool as cp
from jrom import lifecycle as lc
from jrom import linker as lk
from jrom import opcodes as ops
from jrom import romizer as rz
from jrom.errors import InvalidTransition, PoolOverflow, StaticOverflow
from jrom.pipeline import Pipeline

from .assembler import ACC_PUBLIC, ACC_STATIC, ClassBuilder
from .conftest import resolve
from .corpus import build_corpus, corpus_names

OP = ops.BY_NAME

SEED = 20260808
VECTORS = 5


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print("[FAIL] criterion %d: %s" % (number, summary))
        raise
    print("[PASS] criterion %d: %s" % (number, summary))


def _build(corpus_dir, **flags):
    pipe = Pipeline([corpus_dir], **flags)
    pipe.load_targets(corpus_names(), closure=True)
    ready_failures = pipe.ready_all()
    link_failures = pipe.link_all()
    assert not ready_failures and not link_failures, \
        (ready_failures, link_failures)
    return pipe


@pytest.fixture(scope="module")
def timed_default(corpus_dir):
    t0 = time.monotonic()
    pipe = _build(corpus_dir)
    return pipe, time.monotonic() - t0


@pytest.fixture(scope="module")
def default_pipe(timed_default):
    return timed_default[0]


def test_criterion_1_direction_and_magnitude(timed_default):
    pipe, elapsed = timed_default
    report = pipe.build_report()
    raw = report.aggregate("unloaded")
    linked = report.aggregate(lc.LINKED)
    entry_ratio = linked.entries / raw.entries
    byte_ratio = linked.pool_bytes / raw.pool_bytes
    with criterion(1, "introspection-on linked pool: %.1f%% of raw entries "
                      "(<=50%%), %.1f%% of raw bytes (<=60%%), %.2fs (<10s)"
                      % (100 * entry_ratio, 100 * byte_ratio, elapsed)):
        assert len(corpus_names()) >= 30
        assert entry_ratio <= 0.50
        assert byte_ratio <= 0.60
        assert elapsed < 10.0


def test_criterion_2_introspection_delta(corpus_dir, default_pipe):
    nointro = _build(corpus_dir, introspection=False)
    with_bytes = default_pipe.build_report().aggregate(lc.LINKED).pool_bytes
    without_bytes = nointro.build_report().aggregate(lc.LINKED).pool_bytes
    with criterion(2, "no-introspection linked pool bytes %d < %d with"
                      % (without_bytes, with_bytes)):
        assert any(m.code is not None
                   for c in default_pipe.registry.loadable()
                   for m in c.methods)
        assert without_bytes < with_bytes


def test_criterion_3_semantic_preservation(corpus_dir):
    t0 = time.monotonic()
    pipe = _build(corpus_dir)
    outcome = pipe.verify_all(seed=SEED, vectors=VECTORS)
    clean_elapsed = time.monotonic() - t0

    mutant = _build(corpus_dir)
    where = mutant.corrupt("corpus/Constants", "intConst")
    sentinel = mutant.verify_all(seed=SEED, vectors=VECTORS)
    elapsed = time.monotonic() - t0
    with criterion(3, "differential equal on %d/%d subset methods with %d "
                      "vectors; sentinel at %s detected; %.1fs (<30s)"
                      % (len(outcome.checked),
                         len(outcome.checked) + len(outcome.failures),
                         VECTORS, where, clean_elapsed)):
        assert not outcome.failures, outcome.failures[:3]
        assert not outcome.skipped, outcome.skipped[:3]
        assert len(outcome.checked) > 100
        assert sentinel.failures, "operand corruption went undetected"
        assert elapsed < 30.0


def test_criterion_4_reachability_soundness(default_pipe):
    pool_refs = 0
    decoded = 0
    methods = 0
    violations = []
    for cls in default_pipe.registry.loadable():
        for m in cls.methods:
            if m.code is None:
                continue
            methods += 1
            decoded += sum(1 for _ in ops.walk(m.code.bytecode))
            try:
                pool_refs += _resolve_every_operand(cls, m)
            except Exception as e:     # any resolution fault is a violation
                violations.append((cls.name, m.name, repr(e)))
    with criterion(4, "decoded %d instructions in %d linked methods; %d "
                      "surviving pool operands all resolved, %d violations"
                      % (decoded, methods, pool_refs, len(violations))):
        assert methods > 100 and decoded > 1000 and pool_refs > 150
        assert violations == []


def _resolve_every_operand(cls, m):
    pool = cls.pool
    count = 0
    bc = m.code.bytecode
    for off, op, size in ops.walk(bc):
        found = ops.pool_operand(bc, off)
        if found is None:
            continue
        entry, idx = found
        assert pool.kinds(entry.space)[idx] == entry.want
        resolve(pool, entry.space, idx)
        count += 1
    for *_, catch in m.code.exception_table:
        if catch is not None:
            assert pool.a_kind[catch] == cp.A_CLASS
            count += 1
    return count


def test_criterion_5_round_trip_determinism(default_pipe):
    image_a = default_pipe.emit_image()
    image_b = default_pipe.emit_image()
    reloaded = rz.load_image(image_a)
    image_c = rz.emit_image(sorted(reloaded.loadable(), key=lambda c: c.name),
                            default_pipe.ctx)
    outcome = default_pipe.verify_all(seed=SEED, vectors=VECTORS,
                                      after_registry=reloaded)
    with criterion(5, "image emit deterministic (%d bytes); reload round "
                      "trip identical; reloaded equal on %d methods"
                      % (len(image_a), len(outcome.checked))):
        assert image_a == image_b
        assert image_c == image_a
        assert not outcome.failures, outcome.failures[:3]
        assert not outcome.skipped
        assert len(outcome.checked) > 100


def test_criterion_6_closed_world_monotonicity(corpus_dir):
    packages = {"corpus", "corpus/app", "corpus/shapes", "corpus/sealed",
                "corpus/deep", "java/lang"}
    results = {}
    for label, flags in (
            ("default", {}),
            ("package-closed", {"closed_packages": packages}),
            ("closed-world", {"closed_world": True}),
            ("no-intro", {"introspection": False}),
            ("closed-no-intro", {"introspection": False,
                                 "closed_world": True})):
        pipe = _build(corpus_dir, **flags)
        results[label] = pipe

    def survivors(pipe):
        bag = {}
        for cls in pipe.registry.loadable():
            for i in range(len(cls.pool.a_kind)):
                key = (cls.name,) + resolve(cls.pool, "a", i)
                bag[key] = bag.get(key, 0) + 1
            for i, kind in enumerate(cls.pool.v_kind):
                if kind in (cp.V_LONG_LO, cp.V_DBL_LO):
                    continue
                key = (cls.name,) + resolve(cls.pool, "v", i)
                bag[key] = bag.get(key, 0) + 1
        return bag

    base = survivors(results["default"])
    pkg = survivors(results["package-closed"])
    wld = survivors(results["closed-world"])
    closed_bytes = results["closed-no-intro"].build_report() \
        .aggregate(lc.LINKED).pool_bytes
    nointro_bytes = results["no-intro"].build_report() \
        .aggregate(lc.LINKED).pool_bytes
    with criterion(6, "survivors closed-world <= package-closed <= default; "
                      "closed-world bytes %d <= no-introspection bytes %d"
                      % (closed_bytes, nointro_bytes)):
        assert all(pkg.get(k, 0) <= base.get(k, 0) for k in pkg)
        assert all(wld.get(k, 0) <= pkg.get(k, 0) for k in wld)
        assert closed_bytes <= nointro_bytes


def test_criterion_7_state_machine(corpus_dir):
    object_bytes = build_corpus()["java/lang/Object"][0]
    empty_bytes = build_corpus()["corpus/Empty"][0]
    actions = ("load", "link", "ready")
    scripts = [(a,) for a in actions] + \
        [(a, b) for a in actions for b in actions] + \
        [(a, b, c) for a in actions for b in actions for c in actions]
    for script in scripts:
        reg = lc.Registry()
        obj = reg.new_unloaded("java/lang/Object")
        lc.load(obj, object_bytes, reg.resolve)
        cls = reg.new_unloaded("corpus/Empty")
        ctx = lk.LinkContext(reg)
        state, ready = "unloaded", False
        for action in script:
            try:
                if action == "load":
                    lc.load(cls, empty_bytes, reg.resolve)
                    assert state == "unloaded"
                    state = "loaded"
                elif action == "link":
                    lk.link(cls, ctx)
                    assert state == "loaded"
                    state = "linked"
                else:
                    lc.make_ready(cls, lambda c, m: None)
                    assert state in ("loaded", "linked")
                    ready = True
            except InvalidTransition:
                legal = (action == "load" and state == "unloaded") or \
                        (action == "link" and state == "loaded") or \
                        (action == "ready" and state in ("loaded", "linked"))
                assert not legal, (script, action, state)
            assert cls.ready == ready
            assert (cls.state, cls.ready) == \
                ({"unloaded": lc.UNLOADED, "loaded": lc.LOADED,
                  "linked": lc.LINKED}[state], ready)
    # a loaded+ready class can still be linked
    reg = lc.Registry()
    obj = reg.new_unloaded("java/lang/Object")
    lc.load(obj, object_bytes, reg.resolve)
    cls = reg.new_unloaded("corpus/Empty")
    lc.load(cls, empty_bytes, reg.resolve)
    lc.make_ready(cls, lambda c, m: None)
    lk.link(cls, lk.LinkContext(reg))
    with criterion(7, "all %d action scripts honored the lifecycle edges; "
                      "ready never reverted; linked a loaded+ready class"
                      % len(scripts)):
        assert cls.state == lc.LINKED and cls.ready


def test_criterion_8_boundary_suite(corpus_dir, tmp_path):
    # invokevirtual compaction: dispatch slot 255 compacts, 256 does not;
    # the argument-count boundary methods come first so their own dispatch
    # slots stay small and only nargs decides their fate
    many = ClassBuilder("bd/Many", debug_attrs=False)
    many.default_init()
    nargs_ok = "(" + "I" * 254 + ")I"       # 254 + receiver = 255 slots
    nargs_over = "(" + "I" * 255 + ")I"     # 256 slots
    c = many.method("fits", nargs_ok, ACC_PUBLIC)
    c.op("iconst_1").op("ireturn")
    c = many.method("wide", nargs_over, ACC_PUBLIC)
    c.op("iconst_2").op("ireturn")
    for i in range(300):
        c = many.method("m%04d" % i, "()I", ACC_PUBLIC)
        c.op("iconst_0").op("ireturn")

    extra = tmp_path / "bd"
    extra.mkdir(parents=True)
    (extra / "Many.class").write_bytes(many.build())
    reg = lc.Registry()
    loader = lc.Loader(lc.Classpath([str(tmp_path), corpus_dir]), reg)
    ctx = lk.LinkContext(reg, loader=loader)
    many_cls = loader.ensure_loaded("bd/Many")
    slots = {m.dispatch_slot: m for m in many_cls.methods if m.is_virtual}

    caller = ClassBuilder("bd/Caller", debug_attrs=False)
    caller.default_init()
    for tag, target, pushes in (("slot255", slots[255].name, 0),
                                ("slot256", slots[256].name, 0),
                                ("args255", "fits", 254),
                                ("args256", "wide", 255)):
        c = caller.method(tag, "()I", ACC_PUBLIC | ACC_STATIC,
                          max_stack=pushes + 4)
        c.new("bd/Many").op("dup")
        c.invoke("invokespecial", "bd/Many", "<init>", "()V")
        for _ in range(pushes):
            c.op("iconst_0")
        desc = "()I" if pushes == 0 else "(" + "I" * pushes + ")I"
        c.invoke("invokevirtual", "bd/Many", target, desc)
        c.op("ireturn")
    (extra / "Caller.class").write_bytes(caller.build())
    caller_cls = loader.ensure_loaded("bd/Caller")
    lk.link(caller_cls, ctx)

    def first_invoke(name):
        m = next(x for x in caller_cls.methods if x.name == name)
        return [op for _, op, _ in ops.walk(m.code.bytecode)
                if op in (OP["invokevirtual"], OP["invokevirtual_quick"])][0]

    # static zone layout: offset 8191 is the last valid slot
    def layout(n_fields):
        cb = ClassBuilder("bd/S%d" % n_fields, debug_attrs=False)
        for i in range(n_fields):
            cb.field("f%05d" % i, "I", ACC_PUBLIC | ACC_STATIC)
        cb.default_init()
        reg2 = lc.Registry()
        obj = reg2.new_unloaded("java/lang/Object")
        lc.load(obj, build_corpus()["java/lang/Object"][0], reg2.resolve)
        cls = reg2.new_unloaded(cb.name)
        lc.load(cls, cb.build(), reg2.resolve)
        return cls

    fits = layout(8192)
    with pytest.raises(StaticOverflow):
        layout(8193)

    # ldc whose literal lands beyond one byte of atable is rejected
    over = ClassBuilder("bd/Ldc", debug_attrs=False)
    over.default_init()
    c = over.method("s", "()Ljava/lang/String;", ACC_PUBLIC | ACC_STATIC)
    c.ldc_str("late").op("areturn")
    for i in range(300):
        over.pool.utf8("pad%04d" % i)
    (extra / "Ldc.class").write_bytes(over.build())
    with pytest.raises(PoolOverflow):
        loader.ensure_loaded("bd/Ldc")

    with criterion(8, "compaction at slot/nargs 255 vs 256, static offset "
                      "8191 vs StaticOverflow at 8192, ldc PoolOverflow"):
        assert first_invoke("slot255") == OP["invokevirtual_quick"]
        assert first_invoke("slot256") == OP["invokevirtual"]
        assert first_invoke("args255") == OP["invokevirtual_quick"]
        assert first_invoke("args256") == OP["invokevirtual"]
        assert max(f.offset for f in fits.fields) == 8191
