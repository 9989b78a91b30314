"""Linker tests: resolution, preverification, compaction, pack, relink."""

import struct

import pytest

from jrom import classfile as cf
from jrom import constpool as cp
from jrom import lifecycle as lc
from jrom import linker as lk
from jrom import opcodes as ops
from jrom import verify as vf
from jrom.errors import (ClassFileError, ClassNotFound, NoSuchField,
                         NoSuchMethod, VerifyError)
from jrom.pipeline import Pipeline

from .assembler import ACC_PUBLIC, ACC_STATIC, ClassBuilder
from .conftest import make_pipeline, prelinked, raw_pool, resolve
from .test_generated import load_perfbench

OP = ops.BY_NAME


def _world(tmp_path, corpus_dir, *builders):
    extra = tmp_path / "extra"
    for cb in builders:
        path = extra / (cb.name + ".class")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(cb.build())
    reg = lc.Registry()
    loader = lc.Loader(lc.Classpath([str(extra), corpus_dir]), reg)
    ctx = lk.LinkContext(reg, loader=loader)
    return reg, loader, ctx


class TestLink:
    def test_link_loads_callee_and_unifies_handle(self, tmp_path, corpus_dir):
        a = ClassBuilder("lk/A")
        a.default_init()
        c = a.method("go", "()I", ACC_PUBLIC | ACC_STATIC)
        c.invoke("invokestatic", "lk/B", "f", "()I")
        c.op("ireturn")
        b = ClassBuilder("lk/B")
        b.default_init()
        c = b.method("f", "()I", ACC_PUBLIC | ACC_STATIC)
        c.op("iconst_5").op("ireturn")
        reg, loader, ctx = _world(tmp_path, corpus_dir, a, b)
        cls = loader.ensure_loaded("lk/A")
        lk.link(cls, ctx)
        callee = reg.get("lk/B")
        assert callee.state == lc.LOADED
        handle = next(p for k, p in zip(cls.pool.a_kind, cls.pool.a_payload)
                      if k == cp.A_METHOD and p.name == "f")
        assert handle.resolved is next(m for m in callee.methods
                                       if m.name == "f")

    def test_missing_class_named(self, tmp_path, corpus_dir):
        a = ClassBuilder("lk/C")
        a.default_init()
        c = a.method("go", "()V", ACC_PUBLIC | ACC_STATIC)
        c.new("lk/Gone").op("pop").op("return")
        reg, loader, ctx = _world(tmp_path, corpus_dir, a)
        cls = loader.ensure_loaded("lk/C")
        with pytest.raises(ClassNotFound, match="lk/Gone"):
            lk.link(cls, ctx)

    def test_missing_method_named(self, tmp_path, corpus_dir):
        a = ClassBuilder("lk/D")
        a.default_init()
        c = a.method("go", "()I", ACC_PUBLIC | ACC_STATIC)
        c.invoke("invokestatic", "corpus/Empty", "nope", "()I")
        c.op("ireturn")
        reg, loader, ctx = _world(tmp_path, corpus_dir, a)
        cls = loader.ensure_loaded("lk/D")
        with pytest.raises(NoSuchMethod, match="nope"):
            lk.link(cls, ctx)

    def test_missing_field_named(self, tmp_path, corpus_dir):
        a = ClassBuilder("lk/E")
        a.default_init()
        c = a.method("go", "()I", ACC_PUBLIC | ACC_STATIC)
        c.getstatic("corpus/Statics", "ghost", "I")
        c.op("ireturn")
        reg, loader, ctx = _world(tmp_path, corpus_dir, a)
        cls = loader.ensure_loaded("lk/E")
        with pytest.raises(NoSuchField, match="ghost"):
            lk.link(cls, ctx)

    def test_class_handles_precede_member_handles(self, linked_pipeline):
        """link loads each referenced class and resolves each member handle
        in one atable walk; that needs every Class entry placed first."""
        pools = 0
        for cls in linked_pipeline.registry.loadable():
            kinds = cls.loaded_pool.a_kind
            classes = [i for i, k in enumerate(kinds) if k == cp.A_CLASS]
            members = [i for i, k in enumerate(kinds)
                       if k in (cp.A_FIELD, cp.A_METHOD)]
            if classes and members:
                assert max(classes) < min(members), cls.name
                pools += 1
        assert pools > 20

    def test_mutually_recursive_classes_link(self, linked_pipeline):
        reg = linked_pipeline.registry
        assert reg.get("corpus/MutualA").state == lc.LINKED
        assert reg.get("corpus/MutualB").state == lc.LINKED


class TestPreverify:
    """Link checks what needs resolution; loading already checked each
    body's structure, so a structurally bad class file fails its load."""

    def _loaded(self, tmp_path, corpus_dir, build, descriptor="()I",
                patch=None, **limits):
        """Load pv/T, whose static m is ``build`` with ``limits``; ``patch``
        is (code offset, bytes) written over m's code in the class file."""
        cb = ClassBuilder("pv/T")
        cb.default_init()
        build(cb.method("m", descriptor, ACC_PUBLIC | ACC_STATIC, **limits))
        reg, loader, ctx = _world(tmp_path, corpus_dir, cb)
        if patch is not None:
            path = tmp_path / "extra" / "pv" / "T.class"
            data = path.read_bytes()
            m = next(x for x in cf.parse_class(data).methods if x.name == "m")
            at = m.attr("Code").code.code_offset + patch[0]
            path.write_bytes(data[:at] + patch[1] + data[at + len(patch[1]):])
        cls = loader.ensure_loaded("pv/T")
        return cls, next(x for x in cls.methods if x.name == "m"), ctx

    def _linked_method(self, tmp_path, corpus_dir, build, descriptor="()I"):
        cls, m, ctx = self._loaded(tmp_path, corpus_dir, build, descriptor)
        lk.link(cls, ctx)
        return cls, m

    def test_branch_into_middle_of_instruction(self, tmp_path, corpus_dir):
        # retarget the ifeq at 2 into the operand byte of the ldc at 0
        with pytest.raises(VerifyError, match=r"<method pv/T\.m\(\)I>: "
                           "branch from 2 to non-boundary 1"):
            self._loaded(
                tmp_path, corpus_dir,
                lambda c: c.ldc_int(9).op("ifeq", "z").op("iconst_1")
                           .op("ireturn").label("z").op("iconst_0")
                           .op("ireturn"),
                patch=(3, struct.pack(">h", -1)))

    def test_local_out_of_range(self, tmp_path, corpus_dir):
        with pytest.raises(VerifyError, match="local 0 out of range at 0"):
            self._loaded(tmp_path, corpus_dir,
                         lambda c: c.op("iload_0").op("ireturn"), "(I)I",
                         max_locals=0)

    def test_quick_operand_marked(self, tmp_path, corpus_dir):
        cls, m = self._linked_method(
            tmp_path, corpus_dir, lambda c: c.ldc_int(77).op("ireturn"))
        idx = m.code.bytecode[1]
        assert cls.pool.v_kind[idx] == cp.V_INT
        # marked: the cell survived the pack, and the operand names it
        loaded = cls.loaded_pool
        assert resolve(cls.pool, cp.VTABLE, idx) == resolve(
            loaded, cp.VTABLE, m.code_loaded.bytecode[1])

    def test_catch_type_marked_and_survives(self, tmp_path, corpus_dir):
        def build(c):
            c.label("s")
            c.op("iconst_1").op("ireturn")
            c.label("e")
            c.label("h").op("pop").op("iconst_0").op("ireturn")
            c.handler("s", "e", "h", "corpus/MyError")
        cls, m = self._linked_method(tmp_path, corpus_dir, build)
        catch = m.code.exception_table[0][3]
        assert cls.pool.a_kind[catch] == cp.A_CLASS
        assert cls.pool.a_payload[catch].name == "corpus/MyError"

    def test_getfield_on_static_rejected(self, tmp_path, corpus_dir):
        def build(c):
            c.op("aconst_null")
            c.getfield("corpus/Statics", "sInt", "I")
            c.op("ireturn")
        with pytest.raises(VerifyError, match="mismatch"):
            self._linked_method(tmp_path, corpus_dir, build)

    @staticmethod
    def _backwards_range(c):
        # the range [1, 0): it ends before it starts
        c.label("e").op("iconst_1").label("s").op("ireturn")
        c.handler("s", "e", "e", None)

    def test_exception_range_checked(self, tmp_path, corpus_dir):
        with pytest.raises(VerifyError, match=r"exception range \[1,0\) "
                                              "invalid"):
            self._loaded(tmp_path, corpus_dir, self._backwards_range,
                         max_stack=1)

    def test_verify_error_does_not_kill_batch(self, tmp_path, corpus_dir):
        bad = ClassBuilder("pv/Bad")
        bad.default_init()
        self._backwards_range(bad.method("m", "()I", ACC_PUBLIC | ACC_STATIC,
                                         max_stack=1))
        good = ClassBuilder("pv/Good")
        good.default_init()
        extra = tmp_path / "extra2"
        for cb in (bad, good):
            path = extra / (cb.name + ".class")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(cb.build())
        pipe = Pipeline([str(extra), corpus_dir])
        loaded, failures = pipe.load_each(["pv/Bad", "pv/Good"])
        assert [c.name for c in loaded] == ["pv/Good"]
        assert failures == [("pv/Bad", "VerifyError: <method pv/Bad.m()I>: "
                                       "exception range [1,0) invalid")]
        # the failed class is not loaded again, so it is reported once
        assert pipe.load_closure() == []
        pipe.ready_all()
        assert pipe.link_all() == []
        assert pipe.registry.get("pv/Good").state == lc.LINKED
        assert pipe.registry.get("pv/Bad").state == lc.UNLOADED


class TestFailedLink:
    """A link that fails commits nothing: the class keeps its loaded pool,
    its loaded code objects and unresolved member handles."""

    def _loaded(self, tmp_path, corpus_dir, build_bad):
        cb = ClassBuilder("fl/T")
        cb.field("s", "I", ACC_PUBLIC | ACC_STATIC)
        cb.default_init()
        # a good method first: linking rewrites it and remaps its operands
        c = cb.method("good", "()I", ACC_PUBLIC | ACC_STATIC)
        c.getstatic("fl/T", "s", "I").ldc_int(77).op("iadd").op("ireturn")
        build_bad(cb.method("bad", "()I", ACC_PUBLIC | ACC_STATIC))
        reg, loader, ctx = _world(tmp_path, corpus_dir, cb)
        cls = loader.ensure_loaded("fl/T")
        return cls, ctx

    def _assert_as_loaded(self, cls, loaded_code):
        pool = cls.loaded_pool
        assert cls.state == lc.LOADED
        assert cls.pool is pool and cls.pool_at(lc.LINKED) is pool
        assert [m.code is m.code_loaded for m in cls.methods] == [True] * 3
        assert [bytes(m.code_loaded.bytecode) for m in cls.methods] \
            == loaded_code
        assert all(h.resolved is None
                   for k, h in zip(pool.a_kind, pool.a_payload)
                   if k in (cp.A_FIELD, cp.A_METHOD))

    @pytest.mark.parametrize("error, build_bad", [
        (VerifyError, lambda c: c.op("aconst_null")
            .getfield("corpus/Statics", "sInt", "I").op("ireturn")),
        (NoSuchMethod, lambda c: c.invoke("invokestatic", "corpus/Empty",
                                          "nope", "()I").op("ireturn")),
    ], ids=["verify-error", "no-such-method"])
    def test_failed_link_leaves_class_as_loaded(self, tmp_path, corpus_dir,
                                                error, build_bad):
        cls, ctx = self._loaded(tmp_path, corpus_dir, build_bad)
        loaded_code = [bytes(m.code_loaded.bytecode) for m in cls.methods]
        with pytest.raises(error):
            lk.link(cls, ctx)
        self._assert_as_loaded(cls, loaded_code)


# the link flags of the golden corpus images
GOLDEN_FLAGS = {"default": {}, "no-introspection": {"introspection": False},
                "private-field-opt": {"private_field_opt": True},
                "closed-world": {"closed_world": True},
                "closed-world-no-introspection": {"closed_world": True,
                                                  "introspection": False}}


class TestLinkInvariants:
    """Facts that link's checks and verify_all take as given."""

    @pytest.fixture(scope="class", params=sorted(GOLDEN_FLAGS))
    def pipe(self, request, corpus_dir):
        return make_pipeline(corpus_dir, **GOLDEN_FLAGS[request.param])

    def test_every_member_handle_resolved(self, pipe):
        """Link's resolution loop leaves no member handle unresolved."""
        handles = 0
        for cls in pipe.registry.loadable():
            for pool in (cls.loaded_pool, cls.pool):
                for kind, handle in zip(pool.a_kind, pool.a_payload):
                    if kind in (cp.A_FIELD, cp.A_METHOD):
                        assert handle.resolved is not None, (cls, handle.name)
                        handles += 1
        assert handles > 100

    def test_linking_keeps_the_subset(self, pipe):
        """Linking writes only quick forms that have handlers, so the linked
        body runs in the interpreter exactly when the loaded one does."""
        counts = {True: 0, False: 0}
        for cls in pipe.registry.loadable():
            for m in cls.methods:
                supported = vf.in_subset(m.code)
                assert vf.in_subset(m.code_loaded) == supported, m
                counts[supported] += 1
        assert counts[True] > 100 and counts[False] > 0


    def test_linked_pools_hold_only_what_linked_code_names(self, pipe):
        assert_linked_pools_hold_only_what_linked_code_names(
            pipe.registry.loadable())


_IMMEDIATE_CELLS = {cp.V_INT, cp.V_FLOAT, cp.V_LONG_HI, cp.V_LONG_LO,
                    cp.V_DBL_HI, cp.V_DBL_LO}


def assert_linked_pools_hold_only_what_linked_code_names(classes):
    """No linked cell names the atable (every cell is an immediate), each
    linked literal is loaded by a quick ldc of its class, and each linked
    class handle is a class operand or a catch type."""
    named = {cp.A_STRING: 0, cp.A_CLASS: 0}
    for cls in classes:
        pool = cls.pool
        assert set(pool.v_kind) <= _IMMEDIATE_CELLS, cls
        operands = {cp.A_STRING: set(), cp.A_CLASS: set()}
        for m in cls.methods:
            if m.code is None:
                continue
            bc = m.code.bytecode
            for off in m.code.shape_of(m).starts:
                found = ops.pool_operand(bc, off)
                if found is not None and found[0].want in operands:
                    operands[found[0].want].add(found[1])
            operands[cp.A_CLASS].update(
                c for *_, c in m.code.exception_table if c is not None)
        for aidx, kind in enumerate(pool.a_kind):
            if kind in named:
                assert aidx in operands[kind], (cls, kind, pool.a_payload[aidx])
                named[kind] += 1
    assert all(named.values()), named


def test_generated_linked_pools_hold_only_what_linked_code_names(tmp_path):
    gen = load_perfbench("gen")
    class_set = gen.generate(200, 1)
    gen.write(class_set.files, str(tmp_path))
    pipe = Pipeline([str(tmp_path)])
    pipe.load_targets(sorted(class_set.files), closure=True)
    assert pipe.ready_all() == [] and pipe.link_all() == []
    assert_linked_pools_hold_only_what_linked_code_names(
        pipe.registry.loadable())


@pytest.mark.parametrize("flags", sorted(GOLDEN_FLAGS))
def test_load_and_link_walk_each_body_once(corpus, corpus_dir, monkeypatch,
                                           flags):
    """Loading walks each class-file body once, into its shape, and the
    linked body shares that shape: method_shape runs once per body.
    Equal shapes are one object per registry."""
    bodies = sum(1 for data, _ in corpus.values()
                 for m in cf.parse_class(data).methods
                 if m.attr("Code") is not None)
    calls = []
    method_shape = ops.method_shape

    def counted(code, method):
        calls.append(method)
        return method_shape(code, method)
    monkeypatch.setattr(ops, "method_shape", counted)
    pipe = make_pipeline(corpus_dir, **GOLDEN_FLAGS[flags])
    assert {c.name for c in pipe.registry.loadable()} == set(corpus)
    assert bodies > 100 and len(calls) == bodies
    assert all(m.code.shape is m.code_loaded.shape
               for c in pipe.registry.loadable() for m in c.methods
               if m.code is not None)
    shapes = [m.code.shape for c in pipe.registry.loadable()
              for m in c.methods if m.code is not None]
    assert len({id(s) for s in shapes}) == len(set(shapes)) < len(shapes)


class TestCompactInvokevirtual:
    def _hierarchy(self, tmp_path, corpus_dir, n_methods, n_params):
        cb = ClassBuilder("cv/Many")
        cb.default_init()
        for i in range(n_methods):
            c = cb.method("m%04d" % i, "()I", ACC_PUBLIC)
            c.op("iconst_0").op("ireturn")
        wide_desc = "(" + "I" * n_params + ")I"
        c = cb.method("wideArgs", wide_desc, ACC_PUBLIC)
        c.op("iconst_1").op("ireturn")
        caller = ClassBuilder("cv/Caller")
        caller.default_init()
        c = caller.method("callLast", "()I", ACC_PUBLIC | ACC_STATIC)
        c.new("cv/Many").op("dup")
        c.invoke("invokespecial", "cv/Many", "<init>", "()V")
        c.invoke("invokevirtual", "cv/Many", "m%04d" % (n_methods - 1), "()I")
        c.op("ireturn")
        c = caller.method("callWide", "()I", ACC_PUBLIC | ACC_STATIC,
                          max_stack=n_params + 4)
        c.new("cv/Many").op("dup")
        c.invoke("invokespecial", "cv/Many", "<init>", "()V")
        for _ in range(n_params):
            c.op("iconst_0")
        c.invoke("invokevirtual", "cv/Many", "wideArgs", wide_desc)
        c.op("ireturn")
        reg, loader, ctx = _world(tmp_path, corpus_dir, cb, caller)
        cls = loader.ensure_loaded("cv/Caller")
        lk.link(cls, ctx)
        return reg, cls

    def _opcodes_of(self, cls, name):
        m = next(x for x in cls.methods if x.name == name)
        return [op for _, op, _ in ops.walk(m.code.bytecode)], m

    def test_compacted_operands_are_nargs_and_slot(self, linked_pipeline):
        reg = linked_pipeline.registry
        user = reg.get("corpus/shapes/ShapeUser")
        m = next(x for x in user.methods if x.name == "measure")
        codes = list(ops.walk(m.code.bytecode))
        quick = [off for off, op, _ in codes
                 if op == OP["invokevirtual_quick"]]
        assert quick, "scaled() call should be compacted"
        off = quick[0]
        bc = m.code.bytecode
        shape = reg.get("corpus/shapes/Shape")
        scaled = next(x for x in shape.methods if x.name == "scaled")
        assert bc[off + 1] == scaled.nargs == 2
        assert bc[off + 2] == scaled.dispatch_slot

    def test_slot_255_compacts_slot_256_does_not(self, tmp_path, corpus_dir):
        # Object's virtuals take the first slots, then m0000..; 300 methods
        # guarantee both slot 255 and slot 256 exist
        reg, cls = self._hierarchy(tmp_path, corpus_dir, 300, 2)
        many = reg.get("cv/Many")
        slots = {m.dispatch_slot: m for m in many.methods if m.is_virtual}
        at_255 = slots[255]
        at_256 = slots[256]
        caller = ClassBuilder("cv/Edge")
        caller.default_init()
        for tag, target in (("a", at_255), ("b", at_256)):
            c = caller.method(tag, "()I", ACC_PUBLIC | ACC_STATIC)
            c.new("cv/Many").op("dup")
            c.invoke("invokespecial", "cv/Many", "<init>", "()V")
            c.invoke("invokevirtual", "cv/Many", target.name, "()I")
            c.op("ireturn")
        extra = tmp_path / "edge"
        path = extra / "cv"
        path.mkdir(parents=True)
        (path / "Edge.class").write_bytes(caller.build())
        loader = lc.Loader(lc.Classpath([str(extra), str(tmp_path / "extra"),
                                         corpus_dir]), reg)
        ctx = lk.LinkContext(reg, loader=loader)
        edge = loader.ensure_loaded("cv/Edge")
        lk.link(edge, ctx)
        ops_a, _ = self._opcodes_of(edge, "a")
        ops_b, _ = self._opcodes_of(edge, "b")
        assert OP["invokevirtual_quick"] in ops_a
        assert OP["invokevirtual_quick"] not in ops_b
        assert OP["invokevirtual"] in ops_b
        # the uncompacted site keeps its pool entry alive
        survivors = [p for k, p in zip(edge.pool.a_kind, edge.pool.a_payload)
                     if k == cp.A_METHOD]
        assert any(h.resolved is at_256 for h in survivors)
        assert not any(h.resolved is at_255 for h in survivors)

    def test_nargs_255_compacts_256_does_not(self, tmp_path, corpus_dir):
        # 254 int params + receiver = 255 slots; 255 params = 256, which
        # no method may take (JVMS 4.3.3), so its class does not load
        reg, cls = self._hierarchy(tmp_path, corpus_dir, 1, 254)
        opcodes, m = self._opcodes_of(cls, "callWide")
        assert OP["invokevirtual_quick"] in opcodes
        with pytest.raises(ClassFileError, match="256 argument slots"):
            self._hierarchy(tmp_path, corpus_dir, 1, 255)

    def test_dispatch_target_preserved(self, linked_pipeline):
        # quick dispatch through the table picks the same override the
        # symbolic name search would
        reg = linked_pipeline.registry
        chain_c = reg.get("corpus/deep/ChainC")
        chain_a = reg.get("corpus/deep/ChainA")
        v1 = next(x for x in chain_a.methods if x.name == "v1")
        table_pick = chain_c.dispatch_table[v1.dispatch_slot]
        name_pick = chain_c.find_method("v1", "()I")
        assert table_pick is name_pick


class TestEncodeStaticRefs:
    def test_operand_layout_int_offset_zero(self, tmp_path, corpus_dir):
        cb = ClassBuilder("es/S")
        cb.field("first", "I", ACC_PUBLIC | ACC_STATIC)
        cb.default_init()
        c = cb.method("r", "()I", ACC_PUBLIC | ACC_STATIC)
        c.getstatic("es/S", "first", "I").op("ireturn")
        reg, loader, ctx = _world(tmp_path, corpus_dir, cb)
        cls = loader.ensure_loaded("es/S")
        lk.link(cls, ctx)
        m = next(x for x in cls.methods if x.name == "r")
        bc = m.code.bytecode
        assert bc[0] == OP["getstatic_quick"]
        assert struct.unpack_from(">H", bc, 1)[0] == (0 << 3) | 1

    def test_operand_layout_ref_offset_five(self, tmp_path, corpus_dir):
        cb = ClassBuilder("es/R")
        for i in range(5):
            cb.field("r%d" % i, "Ljava/lang/String;", ACC_PUBLIC | ACC_STATIC)
        cb.field("target", "Ljava/lang/String;", ACC_PUBLIC | ACC_STATIC)
        cb.default_init()
        c = cb.method("w", "()V", ACC_PUBLIC | ACC_STATIC)
        c.op("aconst_null")
        c.putstatic("es/R", "target", "Ljava/lang/String;")
        c.op("return")
        reg, loader, ctx = _world(tmp_path, corpus_dir, cb)
        cls = loader.ensure_loaded("es/R")
        lk.link(cls, ctx)
        m = next(x for x in cls.methods if x.name == "w")
        bc = m.code.bytecode
        assert bc[1] == OP["putstatic_quick"]
        assert struct.unpack_from(">H", bc, 2)[0] == (5 << 3) | 0 == 0x0028

    def test_operand_layout_long_at_8191(self, tmp_path, corpus_dir):
        cb = ClassBuilder("es/L", debug_attrs=False)
        for i in range(8191):
            cb.field("p%04d" % i, "I", ACC_PUBLIC | ACC_STATIC)
        cb.field("big", "J", ACC_PUBLIC | ACC_STATIC)
        cb.default_init()
        c = cb.method("r", "()J", ACC_PUBLIC | ACC_STATIC)
        c.getstatic("es/L", "big", "J").op("lreturn")
        reg, loader, ctx = _world(tmp_path, corpus_dir, cb)
        cls = loader.ensure_loaded("es/L")
        lk.link(cls, ctx)
        m = next(x for x in cls.methods if x.name == "r")
        bc = m.code.bytecode
        assert bc[0] == OP["getstatic_quick"]
        assert struct.unpack_from(">H", bc, 1)[0] == (8191 << 3) | 3 == 0xFFFB

    def test_ancestor_static_encodes_and_resolves(self, tmp_path, corpus_dir):
        from jrom import verify as vf
        parent = ClassBuilder("es/P")
        parent.field("base", "I", ACC_PUBLIC | ACC_STATIC, const=("i", 40))
        parent.default_init()
        child = ClassBuilder("es/C", super_name="es/P")
        child.field("own", "I", ACC_PUBLIC | ACC_STATIC, const=("i", 2))
        child.default_init("es/P")
        c = child.method("both", "()I", ACC_PUBLIC | ACC_STATIC)
        c.getstatic("es/P", "base", "I")
        c.getstatic("es/C", "own", "I")
        c.op("iadd").op("ireturn")
        reg, loader, ctx = _world(tmp_path, corpus_dir, parent, child)
        pipe_like = loader.ensure_loaded("es/C")
        lk.link(reg.get("es/P"), ctx)
        lk.link(pipe_like, ctx)
        m = next(x for x in pipe_like.methods if x.name == "both")
        opcodes = [op for _, op, _ in ops.walk(m.code.bytecode)]
        # the parent's static sits on the child's superclass chain: both
        # accesses lose their pool entries
        assert opcodes.count(OP["getstatic_quick"]) == 2
        # offsets continue across the hierarchy
        own = next(f for f in pipe_like.fields if f.name == "own")
        assert own.offset == 1
        # and the interpreter walks the chain back to the right zone
        lc.make_ready(reg.get("es/P"), lambda c2, m2: None)
        lc.make_ready(pipe_like, lambda c2, m2: None)
        out, _ = vf.run_method(vf.ExecContext(reg, lc.LINKED), "es/C", m.key, [])
        assert out.value == ("i", 42)

    def test_cross_class_static_stays_symbolic(self, linked_pipeline):
        reg = linked_pipeline.registry
        other = reg.get("corpus/StaticsOther")
        m = next(x for x in other.methods if x.name == "crossRead")
        opcodes = [op for _, op, _ in ops.walk(m.code.bytecode)]
        assert OP["getstatic"] in opcodes          # corpus/Statics.sInt
        assert OP["getstatic_quick"] in opcodes    # own static

    def test_own_static_pool_entries_swept(self, linked_pipeline):
        reg = linked_pipeline.registry
        statics = reg.get("corpus/Statics")
        fields = [p for k, p in zip(statics.pool.a_kind, statics.pool.a_payload)
                  if k == cp.A_FIELD]
        assert fields == []


class TestPrivateFieldRewrite:
    def _field_ops(self, pipe, cls_name, method_name):
        cls = pipe.registry.get(cls_name)
        m = next(x for x in cls.methods if x.name == method_name)
        return [op for _, op, _ in ops.walk(m.code.bytecode)]

    def test_private_opt_rewrites_own_private(self, corpus_dir):
        pipe = Pipeline([corpus_dir], private_field_opt=True)
        pipe.load_targets(["corpus/PrivateFields"], closure=True)
        pipe.ready_all()
        assert pipe.link_all() == []
        opcodes = self._field_ops(pipe, "corpus/PrivateFields", "sum")
        assert OP["getfield_quick"] in opcodes
        assert OP["getfield"] not in opcodes

    def test_default_flags_leave_fields_symbolic(self, linked_pipeline):
        opcodes = self._field_ops(linked_pipeline, "corpus/PrivateFields",
                                  "sum")
        assert OP["getfield"] in opcodes
        assert OP["getfield_quick"] not in opcodes

    def test_protected_untouched_unless_package_closed(self, corpus_dir):
        pipe = Pipeline([corpus_dir], private_field_opt=True)
        pipe.load_targets(["corpus/Fields"], closure=True)
        pipe.ready_all()
        assert pipe.link_all() == []
        # prot is protected: private-opt alone must not rewrite it
        opcodes = self._field_ops(pipe, "corpus/Fields", "longField")
        assert OP["putfield"] in opcodes

    def test_package_closed_rewrites_non_public(self, corpus_dir):
        pipe = Pipeline([corpus_dir], closed_packages={"corpus/sealed"})
        pipe.load_targets(["corpus/sealed/Two"], closure=True)
        pipe.ready_all()
        assert pipe.link_all() == []
        opcodes = self._field_ops(pipe, "corpus/sealed/Two", "peek")
        assert OP["getfield_quick"] in opcodes     # package-private field
        assert OP["getfield"] in opcodes           # public field kept

    def test_closed_world_rewrites_public(self, corpus_dir):
        pipe = Pipeline([corpus_dir], closed_world=True)
        pipe.load_targets(["corpus/sealed/Two"], closure=True)
        pipe.ready_all()
        assert pipe.link_all() == []
        opcodes = self._field_ops(pipe, "corpus/sealed/Two", "peek")
        assert OP["getfield_quick"] in opcodes
        assert OP["getfield"] not in opcodes

    def test_quick_operand_encodes_offset_and_type(self, corpus_dir):
        pipe = Pipeline([corpus_dir], private_field_opt=True)
        pipe.load_targets(["corpus/PrivateFields"], closure=True)
        pipe.ready_all()
        assert pipe.link_all() == []
        cls = pipe.registry.get("corpus/PrivateFields")
        field_a = next(f for f in cls.fields if f.name == "a")
        m = next(x for x in cls.methods if x.name == "sum")
        bc = m.code.bytecode
        site = next(off for off, op, _ in ops.walk(bc)
                    if op == OP["getfield_quick"])
        imm = struct.unpack_from(">H", bc, site + 1)[0]
        assert imm == (field_a.offset << 3) | field_a.type_code


class TestMarkReflection:
    def test_introspection_off_is_subset_of_on(self, linked_pipeline,
                                               nointro_pipeline):
        for cls in nointro_pipeline.registry.loadable():
            with_intro = linked_pipeline.registry.get(cls.name)
            bag = {}
            for i in range(len(with_intro.pool.a_kind)):
                key = resolve(with_intro.pool, "a", i)
                bag[key] = bag.get(key, 0) + 1
            for i in range(len(cls.pool.a_kind)):
                key = resolve(cls.pool, "a", i)
                assert bag.get(key, 0) > 0, (cls.name, key)
                bag[key] -= 1

    def test_member_text_survives_with_introspection(self, linked_pipeline):
        cls = linked_pipeline.registry.get("corpus/Recurse")
        texts = {p for k, p in zip(cls.pool.a_kind, cls.pool.a_payload)
                 if k == cp.A_UTF8}
        assert {"fact", "fib", "(I)I"} <= texts

    def test_member_text_swept_without_introspection(self, nointro_pipeline):
        cls = nointro_pipeline.registry.get("corpus/Recurse")
        texts = {p for k, p in zip(cls.pool.a_kind, cls.pool.a_payload)
                 if k == cp.A_UTF8}
        assert "fact" not in texts and "(I)I" not in texts

    def test_first_spelling_of_a_member_text_is_kept(self):
        raw = raw_pool((cf.TAG_UTF8, "run"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_UTF8, "run"))
        raw.methods = [cf.RawMember(0, 1, 2, [], "run", "()V")]
        pool, _ = prelinked(raw)
        a_marks, _ = marks = cp.new_marks(pool)
        # prelinking left both spellings of "run" live; only the first is kept
        lk.mark_reflection(pool, marks, lk.LinkContext(lc.Registry()))
        assert list(a_marks) == [1, 1, 0]


class TestRelink:
    def test_no_dangling_index_in_packed_pools(self, linked_pipeline):
        # no cell holds a table index, so none can dangle: each is an
        # immediate, and a long or double keeps both its cells
        for cls in linked_pipeline.registry.loadable():
            pool = cls.pool
            assert set(pool.v_kind) <= _IMMEDIATE_CELLS, cls
            for i, kind in enumerate(pool.v_kind):
                if kind in (cp.V_LONG_HI, cp.V_DBL_HI):
                    assert cp.holds(pool, cp.VTABLE, i, kind), (cls, i)

    def test_no_pool_method_unchanged(self, linked_pipeline):
        cls = linked_pipeline.registry.get("corpus/Arith")
        m = next(x for x in cls.methods if x.name == "mix")
        assert bytes(m.code.bytecode) == bytes(m.code_loaded.bytecode)

    def test_exhaustive_decode_resolve_before_after(self, linked_pipeline):
        """Resolving every operand pre-pack equals post-relink resolution."""
        checked = 0
        for cls in linked_pipeline.registry.loadable():
            for m in cls.methods:
                if m.code is None:
                    continue
                before = _resolved_operands(m.code_loaded, cls.loaded_pool)
                after = _resolved_operands(m.code, cls.pool)
                # sites may leave the pool entirely (compaction, static
                # encoding) but never the other way around
                assert set(after) <= set(before), m
                for off in after:
                    assert before[off] == after[off], (m, off)
                    checked += 1
        assert checked > 200


def _resolved_operands(code, pool):
    """offset -> canonical resolution for every pool-referencing site."""
    out = {}
    bc = code.bytecode
    for off, op, size in ops.walk(bc):
        found = ops.pool_operand(bc, off)
        if found is None:
            continue
        entry, idx = found
        out[off] = resolve(pool, entry.space, idx)
    return out
