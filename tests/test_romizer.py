"""Romizer tests: stats, image determinism, round trips, reports."""

import dataclasses
import hashlib
import json
import re
import struct

import pytest

from jrom import classfile as cf
from jrom import cli
from jrom import constpool as cp
from jrom import lifecycle as lc
from jrom import romizer as rz
from jrom.errors import (BadImageMagic, Corrupt, IncompleteClosure, JromError,
                         NamesDropped, NotLinked, StageNotReached,
                         VersionMismatch)
from jrom.pipeline import Pipeline

from . import image_oracle
from .assembler import ClassBuilder
from .conftest import make_pipeline, raw_pool_byte_size
from .corpus import build_corpus, corpus_names
from .test_generated import load_perfbench
from .test_linker import GOLDEN_FLAGS


@pytest.fixture(scope="module")
def image(linked_pipeline):
    return linked_pipeline.emit_image()


class TestSnapshotStats:
    def test_unloaded_delegates_to_parser_stats(self, linked_pipeline):
        for name, (data, _) in build_corpus().items():
            cls = linked_pipeline.registry.get(name)
            raw = cf.parse_class(data)
            stats = rz.snapshot_stats(cls, "unloaded")
            assert stats.entries == cf.pool_entry_count(raw)
            assert stats.pool_bytes == raw_pool_byte_size(raw)
            assert stats.class_bytes == len(data)

    def test_monotone_across_stages(self, linked_pipeline):
        for cls in linked_pipeline.registry.loadable():
            u = rz.snapshot_stats(cls, "unloaded")
            lo = rz.snapshot_stats(cls, lc.LOADED)
            ln = rz.snapshot_stats(cls, lc.LINKED)
            assert ln.entries <= lo.entries <= u.entries, cls.name
            assert ln.pool_bytes <= lo.pool_bytes, cls.name

    def test_stage_not_reached(self):
        cls = lc.ClassRep("ghost")
        with pytest.raises(StageNotReached):
            rz.snapshot_stats(cls, "unloaded")
        with pytest.raises(StageNotReached):
            rz.snapshot_stats(cls, lc.LINKED)

    def test_introspection_costs_bytes_at_linked(self, linked_pipeline,
                                                 nointro_pipeline):
        with_intro = rz.snapshot_stats(
            linked_pipeline.registry.get("corpus/Arith"), lc.LINKED)
        without = rz.snapshot_stats(
            nointro_pipeline.registry.get("corpus/Arith"), lc.LINKED)
        assert without.pool_bytes < with_intro.pool_bytes


class TestEmit:
    def test_emit_twice_identical(self, linked_pipeline, image):
        assert linked_pipeline.emit_image() == image

    def test_input_order_does_not_matter(self, linked_pipeline):
        classes = linked_pipeline.linked_classes()
        a = rz.emit_image(classes, linked_pipeline.ctx)
        b = rz.emit_image(list(reversed(classes)), linked_pipeline.ctx)
        assert a == b

    def test_incomplete_closure_names_missing(self, linked_pipeline):
        classes = [c for c in linked_pipeline.linked_classes()
                   if c.name != "corpus/shapes/Shape"]
        with pytest.raises(IncompleteClosure) as err:
            rz.emit_image(classes, linked_pipeline.ctx)
        assert "corpus/shapes/Shape" in err.value.missing

    def test_not_linked_rejected(self, corpus_dir):
        pipe = Pipeline([corpus_dir])
        pipe.load_targets(["corpus/Empty"], closure=True)
        with pytest.raises(NotLinked):
            rz.emit_image(pipe.registry.loadable(), pipe.ctx)

    # sha256 of the corpus image and its report under each flag set
    GOLDEN = {
        (): ("ff8e3c81ad17429a4f9c7deaffa640c3d1a22ed8b121bf201295155d1f047ff8",
             "6f96949482c55eb7d5f543741bf65645fb9f81dfe69fe255b76d4ec0b1632fde"),
        ("--no-introspection",): (
            "ed78a592c552abea54b9c981464a07f4cbaf83aba981e740340f6c58474c3bb6",
            "81d9940908a0f0b05ddd91ed31e2bb3243e8e38b18ce6b393543c1df5a0a6303"),
        ("--private-field-opt",): (
            "1d1cdc76cd919410128a09bfc8bc0d742ed9fda903561c7b8cbea9591d6b7aa7",
            "5e20f9d5bf8bcd458c5f9057aca57cec9a27f8d01a1a29b0efd2fad265613c53"),
        ("--closed-world",): (
            "9636822f8e9d14fcb442ab88d87c05efb314069abf68db35f510af9e2c989773",
            "54acf20b130f06da742d767a8aa28754d207c22c4cd9a0e2480a25230b28494c"),
        ("--closed-world", "--no-introspection"): (
            "a2430fa0247ad174168b71944000e2c92a9663b6ce94229a073b5829cd41c1e9",
            "c3b1cf3577dfb84c074d630111400044eaf1e9d9699c4aa4ba34754ae6d0721f"),
    }

    @pytest.mark.parametrize("flags", sorted(GOLDEN),
                             ids=lambda flags: "-".join(flags) or "default")
    def test_golden_image_and_report(self, corpus_dir, tmp_path, flags):
        out = str(tmp_path / "corpus.rom")
        assert cli.main(["romize", "--classpath", corpus_dir, "--out", out,
                         *flags, *corpus_names()]) == 0
        digests = tuple(hashlib.sha256(open(path, "rb").read()).hexdigest()
                        for path in (out, out + ".report.txt"))
        assert digests == self.GOLDEN[flags]


class TestLoadImage:
    @pytest.mark.parametrize("flags", sorted(TestEmit.GOLDEN),
                             ids=lambda flags: "-".join(flags) or "default")
    def test_round_trip_emit_is_identical(self, corpus_dir, tmp_path, flags):
        out = str(tmp_path / "corpus.rom")
        assert cli.main(["romize", "--classpath", corpus_dir, "--out", out,
                         *flags, *corpus_names()]) == 0
        with open(out, "rb") as fh:
            image = fh.read()
        reg2 = rz.load_image(image)
        classes = sorted(reg2.loadable(), key=lambda c: c.name)
        assert rz.emit_image(classes, reg2.image_flags) == image

    def test_reloaded_classes_are_linked_and_ready(self, image):
        reg2 = rz.load_image(image)
        for cls in reg2.loadable():
            assert cls.state == lc.LINKED
            assert cls.ready

    def test_reloaded_stats_match_originals(self, linked_pipeline, image):
        reg2 = rz.load_image(image)
        for cls in linked_pipeline.registry.loadable():
            redone = reg2.get(cls.name)
            a = rz.snapshot_stats(cls, lc.LINKED)
            b = rz.snapshot_stats(redone, lc.LINKED)
            assert (a.entries, a.pool_bytes, a.class_bytes) == \
                (b.entries, b.pool_bytes, b.class_bytes)

    @pytest.mark.parametrize("flags", sorted(GOLDEN_FLAGS))
    def test_reloaded_dispatch_tables_equal(self, corpus_dir, flags):
        """The image holds no dispatch table: layout derives each reloaded
        class's table and every method's slot, and they are the linked
        ones, entry by entry down to the member's place in its owner."""
        pipe = make_pipeline(corpus_dir, **GOLDEN_FLAGS[flags])
        reg2 = rz.load_image(pipe.emit_image())

        def entries(cls):
            return [(m.owner.name, rz._position(m, m.owner.methods))
                    for m in cls.dispatch_table]
        for cls in pipe.registry.loadable():
            redone = reg2.get(cls.name)
            assert entries(cls) == entries(redone), cls.name
            assert [m.dispatch_slot for m in cls.methods] == \
                [m.dispatch_slot for m in redone.methods], cls.name

    def test_equal_members_are_told_apart_by_identity(self, corpus_dir):
        """A method ref and a dispatch entry name the member object they
        hold, even where an equal copy of it comes first in the class."""
        pipe = make_pipeline(corpus_dir)
        owner = pipe.registry.get("corpus/Measurable")
        size = next(m for m in owner.methods if m.name == "size")
        at = next(i for i, m in enumerate(owner.methods) if m is size)
        owner.methods.insert(at, dataclasses.replace(size))
        reg2 = rz.load_image(pipe.emit_image())
        redone = reg2.get("corpus/Measurable")
        slot = next(i for i, m in enumerate(owner.dispatch_table)
                    if m is size)
        assert redone.dispatch_table[slot] is redone.methods[at + 1]
        user = reg2.get("corpus/IfaceUser").pool
        refs = [p.resolved for k, p in zip(user.a_kind, user.a_payload)
                if k == cp.A_METHOD and p.name == "size"]
        assert refs and all(r is redone.methods[at + 1] for r in refs)

    def test_reloaded_zones_equal(self, linked_pipeline, image):
        reg2 = rz.load_image(image)
        for cls in linked_pipeline.registry.loadable():
            redone = reg2.get(cls.name)
            assert cls.a_static_zone == redone.a_static_zone
            assert cls.v_static_zone == redone.v_static_zone

    @pytest.mark.parametrize("initial", [False, True],
                             ids=["live", "initial"])
    def test_static_zone_shorter_than_its_layout_is_corrupt(self, corpus_dir,
                                                            initial):
        # the low word of Clinit's long static would lie past the zone, and
        # verify_all would fail reading it with IndexError
        pipe = make_pipeline(corpus_dir)
        cls = pipe.registry.get("corpus/Clinit")
        (cls.zones_initial[1] if initial else cls.v_static_zone).pop()
        data = pipe.emit_image()
        image_oracle.load_image(data)
        with pytest.raises(Corrupt, match="^static zones of corpus/Clinit do "
                                          "not fit its layout"):
            rz.load_image(data)

    def test_truncated_image_reports_offset(self, image):
        with pytest.raises(Corrupt) as err:
            rz.load_image(image[:len(image) // 2])
        assert err.value.offset <= len(image) // 2

    def test_version_flip(self, image):
        data = bytearray(image)
        data[4] ^= 0xFF
        with pytest.raises(VersionMismatch):
            rz.load_image(bytes(data))

    def test_bad_magic(self, image):
        with pytest.raises(BadImageMagic):
            rz.load_image(b"NOPE" + image[4:])

    def test_trailing_bytes_rejected(self, image):
        with pytest.raises(Corrupt):
            rz.load_image(image + b"\x00")

    def test_header_flags_kept(self, corpus_dir):
        pipe = make_pipeline(corpus_dir, introspection=False,
                             private_field_opt=True,
                             closed_packages={"corpus/sealed", "vm"})
        image = pipe.emit_image()
        reloaded = rz.load_image(image)
        header = reloaded.image_flags
        assert (header.introspection, header.private_field_opt,
                header.closed_world, header.closed_packages) == \
            (False, True, False, {"corpus/sealed", "vm"})
        assert rz.emit_image(reloaded.loadable(), header) == image

    def test_superclass_missing_from_image_is_corrupt(self, linked_pipeline):
        # a synthetic superclass reference naming a class that is neither
        # synthetic nor in the image
        cls = linked_pipeline.registry.get("corpus/Empty")
        saved = cls.super_cls
        cls.super_cls = lc.ClassRep("<init>", synthetic=True)
        try:
            data = linked_pipeline.emit_image()
        finally:
            cls.super_cls = saved
        with pytest.raises(Corrupt) as err:
            rz.load_image(data)
        assert "<init>" in str(err.value)

    def test_synthetic_superclass_name_is_in_the_string_section(
            self, linked_pipeline):
        # a synthetic superclass named by no other string still gets a
        # string id inside the section, so loading reaches the layout check
        cls = linked_pipeline.registry.get("corpus/Empty")
        saved = cls.super_cls
        cls.super_cls = lc.ClassRep("corpus/Ghost", synthetic=True)
        try:
            data = linked_pipeline.emit_image()
        finally:
            cls.super_cls = saved
        with pytest.raises(Corrupt, match="superclass corpus/Ghost of "
                                          "corpus/Empty is not in the image"):
            rz.load_image(data)

    @pytest.mark.parametrize("victim, rename, message", [
        ("corpus/Arrays", "corpus/Arith",
         "class corpus/Arith is not after corpus/Arith in name order"),
        ("corpus/Arrays", "int", "class record names synthetic class int"),
        ("corpus/Arrays", "[Lcorpus/Ar;",
         r"class record names synthetic class \[Lcorpus/Ar;"),
    ], ids=["duplicate", "primitive", "array"])
    def test_class_names_out_of_order_or_synthetic_are_corrupt(
            self, linked_pipeline, victim, rename, message):
        # the class table is found by name order, and a synthetic class is
        # shared by the whole registry, so neither may be a record's name
        cls = linked_pipeline.registry.get(victim)
        cls.name = rename
        try:
            data = linked_pipeline.emit_image()
        finally:
            cls.name = victim
        image_oracle.load_image(data)
        with pytest.raises(Corrupt, match="^" + message):
            rz.load_image(data)

    def test_catch_type_past_the_atable_is_corrupt(self, corpus_dir):
        pipe = make_pipeline(corpus_dir)
        typed = 0
        for cls in pipe.registry.loadable():
            for m in cls.methods:
                if m.code is None:
                    continue
                typed += sum(c is not None
                             for _, _, _, c in m.code.exception_table)
                m.code.exception_table = [
                    (s, e, h, None if c is None else 999)
                    for s, e, h, c in m.code.exception_table]
        assert typed > 0
        with pytest.raises(Corrupt, match="catch type 999"):
            rz.load_image(pipe.emit_image())

    @pytest.mark.parametrize("code", range(6, 11))
    def test_vtable_kind_of_a_cell_naming_the_atable_is_corrupt(
            self, linked_pipeline, monkeypatch, code):
        # 6-10 were format 3's String, NameAndType and member-ref cells
        monkeypatch.setitem(rz._V_KIND_CODE, cp.V_INT, code)
        data = linked_pipeline.emit_image()
        monkeypatch.undo()
        for load in (image_oracle.load_image, rz.load_image):
            with pytest.raises(Corrupt, match="^bad vtable kind %d " % code):
                load(data)


class TestFormat3:
    """String ids as wide as the string count needs, and initial zones
    stored only where they differ from the live ones."""

    @staticmethod
    def info(image):
        return dict(line.split(": ", 1)
                    for line in rz.inspect_image(image).splitlines())

    @staticmethod
    def round_trip(image):
        registry = rz.load_image(image)
        assert rz.emit_image(registry.loadable(), registry.image_flags) \
            == image
        return registry

    def test_forced_u32_ids_round_trip(self, corpus_dir):
        # 65,536 new strings, as Utf8 entries that no instruction names at
        # the end of two classes' atables, take the image past 65,536
        # strings; it still reloads, re-emits and runs as the linked set
        pipe = make_pipeline(corpus_dir)
        narrow = self.info(pipe.emit_image())
        for name, first in ("corpus/Arith", 0), ("corpus/Empty", 1):
            pool = pipe.registry.get(name).pool
            texts = ["pad/%d" % i for i in range(first, 1 << 16, 2)]
            pool.a_kind += [cp.A_UTF8] * len(texts)
            pool.a_payload += texts
        wide = pipe.emit_image()
        info = self.info(wide)
        assert (narrow["string id bytes"], info["string id bytes"]) == \
            ("1", "4")
        assert int(info["strings"]) == int(narrow["strings"]) + (1 << 16)
        assert info["wide fields"] == "atable size, max locals"
        reloaded = self.round_trip(wide)
        out = pipe.verify_all(vectors=1, after_registry=reloaded)
        assert not out.failures and out.checked

    def test_more_strings_than_u16_ids_widen_them(self, corpus_dir,
                                                  monkeypatch):
        # 65,535 new strings in one class's initial zones take the image
        # past 65,536 strings: each write stops at the first value too wide
        # for its field, and emit writes again with that field, or the
        # string ids, one step wider
        pipe = make_pipeline(corpus_dir)
        narrow = self.info(pipe.emit_image())
        cls = pipe.registry.get("corpus/Empty")
        cls.zones_initial = ([("str", "s%d" % i) for i in range(0xFFFF)],
                             list(cls.v_static_zone))
        writes = spy_writes(monkeypatch)
        wide = pipe.emit_image()
        info = self.info(wide)
        assert int(info["strings"]) == int(narrow["strings"]) + 0xFFFF
        assert info["string id bytes"] == "4"
        assert writes == [((), 1), (("a zone size",), 1),
                          (("a zone size",), 2), (("a zone size",), 4),
                          (("max locals", "a zone size"), 4)]
        # the zones are not the size of Empty's layout, so they load no
        # further than the check of that
        with pytest.raises(Corrupt, match="^static zones of corpus/Empty"):
            rz.load_image(wide)

    def test_same_as_live_zones_reload_as_copies(self, linked_pipeline,
                                                 image):
        reloaded = rz.load_image(image)
        filled = 0
        for cls in linked_pipeline.registry.loadable():
            live = cls.a_static_zone, cls.v_static_zone
            if cls.zones_initial != live:
                continue
            redone = reloaded.get(cls.name)
            a_zone, v_zone = redone.a_static_zone, redone.v_static_zone
            a_init, v_init = redone.zones_initial
            assert (a_init, v_init) == live, cls.name
            assert a_init is not a_zone and v_init is not v_zone, cls.name
            if v_zone:
                v_zone[0] += 1
                assert v_init[0] == cls.v_static_zone[0], cls.name
                filled += 1
        assert filled > 0

    def test_initial_zones_tagged_same_unless_they_differ(
            self, linked_pipeline, image):
        records = {r.name: r for r in rz._read_image(image).records}
        tags = {}
        for cls in linked_pipeline.registry.loadable():
            live = cls.a_static_zone, cls.v_static_zone
            tag = records[cls.name].zones_initial[0]
            assert tag == ("same" if cls.zones_initial == live else "own")
            tags[cls.name] = tag
        assert "same" in tags.values()
        # <clinit> changes the statics after their initial values are kept
        assert tags["corpus/Clinit"] == "own"
        original = linked_pipeline.registry.get("corpus/Clinit")
        redone = rz.load_image(image).get("corpus/Clinit")
        assert redone.zones_initial == original.zones_initial
        assert redone.zones_initial != (redone.a_static_zone,
                                        redone.v_static_zone)

    def test_older_formats_are_a_version_mismatch(self, image):
        # a format-3 image's member operands name member-ref cells, a
        # format-4 one writes every ConstantValue and field name, and a
        # format-5 one has no widths word and every count a u16
        for version in (2, 3, 4, 5):
            data = image[:4] + struct.pack("<H", version) + image[6:]
            with pytest.raises(VersionMismatch, match=r"^image format %d,"
                               r" expected 6$" % version):
                rz.load_image(data)

    @pytest.mark.parametrize("flags", sorted(GOLDEN_FLAGS))
    def test_reload_keeps_constants_and_behaviour(self, corpus_dir, flags):
        """Constants of all five kinds reload in the initial zones, where
        make_ready put them, not as ConstantValues; field names reload
        unless the flags drop them; the reloaded classes run as the linked
        ones."""
        pipe = make_pipeline(corpus_dir, **GOLDEN_FLAGS[flags])
        reloaded = self.round_trip(pipe.emit_image())
        named = pipe.ctx.introspection or not pipe.ctx.closed_world
        kinds = set()
        for cls in pipe.registry.loadable():
            redone = reloaded.get(cls.name)
            assert redone.zones_initial == cls.zones_initial, cls.name
            for f, g in zip(cls.fields, redone.fields, strict=True):
                assert (g.name, g.descriptor, g.zone, g.offset) == (
                    f.name if named else None, f.descriptor, f.zone,
                    f.offset), (cls.name, f)
                assert g.constant_value is None, (cls.name, f)
                if f.constant_value:
                    kind, value = f.constant_value
                    kinds.add(kind)
                    words = _zone_words(kind, value)
                    owner, local = redone.static_slot(g.zone, g.offset)
                    zone = redone.zones_initial[g.zone == "v"]
                    assert owner is redone, (cls.name, f)
                    assert zone[local:local + len(words)] == words, \
                        (cls.name, f)
        assert kinds == set("ijfds")
        out = pipe.verify_all(vectors=1, after_registry=reloaded)
        assert not out.failures, out.failures[:3]
        assert not out.skipped and out.checked

    def test_constant_values_stay_without_initial_zones(self, corpus_dir):
        """A class that never became ready has no initial zones, so its
        record keeps its ConstantValues, and they reload as they were."""
        pipe = Pipeline([corpus_dir])
        pipe.load_targets(sorted(build_corpus()), closure=True)
        assert not pipe.link_all()
        image = pipe.emit_image()
        written = [f.constant_value for cls in pipe.registry.loadable()
                   for f in cls.fields if f.constant_value is not None]
        assert set(kind for kind, _ in written) == set("ijfds")
        assert self.info(image)["constant values"] == str(len(written))
        reloaded = self.round_trip(image)
        for cls in pipe.registry.loadable():
            redone = reloaded.get(cls.name)
            assert redone.zones_initial is None
            assert [f.constant_value for f in cls.fields] == \
                [g.constant_value for g in redone.fields], cls.name

    def test_nameless_image_does_not_re_emit_with_names(self, corpus_dir):
        """A registry reloaded from an image without field names re-emits
        under its own flags, and fails cleanly under flags that keep them."""
        flags = GOLDEN_FLAGS["closed-world-no-introspection"]
        image = make_pipeline(corpus_dir, **flags).emit_image()
        registry = self.round_trip(image)
        assert self.info(image)["field names"] == "dropped"
        for keep in ({"introspection": True}, {"closed_world": False}):
            with pytest.raises(NamesDropped):
                rz.emit_image(registry.loadable(), dataclasses.replace(
                    registry.image_flags, **keep))


def spy_writes(monkeypatch):
    """The list that each write emit makes appends to, as its (wide
    fields, string id bytes): the first write's widths, and each later
    write's after the field or ids that stopped the one before widened."""
    writes, write = [], rz._write_image

    def spy(*args):
        *_, wide, id_size = args
        writes.append((tuple(what for i, what in enumerate(rz.WIDTHS)
                             if wide >> i & 1), id_size))
        return write(*args)
    monkeypatch.setattr(rz, "_write_image", spy)
    return writes


class TestFormat6:
    """Each count, size, pc and index field one byte wide unless a value
    of it in the image needs two, string ids and class indexes as wide as
    their table's count needs, and a header that defines every bit it
    sets."""

    def test_corpus_widens_max_locals_alone(self, corpus_dir, monkeypatch):
        # one corpus method has 301 locals; every other value fits a byte
        pipe = make_pipeline(corpus_dir)
        writes = spy_writes(monkeypatch)
        image = pipe.emit_image()
        assert writes == [((), 1), (("max locals",), 1)]
        assert max(m.code.max_locals for cls in pipe.registry.loadable()
                   for m in cls.methods if m.code) == 301
        info = TestFormat3.info(image)
        assert (info["wide fields"], info["string id bytes"],
                info["class index bytes"]) == ("max locals", "1", "1")
        reloaded = TestFormat3.round_trip(image)
        out = pipe.verify_all(vectors=1, after_registry=reloaded)
        assert not out.failures, out.failures[:3]
        assert not out.skipped and out.checked

    @pytest.mark.parametrize("index, wide", [
        (254, "max locals"), (255, "atable size, max locals, catch")])
    def test_catch_index_of_the_narrow_sentinel_widens_catch(
            self, corpus_dir, index, wide):
        # a typed catch moved to atable index ``index``: 255 is the one-byte
        # field's "any exception", so it takes a two-byte catch field, whose
        # "any" is 0xFFFF
        pipe = make_pipeline(corpus_dir)
        cls, m, at = next(
            (cls, m, at) for cls in pipe.registry.loadable()
            for m in cls.methods if m.code
            for at, entry in enumerate(m.code.exception_table)
            if entry[3] is not None)
        pool = cls.pool
        pad = index - len(pool.a_kind)
        pool.a_kind += [cp.A_UTF8] * pad + [cp.A_CLASS]
        pool.a_payload += ["pad/%d" % i for i in range(pad)] + \
            [pool.a_payload[m.code.exception_table[at][3]]]
        table = list(m.code.exception_table)
        table[at] = table[at][:3] + (index,)
        m.code.exception_table = tuple(table)
        image = pipe.emit_image()
        assert TestFormat3.info(image)["wide fields"] == wide
        reloaded = TestFormat3.round_trip(image)
        catches = [[entry[3] for entry in m.code.exception_table]
                   for cls in pipe.registry.loadable()
                   for m in cls.methods if m.code]
        assert catches == [
            [entry[3] for entry in m.code.exception_table]
            for cls in pipe.registry.loadable()
            for m in reloaded.get(cls.name).methods if m.code]
        assert index in sum(catches, []) and None in sum(catches, [])

    def test_count_past_a_u16_fails_the_write(self, corpus_dir):
        # a wide field has no wider form to widen to: an atable of 65,536
        # entries fails as it did with every count a u16, and does not
        # widen the same field again and again
        pipe = make_pipeline(corpus_dir)
        pool = pipe.registry.get("corpus/Empty").pool
        pad = (1 << 16) - len(pool.a_kind)
        pool.a_kind += [cp.A_UTF8] * pad
        pool.a_payload += ["pad/%d" % i for i in range(pad)]
        with pytest.raises(struct.error):
            pipe.emit_image()

    @pytest.mark.parametrize("classes, index_bytes, writes", [
        (256, "1", [((), 1), ((), 2)]), (257, "2", [((), 2)])])
    def test_class_indexes_take_the_width_the_class_count_needs(
            self, corpus_dir, tmp_path, monkeypatch, classes, index_bytes,
            writes):
        # trivial classes and java/lang/Object: more than 256 strings, so
        # two-byte ids, which the first write already has for 257 classes
        names = ["p/C%03d" % i for i in range(classes - 1)]
        (tmp_path / "p").mkdir()
        for name in names:
            cb = ClassBuilder(name)
            cb.default_init()
            (tmp_path / (name + ".class")).write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(names, closure=True)
        assert pipe.ready_all() == [] and pipe.link_all() == []
        spied = spy_writes(monkeypatch)
        image = pipe.emit_image()
        assert spied == writes
        info = TestFormat3.info(image)
        assert (info["classes"], info["class index bytes"],
                info["string id bytes"], info["wide fields"]) == (
            str(classes), index_bytes, "2", "none")
        TestFormat3.round_trip(image)

    @pytest.mark.parametrize("word, fmt, offset, defined", [
        ("flags", "<H", 6, 3), ("widths", "<I", 12, len(rz.WIDTHS))])
    def test_undefined_header_bits_are_corrupt(self, image, word, fmt,
                                               offset, defined):
        # an undefined bit would load and re-emit as another image
        value, = struct.unpack_from(fmt, image, offset)
        for bit in range(defined, 8 * struct.calcsize(fmt)):
            data = bytearray(image)
            struct.pack_into(fmt, data, offset, value | 1 << bit)
            for load in rz.load_image, image_oracle.load_image:
                with pytest.raises(Corrupt, match=r"^undefined %s bits %#x "
                                   r"\(at image offset %d\)$" % (
                                       word, 1 << bit,
                                       offset + struct.calcsize(fmt))):
                    load(bytes(data))


@pytest.mark.parametrize("flags", ["default",
                                   "closed-world-no-introspection"])
def test_generated_image_reloads_and_checks_clean(tmp_path, flags):
    """200 generated classes: the image holds no ConstantValue, since every
    class's initial zones hold its constants, names its fields unless the
    flags drop them, and writes every width field one byte wide; it
    re-emits the same bytes, and the reloaded classes run as the linked
    ones, with no method skipped."""
    gen = load_perfbench("gen")
    class_set = gen.generate(200, 1)
    gen.write(class_set.files, str(tmp_path))
    pipe = Pipeline([str(tmp_path)], **GOLDEN_FLAGS[flags])
    pipe.load_targets(sorted(class_set.files), closure=True)
    assert pipe.ready_all() == [] and pipe.link_all() == []
    image = pipe.emit_image()
    info = dict(line.split(": ", 1)
                for line in rz.inspect_image(image).splitlines())
    assert (info["field names"], info["constant values"],
            info["wide fields"]) == (
        "kept" if flags == "default" else "dropped", "0", "none")
    reloaded = rz.load_image(image)
    assert rz.emit_image(reloaded.loadable(), reloaded.image_flags) == image
    out = pipe.verify_all(vectors=1, after_registry=reloaded)
    assert not out.failures, out.failures[:3]
    assert not out.skipped
    assert len(out.checked) == class_set.methods_with_code


def _zone_words(kind, value):
    """The static zone slots a ConstantValue of ``kind`` fills: a string
    reference, two 32-bit words for a long or double, else one word."""
    if kind == "s":
        return [("str", value)]
    if kind in "jd":
        return list(divmod(value & 0xFFFFFFFFFFFFFFFF, 1 << 32))
    return [value & 0xFFFFFFFF]


def _outcome(load, data):
    """The error type and message of loading ``data``, or the image its
    registry re-emits."""
    try:
        registry = load(data)
    except JromError as err:
        return type(err), str(err)
    try:
        return rz.emit_image(sorted(registry.loadable(),
                                    key=lambda c: c.name),
                             registry.image_flags)
    except JromError as err:
        return "re-emit", type(err), str(err)


# the checks of class record names and static zone sizes, which the oracle
# does not make
NAME_CHECK = re.compile(r"class record names synthetic class |"
                        r"class .* is not after .* in name order |"
                        r"static zones of .* do not fit its layout ", re.S)


class TestImageFuzz:
    """Damaged images against the interpretive reader the compiled one
    replaced (tests/image_oracle.py): the same error type and message, or
    registries that re-emit the same bytes."""

    def test_random_flips_fail_cleanly(self, image):
        self.flip_randomly(image)

    def test_random_flips_of_a_nameless_image_fail_cleanly(self, corpus_dir):
        flags = GOLDEN_FLAGS["closed-world-no-introspection"]
        self.flip_randomly(make_pipeline(corpus_dir, **flags).emit_image())

    @staticmethod
    def flip_randomly(image):
        import random
        rng = random.Random(0xA5)
        loaded = 0
        for _ in range(400):
            data = bytearray(image)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(data)
            got = _outcome(rz.load_image, data)
            want = _outcome(image_oracle.load_image, data)
            if got != want:
                assert got[0] is Corrupt and NAME_CHECK.match(got[1]), \
                    (got, want)
            loaded += isinstance(got, bytes)
        assert loaded > 0

    def test_every_truncation_fails_cleanly(self, image):
        for cut in range(len(image)):
            with pytest.raises(JromError) as err:
                rz.load_image(image[:cut])
            assert isinstance(err.value, Corrupt) and err.value.offset <= cut
            with pytest.raises(Corrupt) as want:
                image_oracle.load_image(image[:cut])
            assert str(err.value) == str(want.value)
        with pytest.raises(Corrupt, match=r"^truncated class count "
                                          r"\(at image offset 8\)$"):
            rz.load_image(image[:10])


class TestCArray:
    def test_renders_every_byte(self):
        text = rz.emit_c_array(bytes([1, 2, 3]), "blob")
        assert "0x01, 0x02, 0x03" in text
        assert "blob[3]" in text
        assert "blob_len = 3UL" in text

    def test_reparsing_literals_recovers_bytes(self, image):
        text = rz.emit_c_array(image[:64], "rom")
        inside = text[text.index("{") + 1:text.index("}")]
        parsed = bytes(int(tok, 16) for tok in inside.replace(",", " ").split())
        assert parsed == image[:64]


class TestReport:
    def test_percentages_recompute_from_counts(self, linked_pipeline):
        report = linked_pipeline.build_report()
        table = report.to_table()
        base = report.aggregate("unloaded")
        linked = report.aggregate(lc.LINKED)
        want = "%7.2f%%" % (100.0 * linked.entries / base.entries)
        assert want.strip() in table

    def test_aggregate_is_sum_of_classes(self, linked_pipeline):
        report = linked_pipeline.build_report()
        agg = report.aggregate(lc.LINKED)
        total = sum(c.stages[lc.LINKED].entries for c in report.classes
                    if c.stages[lc.LINKED])
        assert agg.entries == total

    def test_records_are_json_lines(self, linked_pipeline):
        report = linked_pipeline.build_report()
        lines = [json.loads(line) for line in
                 report.to_records().strip().splitlines()]
        classes = {r["class"] for r in lines if "class" in r}
        assert set(corpus_names()) <= classes
        aggregates = [r for r in lines if "aggregate" in r]
        assert {a["aggregate"] for a in aggregates} == \
            {"unloaded", lc.LOADED, lc.LINKED}

    def test_table_documents_model_and_flags(self, linked_pipeline):
        table = linked_pipeline.build_report().to_table()
        assert "model:" in table
        assert "introspection=on" in table

    def test_rows_in_name_order_whatever_the_adding_order(self,
                                                          linked_pipeline):
        classes = linked_pipeline.registry.loadable()
        names = sorted(c.name for c in classes)
        shuffled = sorted(classes, key=lambda c: (len(c.name), c.name[::-1]))
        assert [c.name for c in shuffled] != names
        report = rz.FootprintReport("test")
        for cls in shuffled:
            report.add_class(cls)
        # equal names keep the order they were added in
        report.add_class(shuffled[0], error="second")
        report.add_class(shuffled[0], error="third")
        rows = report.to_table().splitlines()
        first = rows.index(next(r for r in rows if r.startswith("-"))) + 1
        table_names = [r.split()[0] for r in rows[first:first + len(names) + 2]]
        want = sorted(names + [shuffled[0].name] * 2)
        assert table_names == want
        records = [json.loads(line)
                   for line in report.to_records().splitlines()[1:]]
        record_names = [r["class"] for r in records if "class" in r]
        assert record_names == sorted(record_names)
        errors = [r["error"] for r in records
                  if r.get("class") == shuffled[0].name and "error" in r]
        assert errors == ["second", "third"]
