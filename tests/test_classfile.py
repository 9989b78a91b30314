"""Parser tests: builder-manifest oracle, error paths, fuzz safety."""

import os
import random
import re
import struct
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jrom import classfile as cf
from jrom import descriptors as dsc
from jrom import lifecycle as lc
from jrom.errors import (BadIndex, BadMagic, BadUtf8, ClassFileError,
                         Truncated, UnsupportedVersion)
from jrom.pipeline import Pipeline

from . import classfile_oracle
from .assembler import ACC_PUBLIC, ACC_STATIC, ClassBuilder
from .conftest import (raw_pool, raw_pool_byte_size, read_reference_pool,
                       serialize_constant)
from .corpus import build_corpus
from .test_generated import load_perfbench


def _empty_class_bytes():
    return build_corpus()["corpus/Empty"][0]


class TestParseCorpus:
    def test_every_corpus_class_parses(self, corpus):
        for name, (data, cb) in corpus.items():
            raw = cf.parse_class(data)
            assert raw.name == name

    def test_names_against_builder(self, corpus):
        for name, (data, cb) in corpus.items():
            raw = cf.parse_class(data)
            assert raw.super_name == cb.super_name
            assert [m.name for m in raw.methods] == [m[1] for m in cb.methods]
            assert [m.descriptor for m in raw.methods] == [m[2] for m in cb.methods]
            assert [f.name for f in raw.fields] == [f[1] for f in cb.fields]

    def test_pool_count_matches_builder(self, corpus):
        # the builder counted what it wrote; the parser must agree
        for name, (data, cb) in corpus.items():
            raw = cf.parse_class(data)
            assert cf.pool_entry_count(raw) == cb.pool.entry_count(), name

    def test_pool_bytes_match_builder(self, corpus):
        for name, (data, cb) in corpus.items():
            raw = cf.parse_class(data)
            assert raw_pool_byte_size(raw) == cb.pool.byte_size(), name

    def test_pool_bytes_match_file_offsets(self, corpus):
        # the measured region in the actual file is the independent check
        for name, (data, _) in corpus.items():
            raw = cf.parse_class(data)
            assert raw_pool_byte_size(raw) == raw.pool_end - raw.pool_entries_start

    def test_empty_resolves_names(self):
        raw = cf.parse_class(_empty_class_bytes())
        assert raw.name == "corpus/Empty"
        assert raw.super_name == "java/lang/Object"

    def test_every_index_survives_validation(self, corpus):
        # _validate already ran; spot-check a few catch types and members
        for name, (data, _) in corpus.items():
            raw = cf.parse_class(data)
            for m in raw.methods:
                code = m.attr("Code")
                if code is None:
                    continue
                for *_, catch in code.code.exception_table:
                    if catch:
                        raw.constant(catch, cf.TAG_CLASS)


class TestParseErrors:
    def test_three_bytes_truncated(self):
        with pytest.raises(Truncated):
            cf.parse_class(b"\xca\xfe\xba")

    def test_zeroed_magic(self):
        data = bytearray(_empty_class_bytes())
        data[0:4] = b"\x00\x00\x00\x00"
        with pytest.raises(BadMagic):
            cf.parse_class(bytes(data))

    def test_major_above_49_rejected(self):
        data = bytearray(_empty_class_bytes())
        struct.pack_into(">H", data, 6, 50)
        with pytest.raises(UnsupportedVersion):
            cf.parse_class(bytes(data))

    def test_major_49_accepted(self):
        cb = ClassBuilder("P", major=49)
        cb.default_init()
        assert cf.parse_class(cb.build()).major_version == 49

    def test_truncated_mid_pool(self):
        data = _empty_class_bytes()
        with pytest.raises(Truncated):
            cf.parse_class(data[:14])

    def test_every_strict_prefix_raises(self, corpus):
        for name, (data, _) in corpus.items():
            for cut in range(len(data)):
                with pytest.raises(ClassFileError):
                    cf.parse_class(data[:cut])
        with pytest.raises(Truncated,
                           match="^input ends inside constant pool count$"):
            cf.parse_class(_empty_class_bytes()[:9])

    def test_pool_count_zero(self):
        data = _empty_class_bytes()
        with pytest.raises(BadIndex, match="^constant pool count is 0"):
            cf.parse_class(data[:8] + b"\0\0" + data[10:])

    def test_long_in_the_last_slot_overflows_the_count(self):
        pool = struct.pack(">HBq", 2, cf.TAG_LONG, 5)
        with pytest.raises(BadIndex, match="overflows the pool count"):
            cf.parse_class(_empty_class_bytes()[:8] + pool)

    def test_trailing_garbage(self):
        with pytest.raises(Truncated):
            cf.parse_class(_empty_class_bytes() + b"\x00")

    def test_bad_utf8(self):
        data = bytearray(_empty_class_bytes())
        raw = cf.parse_class(bytes(data))
        # corrupt the first utf8 constant's first byte to 0xFF
        offset = raw.pool_entries_start
        assert data[offset] == cf.TAG_UTF8
        data[offset + 3] = 0xFF
        with pytest.raises(BadUtf8):
            cf.parse_class(bytes(data))

    def test_this_class_wrong_tag(self):
        cb = ClassBuilder("Q")
        cb.default_init()
        data = bytearray(cb.build())
        raw = cf.parse_class(bytes(data))
        # point this_class at a Utf8 slot
        utf8_idx = raw.pool_tags.index(cf.TAG_UTF8)
        struct.pack_into(">H", data, raw.pool_end + 2, utf8_idx)
        with pytest.raises(BadIndex):
            cf.parse_class(bytes(data))


class TestDescriptorErrors:
    """Descriptors come from class files and images: bad ones must raise
    ClassFileError, not a Python error."""

    def test_type_code_empty(self):
        with pytest.raises(ClassFileError):
            dsc.type_code("")

    def test_slot_width_empty(self):
        with pytest.raises(ClassFileError):
            dsc.slot_width("")

    def test_method_descriptor_without_return(self):
        with pytest.raises(ClassFileError):
            dsc.parse_method_descriptor("()")

    @pytest.mark.parametrize("desc", ["(", "([)V", "()[", "(L)V", "()VV"])
    def test_truncated_method_descriptors(self, desc):
        # parsed descriptors are kept; a bad one must raise every time
        for _ in range(2):
            with pytest.raises(ClassFileError):
                dsc.parse_method_descriptor(desc)
            with pytest.raises(ClassFileError):
                dsc.arg_slots(desc, include_receiver=False)


class TestMethodDescriptors:
    def test_parse_and_slots(self):
        for _ in range(2):
            assert dsc.parse_method_descriptor("(IJ[Ljava/lang/String;D)V") \
                == (("I", "J", "[Ljava/lang/String;", "D"), "V")
            assert dsc.arg_slots("(IJ[Ljava/lang/String;D)V", False) == 6
            assert dsc.arg_slots("(IJ[Ljava/lang/String;D)V", True) == 7

    def test_kept_parameters_cannot_be_changed_by_a_caller(self):
        params, _ = dsc.parse_method_descriptor("(II)I")
        with pytest.raises((TypeError, AttributeError)):
            params.append("J")
        assert dsc.parse_method_descriptor("(II)I") == (("I", "I"), "I")
        assert dsc.arg_slots("(II)I", include_receiver=False) == 2


class TestModifiedUtf8:
    def test_assembler_writes_astral_text_as_surrogate_pair(self, corpus_dir,
                                                            tmp_path):
        name = "p/X\U0001f600"
        cb = ClassBuilder(name)
        cb.default_init()
        data = cb.build()
        assert cf.encode_mutf8(name) in data
        assert cf.parse_class(data).name == name
        (tmp_path / "p").mkdir()
        (tmp_path / (name + ".class")).write_bytes(data)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets([name], closure=True)
        assert pipe.registry.get(name).state == lc.LOADED

    def test_round_trip_ascii(self):
        assert cf.decode_mutf8(cf.encode_mutf8("hello/World$1")) == "hello/World$1"

    def test_two_byte_nul(self):
        assert cf.decode_mutf8(b"\xc0\x80") == "\x00"

    def test_three_byte(self):
        text = "€Ж"
        assert cf.decode_mutf8(cf.encode_mutf8(text)) == text

    def test_raw_nul_rejected(self):
        with pytest.raises(BadUtf8):
            cf.decode_mutf8(b"\x00")

    def test_four_byte_form_rejected(self):
        with pytest.raises(BadUtf8):
            cf.decode_mutf8(b"\xf0\x90\x80\x80")

    def test_truncated_sequence(self):
        with pytest.raises(BadUtf8):
            cf.decode_mutf8(b"\xc3")

    # a high surrogate followed by a low one encodes an astral character,
    # so such a pair decodes to that character, not to itself
    @given(st.text(st.characters(exclude_categories=())).filter(
        lambda t: not re.search("[\ud800-\udbff][\udc00-\udfff]", t)))
    @example("\0")
    @example("a\ud800b\udfff")
    @example("\U0001f600\0x")
    def test_round_trip_any_text(self, text):
        assert cf.decode_mutf8(cf.encode_mutf8(text)) == text

    @given(st.binary(max_size=40), st.integers(min_value=0, max_value=40))
    def test_ascii_with_nul_rejected(self, data, at):
        ascii_bytes = bytes(b & 0x7F for b in data)
        with pytest.raises(BadUtf8):
            cf.decode_mutf8(ascii_bytes[:at] + b"\0" + ascii_bytes[at:])


class TestStats:
    def test_minimal_pool_is_empty(self):
        raw = raw_pool()
        assert cf.pool_entry_count(raw) == 0

    def test_placeholder_excluded(self):
        raw = raw_pool((cf.TAG_LONG, 5), (cf.TAG_UTF8, "x"))
        assert len(raw.pool_tags) == 4
        assert cf.pool_entry_count(raw) == 2

    def test_integer_is_five_bytes(self):
        assert raw_pool_byte_size(raw_pool((cf.TAG_INTEGER, 1))) == 5

    def test_utf8_ab_is_five_bytes(self):
        assert raw_pool_byte_size(raw_pool((cf.TAG_UTF8, "AB"))) == 5


class TestRetention:
    def test_debug_attributes_dropped_with_length(self, corpus):
        data, _ = corpus["corpus/Arith"]
        raw = cf.parse_class(data)
        dropped = [a for m in raw.methods for a in m.attr("Code").code.attributes
                   if not a.retained]
        assert dropped, "corpus should carry debug attributes"
        assert all(a.payload == b"" and a.orig_len > 0 for a in dropped)
        names = {a.name for a in dropped}
        assert "LineNumberTable" in names
        assert "LocalVariableTable" in names

    def test_source_file_dropped(self, corpus):
        raw = cf.parse_class(corpus["corpus/Empty"][0])
        attr = [a for a in raw.attributes if a.name == "SourceFile"]
        assert attr and not attr[0].retained

    def test_stack_map_retained(self, corpus):
        raw = cf.parse_class(corpus["corpus/Mapped"][0])
        branchy = next(m for m in raw.methods if m.name == "branchy")
        maps = [a for a in branchy.attr("Code").code.attributes if a.retained]
        assert maps and maps[0].name == "StackMapTable"
        assert maps[0].payload == bytes([0, 1, 0, 7])

    def test_constant_value_retained(self, corpus):
        raw = cf.parse_class(corpus["corpus/Statics"][0])
        f = next(f for f in raw.fields if f.name == "sInt")
        assert cf.constant_value_of(raw, f) == ("i", 7)
        f = next(f for f in raw.fields if f.name == "sRef")
        assert cf.constant_value_of(raw, f) == ("s", "init")


class TestRoundTrip:
    def test_pool_reserializes_exactly(self, corpus):
        for name, (data, _) in corpus.items():
            raw = cf.parse_class(data)
            encoded = b"".join(serialize_constant(tag, value) for tag, value
                               in zip(raw.pool_tags, raw.pool_values))
            assert encoded == data[raw.pool_entries_start:raw.pool_end], name

    def test_code_bytes_are_verbatim(self, corpus):
        for name, (data, _) in corpus.items():
            raw = cf.parse_class(data)
            for m in raw.methods:
                attr = m.attr("Code")
                if attr is None:
                    continue
                code = attr.code
                start = code.code_offset
                assert data[start:start + len(code.code)] == code.code


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(max_size=600))
def test_fuzz_random_bytes_fail_cleanly(data):
    try:
        cf.parse_class(data)
    except ClassFileError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzz_mutated_valid_class(data):
    base = bytearray(_empty_class_bytes())
    n = data.draw(st.integers(min_value=1, max_value=6))
    for _ in range(n):
        pos = data.draw(st.integers(min_value=0, max_value=len(base) - 1))
        base[pos] = data.draw(st.integers(min_value=0, max_value=255))
    try:
        cf.parse_class(bytes(base))
    except ClassFileError:
        pass


# any pool constant as (tag, value) in the parser's form; references point
# anywhere, since the readers do not follow them
_CONSTANTS = st.one_of(
    st.tuples(st.just(cf.TAG_UTF8),
              st.text(st.characters(exclude_categories=("Cs",)), max_size=6)),
    st.tuples(st.just(cf.TAG_INTEGER), st.integers(-2**31, 2**31 - 1)),
    st.tuples(st.just(cf.TAG_FLOAT), st.integers(0, 2**32 - 1)),
    st.tuples(st.just(cf.TAG_LONG), st.integers(-2**63, 2**63 - 1)),
    st.tuples(st.just(cf.TAG_DOUBLE), st.integers(0, 2**64 - 1)),
    st.tuples(st.sampled_from([cf.TAG_CLASS, cf.TAG_STRING]),
              st.integers(0, 0xFFFF)),
    st.tuples(st.sampled_from([cf.TAG_FIELDREF, cf.TAG_METHODREF,
                               cf.TAG_IFACEMETHODREF, cf.TAG_NAMEANDTYPE]),
              st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))))


def _pool_bytes(constants):
    raw = raw_pool(*constants)
    return struct.pack(">H", len(raw.pool_tags)) + b"".join(
        serialize_constant(tag, value)
        for tag, value in zip(raw.pool_tags, raw.pool_values))


def _assert_readers_agree(data):
    """The parser's array reader gives the reference reader's tags, values
    and end offset, or raises the same error type."""
    try:
        slots, end = read_reference_pool(data)
    except ClassFileError as e:
        with pytest.raises(type(e)):
            cf._read_pool(data, 0)
        return
    tags, values, array_end = cf._read_pool(data, 0)
    assert list(tags) == [c.tag for c in slots]
    assert values == [c.text if c.tag == cf.TAG_UTF8 else c.value
                      for c in slots]
    assert array_end == end


@settings(max_examples=200, deadline=None)
@given(st.lists(_CONSTANTS, max_size=12))
def test_pool_readers_agree_on_random_pools(constants):
    data = _pool_bytes(constants)
    _assert_readers_agree(data)
    _assert_readers_agree(data + b"\x07")
    tags, values, _ = cf._read_pool(data, 0)
    assert (tags, values) == (raw_pool(*constants).pool_tags,
                              raw_pool(*constants).pool_values)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CONSTANTS, max_size=8), st.data())
def test_pool_readers_agree_on_mutated_pools(constants, draw):
    data = bytearray(_pool_bytes(constants))
    for _ in range(draw.draw(st.integers(1, 4))):
        pos = draw.draw(st.integers(0, len(data) - 1))
        data[pos] = draw.draw(st.integers(0, 255))
    cut = draw.draw(st.integers(0, len(data)))
    _assert_readers_agree(bytes(data))
    _assert_readers_agree(bytes(data[:cut]))


def _outcome(parse, data):
    """What parsing ``data`` gives: the RawClassFile, or the error's type
    and message."""
    try:
        return parse(data)
    except ClassFileError as err:
        return type(err), str(err)


class TestOracle:
    """The reader compiled from the class-file schema against the
    hand-written one it replaced (tests/classfile_oracle.py)."""

    def test_every_strict_prefix_fails_alike(self, corpus):
        for name, (data, _) in corpus.items():
            for cut in range(len(data)):
                got = _outcome(cf.parse_class, data[:cut])
                assert got == _outcome(classfile_oracle.parse_class,
                                       data[:cut]), (name, cut)

    def test_overwrites_past_the_pool_read_alike(self, corpus):
        """Seed 0xC1A55, 3,000 classes, each a corpus class with 1 to 4
        random bytes overwritten anywhere after its constant pool."""
        rng = random.Random(0xC1A55)
        classes = [data for data, _ in corpus.values()]
        outcomes = Counter()
        for _ in range(3000):
            data = bytearray(rng.choice(classes))
            start = cf.parse_class(bytes(data)).pool_end
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(start, len(data))] = rng.randrange(256)
            got = _outcome(cf.parse_class, bytes(data))
            assert got == _outcome(classfile_oracle.parse_class, bytes(data))
            outcomes[got[0] if isinstance(got, tuple) else "parsed"] += 1
        # some damage is still a class, some is short and some misnames
        assert outcomes["parsed"] > 100 and outcomes[Truncated] > 100 \
            and outcomes[BadIndex] > 100, outcomes

    def test_corpus_and_generated_classes_read_alike(self, corpus):
        files = [data for data, _ in corpus.values()]
        files += load_perfbench("gen").generate(200, 1).files.values()
        for data in files:
            raw = cf.parse_class(data)
            assert raw == classfile_oracle.parse_class(data)
            assert raw.pool_entries_start == 10


def _every_field(attrs_of, raw):
    """(what a cut inside it names, its byte size) of each field after the
    constant pool of ``raw``, in file order."""
    out = [("access flags", 2), ("this class", 2), ("super class", 2),
           ("interface count", 2)] + [("interface index", 2)] * len(
               raw.interfaces)
    for members in raw.fields, raw.methods:
        out.append(("member count", 2))
        for m in members:
            out += [("member access flags", 2), ("member name index", 2),
                    ("member descriptor index", 2),
                    ("member attribute count", 2)] + attrs_of(m.attributes)
    return out + [("class attribute count", 2)] + attrs_of(raw.attributes)


def _attribute_fields(attrs):
    out = []
    for a in attrs:
        out += [("attribute name index", 2), ("attribute length", 4)]
        code = a.code
        if code is None:
            out.append(("attribute " + a.name, a.orig_len))
            continue
        out += [("max_stack", 2), ("max_locals", 2), ("code length", 4),
                ("bytecode", len(code.code)), ("exception table count", 2)]
        out += [("exception table entry", 8)] * len(code.exception_table)
        out += [("code attribute count", 2)]
        out += _attribute_fields(code.attributes)
    return out


class TestTruncationMessages:
    """A class cut inside each field after its pool names that field.  The
    class has an interface, a static field with a ConstantValue and a
    method whose Code has a handler, a stack map and debug tables."""

    MEMBER = ["member access flags", "member name index",
              "member descriptor index", "member attribute count"]
    ATTRIBUTE = ["attribute name index", "attribute length"]
    NAMES = (["access flags", "this class", "super class", "interface count",
              "interface index", "member count"] + MEMBER + ATTRIBUTE
             + ["attribute ConstantValue", "member count"] + MEMBER
             + ATTRIBUTE + ["max_stack", "max_locals", "code length",
                            "bytecode", "exception table count",
                            "exception table entry", "code attribute count"]
             + ATTRIBUTE + ["attribute {stack map}"]
             + ATTRIBUTE + ["attribute LineNumberTable"]
             + ATTRIBUTE + ["attribute LocalVariableTable",
                            "class attribute count"]
             + ATTRIBUTE + ["attribute SourceFile"])

    @staticmethod
    def _class(stack_map):
        cb = ClassBuilder("probe/Every", interfaces=["probe/Marker"])
        cb.field("K", "I", ACC_PUBLIC | ACC_STATIC, const=("i", 7))
        c = cb.method("run", "()I", ACC_PUBLIC | ACC_STATIC)
        c.label("try")
        c.op("iconst_1")
        c.op("ireturn")
        c.label("end")
        c.label("handler")
        c.op("pop")
        c.op("iconst_0")
        c.op("ireturn")
        c.handler("try", "end", "handler", "java/lang/Exception")
        c.stack_map = bytes([0, 1, 0, 7])
        # the pool is read in order, so its text can change length
        return cb.build().replace(b"\x00\x0dStackMapTable", struct.pack(
            ">H", len(stack_map)) + stack_map.encode())

    @pytest.mark.parametrize("stack_map", ["StackMapTable", "StackMap"])
    def test_a_cut_names_its_field(self, stack_map):
        data = self._class(stack_map)
        raw = cf.parse_class(data)
        fields = _every_field(_attribute_fields, raw)
        assert [what for what, _ in fields] == [
            what.format(**{"stack map": stack_map}) for what in self.NAMES]
        at = raw.pool_end
        for what, size in fields:
            for cut in {at, at + size - 1}:
                with pytest.raises(Truncated) as err:
                    cf.parse_class(data[:cut])
                assert str(err.value) == "input ends inside " + what, cut
            at += size
        assert at == len(data)


def test_no_record_compiles_at_import():
    """Importing the command line driver compiles no schema record: each
    top-level record of either schema still has its compiling read and
    write, and none of the image's records that its header's widths and
    counts select is yet built."""
    script = (
        "import jrom.cli\n"
        "from jrom import classfile, romizer, schema\n"
        "tops = [r for m in (classfile, romizer) for r in vars(m).values()\n"
        "        if isinstance(r, schema.Record) and r.schema]\n"
        "print(len({r.schema for r in tops}), len(tops), sum(\n"
        "    'read' in vars(r) or 'write' in vars(r) for r in tops),\n"
        "    romizer._id_records.cache_info().currsize,\n"
        "    romizer._string_section.cache_info().currsize)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2", "2", "0", "0", "0"]
