"""Shared fixtures: the assembled corpus on disk and ready-made pipelines."""

import struct
from dataclasses import dataclass

import pytest

from jrom import classfile as cf
from jrom import constpool as cp
from jrom.errors import BadIndex, BadTag, Truncated
from jrom.lifecycle import Registry
from jrom.pipeline import Pipeline

from .corpus import build_corpus, write_corpus


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(str(root))
    return str(root)


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


# tag -> struct format of the bytes after the tag byte
_CONSTANT_FORMATS = {
    cf.TAG_INTEGER: "i", cf.TAG_FLOAT: "I", cf.TAG_LONG: "q", cf.TAG_DOUBLE: "Q",
    cf.TAG_CLASS: "H", cf.TAG_STRING: "H", cf.TAG_FIELDREF: "HH",
    cf.TAG_METHODREF: "HH", cf.TAG_IFACEMETHODREF: "HH",
    cf.TAG_NAMEANDTYPE: "HH",
}


def serialize_constant(tag, value):
    """On-disk bytes of one pool slot given as its tag and value, as the
    parser returns them (placeholders serialize to nothing)."""
    if tag == cf.TAG_PLACEHOLDER:
        return b""
    if tag == cf.TAG_UTF8:
        data = cf.encode_mutf8(value)
        return struct.pack(">BH", tag, len(data)) + data
    value = value if isinstance(value, tuple) else (value,)
    return struct.pack(">B" + _CONSTANT_FORMATS[tag], tag, *value)


def raw_pool_byte_size(raw):
    """On-disk byte length of the pool region, slot by slot: loading reads
    it from the parser's offsets, and tests check that the two agree."""
    return sum(len(serialize_constant(tag, value))
               for tag, value in zip(raw.pool_tags, raw.pool_values))


@dataclass
class RefConstant:
    """One slot of the reference pool reader; placeholders have tag 0."""
    tag: int
    value: object = None    # the number or index pair; Utf8: its bytes
    text: str = None        # decoded form, Utf8 only


def read_reference_pool(data):
    """The constant pool whose count field starts ``data``, read entry by
    entry into one RefConstant per slot: an oracle for the parser's
    array reader.  Returns (slots, offset just past the pool) and raises
    the same ClassFileError subclasses."""
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(data):
            raise Truncated("input ends inside %s" % what)
        pos += n
        return data[pos - n:pos]

    count, = struct.unpack(">H", take(2, "constant pool count"))
    pool = [RefConstant(cf.TAG_PLACEHOLDER)]
    while len(pool) < count:
        tag = take(1, "constant tag")[0]
        if tag == cf.TAG_UTF8:
            length, = struct.unpack(">H", take(2, "Utf8 length"))
            text = take(length, "Utf8 bytes")
            pool.append(RefConstant(tag, text, cf.decode_mutf8(text)))
            continue
        fmt = _CONSTANT_FORMATS.get(tag)
        if fmt is None:
            raise BadTag("unknown constant pool tag %d" % tag)
        what = "index" if tag >= cf.TAG_CLASS else cf.TAG_NAMES[tag]
        value = struct.unpack(">" + fmt, take(struct.calcsize(">" + fmt), what))
        pool.append(RefConstant(tag, value[0] if len(value) == 1 else value))
        if tag in (cf.TAG_LONG, cf.TAG_DOUBLE):
            pool.append(RefConstant(cf.TAG_PLACEHOLDER))
    if len(pool) != count:
        raise BadIndex("pool of count %d ends at slot %d" % (count, len(pool)))
    return pool, pos


def resolve(pool, space, index):
    """Canonical payload of a pool entry, for before/after comparisons."""
    if space == cp.ATABLE:
        kind, payload = pool.a_kind[index], pool.a_payload[index]
        if kind in (cp.A_UTF8, cp.A_STRING):
            return (kind, payload)
        if kind == cp.A_CLASS:
            return (cp.A_CLASS, payload.name)
        return (kind, payload.owner.name, payload.name, payload.descriptor)
    kind, value = pool.v_kind[index], pool.v_value[index]
    if kind in (cp.V_INT, cp.V_FLOAT):
        return (kind, value)
    if kind in (cp.V_LONG_HI, cp.V_DBL_HI):
        return (kind, (value << 32) | pool.v_value[index + 1])
    if kind in (cp.V_LONG_LO, cp.V_DBL_LO):
        return (pool.v_kind[index - 1],
                (pool.v_value[index - 1] << 32) | value)
    if kind == cp.V_STRING:
        return (cp.V_STRING, pool.a_payload[value])
    hi, lo = value >> 16, value & 0xFFFF
    if kind == cp.V_NAT:
        return (cp.V_NAT, pool.a_payload[hi], pool.a_payload[lo])
    return ((kind,) + resolve(pool, cp.ATABLE, hi)[1:]
            + resolve(pool, cp.ATABLE, lo)[1:])


def raw_pool(*constants):
    """Hand-built RawClassFile around a pool of (tag, value) constants, in
    the parser's array form; slot 0 implied."""
    tags, values = bytearray(1), [None]
    for tag, value in constants:
        tags.append(tag)
        values.append(value)
        if tag in (cf.TAG_LONG, cf.TAG_DOUBLE):
            tags.append(cf.TAG_PLACEHOLDER)
            values.append(None)
    return cf.RawClassFile(0, 48, tags, values, 0, 0, 0, [], [], [], [])


def prelinked(raw, registry=None):
    registry = registry or Registry()
    pool = cp.build_pool(raw)
    cp.prelink_pass1(pool, raw, registry.resolve)
    cp.prelink_pass2(pool, raw)
    return pool


def make_pipeline(corpus_dir, **flags):
    pipe = Pipeline([corpus_dir], **flags)
    pipe.load_targets(sorted(build_corpus()), closure=True)
    ready_failures = pipe.ready_all()
    assert not ready_failures, ready_failures
    link_failures = pipe.link_all()
    assert not link_failures, link_failures
    return pipe


@pytest.fixture(scope="session")
def linked_pipeline(corpus_dir):
    """Whole corpus loaded, initialized and linked with default flags."""
    return make_pipeline(corpus_dir)


@pytest.fixture(scope="session")
def nointro_pipeline(corpus_dir):
    return make_pipeline(corpus_dir, introspection=False)
