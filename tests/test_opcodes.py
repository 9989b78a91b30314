"""Operand table: every operand-carrying opcode has an entry that fits it."""

import re

import pytest

from jrom import classfile as cf
from jrom import constpool as cp
from jrom import lifecycle as lc
from jrom import opcodes as ops
from jrom.errors import VerifyError

from .test_generated import load_perfbench


def _expected_kind(name):
    """Operand kind of a mnemonic, classified by name apart from the table."""
    if re.fullmatch(r"[ilfda](load|store)(_[0-3])?|ret|iinc", name):
        return ops.LOCAL
    if re.match(r"if|goto|jsr", name):
        return ops.BRANCH
    if re.fullmatch(r"(get|put)(static|field)_quick", name):
        return ops.IMMEDIATE
    if name == "invokevirtual_quick":
        return ops.NARGS_SLOT
    if re.match(r"ldc|get|put|invoke|new$|anewarray|multianewarray|checkcast"
                r"|instanceof", name):
        return ops.TABLE
    return None


def test_every_operand_opcode_has_its_entry():
    for name, op in ops.BY_NAME.items():
        kind = _expected_kind(name)
        entry = ops.OPERANDS.get(op)
        if kind is None:
            assert entry is None, name
        else:
            assert entry is not None and entry.kind == kind, name


def test_entry_widths_agree_with_operand_bytes():
    extra = {"iinc", "invokeinterface", "multianewarray"}   # more than one field
    for op, entry in ops.OPERANDS.items():
        name = ops.NAME[op]
        nbytes = ops.OPERAND_BYTES[op]
        if name in extra:
            assert 0 < entry.size < nbytes, name
        else:
            assert entry.size == nbytes, name
        if entry.kind == ops.TABLE:
            assert entry.space in (cp.ATABLE, cp.VTABLE) and entry.size in (1, 2)
        elif entry.kind == ops.LOCAL:
            assert entry.want in (1, 2) and entry.space is None
            assert (entry.size == 0) == (entry.slot is not None), name
        elif entry.kind == ops.BRANCH:
            assert entry.size in (2, 4)
        else:
            assert entry.size == 2 and entry.space is None


def test_wide_operands_come_from_the_table():
    code = bytes([ops.WIDE, ops.BY_NAME["dload"], 0x01, 0x02,
                  ops.BY_NAME["lstore_3"], ops.BY_NAME["goto_w"], 0xFF, 0xFF,
                  0xFF, 0xFB])
    assert ops.local_slot(code, 0) == (0x102, 2)
    assert ops.local_slot(code, 4) == (3, 2)
    assert ops.branch_targets(code, 5) == [0]
    body = lc.MethodCode(bytearray(code), 0, 0x104, [])
    assert ops.method_shape(body, "m") == ops.Shape((0, 4, 5), (0,), ())
    body.max_locals -= 1        # the wide dload's pair reaches past it
    with pytest.raises(VerifyError, match="m: local 258 out of range at 0"):
        ops.method_shape(body, "m")


def test_length_table_agrees_with_operand_bytes():
    for op in range(256):
        fixed = op in ops.OPERAND_BYTES
        assert ops.LENGTHS[op] == (1 + ops.OPERAND_BYTES[op] if fixed else 0)
    assert not (ops.LENGTHS[ops.TABLESWITCH] or ops.LENGTHS[ops.LOOKUPSWITCH]
                or ops.LENGTHS[ops.WIDE])


def test_shape_walk_agrees_with_walk(corpus):
    """Over every class-file body of the corpus and of a generated set, the
    shape's starts are the ones ops.walk steps through, and its sites the
    starts whose instruction names the pool or is a quick opcode."""
    files = [data for data, _ in corpus.values()]
    files += load_perfbench("gen").generate(200, 7).files.values()
    bodies = 0
    for data in files:
        for m in cf.parse_class(data).methods:
            attr = m.attr("Code")
            if attr is None:
                continue
            raw = attr.code
            code = lc.MethodCode(bytearray(raw.code), raw.max_stack,
                                 raw.max_locals, raw.exception_table)
            shape = ops.method_shape(code, m.name)
            starts = tuple(off for off, _, _ in ops.walk(code.bytecode))
            assert shape.starts == starts, m.name
            assert shape.sites == tuple(
                off for off in starts
                if ops.pool_operand(code.bytecode, off) is not None
                or code.bytecode[off] >= ops.FIRST_QUICK), m.name
            bodies += 1
    assert bodies > 1000
