"""Minimal stack-machine interpreter used as a differential oracle.

It executes both the post-load dialect of a method body (member
instructions naming member handles) and the post-link one (quick forms)
against a snapshot world, so every pipeline rewrite can be checked for
semantic preservation: same outcome, same static-zone writes, same
created objects.

Each method body is decoded once per pool it runs against, the first time,
into its entry record (``decoded``): (pool, steps, locals pad, handler
table, max_locals, max_stack).  The steps are a list indexed by pc, so
dispatch is one list index per instruction.  Decode is the one place that
reads an operand (``_decode``): a local slot, a branch target, a switch's
targets, a constant, or what a pool entry names: a member, a class, a
string's text.  A member that does not resolve yet gives a lazy step that
resolves as it runs; the handler table holds each catch type as its class.
So no step reads the pool or the bytecode, and decode reads the body's
shape, checked at load or at a reloaded body's first decode.  An operand
that cannot be used raises only if its instruction runs.

What an instruction pops and pushes is written once, in its row of
``opcodes.EFFECTS``.  A template writes an instruction's Python source from
that row and from the source of what it computes, which its family's table
here holds; run alone, that source is the instruction's single step,
compiled the first time decode asks for it.  Decode picks a field access's
step by the type code of the field it names, and a call's by the number of
argument slots it passes, so no step checks a kind at run time.  A virtual
call's step picks its callee from the receiver's class as it runs.  Only
the lazy member step and the steps that only raise are written by hand.

Decode also gives each leader (pc 0, a jump target, or the instruction
after one that ends a path) one generated step for its path (``_block``):
statements over Python temporaries, with each conditional branch a side
exit that writes the stack back and returns its target.  The step charges
its path's fuel on entry, gives back that of the instructions it did not
run at a side exit or a raise, and sets ``f.pc`` before each instruction
that can throw or call.  A path that jumps back to its leader with the
stack as it found it runs as a loop, each iteration charged before it
starts.  Without fuel for the path, with a trace set, or with the stack
depth outside [need, max_stack - top], the step runs only its first
instruction, so trace lines, fuel-outs, stack errors and ``Machine.fuel``
are those of single steps.  Each block shape is compiled once per process.

One loop in ``Machine.call`` runs a method and every call it makes, and
makes every frame from the callee's entry record, pushed on a list instead
of recursing in Python.  An opcode without a step (jsr/ret, the monitors,
multianewarray, and the symbolic ldc forms and anewarray, which loading
always rewrites) has no effect row and puts a method outside the subset the
machine runs; ``in_subset`` asks the same table.
"""

import functools
import math
import random
import struct
import zlib
from dataclasses import dataclass
from functools import partial

from . import classfile as cf
from . import constpool as cp
from . import descriptors as dsc
from . import lifecycle as lc
from . import opcodes as ops
from .errors import (InterpError, JromError, StackOverflow, StackUnderflow,
                     UnsupportedOpcode)

_OP = ops.BY_NAME

PAD = ("~", None)
M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_FUEL = 1_000_000
MAX_CALL_DEPTH = 200
MAX_ARRAY_ELEMENTS = 1 << 22    # in all of one world's arrays together


def i32(v):
    v &= M32
    return v - (1 << 32) if v >= (1 << 31) else v


def i64(v):
    v &= M64
    return v - (1 << 64) if v >= (1 << 63) else v


def u32(v):
    return v & M32


def f32(v):
    """Round a double to float; past the float range that is an infinity."""
    try:
        return struct.unpack(">f", struct.pack(">f", v))[0]
    except OverflowError:
        return math.copysign(math.inf, v)


def l2f(v):
    """Round a long to float once, half to even, as the JVM does (through
    a double it would round twice)."""
    shift = abs(v).bit_length() - 24
    if shift > 0:
        half = 1 << (shift - 1)
        q, r = divmod(abs(v), half << 1)
        q += r > half or (r == half and q & 1)
        v = q << shift if v > 0 else -(q << shift)
    return f32(float(v))


def float_bits(v):
    return struct.unpack(">I", struct.pack(">f", v))[0]


def bits_float(b):
    return struct.unpack(">f", struct.pack(">I", b & M32))[0]


def double_bits(v):
    return struct.unpack(">Q", struct.pack(">d", v))[0]


def bits_double(b):
    return struct.unpack(">d", struct.pack(">Q", b & M64))[0]


def _sign8(v):
    v &= 0xFF
    return v - 256 if v >= 128 else v


def _sign16(v):
    v &= 0xFFFF
    return v - 65536 if v >= 32768 else v


class Obj:
    __slots__ = ("id", "cls", "cls_name", "slots")

    def __init__(self, rid, cls, cls_name, slots):
        self.id = rid
        self.cls = cls
        self.cls_name = cls_name
        self.slots = slots


class Arr:
    __slots__ = ("id", "comp", "elems")

    def __init__(self, rid, comp, elems):
        self.id = rid
        self.comp = comp
        self.elems = elems


class Str:
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class MiniHeap:
    """Objects, arrays and interned strings; a reference slot holds the
    item itself, and two references are equal only if they are one item.

    Objects and arrays carry ids that count up from 1 in the order they
    are made.  An interned string is one Str per text and has no id, so
    object ids do not depend on which strings a run happened to intern.
    """

    def __init__(self):
        self.made = []      # the objects and arrays, in creation order
        self._interned = {}
        self._elements = 0

    def _add(self, kind, *fields):
        item = kind(len(self.made) + 1, *fields)
        self.made.append(item)
        return item

    def new_object(self, cls):
        return self._add(Obj, cls, cls.name, cls.instance_defaults())

    def new_pseudo(self, cls_name):
        return self._add(Obj, None, cls_name, [])

    def new_array(self, comp, length):
        self._elements += length
        if self._elements > MAX_ARRAY_ELEMENTS:
            raise InterpError("arrays of more than %d elements in one run"
                              % MAX_ARRAY_ELEMENTS)
        if comp in ("F", "D"):
            elems = [0.0] * length
        elif comp[0] in "L[":
            elems = [None] * length
        else:
            elems = [0] * length
        return self._add(Arr, comp, elems)

    def intern(self, text):
        item = self._interned.get(text)
        if item is None:
            item = self._interned[text] = Str(text)
        return item


def base_zones(cls, base):
    """The persisted (a_zone, v_zone) a world of this ``base`` starts from."""
    if base == "init" and cls.zones_initial is not None:
        return cls.zones_initial
    return cls.a_static_zone, cls.v_static_zone


class World:
    """Execution snapshot: copied static zones plus a fresh heap.

    ``base`` selects the persisted zone content to start from: "live" is
    the classes' current state, "init" the ConstantValue-only state saved
    before <clinit> ran.  Nothing is copied up front: ``zone`` copies a
    class's base content, interning its strings, the first time a run
    touches it, so a run costs only the zones it reads or writes.
    """

    def __init__(self, registry, stage, base="live", trace=None):
        self.registry = registry
        self.stage = stage
        self.base = base
        self.trace = trace
        self.heap = MiniHeap()
        self.zones = {}     # class name -> [a_zone, v_zone], once touched
        self.bases = {}     # class name -> the (a_zone, v_zone) copied

    def zone(self, cls):
        z = self.zones.get(cls.name)
        if z is None:
            c = self.registry.classes.get(cls.name)
            if c is None or c.state == lc.UNLOADED or c.synthetic:
                src = ([None] * len(cls.a_static_zone), cls.v_static_zone)
            else:
                src = base_zones(c, self.base)
            z = [[self.heap.intern(s[1]) if isinstance(s, tuple) else s
                  for s in src[0]], list(src[1])]
            self.zones[cls.name] = z
            self.bases[cls.name] = src
        return z


@dataclass
class Outcome:
    kind: str               # "return" | "throw" | "fuel"
    value: object = None    # normalized typed slot, or None for void
    exception: str = None


class _Thrown(Exception):
    def __init__(self, ref, cls, cls_name):
        super().__init__(cls_name)
        self.ref = ref
        self.cls = cls
        self.cls_name = cls_name


class _FuelOut(Exception):
    pass


class _Call(tuple):
    """What an invoke step returns: (method, argument slots) to run, the
    slots in a list of the step's own, which becomes the callee's locals."""
    __slots__ = ()


def in_subset(code):
    """True when a method body has a shape and a handler for each opcode."""
    if code is None:
        return False
    bc = code.bytecode
    try:
        starts = code.shape_of(None).starts     # no error message is shown
    except JromError:
        return False
    return all(_HANDLERS[bc[off + 1] if bc[off] == ops.WIDE else bc[off]]
               is not _unsupported for off in starts)


class Frame:
    """One activation: its entry record's steps, handler table and
    max_stack, locals and stack.  ``pc`` is the instruction being run, or
    in a caller the invoke waiting for its call to return."""
    __slots__ = ("method", "steps", "handlers", "max_stack", "locals",
                 "stack", "pc")

    def __init__(self, method, entry, local_slots):
        self.method = method
        self.steps, self.handlers = entry[1], entry[3]
        self.max_stack = entry[5]
        self.locals = local_slots
        self.stack = []
        self.pc = 0

    def where(self):
        return "%s at %d" % (self.method, self.pc)


def _resolve(pool, aidx):
    """The field or method of the member handle at ``aidx``, or None: the
    member set when the owner linked, or else the one a lookup over the
    loaded classes finds."""
    handle = pool.a_payload[aidx]
    return handle.resolved or handle.lookup()


class Machine:
    def __init__(self, world, fuel):
        self.world = world
        self.fuel = fuel
        self.trace = world.trace

    # --- helpers ---

    def class_of_ref(self, ref):
        if isinstance(ref, Str):
            return self.world.registry.get("java/lang/String"), "java/lang/String"
        if isinstance(ref, Arr):
            name = "[" + ref.comp
            return self.world.registry.new_unloaded(name), name
        return ref.cls, ref.cls_name

    def throw_named(self, name):
        cls = self.world.registry.get(name)
        if cls is not None and cls.state != lc.UNLOADED:
            ref = self.world.heap.new_object(cls)
        else:
            cls = None
            ref = self.world.heap.new_pseudo(name)
        raise _Thrown(ref, cls, name)

    def assignable(self, src_name, src_cls, dst_cls):
        dst_name = dst_cls.name
        if dst_name == "java/lang/Object":
            return True
        if src_name == dst_name:
            return True
        if src_name.startswith("["):
            if not dst_name.startswith("["):
                return False
            sc, dc = src_name[1:], dst_name[1:]
            if sc == dc:
                return True
            if sc.startswith("L") or sc.startswith("["):
                s_cls = self.world.registry.new_unloaded(
                    sc[1:-1] if sc.startswith("L") else sc)
                d_inner = dc[1:-1] if dc.startswith("L") else dc
                d_cls = self.world.registry.get(d_inner)
                if d_cls is None:
                    return False
                return self.assignable(s_cls.name, s_cls, d_cls)
            return False
        if src_cls is None:
            return False
        return src_cls.is_subclass_of(dst_cls)

    def is_instance(self, ref, cls):
        src_cls, src_name = self.class_of_ref(ref)
        return self.assignable(src_name, src_cls, cls)

    def element_of(self, arr, index):
        """The array, once it is checked not null and ``index`` in range."""
        if arr is None:
            self.throw_named("java/lang/NullPointerException")
        if not 0 <= index < len(arr.elems):
            self.throw_named("java/lang/ArrayIndexOutOfBoundsException")
        return arr

    # --- invocation ---

    def call(self, method, args):
        """Run a method and the calls it makes; returns the (tag, value)
        result or None for void.  A call checks the callee's entry record
        (``decoded``) and pushes its frame on a list rather than recursing,
        so Python's stack stays flat however deep calls go."""
        trace, world = self.trace, self.world
        loaded = world.stage == lc.LOADED   # which body and pool a call runs
        frames = []         # the active frames, the running one last
        f, result = None, _Call((method, list(args)))
        while True:
            try:
                if result is None:
                    pc += size
                elif result.__class__ is int:
                    pc = result
                elif result.__class__ is _Call:
                    method, args = result
                    code = method.code_loaded if loaded else method.code
                    if code is None:
                        raise InterpError("no bytecode for %s" % (method,))
                    if len(frames) >= MAX_CALL_DEPTH:
                        self.throw_named("java/lang/StackOverflowError")
                    owner, n = method.owner, len(args)
                    pool = owner.loaded_pool if loaded else owner.pool
                    entry = code.decoded
                    if entry is None or entry[0] is not pool or n > entry[4]:
                        if pool is None:    # raises InvalidTransition
                            owner.pool_at(world.stage)
                        if n > code.max_locals:
                            raise InterpError(
                                "%s: %d argument slots > max_locals %d"
                                % (method, n, code.max_locals))
                        entry = decoded(method, code, pool, world.registry)
                    args += entry[2][n:]    # a call's own list: the locals
                    f = Frame(method, entry, args)
                    frames.append(f)
                    steps, pc = entry[1], 0
                else:
                    value = result[0]
                    frames.pop()
                    if not frames:
                        return value
                    f = frames[-1]      # back to the invoke that made the call
                    steps, pc = f.steps, f.pc
                    pc += steps[pc][3]
                    if value is not None:
                        s = f.stack
                        s += (value, PAD) if value[0] in "jd" else (value,)
                        if len(s) > f.max_stack:
                            raise StackOverflow(f.where())
                try:
                    handler, op, operand, size = steps[pc]
                except IndexError:  # the shape puts every jump on a step
                    raise InterpError("%s: fell off the end of the code"
                                      % (f.method,)) from None
                if self.fuel <= 0:
                    raise _FuelOut()
                self.fuel -= 1
                if trace is not None:
                    trace("%5d %-20s depth=%d"
                          % (pc, ops.mnemonic(op), len(f.stack)))
                f.pc = pc
                result = handler(self, f, operand)
            except _Thrown as t:
                while (target := self._find_handler(f, t)) is None:
                    frames.pop()
                    if not frames:
                        raise
                    f = frames[-1]
                f.stack[:] = [("a", t.ref)]
                steps, result = f.steps, target

    def _find_handler(self, f, thrown):
        """The pc of the frame's handler for the thrown exception, or None."""
        for start, end, handler, catch in f.handlers:
            if not start <= f.pc < end:
                continue
            if catch is None or (thrown.cls.is_subclass_of(catch)
                                 if thrown.cls is not None
                                 else thrown.cls_name == catch.name):
                return handler
        return None


# --- instruction steps ------------------------------------------------------
# step(machine, frame, operand) runs one instruction; decode read its
# operand.  It returns None to go on at the next instruction, a pc to branch
# to, a _Call to make, or a 1-tuple holding the method's result (None for a
# void return).  The lazy member step and the steps that only raise are
# written by hand.  Every other step is generated
# (see "generated steps" below) from what its instruction pops and pushes,
# which its row of ``opcodes.EFFECTS`` says, and from the source of what it
# computes, which the family tables here hold.

def _by_opcode(table):
    return {_OP[name]: value for names, value in table.items()
            for name in names.split()}


def _u16(v):
    return v & 0xFFFF


# op -> the slot pushed, which is the operand of its step
_CONSTANTS = _by_opcode({
    "aconst_null": ("a", None), "lconst_0": ("j", 0), "lconst_1": ("j", 1),
    "fconst_0": ("f", 0.0), "fconst_1": ("f", 1.0), "fconst_2": ("f", 2.0),
    "dconst_0": ("d", 0.0), "dconst_1": ("d", 1.0),
    **{"iconst_%s" % ("m1" if k < 0 else k): ("i", k) for k in range(-1, 6)}})


def _unsupported(m, f, op):
    raise UnsupportedOpcode(op, f.pc)


def _unresolvable(m, f, index):
    """A pool operand naming no entry of the kind its instruction takes."""
    raise InterpError("%s: operand %d unresolvable at %d"
                      % (f.method, index, f.pc))


def _bad_operand(m, f, what):
    """An operand that decode read but no step can run with."""
    raise InterpError("bad %s" % what)


def _fdiv(a, b):
    if b == 0:
        if a == 0 or math.isnan(a):
            return math.nan
        return math.inf if (a > 0) == (not _signbit(b)) else -math.inf
    return a / b


def _frem(a, b):
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or b == 0:
        return math.nan
    return math.fmod(a, b)


def _signbit(v):
    return math.copysign(1.0, v) < 0


def _compare(a, b):
    return (a > b) - (a < b)


def _fcompare(a, b, nan_result):
    return nan_result if math.isnan(a) or math.isnan(b) else _compare(a, b)


def _to_int(v, bits):
    if math.isnan(v):
        return 0
    lo, hi = -(1 << bits), (1 << bits) - 1
    if v <= lo:
        return lo
    if v >= hi:
        return hi
    return int(v)


def _quotient(a, b):
    """a / b rounded toward zero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# by type letter: the source that wraps a result to its width
_WRAP = {"i": "i32(%s)", "l": "i64(%s)", "f": "f32(%s)", "d": "%s"}
_BITWISE = (("and", "&"), ("or", "|"), ("xor", "^"))
# op -> the source of a straight-line operator's result, in the values it
# pops, {0} the lowest
_VALUES = _by_opcode({
    **{t + name: _WRAP[t] % source for t in "ilfd" for name, source in (
        ("add", "{0} + {1}"), ("sub", "{0} - {1}"), ("mul", "{0} * {1}"),
        ("neg", "-{0}"))},
    **{t + name: _WRAP[t] % source for t in "fd" for name, source in (
        ("div", "_fdiv({0}, {1})"), ("rem", "_frem({0}, {1})"))},
    **{"i" + name: "i32(u32({0}) %s u32({1}))" % op for name, op in _BITWISE},
    **{"l" + name: "i64(({0} & M64) %s ({1} & M64))" % op
       for name, op in _BITWISE},
    "ishl": "i32({0} << ({1} & 31))", "lshl": "i64({0} << ({1} & 63))",
    "ishr": "{0} >> ({1} & 31)", "lshr": "{0} >> ({1} & 63)",
    "iushr": "i32(u32({0}) >> ({1} & 31))",
    "lushr": "i64(({0} & M64) >> ({1} & 63))",
    "lcmp": "_compare({0}, {1})",
    "fcmpl dcmpl": "_fcompare({0}, {1}, -1)",
    "fcmpg dcmpg": "_fcompare({0}, {1}, 1)",
    "i2l f2d": "{0}", "i2f": "f32(float({0}))", "i2d l2d": "float({0})",
    "l2i": "i32({0})", "l2f": "l2f({0})", "d2f": "f32({0})",
    "f2i d2i": "_to_int({0}, 31)", "f2l d2l": "_to_int({0}, 63)",
    "i2b": "_sign8({0})", "i2c": "_u16({0})", "i2s": "_sign16({0})",
})

_TESTS = (("eq", "=="), ("ne", "!="), ("lt", "<"), ("ge", ">="), ("gt", ">"),
          ("le", "<="))
# op -> a conditional branch's test, in the values it pops
_IF = _by_opcode({
    **{"if" + name: "{0} %s 0" % test for name, test in _TESTS},
    **{"if_icmp" + name: "{0} %s {1}" % test for name, test in _TESTS},
    "if_acmpeq": "{0} == {1}", "if_acmpne": "{0} != {1}",
    "ifnull": "{0} is None", "ifnonnull": "{0} is not None"})

_NULL_CHECK = "if {0} is None: m.throw_named('java/lang/NullPointerException')"
_ZERO_CHECK = "if {1} == 0: m.throw_named('java/lang/ArithmeticException')"
_NARROW_STORE = {"b": "_sign8({2})", "c": "_u16({2})", "s": "_sign16({2})",
                 "f": "f32({2})"}
# op -> the lines of an instruction that can throw or reads or makes
# objects: statements in the values it pops ({0} the lowest) and its operand
# {o}, then the source of its result if it pushes one
_CALLED = _by_opcode({
    "ldc_quick_a ldc_quick_a_w": ("m.world.heap.intern({o})",),
    "arraylength": (_NULL_CHECK, "len({0}.elems)"),
    "idiv": (_ZERO_CHECK, "i32(_quotient({0}, {1}))"),
    "irem": (_ZERO_CHECK, "i32({0} - _quotient({0}, {1}) * {1})"),
    "ldiv": (_ZERO_CHECK, "i64(_quotient({0}, {1}))"),
    "lrem": (_ZERO_CHECK, "i64({0} - _quotient({0}, {1}) * {1})"),
    "new": ("if {o}.state == lc.UNLOADED: "
            "raise InterpError('new of unloaded class %s' % {o}.name)",
            "m.world.heap.new_object({o})"),
    "newarray anewarray_quick": (
        "if {0} < 0: m.throw_named('java/lang/NegativeArraySizeException')",
        "m.world.heap.new_array({o}, {0})"),
    "checkcast": ("if {0} is not None and not m.is_instance({0}, {o}): "
                  "m.throw_named('java/lang/ClassCastException')", "{0}"),
    "instanceof": ("int({0} is not None and m.is_instance({0}, {o}))",),
    **{t + "aload": ("m.element_of({0}, {1}).elems[{1}]",) for t in "ilfdabcs"},
    **{t + "astore": ("arr = m.element_of({0}, {1})",
                      "arr.elems[{1}] = " + _NARROW_STORE.get(t, "{2}"))
       for t in "ilfdabcs"},
})

_NARROWS = {dsc.TC_BYTE: "_sign8", dsc.TC_CHAR: "_u16", dsc.TC_SHORT: "_sign16"}
_WIDE_STORE = "vz[k], vz[k + 1] = w >> 32, w & M32"
# kind -> the source of a static's value, then the lines storing {v} in it
_STATIC_LINES = {
    "a": ("az[k]", "az[k] = {v}"),
    "i": ("i32(vz[k])", "vz[k] = u32({v})"),
    "f": ("bits_float(vz[k])", "vz[k] = float_bits({v})"),
    "j": ("i64(vz[k] << 32 | vz[k + 1])", "w = {v} & M64", _WIDE_STORE),
    "d": ("bits_double(vz[k] << 32 | vz[k + 1])", "w = double_bits({v})",
          _WIDE_STORE),
}


def _field_lines(op, type_code):
    """The _CALLED lines of quick field access ``op``, for a field of this
    type code: a byte, char or short is narrowed as it is stored."""
    name, kind = ops.NAME[op], ops.TYPE_KINDS[type_code]
    value = "{1}" if name == "putfield_quick" else "{0}"
    if type_code in _NARROWS:
        value = "%s(%s)" % (_NARROWS[type_code], value)
    if name == "getfield_quick":
        return _NULL_CHECK, "{0}.slots[{o}]"
    if name == "putfield_quick":
        return (_NULL_CHECK, "slots = {0}.slots",
                "slots[{o}] = " + value) + (("slots[{o} + 1] = None",)
                                            if kind in "jd" else ())
    # o: (class, zone, offset) names the static in the class's hierarchy
    find = ("owner, k = {o}[0].static_slot({o}[1], {o}[2])",
            "az, vz = m.world.zone(owner)")
    read, *write = _STATIC_LINES[kind]
    if name == "getstatic_quick":
        return (*find, read)
    return (*find, *(line.replace("{v}", value) for line in write))


def _virtual_target(m, receiver, target):
    """invokevirtual's and invokeinterface's callee, by name and type."""
    rc, rc_name = m.class_of_ref(receiver)
    if rc is None or rc.state == lc.UNLOADED:
        raise InterpError("receiver class %s not loaded" % rc_name)
    found = rc.find_method(target.name, target.descriptor)
    if found is None:
        raise InterpError("no %s%s on %s"
                          % (target.name, target.descriptor, rc_name))
    return found


def _quick_target(m, receiver, slot):
    """invokevirtual_quick's callee, at a slot of the receiver's table."""
    rc, rc_name = m.class_of_ref(receiver)
    if rc is None:
        raise InterpError("receiver class %s not loaded" % rc_name)
    table = rc.dispatch_table
    if rc.synthetic and not table and rc.super_cls is not None:
        table = rc.super_cls.dispatch_table
    if slot >= len(table):
        raise InterpError("dispatch slot %d out of range on %s"
                          % (slot, rc_name))
    return table[slot]


# invoke -> the check its step makes of the receiver ({0}), if any, and the
# source of the method it calls, from the receiver and its operand o
_CALLS = _by_opcode({
    "invokestatic": (None, "{o}"), "invokespecial": (_NULL_CHECK, "{o}"),
    "invokevirtual invokeinterface": (_NULL_CHECK,
                                      "_virtual_target(m, {0}, {o})"),
    "invokevirtual_quick": (_NULL_CHECK, "_quick_target(m, {0}, {o})")})
_STATICS = {_OP[name] for name in ("getstatic", "putstatic", "getstatic_quick",
                                   "putstatic_quick")}
_INSTANCE_INVOKES = {op for op, (check, _) in _CALLS.items() if check}
# member field instruction -> the quick form whose steps it runs
_FIELD_QUICK = {_OP[name]: _OP[name + "_quick"]
                for name in ("getstatic", "putstatic", "getfield", "putfield")}


def _field_operand(op, owner, zone, offset):
    """The operand of the step of field instruction ``op``."""
    return (owner, zone, offset) if op in _STATICS else offset


def _call_step(op, nargs):
    """The step of invoke ``op`` passing ``nargs`` slots of any kinds."""
    return _generated(_t_invoke, ops.Effect("1" * nargs, ""), _CALLS[op])


def _member_step(op, pool, aidx):
    """(step, operand) of member instruction ``op``: if the member handle
    ``aidx`` of ``pool`` resolves now to a member it can use, the step of a
    call of that method or the field's quick step, else the lazy step."""
    found = _resolve(pool, aidx)
    if found is None or (op in _INSTANCE_INVOKES and found.is_static):
        return _lazy, (op, pool, aidx)
    if op in _CALLS:
        return _call_step(op, found.nargs), found
    return (_step(_FIELD_QUICK[op], found.type_code),
            _field_operand(op, found.owner, found.zone, found.offset))


def _lazy(m, f, operand):
    """A member instruction whose operand did not resolve at decode: each
    run resolves it again and runs the quick step, or raises as the operand
    is unusable."""
    op, pool, aidx = operand
    handler, quick = _member_step(op, pool, aidx)
    if handler is not _lazy:
        return handler(m, f, quick)
    found = _resolve(pool, aidx)
    if found is None:
        handle = pool.a_payload[aidx]
        raise InterpError("%s: unresolved %s.%s at %d"
                          % (f.method, handle.owner.name, handle.name, f.pc))
    raise InterpError("%s: %s of static %r at %d"
                      % (f.method, ops.NAME[op], found, f.pc))


_NEWARRAY_TYPES = {4: "Z", 5: "C", 6: "F", 7: "D", 8: "B", 9: "S", 10: "I",
                   11: "J"}


# --- generated steps --------------------------------------------------------
# A template writes the Python source of one instruction on a _Source.  Run
# on its own, it gives that instruction's single step; run one after
# another along a path, templates give the path's block step (``_block``).

class _Source:
    """The source of one generated step, as its templates write it: a
    symbolic stack of slot sources (operand parts, PAD, locals, temporaries,
    and s[-k] for the k-th slot below the depth the step started at), which
    the step writes back to the frame's stack where it leaves its path."""

    def __init__(self):
        self.lines, self.stack = [], []
        self.below = 0          # slots read from below the entry depth
        self.top = -1           # highest depth a push reaches, or -1
        self.ended = None       # where the end of the step starts
        # in a block: the offset of the last instruction marked, the count
        # of instructions after the one being written, and whether its
        # jump goes back to the leader
        self.pc, self.left, self.back = None, 0, False
        self.loop = None        # the test of a jump back that loops, if any
        self.marked = False     # whether an instruction can throw or call
        self.refunds = {}       # offset -> fuel given back if it raises

    def pop(self):
        if self.stack:
            return self.stack.pop()
        self.below += 1
        return "s[-%d]" % self.below

    def push(self, slot):
        self.stack.append(slot)
        self.top = max(self.top, len(self.stack) - self.below)

    def take(self, kinds):
        """Pop values of these kinds, a long or double with its padding;
        the source of each value, the lowest first."""
        values = []
        for kind in reversed(kinds):
            if kind in "jd":
                self.pop()
            values.append(self.pop() + "[1]")
        return values[::-1]

    def give(self, kind, value):
        """Push a value of this kind, a long or double with its padding."""
        self.push(self.temp("(%r, %s)" % (kind, value)))
        if kind in "jd":
            self.push("PAD")

    def temp(self, source):
        name = "t%d" % len(self.lines)
        self.lines.append("%s = %s" % (name, source))
        return name

    def store(self, slot, source):
        """Write a local, first reading any load of one still on the stack,
        since the two may be the same."""
        self.stack = [self.temp(s) if s[0] == "L" else s for s in self.stack]
        self.lines.append("L[%s] = %s" % (slot, source))

    def mark(self):
        """At an instruction that can throw or call, a block step sets
        ``f.pc``, and notes the fuel to give back if it raises."""
        self.marked = True
        if self.pc is not None:
            self.lines.append("f.pc = pc + %d" % self.pc)
            if self.left:
                self.refunds[self.pc] = self.left

    def written(self):
        """The lines that write the symbolic stack back."""
        listed = "(%s)" % "".join(slot + ", " for slot in self.stack)
        if self.below == len(self.stack) == 1:      # the fast form
            return ["s[-1] = " + self.stack[0]]
        if self.below:
            return ["s[-%d:] = %s" % (self.below, listed)]
        return ["s += " + listed] if self.stack else []

    def end(self, *ending, write=True):
        """End the step with the lines ``ending``, after writing the stack
        back unless the frame ends with them."""
        self.ended = len(self.lines)
        if write:
            self.lines += self.written()
        self.lines += ending

    def branch(self, test, target):
        """Go to ``target`` if ``test`` holds, or always if it is None,
        giving back the fuel of the instructions after this one.  A jump
        back to the leader that leaves the stack at its entry depth, having
        read nothing below it, makes the block a loop."""
        if self.back and not self.stack and not self.below:
            self.loop = test or "True"
        elif test is None:
            self.end("return " + target)
        else:
            refund = ["m.fuel += %d" % self.left] if self.left else []
            self.lines += ["if %s:" % test] + _indent(
                refund + self.written() + ["return " + target])

    def single(self):
        """A single step's body: it checks the stack as the handler of one
        instruction would, underflow before computing and overflow after.
        A push below the depth it started at cannot overflow."""
        if self.ended is None:
            self.end()
        if self.top >= 0:
            self.lines.insert(self.ended, "if len(s) > f.max_stack - %d: "
                              "raise StackOverflow(f.where())" % self.top)
        if self.below:
            self.lines.insert(0, "if len(s) < %d: raise StackUnderflow("
                              "f.where())" % self.below)
        return ["s, L = f.stack, f.locals"] + self.lines

    def block(self, n, params):
        """A block step's body: with fuel for its ``n`` instructions, no
        trace, and the stack in bounds all along its path, it runs them; if
        not, it runs only the first, by its single step.  A loop returns
        the leader's pc when the fuel left cannot cover one more turn."""
        if self.ended is None:
            self.end()
        body = self.lines
        if self.loop is not None:
            test = [] if self.loop == "True" else [
                "if not (%s): return" % self.loop]
            body = ["while True:"] + _indent(body + test + [
                "if m.fuel < %d: return pc" % n, "m.fuel -= %d" % n])
        if self.refunds:
            body = ["try:"] + _indent(body) + [
                "except Exception:",
                "    m.fuel += %r.get(f.pc - pc, 0)" % self.refunds,
                "    raise"]
        return ["s, L = f.stack, f.locals",
                "if m.trace is not None or m.fuel < %d or not %d <= len(s) "
                "<= f.max_stack - %d:" % (n - 1, self.below, self.top),
                "    return _first_step(m, f, o[0])",
                "m.fuel -= %d" % (n - 1), "pc = f.pc",
                "_, %s = o" % "".join(p + ", " for p in params)] + body


def _indent(lines):
    return ["    " + ln for ln in lines]


def _first_step(m, f, step):
    """Run a block's first instruction alone; returns where to go on."""
    result = step[0](m, f, step[2])
    return f.pc + step[3] if result is None else result


def _compile(body):
    scope = {}
    source = "\n".join(["def step(m, f, o):"] + _indent(body))
    exec(compile(source, "<generated step>", "exec"), globals(), scope)
    return scope["step"]


@functools.cache
def _compiled(body):
    """The function of a single step's body: steps of the same source, such
    as iload's and aload's, are one function."""
    return _compile(body)


# template(effect, source, g, operand): it writes on the _Source g what an
# instruction of this effect row and family source does, and gets the
# instruction's operand, if it takes one, as Python source.

def _t_push(effect, form, g, part):
    """Push the slot ``form`` writes from the operand: a constant that the
    operand holds, a local, or a constant held as its bits."""
    kind = effect.pushes
    g.push(form.format(o=part, kind=kind))
    if kind in "jd":
        g.push("PAD")


def _t_store(effect, _, g, slot):
    kind = effect.pops
    if kind in "jd":
        g.pop()
    g.store(slot, g.pop())
    if kind in "jd":
        g.store(slot + " + 1", "PAD")


def _t_iinc(effect, _, g, operand):         # (slot, delta)
    g.store(operand + "[0]",
            "('i', i32(L[%s[0]][1] + %s[1]))" % (operand, operand))


def _t_shuffle(effect, _, g):
    """Move slots of any kind, as the digits of the effect row name them."""
    slots = {}
    for name in reversed(effect.pops):
        slots[name] = g.pop()
    for name in effect.pushes:
        g.push(slots[name])


def _t_value(effect, source, g):
    g.give(effect.pushes, source.format(*g.take(effect.pops)))


def _t_if(effect, test, g, target):
    g.branch(test.format(*g.take(effect.pops)), target)


def _t_goto(effect, _, g, target):
    g.branch(None, target)


def _t_return(effect, _, g):
    kind = effect.pops
    g.end("return (%s,)" % ("(%r, %s)" % (kind, *g.take(kind)) if kind
                            else "None"), write=False)


def _t_switch(effect, _, g, cases):     # (default, ((key, target), ...))
    key = g.temp(*g.take(effect.pops))
    g.end("return next((to for match, to in %s[1] if match == %s), %s[0])"
          % (cases, key, cases))


def _t_invoke(effect, call, g, operand):
    """End the step at the call: once ``call``'s check of the receiver
    passes, the callee it names gets the slots the row pops as its locals."""
    check, callee = call
    slots = [g.pop() for _ in effect.pops][::-1]
    args = g.temp("[%s]" % "".join(slot + ", " for slot in slots))
    g.mark()
    ending = [] if check is None else [check.format(args + "[0][1]")]
    g.end(*ending, "return _Call((%s, %s))"
          % (callee.format(args + "[0][1]", o=operand), args))


def _t_called(effect, lines, g, operand):
    """Run ``lines`` over the values popped: the last is the source of the
    result, if the instruction pushes one."""
    values = [g.temp(v) for v in g.take(effect.pops)]
    g.mark()
    lines = [line.format(*values, o=operand) for line in lines]
    result = lines.pop() if effect.pushes else None
    g.lines += lines
    if result is not None:
        g.give(effect.pushes, result)


def _t_throw(effect, _, g):
    ref = g.temp(*g.take(effect.pops))
    g.mark()
    g.end(_NULL_CHECK.format(ref),
          "raise _Thrown(%s, *m.class_of_ref(%s))" % (ref, ref), write=False)


# each template -> whether it takes an operand
_TAKES_OPERAND = {_t_push: True, _t_store: True, _t_iinc: True,
                  _t_shuffle: False, _t_value: False, _t_if: True,
                  _t_goto: True, _t_return: False, _t_switch: True,
                  _t_invoke: True, _t_called: True, _t_throw: False}
_TEMPLATES = {}     # generated step -> (its writer, takes an operand, marks)
_BLOCKS = {}        # block shape -> the function of its step
_PASSES = set()     # the generated steps a path goes on past
_BACK = "back"      # ends a block shape whose last jump is to its leader
_PATH_CAP = 64      # the most instructions in one block's path


def _handler_table():
    """opcode -> its hand-written step, or the (template, source) its steps
    are written from; a quick field access's source is a function of the
    field's type code."""
    table = [_unsupported] * 256
    rows = (
        (_t_shuffle, "nop pop pop2 dup dup_x1 dup_x2 dup2 dup2_x1 dup2_x2 "
                     "swap", None),
        (_t_push, "bipush sipush ldc_quick_i ldc_quick_i_w ldc2_quick_l",
         "{o}"),
        # a float or double constant is held as its bits, which, unlike
        # the value (-0.0 == 0.0), tell apart steps that must not be shared
        (_t_push, "ldc_quick_f ldc_quick_f_w", "({kind!r}, bits_float({o}))"),
        (_t_push, "ldc2_quick_d", "({kind!r}, bits_double({o}))"),
        (_t_iinc, "iinc", None),
        (_t_goto, "goto goto_w", None),
        (_t_return, "ireturn lreturn freturn dreturn areturn return", None),
        (_t_switch, "tableswitch lookupswitch", None),
        (_t_throw, "athrow", None),
    )
    for template, names, source in rows:
        for name in names.split():
            table[_OP[name]] = (template, source)
    for op in (*_CALLS, *_FIELD_QUICK):
        table[op] = _lazy
    quick = _OP["invokevirtual_quick"]  # decode writes it from its nargs
    table[quick] = (_t_invoke, _CALLS[quick])
    for template, family in ((_t_value, _VALUES), (_t_if, _IF),
                             (_t_called, _CALLED)):
        for op, source in family.items():
            table[op] = (template, source)
    for op in _CONSTANTS:
        table[op] = (_t_push, "{o}")
    for op in _FIELD_QUICK.values():
        table[op] = (_t_called, partial(_field_lines, op))
    for op, entry in ops.OPERANDS.items():
        if entry.kind == ops.LOCAL and op not in (_OP["ret"], _OP["iinc"]):
            table[op] = ((_t_push, "L[{o}]") if "load" in ops.NAME[op]
                         else (_t_store, None))
    table[ops.WIDE] = None      # decode folds it into the opcode it modifies
    return table


_HANDLERS = _handler_table()


@functools.cache
def _step(op, type_code=None):
    """The step of ``op``, for a quick field access the one of a field of
    this type code: its hand-written handler, or else the single step its
    template writes from its effect row."""
    handler = _HANDLERS[op]
    if handler.__class__ is not tuple:
        return handler
    template, source = handler
    effect = ops.EFFECTS[op]
    if type_code is not None:
        effect, source = effect(type_code), source(type_code)
    return _generated(template, effect, source)


@functools.cache
def _generated(template, effect, source):
    """The single step a template writes from a row and a source, compiled
    when first asked for."""
    write = partial(template, effect, source)
    operand = _TAKES_OPERAND[template]
    g = _Source()
    write(g, *(["o"] if operand else []))
    passes = g.ended is None
    step = _compiled(tuple(g.single()))
    _TEMPLATES.setdefault(step, (write, operand, g.marked))
    if passes:
        _PASSES.add(step)
    return step


# op -> its step, for the one-byte opcodes whose step the opcode alone
# fixes, each put here by its first decode
_FIXED = {}
_NO_OPERAND = frozenset(op for op, nbytes in ops.OPERAND_BYTES.items()
                        if nbytes == 0 and op not in ops.OPERANDS)


# --- decode -----------------------------------------------------------------

def _decode(bc, off, op, pool, owner):
    """(step, operand) of the instruction ``op`` at ``off``, in a method of
    ``owner``: its operand read, mostly through the ``opcodes.OPERANDS``
    table, with the pool entry it names read too.  A table index that does
    not name an entry of the kind the operand wants, a bad newarray type,
    or a virtual call passing no receiver gives a step that raises when it
    runs."""
    entry = ops.OPERANDS.get(op)
    kind = entry.kind if entry is not None else None
    if kind == ops.IMMEDIATE:
        offset, tc = ops.field_immediate(bc, off)
        return _step(op, tc), _field_operand(op, owner, "a" if tc == dsc.TC_REF
                                             else "v", offset)
    if kind == ops.NARGS_SLOT:      # argument slots, dispatch slot
        if bc[off + 1] == 0:
            return _bad_operand, "%s of no argument slots" % ops.NAME[op]
        return _call_step(op, bc[off + 1]), bc[off + 2]
    handler = _step(op)
    if handler is _unsupported:
        return handler, op
    if kind == ops.LOCAL:
        slot = ops.local_slot(bc, off)[0]
        if op != _OP["iinc"]:
            return handler, slot
        if bc[off] == ops.WIDE:
            return handler, (slot, struct.unpack_from(">h", bc, off + 4)[0])
        return handler, (slot, _sign8(bc[off + 2]))
    if kind == ops.BRANCH:
        return handler, ops.branch_targets(bc, off)[0]
    if kind is not None:            # TABLE
        idx = ops.read_operand(bc, off, entry.size)
        if not cp.holds(pool, entry.space, idx, entry.want):
            return _unresolvable, idx
        if handler is _lazy:
            return _member_step(op, pool, idx)
        if entry.space == cp.ATABLE:    # a class, or a string's text
            item = pool.a_payload[idx]
            if op == _OP["anewarray_quick"]:
                return handler, (item.name if item.name.startswith("[")
                                 else "L%s;" % item.name)
            return handler, item
        values = pool.v_value
        if entry.want == cp.V_INT:
            return handler, ("i", i32(values[idx]))
        if entry.want == cp.V_FLOAT:
            return handler, values[idx]
        bits = (values[idx] << 32) | values[idx + 1]
        return handler, ("j", i64(bits)) if entry.want == cp.V_LONG_HI \
            else bits
    if op == _OP["bipush"]:
        return handler, ("i", _sign8(bc[off + 1]))
    if op == _OP["sipush"]:
        return handler, ("i", struct.unpack_from(">h", bc, off + 1)[0])
    if op == _OP["newarray"]:
        comp = _NEWARRAY_TYPES.get(bc[off + 1])
        if comp is None:
            return _bad_operand, "newarray type %d" % bc[off + 1]
        return handler, comp
    if op in (ops.TABLESWITCH, ops.LOOKUPSWITCH):
        return handler, ops.switch_cases(bc, off)
    return handler, _CONSTANTS.get(op)


def decoded(method, code, pool, registry):
    """The entry record of ``method``'s body against ``pool``, built once
    per pool: (pool, steps indexed by pc, locals pad, handler table,
    max_locals, max_stack), all that a call reads of the body.  The handler
    table is the exception table with each catch type its class, or None.

    An instruction's pc holds (handler, opcode, operand, size), with ``wide``
    folded into the opcode it modifies, and any other pc holds None.  A
    leader may hold the step of its path instead (``_block``): (function,
    first opcode, operand, path size).  ``_decode`` reads each
    operand and the pool entry it names once, and resolves member operands:
    resolution reads only loaded classes, whose members never change.  A
    call's step is that of its number of argument slots, its operand the
    method resolved or a quick call's dispatch slot.  Steps and pads equal
    to one in the registry's ``shared_steps`` are that one tuple, which
    keeps the decodes of a large class set small; a step holding a method,
    which does not hash, is its own.  A body with no shape yet (one
    reloaded from an image) gets it here, so a structurally bad one raises
    VerifyError before any step is built.  The code keeps its record until
    its bytecode is rewritten.
    """
    cached = code.decoded
    if cached is not None and cached[0] is pool:
        return cached
    shape = code.shape_of(method, registry.shared_shapes)
    shared = registry.shared_steps
    bc = code.bytecode
    steps = [None] * len(bc)
    starts, leaders = shape.starts, {0, *shape.targets}
    for off, end in zip(starts, starts[1:] + (len(bc),)):
        op = bc[off]
        step = _FIXED.get(op)
        if step is None:
            sub = bc[off + 1] if op == ops.WIDE else op
            handler, operand = _decode(bc, off, sub, pool, method.owner)
            step = (handler, op, operand, end - off)
            if op in _NO_OPERAND:
                _FIXED[op] = step
            elif operand.__class__ is not lc.MethodRep:
                step = shared.setdefault(step, step)
        steps[off] = step
        if step[0] not in _PASSES:
            leaders.add(end)
    for i, off in enumerate(starts):
        if off in leaders:
            leaders.add(_block(starts, i, steps, registry))
    pad = (PAD,) * code.max_locals
    handlers = tuple((start, end, handler, None if catch is None
                      else pool.a_payload[catch])
                     for start, end, handler, catch in code.exception_table)
    code.decoded = (pool, steps, shared.setdefault(pad, pad), handlers,
                    code.max_locals, code.max_stack)
    return code.decoded


def _block(starts, i, steps, registry):
    """Put the step of the leader ``starts[i]``'s path there, if templates
    write two or more of its instructions; returns the pc after the path.
    The path follows the fall-through, past leaders, to an instruction no
    template writes (left out), one that ends it, a jump back to the
    leader, or the length cap.  The shape is each step, after its offset if
    it can throw or call, then _BACK for a jump back; the operand is the
    leader's single step, then every operand."""
    start = end = starts[i]
    shape, site, n = [], [steps[start]], 0
    for off in starts[i:]:
        handler, _, operand, size = steps[off]
        spec = _TEMPLATES.get(handler)
        if spec is None:
            break
        write, takes, marks = spec
        if marks:
            shape.append(off - start)
        shape.append(handler)
        if takes:
            site.append(operand)
        n, end = n + 1, off + size
        if write.func in (_t_if, _t_goto) and operand == start:
            shape.append(_BACK)
            break
        if handler not in _PASSES or n == _PATH_CAP:
            break
    if n < 2:
        return end
    shape = tuple(shape)
    fn = _BLOCKS.get(shape)
    if fn is None:
        fn = _BLOCKS[shape] = _block_step(shape)
    step = (fn, steps[start][1], tuple(site), end - start)
    if site[-1].__class__ is not lc.MethodRep:     # a call's, if any
        step = registry.shared_steps.setdefault(step, step)
    steps[start] = step
    return end


def _block_step(shape):
    """The function of a block shape's step, from its templates."""
    g, params = _Source(), []
    g.left = n = sum(map(callable, shape))
    for item in shape:
        if item.__class__ is int:       # where the next instruction is
            g.pc = item
        elif item is not _BACK:
            write, takes, _ = _TEMPLATES[item]
            g.left -= 1
            g.back = not g.left and shape[-1] is _BACK
            if takes:
                params.append("o%d" % (len(params) + 1))
            write(g, *params[-1:] if takes else ())
    return _compile(g.block(n, params))


def execute(entry, args, world, fuel=DEFAULT_FUEL):
    """Run one method to completion: an Outcome of a typed return value, a
    thrown exception class name, or fuel exhaustion.  Only interpreter-level
    problems (unsupported opcodes, stack misuse) raise: they mean an
    out-of-subset method or a transformation bug."""
    machine = Machine(world, fuel)
    try:
        result = machine.call(entry, args)
    except _Thrown as t:
        return Outcome("throw", exception=t.cls_name)
    except _FuelOut:
        return Outcome("fuel")
    if result is None:
        return Outcome("return")
    return Outcome("return", value=normalize_slot(result))


def normalize_slot(slot):
    tag, v = slot
    if tag == "f":
        return (tag, float_bits(v))       # NaN-safe, bit-exact comparison
    if tag == "d":
        return (tag, double_bits(v))
    if isinstance(v, Str):      # by its class, whatever the tag says
        return (tag, ("str", v.text))
    if isinstance(v, Arr):
        return (tag, ("arr", v.id, v.comp))
    if isinstance(v, Obj):
        return (tag, ("obj", v.id, v.cls_name))
    return (tag, v)


def world_digest(world):
    """Canonical observable state: changed zones plus the created objects.

    Only touched zones that differ from their base after normalization are
    included, which keeps the equality of digesting every zone as long as
    both sides start from equal bases (``Pipeline.verify_all`` checks a
    reloaded image's zones against the source registry once per run).
    Interned strings compare by text and stay out of the heap part.
    """
    def norm(v):
        if isinstance(v, Str):
            return ("str", v.text)
        if isinstance(v, (Obj, Arr)):
            return ("ref", v.id)
        if isinstance(v, float):
            return ("fp", double_bits(v))
        return v

    zones = {}
    for name in sorted(world.zones):
        a, v = world.zones[name]
        a_src, v_src = world.bases[name]
        a = [norm(s) for s in a]
        if a != list(a_src) or v != list(v_src):
            zones[name] = (tuple(a), tuple(v))
    heap = []
    for item in world.heap.made:
        if isinstance(item, Arr):
            heap.append((item.id, "arr", item.comp,
                         tuple(norm(e) for e in item.elems)))
        else:
            heap.append((item.id, "obj", item.cls_name,
                         tuple(norm(s) for s in item.slots)))
    return (zones, tuple(heap))


@dataclass
class ExecContext:
    """Where and at which pipeline stage a method body should run."""
    registry: object
    stage: str
    base: str = "live"


def run_method(ctx, cls_name, method_key, vector, fuel=DEFAULT_FUEL, trace=None):
    """Execute one method in a fresh world; returns (Outcome, digest)."""
    cls = ctx.registry.get(cls_name)
    method = cls.declared_method(method_key) if cls is not None else None
    if method is None:
        raise InterpError("no method %s.%s%s" % ((cls_name,) + method_key))
    world = World(ctx.registry, ctx.stage, base=ctx.base, trace=trace)
    args = materialize_args(method, vector, world)
    outcome = execute(method, args, world, fuel)
    return outcome, world_digest(world)


def _concrete_receiver_class(owner, registry):
    """A deterministic instantiable class for testing an instance method."""
    if not (owner.access_flags & cf.ACC_ABSTRACT) and not owner.is_interface:
        return owner
    candidates = sorted(
        (c for c in registry.classes.values()
         if not c.synthetic and c.state != lc.UNLOADED
         and not (c.access_flags & cf.ACC_ABSTRACT) and not c.is_interface
         and c.is_subclass_of(owner)),
        key=lambda c: c.name)
    return candidates[0] if candidates else owner


def materialize_args(method, vector, world):
    """Turn an abstract argument vector into typed slots in this world."""
    args = []
    if not method.is_static:
        recv_cls = _concrete_receiver_class(method.owner, world.registry)
        args.append(("a", world.heap.new_object(recv_cls)))
    for item in vector:
        kind = item[0]
        if kind == "null":
            args.append(("a", None))
        elif kind == "str":
            args.append(("a", world.heap.intern(item[1])))
        elif kind in ("j", "d"):
            args += ((kind, item[1]), PAD)
        else:
            args.append((kind, item[1]))
    return args


def seeded_vectors(method, seed, count=5):
    """Deterministic argument vectors derived from the method descriptor."""
    label = "%s.%s%s" % (method.owner.name, method.name, method.descriptor)
    rng = random.Random((zlib.crc32(label.encode()) << 1) ^ seed)
    params, _ = dsc.parse_method_descriptor(method.descriptor)
    ints = {"Z": (0, 1), "B": (-128, 127), "C": (0, 255), "S": (-3000, 3000)}
    vectors = []
    for _ in range(count):
        vec = []
        for p in params:
            c = p[0]
            if c == "I":
                vec.append(("i", rng.choice([0, 1, -1, 2, 7, -13, 100,
                                             rng.randint(-9999, 9999)])))
            elif c == "J":
                vec.append(("j", rng.choice([0, 1, -1, 2**33,
                                             rng.randint(-10**12, 10**12)])))
            elif c == "F":
                vec.append(("f", f32(rng.choice([0.0, 1.0, -2.5, 3.25,
                                                 float(rng.randint(-99, 99))]))))
            elif c == "D":
                vec.append(("d", rng.choice([0.0, 1.0, -2.5,
                                             float(rng.randint(-999, 999))])))
            elif c in ints:
                vec.append(("i", rng.randint(*ints[c])))
            elif p == "Ljava/lang/String;":
                vec.append(("str", "s%d" % rng.randint(0, 9)))
            else:
                vec.append(("null",))
        vectors.append(vec)
    return vectors
