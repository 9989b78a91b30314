"""Minimal stack-machine interpreter used as a differential oracle.

It executes both the post-load dialect of a method body (member
instructions naming member handles) and the post-link one (quick forms)
against a snapshot world, so every pipeline rewrite can be checked for
semantic preservation: same outcome, same static-zone writes, same
created objects.

Each method body is decoded once per pool it runs against, the first time,
into its entry record (``decoded``): (pool, steps, locals pad, handler
table), which a call checks once.  The steps are a list indexed by pc; an
instruction's entry holds its handler, its opcode, its size and its
operand, and any other pc holds None, so dispatch is one list index per
instruction.  Decode is the one place that reads an operand (``_decode``):
a local slot, a branch target, a switch's targets, the row of its family's
table (a family of opcodes, such as the array loads or the divisions,
shares one handler), or what a pool entry names: a member, a class, a
constant, a string's text.  A member that does not resolve yet gives a
lazy step that resolves as it runs.  The handler table holds each catch
type as its class.  So no step reads the pool or the bytecode.  Decode
walks no bytecode either: it reads the body's shape, checked at load or,
for a reloaded body, at its first decode.  Zones are read and objects
made when an instruction runs, and an operand that cannot be used raises
only if its instruction runs.

Decode also splits the body into basic blocks: a leader is pc 0, one of
the shape's jump targets, or the instruction after one that is not
straight-line (a load, store, constant, iinc, pop, pop2, nop, shuffle, or
unary or binary operator).  Those families, the conditional branches, goto
and the returns are each one template that writes Python source, and a
template run alone is its instruction's step.  Where templates write two or
more of a block's instructions, its leader holds one generated step:
statements over Python temporaries, ending in an inline test and return or
in a call of the last instruction's handler once ``f.pc`` is set to it.
The step first checks that the machine has fuel for the whole block, that
no trace is set, and that the stack depth stays within [need, max_stack -
top]; if not, it runs only its first instruction, so trace lines,
fuel-outs, stack errors and ``Machine.fuel`` are those of single steps.
Each block shape is compiled once per registry (``Registry.step_shapes``).

One loop in ``Machine.call`` runs a method and every call it makes: a call
pushes the caller's frame on a list instead of recursing in Python.  An
opcode without a handler (jsr/ret, the monitors, multianewarray, and the
symbolic ldc forms and anewarray, which loading always rewrites) puts a
method outside the subset the machine runs; ``in_subset`` asks the same
table.
"""

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


class Ref:
    """Heap reference; distinguishable from primitive slot values."""
    __slots__ = ("id",)

    def __init__(self, rid):
        self.id = rid

    def __eq__(self, other):
        return isinstance(other, Ref) and other.id == self.id

    def __hash__(self):
        return hash(("ref", self.id))

    def __repr__(self):
        return "@%d" % self.id


class Obj:
    __slots__ = ("cls", "cls_name", "slots")

    def __init__(self, cls, cls_name, slots):
        self.cls = cls
        self.cls_name = cls_name
        self.slots = slots


class Arr:
    __slots__ = ("comp", "elems")

    def __init__(self, comp, elems):
        self.comp = comp
        self.elems = elems


class Str:
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class MiniHeap:
    """Objects, arrays and interned strings; ids are never reused.

    Objects and arrays count up from 1 and interned strings down from -1,
    so object ids do not depend on which strings a run happened to intern.
    """

    def __init__(self):
        self.items = {}
        self._next = 1
        self._interned = {}
        self._elements = 0

    def _add(self, item):
        rid = self._next
        self._next += 1
        self.items[rid] = item
        return Ref(rid)

    def new_object(self, cls):
        return self._add(Obj(cls, cls.name, cls.instance_defaults()))

    def new_pseudo(self, cls_name):
        return self._add(Obj(None, cls_name, []))

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
        return self._add(Arr(comp, elems))

    def intern(self, text):
        ref = self._interned.get(text)
        if ref is None:
            ref = Ref(-1 - len(self._interned))
            self.items[ref.id] = Str(text)
            self._interned[text] = ref
        return ref

    def get(self, ref):
        return self.items[ref.id]


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
    """What an invoke handler returns: (method, argument slots) to run."""
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
    for off in starts:
        op = bc[off]
        if _HANDLERS[bc[off + 1] if op == ops.WIDE else op] is _unsupported:
            return False
    return True


class Frame:
    """One activation: a method's decoded steps and handler table (its
    entry record's), locals and stack.  ``pc`` is the instruction being
    run, or in a caller the invoke waiting for its call to return.
    """
    __slots__ = ("method", "steps", "handlers", "max_stack", "locals",
                 "stack", "pc")

    def __init__(self, method, entry, max_stack, local_slots):
        self.method = method
        self.steps, self.handlers = entry[1], entry[3]
        self.max_stack = max_stack
        self.locals = local_slots
        self.stack = []
        self.pc = 0

    def where(self):
        return "%s at %d" % (self.method, self.pc)

    def push(self, slot):
        self.stack.append(slot)
        if len(self.stack) > self.max_stack:
            raise StackOverflow(self.where())

    def push_value(self, slot):
        """Push a typed value; a long or double takes a padding slot too."""
        self.push(slot)
        if slot[0] in "jd":
            self.push(PAD)

    def pop(self):
        if not self.stack:
            raise StackUnderflow(self.where())
        return self.stack.pop()

    def pop_value(self, kind):
        """Pop a value of this slot tag; a long or double drops its padding."""
        if kind in "jd":
            self.pop()
        return self.pop()

    def pop_args(self, n):
        s = self.stack
        base = len(s) - n
        if base < 0:
            raise StackUnderflow(self.where())
        args = s[base:]
        del s[base:]
        return args


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
        item = self.world.heap.get(ref)
        if isinstance(item, Str):
            return self.world.registry.get("java/lang/String"), "java/lang/String"
        if isinstance(item, Arr):
            name = "[" + item.comp
            return self.world.registry.new_unloaded(name), name
        return item.cls, item.cls_name

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

    def dispatch_table(self, cls):
        if cls.synthetic and not cls.dispatch_table and cls.super_cls is not None:
            return cls.super_cls.dispatch_table
        return cls.dispatch_table

    def zone_read(self, owner_cls, zone, offset, tc):
        owner, local = owner_cls.static_slot(zone, offset)
        az, vz = self.world.zone(owner)
        kind = _kind_of(tc)
        if kind == "a":
            return ("a", az[local])
        if kind == "f":
            return ("f", bits_float(vz[local]))
        if kind == "i":
            return ("i", i32(vz[local]))
        bits = (vz[local] << 32) | vz[local + 1]
        return (kind, i64(bits) if kind == "j" else bits_double(bits))

    def zone_write(self, owner_cls, zone, offset, tc, slot):
        owner, local = owner_cls.static_slot(zone, offset)
        az, vz = self.world.zone(owner)
        kind, v = _kind_of(tc), slot[1]
        if kind == "a":
            az[local] = v
        elif kind == "f":
            vz[local] = float_bits(v)
        elif kind == "i":
            vz[local] = u32(_FIELD_NARROW.get(tc, _same)(v))
        else:
            bits = v & M64 if kind == "j" else double_bits(v)
            vz[local], vz[local + 1] = bits >> 32, bits & M32

    def object_at(self, ref):
        if ref is None:
            self.throw_named("java/lang/NullPointerException")
        return self.world.heap.get(ref)

    def element_of(self, aref, index):
        """The array and a checked index into it."""
        arr = self.object_at(aref)
        if not 0 <= index < len(arr.elems):
            self.throw_named("java/lang/ArrayIndexOutOfBoundsException")
        return arr

    # --- invocation ---

    def call(self, method, args):
        """Run a method and the calls it makes; returns the (tag, value)
        result or None for void.  A call pushes the caller on a list rather
        than recursing, so Python's stack stays flat however deep calls go.
        """
        trace = self.trace
        callers = []        # frames waiting for a call to return, innermost last
        f = self._frame(method, args, 0)
        steps, pc = f.steps, 0
        while True:
            try:
                handler, op, operand, size = steps[pc]
            except IndexError:      # the shape puts every jump on a step
                raise InterpError("%s: fell off the end of the code"
                                  % (f.method,)) from None
            if self.fuel <= 0:
                raise _FuelOut()
            self.fuel -= 1
            if trace is not None:
                trace("%5d %-20s depth=%d" % (pc, ops.mnemonic(op), len(f.stack)))
            f.pc = pc
            try:
                result = handler(self, f, operand)
                if result is None:
                    pc += size
                    continue
                if result.__class__ is _Call:
                    callee = self._frame(*result, len(callers) + 1)
                    callers.append(f)
                    f, steps, pc = callee, callee.steps, 0
                    continue
            except _Thrown as t:
                while (target := self._find_handler(f, t)) is None:
                    if not callers:
                        raise
                    f = callers.pop()
                f.stack[:] = [("a", t.ref)]
                steps, pc = f.steps, target
                continue
            if result.__class__ is int:
                pc = result
                continue
            value = result[0]
            if not callers:
                return value
            f = callers.pop()           # back to the invoke that made the call
            steps, pc = f.steps, f.pc
            pc += steps[pc][3]
            if value is not None:
                s = f.stack
                s += (value, PAD) if value[0] in "jd" else (value,)
                if len(s) > f.max_stack:
                    raise StackOverflow(f.where())

    def _frame(self, method, args, depth):
        """A new activation of ``method`` under ``depth`` active ones: one
        check of its body's entry record (``decoded``), and its locals as
        the argument slots and the record's pad past them."""
        world = self.world
        code = method.code_at(world.stage)
        if code is None:
            raise InterpError("no bytecode for %s" % (method,))
        if depth >= MAX_CALL_DEPTH:
            self.throw_named("java/lang/StackOverflowError")
        pool = method.owner.pool_at(world.stage)
        n = len(args)
        if n > code.max_locals:
            raise InterpError("%s: %d argument slots > max_locals %d"
                              % (method, n, code.max_locals))
        entry = code.decoded
        if entry is None or entry[0] is not pool:
            entry = decoded(method, code, pool, world.registry)
        return Frame(method, entry, code.max_stack, [*args, *entry[2][n:]])

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


# --- instruction handlers ---------------------------------------------------
# handler(machine, frame, operand) runs one instruction; decode read its
# operand.  It returns None to go on at the next instruction, a pc to branch
# to, a _Call to make, or a 1-tuple holding the method's result (None for a
# void return).  A family of opcodes shares one handler, and its operand is
# the row, keyed by opcode, of what sets the members apart.  The handlers of
# the straight-line families and of the jumps are generated from templates
# (see "generated steps" below), so their tables hold source text.

def _by_opcode(table):
    return {_OP[name]: value for name, value in table.items()}


def _u16(v):
    return v & 0xFFFF


_IALOAD, _IASTORE = _OP["iaload"], _OP["iastore"]

# op -> the slot pushed; a long or double pushes PAD after it
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


def _ldc_string(m, f, text):
    f.push(("a", m.world.heap.intern(text)))


_ARRAY_KINDS = "ijfdabcs"   # element kinds of xaload and xastore, in order
_NARROW = {"b": _sign8, "c": _u16, "s": _sign16, "f": f32}


def _array_load(m, f, kind):
    index = f.pop()[1]
    arr = m.element_of(f.pop()[1], index)
    f.push_value(("i" if kind in "bcs" else kind, arr.elems[index]))


def _array_store(m, f, kind):
    value = f.pop_value(kind)[1]
    index = f.pop()[1]
    arr = m.element_of(f.pop()[1], index)
    arr.elems[index] = _NARROW.get(kind, _same)(value)


def _arraylength(m, f, _):
    f.push(("i", len(m.object_at(f.pop()[1]).elems)))


# (slots copied, depth below the top they are inserted at)
_DUPS = _by_opcode({"dup": (1, 1), "dup_x1": (1, 2), "dup_x2": (1, 3),
         "dup2": (2, 2), "dup2_x1": (2, 3), "dup2_x2": (2, 4)})


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


def _same(v):
    return v


# op -> (operand kind, or the kinds of {a} and {b}, result kind, the
# result's source in the values {a} and {b})
_BINARY = _by_opcode({
    "iadd": ("i", "i", "i32({a} + {b})"),
    "isub": ("i", "i", "i32({a} - {b})"),
    "imul": ("i", "i", "i32({a} * {b})"),
    "ishl": ("i", "i", "i32({a} << ({b} & 31))"),
    "ishr": ("i", "i", "{a} >> ({b} & 31)"),
    "iushr": ("i", "i", "i32(u32({a}) >> ({b} & 31))"),
    "iand": ("i", "i", "i32(u32({a}) & u32({b}))"),
    "ior": ("i", "i", "i32(u32({a}) | u32({b}))"),
    "ixor": ("i", "i", "i32(u32({a}) ^ u32({b}))"),
    "ladd": ("j", "j", "i64({a} + {b})"),
    "lsub": ("j", "j", "i64({a} - {b})"),
    "lmul": ("j", "j", "i64({a} * {b})"),
    "land": ("j", "j", "i64(({a} & M64) & ({b} & M64))"),
    "lor": ("j", "j", "i64(({a} & M64) | ({b} & M64))"),
    "lxor": ("j", "j", "i64(({a} & M64) ^ ({b} & M64))"),
    "lshl": ("ji", "j", "i64({a} << ({b} & 63))"),
    "lshr": ("ji", "j", "{a} >> ({b} & 63)"),
    "lushr": ("ji", "j", "i64(({a} & M64) >> ({b} & 63))"),
    "fadd": ("f", "f", "f32({a} + {b})"),
    "fsub": ("f", "f", "f32({a} - {b})"),
    "fmul": ("f", "f", "f32({a} * {b})"),
    "fdiv": ("f", "f", "f32(_fdiv({a}, {b}))"),
    "frem": ("f", "f", "f32(_frem({a}, {b}))"),
    "dadd": ("d", "d", "{a} + {b}"),
    "dsub": ("d", "d", "{a} - {b}"),
    "dmul": ("d", "d", "{a} * {b}"),
    "ddiv": ("d", "d", "_fdiv({a}, {b})"),
    "drem": ("d", "d", "_frem({a}, {b})"),
    "lcmp": ("j", "i", "_compare({a}, {b})"),
    "fcmpl": ("f", "i", "_fcompare({a}, {b}, -1)"),
    "fcmpg": ("f", "i", "_fcompare({a}, {b}, 1)"),
    "dcmpl": ("d", "i", "_fcompare({a}, {b}, -1)"),
    "dcmpg": ("d", "i", "_fcompare({a}, {b}, 1)"),
})

# op -> (operand kind, result kind, the result's source in the value {v})
_UNARY = _by_opcode({
    "ineg": ("i", "i", "i32(-{v})"),
    "lneg": ("j", "j", "i64(-{v})"),
    "fneg": ("f", "f", "f32(-{v})"),
    "dneg": ("d", "d", "-{v}"),
    "i2l": ("i", "j", "{v}"),
    "i2f": ("i", "f", "f32(float({v}))"),
    "i2d": ("i", "d", "float({v})"),
    "l2i": ("j", "i", "i32({v})"),
    "l2f": ("j", "f", "l2f({v})"),
    "l2d": ("j", "d", "float({v})"),
    "f2i": ("f", "i", "_to_int({v}, 31)"),
    "f2l": ("f", "j", "_to_int({v}, 63)"),
    "f2d": ("f", "d", "{v}"),
    "d2i": ("d", "i", "_to_int({v}, 31)"),
    "d2l": ("d", "j", "_to_int({v}, 63)"),
    "d2f": ("d", "f", "f32({v})"),
    "i2b": ("i", "i", "_sign8({v})"),
    "i2c": ("i", "i", "_u16({v})"),
    "i2s": ("i", "i", "_sign16({v})"),
})

# op -> (operand kind, wrap to width, remainder instead of quotient)
_DIVIDES = _by_opcode({"idiv": ("i", i32, False), "irem": ("i", i32, True),
            "ldiv": ("j", i64, False), "lrem": ("j", i64, True)})

def _divide(m, f, row):
    kind, wrap, remainder = row
    b = f.pop_value(kind)[1]
    a = f.pop_value(kind)[1]
    if b == 0:
        m.throw_named("java/lang/ArithmeticException")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    f.push_value((kind, wrap(a - q * b if remainder else q)))


# op -> (comparison, the source of what the popped value is compared with,
# or None for a second popped value, the one above it)
_IF = _by_opcode({
    "ifeq": ("==", "0"), "ifne": ("!=", "0"), "iflt": ("<", "0"),
    "ifge": (">=", "0"), "ifgt": (">", "0"), "ifle": ("<=", "0"),
    "if_icmpeq": ("==", None), "if_icmpne": ("!=", None),
    "if_icmplt": ("<", None), "if_icmpge": (">=", None),
    "if_icmpgt": (">", None), "if_icmple": ("<=", None),
    "if_acmpeq": ("==", None), "if_acmpne": ("!=", None),
    "ifnull": ("is", "None"), "ifnonnull": ("is not", "None"),
})


def _switch(m, f, cases):        # (default, ((key, target), ...))
    key = f.pop()[1]
    return next((pc for match, pc in cases[1] if match == key), cases[0])


# op -> the kind of the value returned, or None for a void return
_RETURNS = _by_opcode({"ireturn": "i", "lreturn": "j", "freturn": "f",
                       "dreturn": "d", "areturn": "a", "return": None})


_TYPE_KIND = {dsc.TC_REF: "a", dsc.TC_FLOAT: "f", dsc.TC_LONG: "j",
              dsc.TC_DOUBLE: "d"}
_FIELD_NARROW = {dsc.TC_BYTE: _sign8, dsc.TC_CHAR: _u16, dsc.TC_SHORT: _sign16}


def _kind_of(type_code):
    """Slot tag of a field type code."""
    return _TYPE_KIND.get(type_code, "i")


# The quick bodies of the member instructions: each holds what decode read
# from the resolved member (``_member_step``), or from a quick form's operand.

def _getstatic(m, f, operand):
    f.push_value(m.zone_read(*operand))


def _putstatic(m, f, operand):
    m.zone_write(*operand, f.pop_value(_kind_of(operand[3])))


def _getfield(m, f, operand):
    offset, kind, _ = operand
    s = f.stack
    if not s:
        raise StackUnderflow(f.where())
    ref = s.pop()[1]
    if ref is None:
        m.throw_named("java/lang/NullPointerException")
    s.append((kind, m.world.heap.get(ref).slots[offset]))
    if kind in "jd":
        f.push(PAD)


def _putfield(m, f, operand):
    offset, kind, narrow = operand
    s = f.stack
    wide = kind in "jd"
    if len(s) < 2 + wide:
        raise StackUnderflow(f.where())
    if wide:
        s.pop()
    v = s.pop()[1]
    ref = s.pop()[1]
    if ref is None:
        m.throw_named("java/lang/NullPointerException")
    slots = m.world.heap.get(ref).slots
    slots[offset] = v if narrow is None else narrow(v)
    if wide:
        slots[offset + 1] = None


def _invokestatic(m, f, target):
    return _Call((target, f.pop_args(target.nargs)))


def _invokespecial(m, f, target):
    args = f.pop_args(target.nargs)
    if args[0][1] is None:
        m.throw_named("java/lang/NullPointerException")
    return _Call((target, args))


def _invoke_virtual(m, f, target):
    """invokevirtual and invokeinterface: the receiver's class's method of
    the resolved method's name and descriptor."""
    args = f.pop_args(target.nargs)
    recv = args[0][1]
    if recv is None:
        m.throw_named("java/lang/NullPointerException")
    rc, rc_name = m.class_of_ref(recv)
    if rc is None or rc.state == lc.UNLOADED:
        raise InterpError("receiver class %s not loaded" % rc_name)
    found = rc.find_method(target.name, target.descriptor)
    if found is None:
        raise InterpError("no %s%s on %s"
                          % (target.name, target.descriptor, rc_name))
    return _Call((found, args))


_QUICK = _by_opcode({
    "getstatic": _getstatic, "putstatic": _putstatic,
    "getfield": _getfield, "putfield": _putfield,
    "invokestatic": _invokestatic, "invokespecial": _invokespecial,
    "invokevirtual": _invoke_virtual, "invokeinterface": _invoke_virtual})
_HOLDS_METHOD = {_invokestatic, _invokespecial, _invoke_virtual}
_STATICS = {_OP[name] for name in ("getstatic", "putstatic", "getstatic_quick",
                                   "putstatic_quick")}
_INSTANCE_INVOKES = {_OP[name] for name in ("invokevirtual", "invokespecial",
                                            "invokeinterface")}


def _field_operand(op, owner, zone, offset, tc):
    """The operand of the body of field instruction ``op``."""
    if op in _STATICS:
        return owner, zone, offset, tc
    return offset, _kind_of(tc), _FIELD_NARROW.get(tc)


def _member_step(op, pool, aidx):
    """(handler, operand) of member instruction ``op``: its quick body if
    the member handle ``aidx`` of ``pool`` resolves now to a member it can
    use, else the lazy step."""
    found = _resolve(pool, aidx)
    if found is None or (op in _INSTANCE_INVOKES and found.is_static):
        return _lazy, (op, pool, aidx)
    if _QUICK[op] in _HOLDS_METHOD:
        return _QUICK[op], found
    return _QUICK[op], _field_operand(op, found.owner, found.zone,
                                      found.offset, found.type_code)


def _lazy(m, f, operand):
    """A member instruction whose operand did not resolve at decode: each
    run resolves it again and runs the quick body, or raises as the
    operand is unusable."""
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


def _new(m, f, cls):
    if cls.state == lc.UNLOADED:
        raise InterpError("new of unloaded class %s" % cls.name)
    f.push(("a", m.world.heap.new_object(cls)))


_NEWARRAY_TYPES = {4: "Z", 5: "C", 6: "F", 7: "D", 8: "B", 9: "S", 10: "I",
                   11: "J"}


def _newarray(m, f, comp):      # and anewarray_quick: comp is a descriptor
    length = f.pop()[1]
    if length < 0:
        m.throw_named("java/lang/NegativeArraySizeException")
    f.push(("a", m.world.heap.new_array(comp, length)))


def _bad_newarray(m, f, atype):
    raise InterpError("bad newarray type %d" % atype)


def _invoke_quick(m, f, operand):
    nargs, slot = operand
    args = f.pop_args(nargs)
    recv = args[0][1]
    if recv is None:
        m.throw_named("java/lang/NullPointerException")
    rc, rc_name = m.class_of_ref(recv)
    if rc is None:
        raise InterpError("receiver class %s not loaded" % rc_name)
    table = m.dispatch_table(rc)
    if slot >= len(table):
        raise InterpError("dispatch slot %d out of range on %s"
                          % (slot, rc_name))
    return _Call((table[slot], args))


def _checkcast(m, f, cls):
    slot = f.pop()
    if slot[1] is not None and not m.is_instance(slot[1], cls):
        m.throw_named("java/lang/ClassCastException")
    f.push(slot)


def _instanceof(m, f, cls):
    ref = f.pop()[1]
    f.push(("i", int(ref is not None and m.is_instance(ref, cls))))


def _athrow(m, f, _):
    ref = f.pop()[1]
    if ref is None:
        m.throw_named("java/lang/NullPointerException")
    cls, name = m.class_of_ref(ref)
    raise _Thrown(ref, cls, name)


# --- generated steps --------------------------------------------------------
# A template writes the Python source of one instruction on a _Source.  Run
# on its own, it gives that instruction's single step; run one after
# another over a basic block, templates give the block's step (``_block``).

class _Source:
    """The source of one generated step, as its templates write it: a
    symbolic stack of slot sources (operand parts, PAD, locals, temporaries,
    and s[-k] for the k-th slot below the depth the step started at), which
    the step writes back to the frame's stack once, at its end."""

    def __init__(self):
        self.lines, self.stack = [], []
        self.below = 0          # slots read from below the entry depth
        self.top = -1           # highest depth a push reaches, or -1
        self.ended = None       # where the end of the step starts

    def pop(self):
        if self.stack:
            return self.stack.pop()
        self.below += 1
        return "s[-%d]" % self.below

    def push(self, slot):
        self.stack.append(slot)
        self.top = max(self.top, len(self.stack) - self.below)

    def temp(self, source):
        name = "t%d" % len(self.lines)
        self.lines.append("%s = %s" % (name, source))
        return name

    def store(self, slot, source):
        """Write a local, first reading any load of one still on the stack,
        since the two may be the same."""
        self.stack = [self.temp(s) if s[0] == "L" else s for s in self.stack]
        self.lines.append("L[%s] = %s" % (slot, source))

    def end(self, *ending, test=None, write=True):
        """End the step with the lines ``ending``, run only if ``test`` is
        true, after writing the stack back unless the frame ends with them."""
        if test is not None:
            ending = ["if %s:" % self.temp(test)] + ["    " + ln
                                                    for ln in ending]
        self.ended = len(self.lines)
        listed = "(%s)" % "".join(slot + ", " for slot in self.stack)
        if write and self.below:
            self.lines.append("s[-%d:] = %s" % (self.below, listed))
        elif write and self.stack:
            self.lines.append("s += " + listed)
        self.lines += ending

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
        trace, and the stack in bounds throughout, it runs them all; if
        not, it runs only the first, by its single step."""
        if self.ended is None:
            self.end()
        return ["s, L = f.stack, f.locals",
                "if m.trace is not None or m.fuel < %d or not %d <= len(s) "
                "<= f.max_stack - %d:" % (n - 1, self.below, self.top),
                "    return _first_step(m, f, o[0])",
                "m.fuel -= %d" % (n - 1),
                "_, %s = o" % "".join(p + ", " for p in params)] + self.lines


def _first_step(m, f, step):
    """Run a block's first instruction alone; returns the pc after it."""
    step[0](m, f, step[2])
    return f.pc + step[3]


def _compile(body):
    scope = {}
    source = "\n".join(["def step(m, f, o):"] + ["    " + ln for ln in body])
    exec(compile(source, "<generated step>", "exec"), globals(), scope)
    return scope["step"]


# template(row..., g, operand): it writes on the _Source g, and gets the
# instruction's operand, if it takes one, as Python source

def _t_push(width, form, g, part):
    g.push(form % part)
    if width == 2:
        g.push("PAD")


def _t_store(width, g, slot):
    if width == 2:
        g.pop()
    g.store(slot, g.pop())
    if width == 2:
        g.store(slot + " + 1", "PAD")


def _t_iinc(g, operand):         # (slot, delta)
    g.store(operand + "[0]",
            "('i', i32(L[%s[0]][1] + %s[1]))" % (operand, operand))


def _t_pop(count, g):
    for _ in range(count):
        g.pop()


def _t_dup(count, depth, g):
    slots = [g.pop() for _ in range(depth)][::-1]
    for slot in slots[-count:] + slots:
        g.push(slot)


def _t_swap(g):
    top, under = g.pop(), g.pop()
    g.push(top)
    g.push(under)


def _value(g, kind):
    """Pop a value of this slot tag; the source of its Python value."""
    if kind in "jd":
        g.pop()
    return g.pop() + "[1]"


def _t_unary(kind, result, source, g):
    g.push(g.temp("(%r, %s)" % (result, source.format(v=_value(g, kind)))))
    if result in "jd":
        g.push("PAD")


def _t_binary(kind, result, source, g):
    b, a = _value(g, kind[-1]), _value(g, kind[0])
    g.push(g.temp("(%r, %s)" % (result, source.format(a=a, b=b))))
    if result in "jd":
        g.push("PAD")


def _t_if(test, other, g, target):
    other = other or g.pop() + "[1]"
    g.end("return " + target, test="%s[1] %s %s" % (g.pop(), test, other))


def _t_goto(g, target):
    g.end("return " + target)


def _t_return(kind, g):
    g.end("return (%s,)" % ("None" if kind is None else
                            "(%r, %s)" % (kind, _value(g, kind))),
          write=False)


_TEMPLATES = {}     # generated step -> (template, whether it takes an operand)
_STRAIGHT = set()   # the generated steps of straight-line instructions


def _generated(template, operand=False):
    """The single step of a template."""
    g = _Source()
    template(g, *(["o"] if operand else []))
    straight = g.ended is None
    step = _compile(g.single())
    _TEMPLATES[step] = (template, operand)
    if straight:
        _STRAIGHT.add(step)
    return step


def _handler_table():
    """opcode -> handler, and opcode -> the row of its family's table."""
    table = [_unsupported] * 256
    const = {w: _generated(partial(_t_push, w, "%s"), True) for w in (1, 2)}
    named = (
        (_generated(partial(_t_pop, 0)), "nop"),
        (_generated(partial(_t_pop, 1)), "pop"),
        (_generated(partial(_t_pop, 2)), "pop2"),
        (_generated(_t_swap), "swap"),
        (const[1], "bipush sipush ldc_quick_i ldc_quick_i_w"),
        (const[2], "ldc2_quick_l"),
        # a float or double constant is held as its bits, which, unlike
        # the value (-0.0 == 0.0), tell apart steps that must not be shared
        (_generated(partial(_t_push, 1, "('f', bits_float(%s))"), True),
         "ldc_quick_f ldc_quick_f_w"),
        (_generated(partial(_t_push, 2, "('d', bits_double(%s))"), True),
         "ldc2_quick_d"),
        (_ldc_string, "ldc_quick_a ldc_quick_a_w"),
        (_generated(_t_iinc, True), "iinc"),
        (_generated(_t_goto, True), "goto goto_w"),
        (_arraylength, "arraylength"), (_switch, "tableswitch lookupswitch"),
        (_getstatic, "getstatic_quick"), (_putstatic, "putstatic_quick"),
        (_getfield, "getfield_quick"), (_putfield, "putfield_quick"),
        (_lazy, "getstatic putstatic getfield putfield invokevirtual "
                "invokespecial invokestatic invokeinterface"),
        (_new, "new"), (_newarray, "newarray anewarray_quick"),
        (_invoke_quick, "invokevirtual_quick"),
        (_checkcast, "checkcast"), (_instanceof, "instanceof"),
        (_athrow, "athrow"),
    )
    for handler, names in named:
        for name in names.split():
            table[_OP[name]] = handler
    for template, family, operand in ((_t_binary, _BINARY, False),
                                      (_t_unary, _UNARY, False),
                                      (_t_dup, _DUPS, False),
                                      (_t_if, _IF, True)):
        for op, row in family.items():
            table[op] = _generated(partial(template, *row), operand)
    for op, kind in _RETURNS.items():
        table[op] = _generated(partial(_t_return, kind))
    rows = dict(_CONSTANTS)
    for op, slot in _CONSTANTS.items():
        table[op] = const[2 if slot[0] in "jd" else 1]
    for handler, family in (
            (_divide, _DIVIDES),
            (_array_load, {_IALOAD + k: kind
                           for k, kind in enumerate(_ARRAY_KINDS)}),
            (_array_store, {_IASTORE + k: kind
                            for k, kind in enumerate(_ARRAY_KINDS)})):
        for op, row in family.items():
            table[op] = handler
            rows[op] = row
    local = {}      # (load, width) -> step
    for op, entry in ops.OPERANDS.items():
        if entry.kind == ops.LOCAL and op not in (_OP["ret"], _OP["iinc"]):
            key = ("load" in ops.NAME[op], entry.want)
            if key not in local:
                local[key] = _generated(
                    partial(_t_push, entry.want, "L[%s]") if key[0]
                    else partial(_t_store, entry.want), True)
            table[op] = local[key]
    table[ops.WIDE] = None      # decode folds it into the opcode it modifies
    return table, rows


_HANDLERS, _ROWS = _handler_table()
# op -> its step, for the one-byte opcodes whose step the opcode alone fixes
_FIXED = {op: (_HANDLERS[op], op,
               op if _HANDLERS[op] is _unsupported else _ROWS.get(op), 1)
          for op, nbytes in ops.OPERAND_BYTES.items()
          if nbytes == 0 and op not in ops.OPERANDS}


# --- decode -----------------------------------------------------------------

def _decode(bc, off, op, pool, owner):
    """(handler, operand) of the instruction ``op`` at ``off``, in a method
    of ``owner``: its operand read, mostly through the ``opcodes.OPERANDS``
    table, with the pool entry it names read too.  A table index that does
    not name an entry of the kind the operand wants, or a bad newarray
    type, gives a step that raises when it runs."""
    handler = _HANDLERS[op]
    if handler is _unsupported:
        return handler, op
    entry = ops.OPERANDS.get(op)
    kind = entry.kind if entry is not None else None
    if kind == ops.LOCAL:
        slot = ops.local_slot(bc, off)[0]
        if op != _OP["iinc"]:
            return handler, slot
        if bc[off] == ops.WIDE:
            return handler, (slot, struct.unpack_from(">h", bc, off + 4)[0])
        return handler, (slot, _sign8(bc[off + 2]))
    if kind == ops.BRANCH:
        return handler, ops.branch_targets(bc, off)[0]
    if kind == ops.IMMEDIATE:
        offset, tc = ops.field_immediate(bc, off)
        return handler, _field_operand(op, owner, "a" if tc == dsc.TC_REF
                                       else "v", offset, tc)
    if kind == ops.NARGS_SLOT:
        return handler, (bc[off + 1], bc[off + 2])
    if kind is not None:            # TABLE
        idx = ops.read_operand(bc, off, entry.size)
        if not cp.holds(pool, entry.space, idx, entry.want):
            return _unresolvable, idx
        if handler is _lazy:
            return _member_step(op, pool, idx)
        if entry.space == cp.ATABLE:    # a class, or a string's text
            item = pool.a_payload[idx]
            if handler is _newarray:
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
            return _bad_newarray, bc[off + 1]
        return handler, comp
    return handler, ops.switch_cases(bc, off)


def decoded(method, code, pool, registry):
    """The entry record of ``method``'s body against ``pool``, built once
    per pool: (pool, steps indexed by pc, locals pad, handler table).  A
    call checks the pool and makes its locals from the argument slots and
    the pad past them; the handler table is the exception table with each
    catch type the class it names, or None.

    An instruction's pc holds (handler, opcode, operand, size), with ``wide``
    folded into the opcode it modifies, and any other pc holds None.  The
    leader of a basic block may hold the block's step instead (``_block``):
    (function, first opcode, operand, block size).  ``_decode`` reads each
    operand and the pool entry it names once, and resolves member operands:
    resolution reads only loaded classes, whose members never change.
    Steps and pads equal to one in the registry's ``shared_steps`` are that
    one tuple, which keeps the decodes of a large class set small; a step
    holding a method, which does not hash, is its own.  A body with no
    shape yet (one reloaded from an image) gets it here, so a structurally
    bad one raises VerifyError before any step is built.  The code keeps
    its record until its bytecode is rewritten.
    """
    cached = code.decoded
    if cached is not None and cached[0] is pool:
        return cached
    shape = code.shape_of(method, registry.shared_shapes)
    shared = registry.shared_steps
    bc = code.bytecode
    steps = [None] * len(bc)
    starts, leaders = shape.starts, set(shape.targets)
    for off, end in zip(starts, starts[1:] + (len(bc),)):
        op = bc[off]
        step = _FIXED.get(op)
        if step is None:
            sub = bc[off + 1] if op == ops.WIDE else op
            handler, operand = _decode(bc, off, sub, pool, method.owner)
            step = (handler, op, operand, end - off)
            if handler not in _HOLDS_METHOD:
                step = shared.setdefault(step, step)
        steps[off] = step
        if step[0] not in _STRAIGHT:
            leaders.add(end)
    run = []            # the basic block so far
    for off in starts:
        if off in leaders and run:
            _block(run, steps, registry)
            run = []
        run.append(off)
    _block(run, steps, registry)
    pad = (PAD,) * code.max_locals
    handlers = tuple((start, end, handler, None if catch is None
                      else pool.a_payload[catch])
                     for start, end, handler, catch in code.exception_table)
    code.decoded = (pool, steps, shared.setdefault(pad, pad), handlers)
    return code.decoded


def _block(run, steps, registry):
    """Put a basic block's step at its leader, where templates write two or
    more of its instructions (one and a call save a dispatch, less than the
    step costs to form where methods run a few times each).  The shape is
    each handler, but for a last one run by its handler, its pc in the
    block.  The operand is the first instruction's single step, then every
    operand, and that handler, in order."""
    if len(run) - (steps[run[-1]][0] not in _TEMPLATES) < 2:
        return
    start = run[0]
    shape, site = [], [steps[start]]
    for off in run:
        handler, _, operand, _ = steps[off]
        spec = _TEMPLATES.get(handler)
        if spec is None:
            shape.append(off - start)
            site += (handler, operand)
        else:
            shape.append(handler)
            if spec[1]:
                site.append(operand)
    shape = tuple(shape)
    fn = registry.step_shapes.get(shape)
    if fn is None:
        fn = registry.step_shapes[shape] = _block_step(shape)
    step = (fn, steps[start][1], tuple(site),
            run[-1] + steps[run[-1]][3] - start)
    if steps[run[-1]][0] not in _HOLDS_METHOD:
        step = registry.shared_steps.setdefault(step, step)
    steps[start] = step


def _block_step(shape):
    """The function of a block shape's step, from its templates."""
    g, params = _Source(), []

    def param():
        params.append("o%d" % (len(params) + 1))
        return params[-1]
    for item in shape:
        if item.__class__ is int:       # the last, run by its handler
            g.end("f.pc += %d" % item,
                  "return %s(m, f, %s)" % (param(), param()))
        else:
            template, operand = _TEMPLATES[item]
            template(g, *([param()] if operand else []))
    return _compile(g.block(len(shape), params))


def execute(entry, args, world, fuel=DEFAULT_FUEL):
    """Run one method to completion; never raises for in-language faults.

    Returns an Outcome: a typed return value, a thrown exception class
    name, or fuel exhaustion.  Interpreter-level problems (unsupported
    opcodes, stack misuse) still raise, since they indicate either an
    out-of-subset method or a transformation bug.
    """
    machine = Machine(world, fuel)
    try:
        result = machine.call(entry, args)
    except _Thrown as t:
        return Outcome("throw", exception=t.cls_name)
    except _FuelOut:
        return Outcome("fuel")
    if result is None:
        return Outcome("return")
    return Outcome("return", value=normalize_slot(result, world.heap))


def normalize_slot(slot, heap):
    tag, v = slot
    if tag == "f":
        return (tag, float_bits(v))       # NaN-safe, bit-exact comparison
    if tag == "d":
        return (tag, double_bits(v))
    if tag != "a" or v is None:
        return (tag, v)
    item = heap.get(v)
    if isinstance(item, Str):
        return ("a", ("str", item.text))
    if isinstance(item, Arr):
        return ("a", ("arr", v.id, item.comp))
    return ("a", ("obj", v.id, item.cls_name))


def world_digest(world):
    """Canonical observable state: changed zones plus the created objects.

    Only touched zones that differ from their base after normalization are
    included, which keeps the equality of digesting every zone as long as
    both sides start from equal bases (``Pipeline.verify_all`` checks a
    reloaded image's zones against the source registry once per run).
    Interned strings compare by text and stay out of the heap part.
    """
    def norm(v):
        if isinstance(v, Ref):
            item = world.heap.get(v)
            if isinstance(item, Str):
                return ("str", item.text)
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
    for rid in sorted(world.heap.items):
        item = world.heap.items[rid]
        if isinstance(item, Arr):
            heap.append((rid, "arr", item.comp,
                         tuple(norm(e) for e in item.elems)))
        elif isinstance(item, Obj):
            heap.append((rid, "obj", item.cls_name,
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
            args.append((kind, item[1]))
            args.append(PAD)
        else:
            args.append((kind, item[1]))
    return args


def seeded_vectors(method, seed, count=5):
    """Deterministic argument vectors derived from the method descriptor."""
    label = "%s.%s%s" % (method.owner.name, method.name, method.descriptor)
    rng = random.Random((zlib.crc32(label.encode()) << 1) ^ seed)
    params, _ = dsc.parse_method_descriptor(method.descriptor)
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
            elif c == "Z":
                vec.append(("i", rng.randint(0, 1)))
            elif c == "B":
                vec.append(("i", rng.randint(-128, 127)))
            elif c == "C":
                vec.append(("i", rng.randint(0, 255)))
            elif c == "S":
                vec.append(("i", rng.randint(-3000, 3000)))
            elif p == "Ljava/lang/String;":
                vec.append(("str", "s%d" % rng.randint(0, 9)))
            else:
                vec.append(("null",))
        vectors.append(vec)
    return vectors
