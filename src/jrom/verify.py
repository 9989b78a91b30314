"""Minimal stack-machine interpreter used as a differential oracle.

It executes both the post-load dialect of a method body (symbolic member
references) and the post-link one (quick forms) against a snapshot world,
so every pipeline rewrite can be checked for semantic preservation: same
outcome, same static-zone writes, same created objects.

Each method body is decoded once per stage view, the first time it runs,
into a list indexed by pc (``decoded``).  An instruction's entry holds its
handler, its opcode, its size and its operand already read: a local slot, a
constant, a branch target, a pool operand placed into its table, or the row
of its family's table (a family of opcodes, such as the int operators or
the conditional branches, shares one handler).  Any other pc holds None, so
dispatch is one list index per instruction.  Decode reads only what the
bytecode and the stage's pool layout fix: members are resolved, zones read
and objects made when an instruction runs, and an operand that cannot be
used raises only if its instruction runs.  One loop in ``Machine.call``
runs a method and every call it makes: a call pushes the caller's frame on
a list instead of recursing in Python.  An opcode without a handler
(jsr/ret, the monitors, multianewarray, and the symbolic ldc forms and
anewarray, which loading always rewrites) puts a method outside the subset
the machine runs; ``in_subset`` asks the same table.
"""

import math
import operator
import random
import struct
import zlib
from dataclasses import dataclass

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
    """True when every opcode of a method body has a handler."""
    if code is None:
        return False
    bc = code.bytecode
    try:
        for off, op, _ in ops.walk(bc):
            if op == ops.WIDE:
                op = bc[off + 1]
            if _HANDLERS[op] is _unsupported:
                return False
    except JromError:
        return False
    return True


class Frame:
    """One activation: a method's code at the world's stage, its decoded
    steps, locals and stack.  ``pc`` is the instruction being run, or in a
    caller the invoke waiting for its call to return.
    """
    __slots__ = ("method", "code", "steps", "pool", "max_stack", "locals",
                 "stack", "pc")

    def __init__(self, method, code, pool, args):
        if len(args) > code.max_locals:
            raise InterpError("%s: %d argument slots > max_locals %d"
                              % (method, len(args), code.max_locals))
        self.method = method
        self.code = code
        self.pool = pool
        self.max_stack = code.max_stack
        self.locals = list(args) + [PAD] * (code.max_locals - len(args))
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

    def need(self, n):
        if len(self.stack) < n:
            raise StackUnderflow(self.where())

    def pop_args(self, n):
        s = self.stack
        base = len(s) - n
        if base < 0:
            raise StackUnderflow(self.where())
        args = s[base:]
        del s[base:]
        return args

    # --- pool operands, placed into their tables by decode ---

    def pool_entry(self, operand):
        """(Operand, table index) of a decoded pool operand."""
        entry, idx, raw = operand
        if idx is None:
            raise InterpError("%s: operand %d unresolvable at %d"
                              % (self.method, raw, self.pc))
        return entry, idx

    def member(self, operand):
        """The field or method a symbolic member reference names."""
        _, vidx = self.pool_entry(operand)
        pool = self.pool
        handle = pool.a_payload[pool.v_value[vidx] & 0xFFFF]
        if handle.resolved is not None:
            return handle.resolved
        if handle.is_field:
            found = handle.owner.find_field(handle.name, handle.descriptor)
        else:
            found = handle.owner.find_method(handle.name, handle.descriptor)
        if found is None:
            raise InterpError("%s: unresolved %s.%s at %d"
                              % (self.method, handle.owner.name, handle.name,
                                 self.pc))
        return found

    def class_operand(self, operand):
        return self.pool.a_payload[self.pool_entry(operand)[1]]

    def field(self, operand):
        """(owner, zone, offset, type code) of the field access."""
        if operand[0] is None:          # quick form: (None, zone, offset, tc)
            return (self.method.owner,) + operand[1:]
        found = self.member(operand)
        return found.owner, found.zone, found.offset, found.type_code


class Machine:
    def __init__(self, world, fuel):
        self.world = world
        self.fuel = fuel

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
        return _wide_slot(kind, (vz[local] << 32) | vz[local + 1])

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
        trace = self.world.trace
        callers = []        # frames waiting for a call to return, innermost last
        f = self._frame(method, args, 0)
        steps, pc = f.steps, 0
        while True:
            try:
                handler, op, operand, size = steps[pc]
            except (TypeError, IndexError):     # None, or past the end
                self._off_boundary(f.method, pc, len(steps))
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
                if result < 0:
                    self._off_boundary(f.method, result, len(steps))
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
        """A new activation of ``method`` under ``depth`` active ones."""
        if method.code is None:
            raise InterpError("no bytecode for %s" % (method,))
        if depth >= MAX_CALL_DEPTH:
            self.throw_named("java/lang/StackOverflowError")
        world = self.world
        view = method.owner.view(world.stage)
        code = method.code_at(world.stage)
        f = Frame(method, code, view.pool, args)
        f.steps = decoded(code, view, world.registry.shared_steps)
        return f

    def _off_boundary(self, method, pc, end):
        """Raise for a pc that holds no instruction.  Past the end that is
        at once; anywhere else it costs fuel, as an instruction would."""
        if pc >= end:
            raise InterpError("%s: fell off the end of the code" % (method,))
        if self.fuel <= 0:
            raise _FuelOut()
        self.fuel -= 1
        raise InterpError("%s: pc %d not on an instruction boundary"
                          % (method, pc))

    def _find_handler(self, f, thrown):
        """The pc of the frame's handler for the thrown exception, or None."""
        for start, end, handler, catch in f.code.exception_table:
            if not start <= f.pc < end:
                continue
            if catch is None:
                return handler
            catch_cls = f.pool.a_payload[catch]
            if thrown.cls is not None:
                if thrown.cls.is_subclass_of(catch_cls):
                    return handler
            elif thrown.cls_name == catch_cls.name:
                return handler
        return None


# --- instruction handlers ---------------------------------------------------
# handler(machine, frame, operand) runs one instruction; decode read its
# operand.  It returns None to go on at the next instruction, a pc to branch
# to, a _Call to make, or a 1-tuple holding the method's result (None for a
# void return).  A family of opcodes shares one handler, and its operand is
# the row, keyed by opcode, of what sets the members apart.

def _by_opcode(table):
    return {_OP[name]: value for name, value in table.items()}


def _u16(v):
    return v & 0xFFFF


def _wide_slot(kind, bits):
    """A long ("j") or double ("d") slot from its 64 bits."""
    return (kind, i64(bits) if kind == "j" else bits_double(bits))


_IALOAD, _IASTORE = _OP["iaload"], _OP["iastore"]
_INVOKESPECIAL, _INVOKESTATIC = _OP["invokespecial"], _OP["invokestatic"]

# op -> the slots pushed
_CONSTANTS = _by_opcode({
    "aconst_null": (("a", None),), "lconst_0": (("j", 0), PAD),
    "lconst_1": (("j", 1), PAD), "fconst_0": (("f", 0.0),),
    "fconst_1": (("f", 1.0),), "fconst_2": (("f", 2.0),),
    "dconst_0": (("d", 0.0), PAD), "dconst_1": (("d", 1.0), PAD),
    **{"iconst_%s" % ("m1" if k < 0 else k): (("i", k),) for k in range(-1, 6)}})


def _unsupported(m, f, op):
    raise UnsupportedOpcode(op, f.pc)


def _nop(m, f, _):
    pass


def _const(m, f, slots):
    s = f.stack
    s += slots
    if len(s) > f.max_stack:
        raise StackOverflow(f.where())


def _ldc_quick(m, f, operand):
    entry, idx = f.pool_entry(operand)
    values = f.pool.v_value
    if entry.want == cp.A_STRING:
        f.push(("a", m.world.heap.intern(f.pool.a_payload[idx])))
    elif entry.want == cp.V_INT:
        f.push(("i", i32(values[idx])))
    elif entry.want == cp.V_FLOAT:
        f.push(("f", bits_float(values[idx])))
    else:
        bits = (values[idx] << 32) | values[idx + 1]
        f.push_value(_wide_slot("j" if entry.want == cp.V_LONG_HI else "d",
                                bits))


def _load(m, f, slot):
    s = f.stack
    s.append(f.locals[slot])
    if len(s) > f.max_stack:
        raise StackOverflow(f.where())


def _load2(m, f, slot):
    s = f.stack
    s += (f.locals[slot], PAD)
    if len(s) > f.max_stack:
        raise StackOverflow(f.where())


def _store(m, f, slot):
    if not f.stack:
        raise StackUnderflow(f.where())
    f.locals[slot] = f.stack.pop()


def _store2(m, f, slot):
    f.locals[slot] = f.pop_value("j")
    f.locals[slot + 1] = PAD


def _iinc(m, f, operand):
    slot, delta = operand
    f.locals[slot] = ("i", i32(f.locals[slot][1] + delta))


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


def _pop(m, f, _):
    f.pop()


def _pop2(m, f, _):
    f.pop()
    f.pop()


# (slots copied, depth below the top they are inserted at)
_DUPS = _by_opcode({"dup": (1, 1), "dup_x1": (1, 2), "dup_x2": (1, 3),
         "dup2": (2, 2), "dup2_x1": (2, 3), "dup2_x2": (2, 4)})


def _dup(m, f, row):
    count, depth = row
    f.need(depth)
    f.stack[-depth:-depth] = f.stack[-count:]
    if len(f.stack) > f.max_stack:
        raise StackOverflow(f.where())


def _swap(m, f, _):
    f.need(2)
    f.stack[-1], f.stack[-2] = f.stack[-2], f.stack[-1]


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


def _fcompare(nan_result):
    return lambda a, b: (nan_result if math.isnan(a) or math.isnan(b)
                         else _compare(a, b))


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


# op -> (operand kind, result kind, function of the operands)
_BINARY = _by_opcode({
    "iadd": ("i", "i", lambda a, b: i32(a + b)),
    "isub": ("i", "i", lambda a, b: i32(a - b)),
    "imul": ("i", "i", lambda a, b: i32(a * b)),
    "ishl": ("i", "i", lambda a, b: i32(a << (b & 31))),
    "ishr": ("i", "i", lambda a, b: a >> (b & 31)),
    "iushr": ("i", "i", lambda a, b: i32(u32(a) >> (b & 31))),
    "iand": ("i", "i", lambda a, b: i32(u32(a) & u32(b))),
    "ior": ("i", "i", lambda a, b: i32(u32(a) | u32(b))),
    "ixor": ("i", "i", lambda a, b: i32(u32(a) ^ u32(b))),
    "ladd": ("j", "j", lambda a, b: i64(a + b)),
    "lsub": ("j", "j", lambda a, b: i64(a - b)),
    "lmul": ("j", "j", lambda a, b: i64(a * b)),
    "land": ("j", "j", lambda a, b: i64((a & M64) & (b & M64))),
    "lor": ("j", "j", lambda a, b: i64((a & M64) | (b & M64))),
    "lxor": ("j", "j", lambda a, b: i64((a & M64) ^ (b & M64))),
    "fadd": ("f", "f", lambda a, b: f32(a + b)),
    "fsub": ("f", "f", lambda a, b: f32(a - b)),
    "fmul": ("f", "f", lambda a, b: f32(a * b)),
    "fdiv": ("f", "f", lambda a, b: f32(_fdiv(a, b))),
    "frem": ("f", "f", lambda a, b: f32(_frem(a, b))),
    "dadd": ("d", "d", operator.add),
    "dsub": ("d", "d", operator.sub),
    "dmul": ("d", "d", operator.mul),
    "ddiv": ("d", "d", _fdiv),
    "drem": ("d", "d", _frem),
    "lcmp": ("j", "i", _compare),
    "fcmpl": ("f", "i", _fcompare(-1)),
    "fcmpg": ("f", "i", _fcompare(1)),
    "dcmpl": ("d", "i", _fcompare(-1)),
    "dcmpg": ("d", "i", _fcompare(1)),
})

_UNARY = _by_opcode({
    "ineg": ("i", "i", lambda v: i32(-v)),
    "lneg": ("j", "j", lambda v: i64(-v)),
    "fneg": ("f", "f", lambda v: f32(-v)),
    "dneg": ("d", "d", operator.neg),
    "i2l": ("i", "j", _same),
    "i2f": ("i", "f", lambda v: f32(float(v))),
    "i2d": ("i", "d", float),
    "l2i": ("j", "i", i32),
    "l2f": ("j", "f", l2f),
    "l2d": ("j", "d", float),
    "f2i": ("f", "i", lambda v: _to_int(v, 31)),
    "f2l": ("f", "j", lambda v: _to_int(v, 63)),
    "f2d": ("f", "d", _same),
    "d2i": ("d", "i", lambda v: _to_int(v, 31)),
    "d2l": ("d", "j", lambda v: _to_int(v, 63)),
    "d2f": ("d", "f", f32),
    "i2b": ("i", "i", _sign8),
    "i2c": ("i", "i", _u16),
    "i2s": ("i", "i", _sign16),
})

# op -> (operand kind, wrap to width, remainder instead of quotient)
_DIVIDES = _by_opcode({"idiv": ("i", i32, False), "irem": ("i", i32, True),
            "ldiv": ("j", i64, False), "lrem": ("j", i64, True)})

_LONG_SHIFTS = _by_opcode({"lshl": lambda a, s: i64(a << s),
                           "lshr": lambda a, s: a >> s,
                           "lushr": lambda a, s: i64((a & M64) >> s)})


def _binary(m, f, row):
    depth, result, fn = row         # depth: slots of the two operands
    s = f.stack
    try:
        a = s[-depth][1]
    except IndexError:
        raise StackUnderflow(f.where()) from None
    value = (result, fn(a, s[-(depth // 2)][1]))
    s[-depth:] = (value, PAD) if result in "jd" else (value,)


def _unary(m, f, row):
    kind, result, fn = row
    f.push_value((result, fn(f.pop_value(kind)[1])))


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


def _long_shift(m, f, fn):
    s = f.pop()[1] & 63
    f.push_value(("j", fn(f.pop_value("j")[1], s)))


_POPPED = object()      # the branch compares with a second popped value

# op -> (test, the value the popped operand is compared with)
_IF = _by_opcode({
    "ifeq": (operator.eq, 0), "ifne": (operator.ne, 0),
    "iflt": (operator.lt, 0), "ifge": (operator.ge, 0),
    "ifgt": (operator.gt, 0), "ifle": (operator.le, 0),
    "if_icmpeq": (operator.eq, _POPPED), "if_icmpne": (operator.ne, _POPPED),
    "if_icmplt": (operator.lt, _POPPED), "if_icmpge": (operator.ge, _POPPED),
    "if_icmpgt": (operator.gt, _POPPED), "if_icmple": (operator.le, _POPPED),
    "if_acmpeq": (operator.eq, _POPPED), "if_acmpne": (operator.ne, _POPPED),
    "ifnull": (operator.is_, None), "ifnonnull": (operator.is_not, None),
})


def _if(m, f, operand):
    test, other, target = operand
    s = f.stack
    try:
        if other is _POPPED:
            other = s.pop()[1]
        value = s.pop()[1]
    except IndexError:
        raise StackUnderflow(f.where()) from None
    if test(value, other):
        return target


def _goto(m, f, target):
    return target


def _switch(m, f, _):
    return ops.switch_target(f.code.bytecode, f.pc, f.pop()[1])


# op -> None for a void return, or (kind, slots of the value)
_RETURNS = _by_opcode({"ireturn": ("i", 1), "lreturn": ("j", 2),
                       "freturn": ("f", 1), "dreturn": ("d", 2),
                       "areturn": ("a", 1), "return": None})


def _return(m, f, row):
    if row is None:
        return (None,)
    kind, depth = row
    try:
        return ((kind, f.stack[-depth][1]),)
    except IndexError:
        raise StackUnderflow(f.where()) from None


_TYPE_KIND = {dsc.TC_REF: "a", dsc.TC_FLOAT: "f", dsc.TC_LONG: "j",
              dsc.TC_DOUBLE: "d"}
_FIELD_NARROW = {dsc.TC_BYTE: _sign8, dsc.TC_CHAR: _u16, dsc.TC_SHORT: _sign16}


def _kind_of(type_code):
    """Slot tag of a field type code."""
    return _TYPE_KIND.get(type_code, "i")


def _getstatic(m, f, operand):
    owner, zone, offset, tc = f.field(operand)
    f.push_value(m.zone_read(owner, zone, offset, tc))


def _putstatic(m, f, operand):
    owner, zone, offset, tc = f.field(operand)
    m.zone_write(owner, zone, offset, tc, f.pop_value(_kind_of(tc)))


def _getfield(m, f, operand):
    _, _, offset, tc = f.field(operand)
    obj = m.object_at(f.pop()[1])
    f.push_value((_kind_of(tc), obj.slots[offset]))


def _putfield(m, f, operand):
    _, _, offset, tc = f.field(operand)
    v = f.pop_value(_kind_of(tc))[1]
    obj = m.object_at(f.pop()[1])
    obj.slots[offset] = _FIELD_NARROW.get(tc, _same)(v)
    if tc in (dsc.TC_LONG, dsc.TC_DOUBLE):
        obj.slots[offset + 1] = None


def _new(m, f, operand):
    cls = f.class_operand(operand)
    if cls.state == lc.UNLOADED:
        raise InterpError("new of unloaded class %s" % cls.name)
    f.push(("a", m.world.heap.new_object(cls)))


_NEWARRAY_TYPES = {4: "Z", 5: "C", 6: "F", 7: "D", 8: "B", 9: "S", 10: "I",
                   11: "J"}


def _newarray(m, f, atype):
    comp = _NEWARRAY_TYPES.get(atype)
    if comp is None:
        raise InterpError("bad newarray type %d" % atype)
    _push_new_array(m, f, comp)


def _anewarray_quick(m, f, operand):
    cls = f.class_operand(operand)
    _push_new_array(m, f, cls.name if cls.name.startswith("[")
                    else "L%s;" % cls.name)


def _push_new_array(m, f, comp):
    length = f.pop()[1]
    if length < 0:
        m.throw_named("java/lang/NegativeArraySizeException")
    f.push(("a", m.world.heap.new_array(comp, length)))


def _invoke(m, f, operand):
    op, ref = operand
    target = f.member(ref)
    args = f.pop_args(target.nargs)
    if op != _INVOKESTATIC:
        recv = args[0][1]
        if recv is None:
            m.throw_named("java/lang/NullPointerException")
        if op != _INVOKESPECIAL:
            rc, rc_name = m.class_of_ref(recv)
            if rc is None or rc.state == lc.UNLOADED:
                raise InterpError("receiver class %s not loaded" % rc_name)
            found = rc.find_method(target.name, target.descriptor)
            if found is None:
                raise InterpError("no %s%s on %s"
                                  % (target.name, target.descriptor, rc_name))
            target = found
    return _Call((target, args))


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


def _checkcast(m, f, operand):
    cls = f.class_operand(operand)
    slot = f.pop()
    if slot[1] is not None and not m.is_instance(slot[1], cls):
        m.throw_named("java/lang/ClassCastException")
    f.push(slot)


def _instanceof(m, f, operand):
    cls = f.class_operand(operand)
    ref = f.pop()[1]
    f.push(("i", int(ref is not None and m.is_instance(ref, cls))))


def _athrow(m, f, _):
    ref = f.pop()[1]
    if ref is None:
        m.throw_named("java/lang/NullPointerException")
    cls, name = m.class_of_ref(ref)
    raise _Thrown(ref, cls, name)


def _handler_table():
    """opcode -> handler, and opcode -> the row of its family's table."""
    table = [_unsupported] * 256
    named = (
        (_nop, "nop"), (_const, "bipush sipush"),
        (_ldc_quick, "ldc_quick_i ldc_quick_i_w ldc_quick_f ldc_quick_f_w "
                     "ldc_quick_a ldc_quick_a_w ldc2_quick_l ldc2_quick_d"),
        (_iinc, "iinc"), (_arraylength, "arraylength"),
        (_pop, "pop"), (_pop2, "pop2"), (_swap, "swap"),
        (_goto, "goto goto_w"), (_switch, "tableswitch lookupswitch"),
        (_getstatic, "getstatic getstatic_quick"),
        (_putstatic, "putstatic putstatic_quick"),
        (_getfield, "getfield getfield_quick"),
        (_putfield, "putfield putfield_quick"),
        (_new, "new"), (_newarray, "newarray"),
        (_anewarray_quick, "anewarray_quick"),
        (_invoke, "invokevirtual invokespecial invokestatic invokeinterface"),
        (_invoke_quick, "invokevirtual_quick"),
        (_checkcast, "checkcast"), (_instanceof, "instanceof"),
        (_athrow, "athrow"),
    )
    for handler, names in named:
        for name in names.split():
            table[_OP[name]] = handler
    binary = {op: (4 if kind in "jd" else 2, result, fn)
              for op, (kind, result, fn) in _BINARY.items()}
    rows = {}
    for handler, family in (
            (_const, _CONSTANTS), (_dup, _DUPS), (_binary, binary),
            (_unary, _UNARY), (_divide, _DIVIDES),
            (_long_shift, _LONG_SHIFTS), (_if, _IF), (_return, _RETURNS),
            (_array_load, {_IALOAD + k: kind
                           for k, kind in enumerate(_ARRAY_KINDS)}),
            (_array_store, {_IASTORE + k: kind
                            for k, kind in enumerate(_ARRAY_KINDS)})):
        for op, row in family.items():
            table[op] = handler
            rows[op] = row
    for op, entry in ops.OPERANDS.items():
        if entry.kind == ops.LOCAL and op not in (_OP["ret"], _OP["iinc"]):
            by_width = ((_load, _load2) if "load" in ops.NAME[op]
                        else (_store, _store2))
            table[op] = by_width[entry.want - 1]
    table[ops.WIDE] = None      # decode folds it into the opcode it modifies
    return table, rows


_HANDLERS, _ROWS = _handler_table()


# --- decode -----------------------------------------------------------------

def _operand(bc, off, op, view):
    """What the handler of ``op`` at ``off`` runs with, read mostly through
    the ``opcodes.OPERANDS`` table.  A pool operand is (Operand, table
    index, pool index); an index that does not place into its table, or
    places on an entry of another kind than the operand wants, is None,
    and the instruction raises when it runs."""
    entry = ops.OPERANDS.get(op)
    kind = entry.kind if entry is not None else None
    if _HANDLERS[op] is _unsupported:
        return op
    if kind == ops.LOCAL:
        slot = ops.local_slot(bc, off)[0]
        if op != _OP["iinc"]:
            return slot
        if bc[off] == ops.WIDE:
            return slot, struct.unpack_from(">h", bc, off + 4)[0]
        return slot, _sign8(bc[off + 2])
    if kind == ops.BRANCH:
        target = ops.branch_targets(bc, off)[0]
        return _IF[op] + (target,) if op in _IF else target
    if kind == ops.IMMEDIATE:
        offset, tc = ops.field_immediate(bc, off)
        return None, "a" if tc == dsc.TC_REF else "v", offset, tc
    if kind == ops.NARGS_SLOT:
        return bc[off + 1], bc[off + 2]
    if kind is not None:            # POOL or QUICK
        idx = table_idx = ops.read_operand(bc, off, entry.size)
        if kind == ops.POOL and not view.relinked:
            placed = view.pool.origin.get(idx)
            ok = placed is not None and placed[0] == entry.space
            table_idx = placed[1] if ok else None
        if table_idx is not None and not cp.holds(view.pool, entry.space,
                                                  table_idx, entry.want):
            table_idx = None
        ref = (entry, table_idx, idx)
        return (op, ref) if _HANDLERS[op] is _invoke else ref
    if op == _OP["bipush"]:
        return (("i", _sign8(bc[off + 1])),)
    if op == _OP["sipush"]:
        return (("i", struct.unpack_from(">h", bc, off + 1)[0]),)
    if op == _OP["newarray"]:
        return bc[off + 1]
    return _ROWS.get(op)


def decoded(code, view, shared):
    """The method body as steps indexed by pc, decoded once per stage view.

    An instruction's pc holds (handler, opcode, operand, size), with ``wide``
    folded into the opcode it modifies, and any other pc holds None.  Steps
    equal to one in ``shared`` are that one tuple, which keeps the decodes of
    a large class set small.  The code keeps its steps until its bytecode is
    rewritten.
    """
    cached = code.decoded
    if cached is not None and cached[0] is view:
        return cached[1]
    bc = code.bytecode
    steps = [None] * len(bc)
    for off, op, size in ops.walk(bc):
        sub = bc[off + 1] if op == ops.WIDE else op
        step = (_HANDLERS[sub], op, _operand(bc, off, sub, view), size)
        steps[off] = shared.setdefault(step, step)
    code.decoded = (view, steps)
    return steps


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
    methods = cls.methods if cls is not None else ()
    method = next((m for m in methods if m.key == method_key), None)
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
