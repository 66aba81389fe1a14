"""uAsm abstract syntax, textual format, expression evaluation, well-formedness.

A program is a sequence of instructions at consecutive addresses starting
at 0.  Values are naturals plus a distinguished undefined value ``BOTTOM``
(printed ``end``); arithmetic wraps modulo a configurable power of two.
A watched run, one whose varying cells are watched (see
``arch.share_runs``), also holds ``Deferred`` values in its registers and,
on the hardware, its buffer payloads: terms over the cells it loaded, not
yet used. They count as resolved, an expression over one is another, and
a step, architectural or hardware, forces one where it needs a natural:
an address, store data, a pc, or a branch or conditional-assignment
guard's zero test.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Union

DEFAULT_MODULUS = 2 ** 16


def is_modulus(v: int) -> bool:
    """Whether arithmetic may wrap modulo ``v``: a power of two >= 2."""
    return v >= 2 and v & (v - 1) == 0


PC = "pc"

END = "end"


class Bottom:
    """The undefined value. A single shared instance, never a sentinel int."""

    _instance: Optional["Bottom"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return END


BOTTOM = Bottom()


class Deferred:
    """A value a watched run computed from loads of watched cells, that no
    step has used yet. ``term`` says how (see ``term_value``), ``value`` is
    the term's value under the run's initial state, ``reads`` the run's
    reads log and ``size`` the term's node count. ``force`` gives the
    value, logging ``term -> value`` first."""

    __slots__ = ("term", "value", "reads", "size")

    def __init__(self, term, value: int, reads: dict, size: int = 1):
        self.term, self.value, self.reads, self.size = term, value, reads, size

    def force(self) -> int:
        self.reads.setdefault(self.term, self.value)
        return self.value

    def __repr__(self):
        return f"deferred({self.term!r})"


Value = Union[int, Bottom, Deferred]


def is_value(v) -> bool:
    return isinstance(v, (int, Deferred)) or v is BOTTOM


def force(v: Value):
    """``v`` with a deferred value used: the natural it stands for."""
    return v.force() if v.__class__ is Deferred else v


def observed(v: Value):
    """``v`` as observations and canonical keys hold it: ``end`` for BOTTOM."""
    return END if v is BOTTOM else v


def parse_value(text: str) -> Value:
    """The value ``format_value`` prints as ``text``, a run of decimal digits
    or ``end``; ValueError otherwise."""
    if text == END:
        return BOTTOM
    if not text.isdecimal():
        raise ValueError(f"not a value: {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Const:
    value: Value


@dataclass(frozen=True)
class Reg:
    name: str


@dataclass(frozen=True)
class UnOp:
    op: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Ite:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


Expr = Union[Const, Reg, UnOp, BinOp, Ite]


def expr_registers(e: Expr) -> frozenset:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Reg):
        return frozenset((e.name,))
    if isinstance(e, UnOp):
        return expr_registers(e.arg)
    if isinstance(e, BinOp):
        return expr_registers(e.left) | expr_registers(e.right)
    if isinstance(e, Ite):
        return expr_registers(e.cond) | expr_registers(e.then) | expr_registers(e.other)
    raise TypeError(f"not an expression: {e!r}")


class StuckError(Exception):
    """Raised when evaluation or a semantic step has no defined successor."""


# The operators, by name, each a function of its naturals and the modulus.
# The unary ones are spelled as UNARY_SPELLINGS says, a binary one as its
# name. A deferred value's term also applies ``ite`` (see ``term_value``).
UNARY_OPS = {"neg": lambda v, m: -v % m, "not": lambda v, m: 1 if v == 0 else 0}
BINARY_OPS = {
    "+": lambda a, b, m: (a + b) % m,
    "-": lambda a, b, m: (a - b) % m,
    "*": lambda a, b, m: (a * b) % m,
    "<": lambda a, b, m: 1 if a < b else 0,
    "=": lambda a, b, m: 1 if a == b else 0,
    "&": lambda a, b, m: (a & b) % m,
    "|": lambda a, b, m: (a | b) % m,
    "^": lambda a, b, m: (a ^ b) % m,
}
UNARY_SPELLINGS = {"neg": "-", "not": "!"}
_TERM_OPS = {**UNARY_OPS, **BINARY_OPS, "ite": lambda c, t, o, m: t if c != 0 else o}


def _operator(table: dict, op: str):
    """``op``'s function in ``table``, UNARY_OPS or BINARY_OPS."""
    f = table.get(op)
    if f is None:
        raise StuckError(f"unknown operator {op!r}")
    return f


# A deferred value whose term would have more nodes is forced instead, so
# that evaluating, hashing and comparing terms, which walk the whole tree
# and recurse, stay cheap and shallow when a loop computes on a loaded
# value: a term that uses an operand twice, as in z <- z + z, doubles.
MAX_TERM_SIZE = 32


def term_value(term, mem: dict) -> int:
    """The value of a deferred value's ``term`` when memory is ``mem``.

    A term is a watched cell (an int), or a tuple ``(op, modulus, operand,
    ...)`` applying ``op``, an operator of UNARY_OPS or BINARY_OPS or
    ``ite``, to operands that are terms or constants, a constant ``c``
    written ``(c,)``.
    """
    if term.__class__ is int:
        return mem.get(term, 0)
    op, modulus, *operands = term
    args = [o[0] if o.__class__ is tuple and len(o) == 1 else term_value(o, mem) for o in operands]
    return _TERM_OPS[op](*args, modulus)


def term_cells(term) -> tuple:
    """The watched cells ``term`` reads, each once, in order of first use."""
    if term.__class__ is int:
        return (term,)
    cells = {}
    for o in term[2:]:
        if not (o.__class__ is tuple and len(o) == 1):
            cells.update(dict.fromkeys(term_cells(o)))
    return tuple(cells)


def _lifted(op: str, args, modulus: int) -> Value:
    """``op`` applied to ``args``, of which one is BOTTOM or deferred: BOTTOM
    if one is BOTTOM, else the deferred value of their term, forced once it has
    more than MAX_TERM_SIZE nodes."""
    if BOTTOM in args:
        return BOTTOM
    terms, values, size = [op, modulus], [], 1
    for arg in args:
        if arg.__class__ is Deferred:
            terms.append(arg.term)
            values.append(arg.value)
            reads = arg.reads
            size += arg.size
        else:
            terms.append((arg,))
            values.append(arg)
            size += 1
    v = Deferred(tuple(terms), _TERM_OPS[op](*values, modulus), reads, size)
    return v.force() if size > MAX_TERM_SIZE else v


def is_zero(v: Value, modulus: int) -> bool:
    """Whether the natural ``v`` is 0. A deferred ``v`` forces its zero
    test ``!v``, not its value."""
    if v.__class__ is Deferred:
        return force(_lifted("not", (v,), modulus)) == 1
    return v == 0


def eval_expr(e: Expr, a, partial: bool = False, modulus: int = DEFAULT_MODULUS) -> Value:
    """Evaluate ``e`` under register assignment ``a`` (a mapping).

    Total mode raises StuckError on BOTTOM; partial mode propagates it
    through every operator, ite included. An operator on a deferred value
    gives a deferred value (see ``_lifted``), except an ite whose guard is
    not deferred, which gives the operand it picks.
    """
    if isinstance(e, Const):
        v = e.value
    elif isinstance(e, Reg):
        v = a[e.name]
    elif isinstance(e, UnOp):
        f = _operator(UNARY_OPS, e.op)
        sub = eval_expr(e.arg, a, partial, modulus)
        if sub.__class__ is int:
            v = f(sub, modulus)
        else:
            v = _lifted(e.op, (sub,), modulus)
    elif isinstance(e, BinOp):
        f = _operator(BINARY_OPS, e.op)
        lhs = eval_expr(e.left, a, partial, modulus)
        rhs = eval_expr(e.right, a, partial, modulus)
        if lhs.__class__ is int and rhs.__class__ is int:
            v = f(lhs, rhs, modulus)
        else:
            v = _lifted(e.op, (lhs, rhs), modulus)
    elif isinstance(e, Ite):
        cond = eval_expr(e.cond, a, partial, modulus)
        then = eval_expr(e.then, a, partial, modulus)
        other = eval_expr(e.other, a, partial, modulus)
        if cond is BOTTOM or then is BOTTOM or other is BOTTOM:
            v = BOTTOM
        elif cond.__class__ is Deferred:
            v = _lifted("ite", (cond, then, other), modulus)
        else:
            v = then if cond != 0 else other
    else:
        raise TypeError(f"not an expression: {e!r}")
    if v is BOTTOM and not partial:
        raise StuckError(f"total evaluation of {format_expr(e)} hit the undefined value")
    return v


# ---------------------------------------------------------------------------
# Instructions


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr


@dataclass(frozen=True)
class CondAssign:
    # target updated with expr when guard evaluates to 0
    target: str
    expr: Expr
    guard: Expr


@dataclass(frozen=True)
class Load:
    target: str
    addr: Expr


@dataclass(frozen=True)
class Store:
    src: str
    addr: Expr


@dataclass(frozen=True)
class Jmp:
    target: Expr


@dataclass(frozen=True)
class Beqz:
    guard: str
    target: Value


@dataclass(frozen=True)
class Barrier:
    pass


Instr = Union[Skip, Assign, CondAssign, Load, Store, Jmp, Beqz, Barrier]


@dataclass(frozen=True)
class Program:
    instrs: tuple

    def lookup(self, addr: Value) -> Optional[Instr]:
        """Instruction at ``addr``, or None when out of range or BOTTOM."""
        if isinstance(addr, int) and 0 <= addr < len(self.instrs):
            return self.instrs[addr]
        return None

    def __len__(self):
        return len(self.instrs)

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    @cached_property
    def registers(self) -> tuple:
        """All register names mentioned by the program, plus pc, sorted;
        computed once per program."""
        regs = {PC}
        for ins in self.instrs:
            if isinstance(ins, Assign):
                regs.add(ins.target)
                regs |= expr_registers(ins.expr)
            elif isinstance(ins, CondAssign):
                regs.add(ins.target)
                regs |= expr_registers(ins.expr) | expr_registers(ins.guard)
            elif isinstance(ins, Load):
                regs.add(ins.target)
                regs |= expr_registers(ins.addr)
            elif isinstance(ins, Store):
                regs.add(ins.src)
                regs |= expr_registers(ins.addr)
            elif isinstance(ins, Jmp):
                regs |= expr_registers(ins.target)
            elif isinstance(ins, Beqz):
                regs.add(ins.guard)
        return tuple(sorted(regs))


def check_well_formed(p: Program) -> list:
    """Return a list of (address, message) violations; empty means ok."""
    violations = []
    for addr, ins in enumerate(p.instrs):
        if isinstance(ins, (Assign, CondAssign, Load)) and ins.target == PC:
            violations.append((addr, f"instruction at {addr} targets {PC}"))
        if isinstance(ins, Beqz) and ins.target == addr + 1:
            violations.append((addr, f"branch at {addr} targets its own fall-through"))
    return violations


# ---------------------------------------------------------------------------
# Parsing


class ParseError(Exception):
    """A malformed program text, at a 1-based line and column of the raw text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def text_lines(text: str) -> Iterator:
    """``(lineno, line)`` for each line of ``text``, cut at ``#`` and stripped, unless empty."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# A token is ``<-``, a num (decimal digits), an ident (word characters) or a
# symbol (any other non-space character); none starts with a _BAD character,
# one that is no word character, space, punctuation or operator spelling.
_TOKEN = re.compile(r"<-|\d+|\w+|\S")
_SYMBOL_CHARS = "()?,:" + "".join(BINARY_OPS) + "".join(UNARY_SPELLINGS.values())
_BAD = re.compile(f"[^\\w\\s{re.escape(_SYMBOL_CHARS)}]")
_SYMBOLS = frozenset(_SYMBOL_CHARS) | {"<-", ""}  # "" is the end of the line
_UNARY_NAMES = {spelling: op for op, spelling in UNARY_SPELLINGS.items()}
_RESERVED = f"{END!r} is reserved for the undefined value"


class _Unparsed(Exception):
    """A syntax error at a slot of a line's token stack; None for an unrecognized instruction."""


def _bad_index(code: str) -> Optional[int]:
    """The index of the first character of ``code`` that starts no token, if
    any: a _BAD one, or a word character that is no letter, digit or ``_``."""
    bad = _BAD.search(code)
    end = bad and bad.start()
    if not code.isascii():
        for m in _TOKEN.finditer(code[:end]):
            ch = m[0][0]
            if ch.isalnum() and not (ch.isalpha() or ch.isdecimal()):
                return m.start()
    return end


def _column(code: str, at: int) -> int:
    """The 1-based column of slot ``at`` of line ``code``'s token stack."""
    starts = [m.start() for m in _TOKEN.finditer(code)] + [len(code)]
    return starts[len(starts) - at] + 1


def _is_ident(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def is_register_name(name: str) -> bool:
    """Whether a program can name a register ``name``: one ident token, not ``end``."""
    return name != END and _is_ident(name) and _TOKEN.fullmatch(name) is not None


def _value(tok: str):
    return int(tok) if tok.isdecimal() else tok


def _register(name: str, labels: dict, at: int) -> str:
    """A name in a register position, which no label may share."""
    if name in labels:
        raise _Unparsed(f"label {name!r} used as a register", at)
    if name == END:
        raise _Unparsed(_RESERVED, at)
    return name


def _instr(rest: list, labels: dict) -> Instr:
    """The instruction ``rest`` holds, which must end the line."""
    head = rest.pop()
    if head in ("skip", "spbarr") and not rest[-1]:
        return Skip() if head == "skip" else Barrier()
    if head == "jmp":
        ins = Jmp(_expr(rest, labels))
    elif head == "beqz":
        ins = Beqz(_operand(rest, labels, "expected: beqz x, LBL|end"), _branch_target(rest, labels))
    elif head in ("load", "store"):
        reg = _operand(rest, labels, f"expected: {head} x, e")
        ins = (Load if head == "load" else Store)(reg, _expr(rest, labels))
    elif rest[-1] == "<-" and _is_ident(head):
        target = _register(head, labels, len(rest))
        rest.pop()
        g = _expr(rest, labels)  # the guard when a '?' follows
        if rest[-1] == "?":
            rest.pop()
            ins = CondAssign(target, _expr(rest, labels), g)
        else:
            ins = Assign(target, g)
    else:
        raise _Unparsed(None, len(rest))
    if rest[-1]:
        raise _Unparsed(f"trailing tokens starting at {_value(rest[-1])!r}", len(rest) - 1)
    return ins


def _operand(rest: list, labels: dict, usage: str) -> str:
    """The register ``x`` of ``op x, ...``; ``usage`` where that shape breaks."""
    reg = rest.pop()
    if not _is_ident(reg) or rest.pop() != ",":
        raise _Unparsed(usage, len(rest))
    if not rest[-1]:
        raise _Unparsed(usage, len(rest) - 1)
    return _register(reg, labels, len(rest) + 1)


def _branch_target(rest: list, labels: dict) -> Value:
    tok = rest.pop()
    if tok in _SYMBOLS or rest[-1]:
        raise _Unparsed("branch target must be a label, number, or end", len(rest))
    if tok.isdecimal() or tok == END:
        return parse_value(tok)
    if tok not in labels:
        raise _Unparsed(f"unknown label {tok!r}", len(rest))
    return labels[tok]


def _expr(rest: list, labels: dict, close: str = "") -> Expr:
    """An expression, followed by the symbol ``close`` when one is given."""
    left = _term(rest, labels)
    while rest[-1] in BINARY_OPS:
        left = BinOp(rest.pop(), left, _term(rest, labels))
    if close:
        tok = rest.pop()
        if tok != close:
            raise _Unparsed(f"expected {close!r}, found {_value(tok)!r}" if tok else "unexpected end of line", len(rest))
    return left


def _term(rest: list, labels: dict) -> Expr:
    tok = rest.pop()
    if tok in _SYMBOLS:
        if tok == "(":
            return _expr(rest, labels, ")")
        if tok in _UNARY_NAMES:
            return UnOp(_UNARY_NAMES[tok], _term(rest, labels))
        raise _Unparsed(f"unexpected token {tok!r}" if tok else "unexpected end of line", len(rest))
    if tok == "ite" and rest[-1] == "(":
        rest.pop()
        return Ite(*[_expr(rest, labels, close) for close in ",,)"])
    if tok in labels:
        return Const(labels[tok])
    if tok == END:
        raise _Unparsed(_RESERVED, len(rest))
    return _leaf(tok)


@lru_cache(maxsize=1024)
def _leaf(tok: str) -> Expr:
    """The Const of a number or the Reg of a name, shared between parses."""
    return Const(int(tok)) if tok.isdecimal() else Reg(tok)


def parse_program(text: str) -> Program:
    """Parse program text into a well-formed Program.

    One instruction per line; ``LBL:`` prefixes define labels, ``#`` starts
    a comment, ``end`` denotes the undefined branch target and nothing else.
    Every line's labels are bound before any instruction is read. Errors
    name the 1-based line and column of the raw text.

    Grammar (loosest binding first):
        line   := (ident ':')* [instr]
        instr  := 'skip' | 'spbarr' | 'jmp' expr | 'beqz' ident ',' target
                | ('load' | 'store') ident ',' expr
                | ident '<-' expr ['?' expr]   -- guard first: x <- g ? e
        expr   := term (binop term)*          -- left associative, one level
        term   := num | ident | '(' expr ')' | '!' term | '-' term
                | 'ite' '(' expr ',' expr ',' expr ')'
    All binary operators share one precedence level; parenthesize to nest.
    A num is a run of decimal digits, an ident a letter or ``_`` followed by
    word characters (see ``_TOKEN``).

    A line's tokens are read off ``rest``, a stack of them, the first on
    top, over two ``""`` marking the end of the line; an error names the
    stack slot it is at, whose column only an error works out.
    """
    labels, lines, instrs = {}, [], []
    clean = text.isascii() and not _BAD.search(text)  # no comment, no character starts no token
    try:
        for lineno, code in enumerate(text.splitlines(), start=1):
            code = code if clean else code.split("#", 1)[0]
            rest = _TOKEN.findall(code)[::-1]
            rest[:0] = ("", "")
            while rest[-2] == ":" and _is_ident(rest[-1]):
                label = rest[-1]
                if label == END or label in labels:
                    raise _Unparsed(_RESERVED if label == END else f"duplicate label {label!r}", len(rest) - 1)
                labels[label] = len(lines)
                del rest[-2:]
            if len(rest) > 2:
                lines.append((lineno, code, rest, len(rest) - 1))
        for lineno, code, rest, _ in lines:
            bad = None if clean else _bad_index(code)
            if bad is not None:
                raise ParseError(f"unexpected character {code[bad]!r}", lineno, bad + 1)
            instrs.append(_instr(rest, labels))
        program = Program(tuple(instrs))
        for addr, msg in check_well_formed(program)[:1]:
            lineno, code, _, head = lines[addr]
            raise _Unparsed(f"ill-formed program: {msg}", head)
    except _Unparsed as error:  # at the line ``lineno``, ``code``
        message, at = error.args
        column = _column(code, at)
        if message is None:
            message = f"unrecognized instruction {code[column - 1:].strip()!r}"
        raise ParseError(message, lineno, column) from None
    return program


# ---------------------------------------------------------------------------
# Printing (parse . print == identity)


def format_value(v: Value) -> str:
    return str(observed(v))


def format_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return format_value(e.value)
    if isinstance(e, Reg):
        return e.name
    if isinstance(e, UnOp):
        return f"{UNARY_SPELLINGS[e.op]}{_atom(e.arg)}"
    if isinstance(e, BinOp):
        return f"({format_expr(e.left)} {e.op} {format_expr(e.right)})"
    if isinstance(e, Ite):
        return f"ite({format_expr(e.cond)}, {format_expr(e.then)}, {format_expr(e.other)})"
    raise TypeError(f"not an expression: {e!r}")


def _atom(e: Expr) -> str:
    text = format_expr(e)
    if isinstance(e, (Const, Reg)) or text.startswith("("):
        return text
    return f"({text})"


def format_instr(ins: Instr) -> str:
    if isinstance(ins, Skip):
        return "skip"
    if isinstance(ins, Barrier):
        return "spbarr"
    if isinstance(ins, Assign):
        return f"{ins.target} <- {format_expr(ins.expr)}"
    if isinstance(ins, CondAssign):
        return f"{ins.target} <- {format_expr(ins.guard)} ? {format_expr(ins.expr)}"
    if isinstance(ins, Load):
        return f"load {ins.target}, {format_expr(ins.addr)}"
    if isinstance(ins, Store):
        return f"store {ins.src}, {format_expr(ins.addr)}"
    if isinstance(ins, Jmp):
        return f"jmp {format_expr(ins.target)}"
    if isinstance(ins, Beqz):
        return f"beqz {ins.guard}, {format_value(ins.target)}"
    raise TypeError(f"not an instruction: {ins!r}")


def format_program(p: Program) -> str:
    return "\n".join(format_instr(ins) for ins in p.instrs) + "\n"
