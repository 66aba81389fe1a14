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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

DEFAULT_MODULUS = 2 ** 16

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
    """The value ``format_value`` prints as ``text``; ValueError otherwise."""
    return BOTTOM if text == END else int(text)


BINARY_OPS = ("+", "-", "*", "<", "=", "&", "|", "^")


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


def _apply_unop(op: str, v: int, modulus: int) -> int:
    if op == "neg":
        return (-v) % modulus
    if op == "not":
        return 1 if v == 0 else 0
    raise StuckError(f"unknown unary operator {op!r}")


def _apply_binop(op: str, a: int, b: int, modulus: int) -> int:
    if op == "+":
        return (a + b) % modulus
    if op == "-":
        return (a - b) % modulus
    if op == "*":
        return (a * b) % modulus
    if op == "<":
        return 1 if a < b else 0
    if op == "=":
        return 1 if a == b else 0
    if op == "&":
        return (a & b) % modulus
    if op == "|":
        return (a | b) % modulus
    if op == "^":
        return (a ^ b) % modulus
    raise StuckError(f"unknown binary operator {op!r}")


def _apply(op: str, args, modulus: int) -> int:
    """``op``, an operator of ``_apply_unop`` or ``_apply_binop`` or
    ``ite``, applied to the naturals ``args``."""
    if op == "ite":
        cond, then, other = args
        return then if cond != 0 else other
    if len(args) == 1:
        return _apply_unop(op, args[0], modulus)
    return _apply_binop(op, args[0], args[1], modulus)


# A deferred value whose term would have more nodes is forced instead, so
# that evaluating, hashing and comparing terms, which walk the whole tree
# and recurse, stay cheap and shallow when a loop computes on a loaded
# value: a term that uses an operand twice, as in z <- z + z, doubles.
MAX_TERM_SIZE = 32


def term_value(term, mem: dict) -> int:
    """The value of a deferred value's ``term`` when memory is ``mem``.

    A term is a watched cell (an int), or a tuple ``(op, modulus, operand,
    ...)`` applying ``op`` (see ``_apply``) to operands that are terms or
    constants, a constant ``c`` written ``(c,)``.
    """
    if term.__class__ is int:
        return mem.get(term, 0)
    op, modulus, *operands = term
    args = [o[0] if o.__class__ is tuple and len(o) == 1 else term_value(o, mem) for o in operands]
    return _apply(op, args, modulus)


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
    v = Deferred(tuple(terms), _apply(op, values, modulus), reads, size)
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
        sub = eval_expr(e.arg, a, partial, modulus)
        if sub.__class__ is int:
            v = _apply_unop(e.op, sub, modulus)
        else:
            v = _lifted(e.op, (sub,), modulus)
    elif isinstance(e, BinOp):
        lhs = eval_expr(e.left, a, partial, modulus)
        rhs = eval_expr(e.right, a, partial, modulus)
        if lhs.__class__ is int and rhs.__class__ is int:
            v = _apply_binop(e.op, lhs, rhs, modulus)
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


def _name(name: str, lineno: int, column: int) -> str:
    """A register or label name; ``end`` is reserved for the undefined value."""
    if name == END:
        raise ParseError(f"{END!r} is reserved for the undefined value", lineno, column)
    return name


def _tokenize(code: str) -> list:
    """``(kind, value, column)`` tokens of one line; a punctuation token's
    kind is its text. The last token is ``eol``, or ``bad`` at the first
    character that starts no token, which the line's parser reports only
    when it reads the instruction, after every line's labels are bound."""
    tokens = []
    i, n = 0, len(code)
    while i < n:
        ch = code[i]
        j = i + 1
        if ch.isspace():
            pass
        elif code.startswith("<-", i):
            j = i + 2
            tokens.append(("<-", "<-", i + 1))
        elif ch.isdecimal():
            while j < n and code[j].isdecimal():
                j += 1
            tokens.append(("num", int(code[i:j]), i + 1))
        elif ch.isalpha() or ch == "_":
            while j < n and (code[j].isalnum() or code[j] == "_"):
                j += 1
            tokens.append(("ident", code[i:j], i + 1))
        elif ch in "()?,+-*<=&|^!:":
            tokens.append((ch, ch, i + 1))
        else:
            return tokens + [("bad", ch, i + 1)]
        i = j
    tokens.append(("eol", None, n + 1))
    return tokens


class _Line:
    """Recursive-descent parser of one program line, label prefixes first.

    Grammar (loosest binding first):
        line   := (ident ':')* [instr]
        instr  := 'skip' | 'spbarr' | 'jmp' expr | 'beqz' ident ',' target
                | ('load' | 'store') ident ',' expr
                | ident '<-' expr ['?' expr]   -- guard first: x <- g ? e
        expr   := term (binop term)*          -- left associative, one level
        term   := num | ident | '(' expr ')' | '!' term | '-' term
                | 'ite' '(' expr ',' expr ',' expr ')'
    All binary operators share one precedence level; parenthesize to nest.
    """

    def __init__(self, raw: str, lineno: int, labels: dict, addr: int):
        """Tokenize ``raw`` and bind its labels in ``labels`` to ``addr``."""
        self.code = raw.split("#", 1)[0]
        self.lineno = lineno
        self.tokens = _tokenize(self.code)
        self.pos = 0
        self.labels = labels
        while self.tokens[self.pos][0] == "ident" and self.tokens[self.pos + 1][0] == ":":
            _, label, column = self.tokens[self.pos]
            if _name(label, lineno, column) in labels:
                raise ParseError(f"duplicate label {label!r}", lineno, column)
            labels[label] = addr
            self.pos += 2
        self.column = self.peek()[2]

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] == "eol":
            raise ParseError("unexpected end of line", self.lineno, tok[2])
        self.pos += 1
        return tok

    def accept(self, kind) -> bool:
        """Take the next token when it is a ``kind``."""
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", self.lineno, tok[2])

    def instr(self) -> Instr:
        """The line's instruction, which must end the line."""
        kind, ch, column = self.tokens[-1]
        if kind == "bad":
            raise ParseError(f"unexpected character {ch!r}", self.lineno, column)
        kind, head, column = self.take()
        after = self.peek()[0]
        if head in ("skip", "spbarr") and after == "eol":
            ins = Skip() if head == "skip" else Barrier()
        elif head == "jmp":
            ins = Jmp(self.expr())
        elif head == "beqz":
            ins = Beqz(self.operand("expected: beqz x, LBL|end"), self.branch_target())
        elif head in ("load", "store"):
            reg = self.operand(f"expected: {head} x, e")
            ins = (Load if head == "load" else Store)(reg, self.expr())
        elif kind == "ident" and after == "<-":
            target = self.register(head, column)
            self.take()
            g = self.expr()  # the guard when a '?' follows
            ins = CondAssign(target, self.expr(), g) if self.accept("?") else Assign(target, g)
        else:
            text = self.code[column - 1:].strip()
            raise ParseError(f"unrecognized instruction {text!r}", self.lineno, column)
        _, val, column = self.peek()
        if val is not None:
            raise ParseError(f"trailing tokens starting at {val!r}", self.lineno, column)
        return ins

    def operand(self, usage: str) -> str:
        """The register ``x`` of ``op x, ...``; ``usage`` where that shape breaks."""
        _, reg, column = self.peek()
        if self.accept("ident") and self.accept(",") and self.peek()[0] != "eol":
            return self.register(reg, column)
        raise ParseError(usage, self.lineno, self.peek()[2])

    def register(self, name: str, column: int) -> str:
        """A name in a register position, which no label may share."""
        if name in self.labels:
            raise ParseError(f"label {name!r} used as a register", self.lineno, column)
        return _name(name, self.lineno, column)

    def branch_target(self) -> Value:
        kind, val, column = self.take()
        if kind not in ("ident", "num") or self.peek()[0] != "eol":
            raise ParseError("branch target must be a label, number, or end", self.lineno, column)
        if kind == "num" or val == END:
            return parse_value(str(val))
        if val not in self.labels:
            raise ParseError(f"unknown label {val!r}", self.lineno, column)
        return self.labels[val]

    def expr(self) -> Expr:
        left = self.term()
        while self.peek()[0] in BINARY_OPS:
            left = BinOp(self.take()[0], left, self.term())
        return left

    def term(self) -> Expr:
        kind, val, column = self.take()
        if kind == "num":
            return Const(val)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "!":
            return UnOp("not", self.term())
        if kind == "-":
            return UnOp("neg", self.term())
        if kind == "ident":
            if val == "ite" and self.accept("("):
                cond = self.expr()
                self.expect(",")
                then = self.expr()
                self.expect(",")
                other = self.expr()
                self.expect(")")
                return Ite(cond, then, other)
            if val in self.labels:
                return Const(self.labels[val])
            return Reg(_name(val, self.lineno, column))
        raise ParseError(f"unexpected token {val!r}", self.lineno, column)


def parse_program(text: str) -> Program:
    """Parse program text into a well-formed Program.

    One instruction per line; ``LBL:`` prefixes define labels, ``#`` starts
    a comment, ``end`` denotes the undefined branch target and nothing else.
    Errors name the 1-based line and column of the raw text.
    """
    labels, lines = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _Line(raw, lineno, labels, len(lines))
        if line.peek()[0] != "eol":
            lines.append(line)
    program = Program(tuple(line.instr() for line in lines))
    for addr, msg in check_well_formed(program)[:1]:
        raise ParseError(f"ill-formed program: {msg}", lines[addr].lineno, lines[addr].column)
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
        mark = "!" if e.op == "not" else "-"
        return f"{mark}{_atom(e.arg)}"
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
