"""uAsm abstract syntax, textual format, expression evaluation, well-formedness.

A program is a sequence of instructions at consecutive addresses starting
at 0.  Values are naturals plus a distinguished undefined value ``BOTTOM``
(printed ``end``); arithmetic wraps modulo a configurable power of two.
"""
from __future__ import annotations

from dataclasses import dataclass
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

Value = Union[int, Bottom]


def is_value(v) -> bool:
    return isinstance(v, int) or v is BOTTOM


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


def eval_expr(e: Expr, a, partial: bool = False, modulus: int = DEFAULT_MODULUS) -> Value:
    """Evaluate ``e`` under register assignment ``a`` (a mapping).

    Total mode raises StuckError on BOTTOM; partial mode propagates it
    through every operator, ite included.
    """
    if isinstance(e, Const):
        v = e.value
    elif isinstance(e, Reg):
        v = a[e.name]
    elif isinstance(e, UnOp):
        sub = eval_expr(e.arg, a, partial, modulus)
        v = BOTTOM if sub is BOTTOM else _apply_unop(e.op, sub, modulus)
    elif isinstance(e, BinOp):
        lhs = eval_expr(e.left, a, partial, modulus)
        rhs = eval_expr(e.right, a, partial, modulus)
        v = BOTTOM if (lhs is BOTTOM or rhs is BOTTOM) else _apply_binop(e.op, lhs, rhs, modulus)
    elif isinstance(e, Ite):
        cond = eval_expr(e.cond, a, partial, modulus)
        then = eval_expr(e.then, a, partial, modulus)
        other = eval_expr(e.other, a, partial, modulus)
        if cond is BOTTOM or then is BOTTOM or other is BOTTOM:
            v = BOTTOM
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

    @property
    def registers(self) -> tuple:
        """All register names mentioned by the program, plus pc, sorted."""
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

    def branch_targets(self) -> dict:
        """Map from branch address to its taken target."""
        return {
            addr: ins.target
            for addr, ins in enumerate(self.instrs)
            if isinstance(ins, Beqz)
        }


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
    def __init__(self, message: str, line: int, column: int = 0):
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


def _tokenize(text: str, lineno: int) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if text.startswith("<-", i):
            tokens.append(("punct", "<-", i))
            i += 2
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in "()?,+-*<=&|^!:":
            tokens.append(("punct", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, i + 1)
    return tokens


class _ExprParser:
    """Recursive-descent expression parser.

    Grammar (loosest binding first):
        expr   := term (binop term)*          -- left associative, one level
        term   := num | ident | '(' expr ')' | '!' term | '-' term
                | 'ite' '(' expr ',' expr ',' expr ')'
    All binary operators share one precedence level; parenthesize to nest.
    """

    def __init__(self, tokens, lineno, labels):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.labels = labels

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.lineno)
        self.pos += 1
        return tok

    def expect(self, value):
        tok = self.take()
        if tok[0] != "punct" or tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", self.lineno, tok[2] + 1)

    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "punct" or tok[1] not in BINARY_OPS:
                return left
            self.take()
            right = self.parse_term()
            left = BinOp(tok[1], left, right)

    def parse_term(self) -> Expr:
        tok = self.take()
        kind, val, col = tok
        if kind == "num":
            return Const(val)
        if kind == "punct" and val == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "punct" and val == "!":
            return UnOp("not", self.parse_term())
        if kind == "punct" and val == "-":
            return UnOp("neg", self.parse_term())
        if kind == "ident":
            if val == "ite" and self.peek() is not None and self.peek()[1] == "(":
                self.take()
                cond = self.parse_expr()
                self.expect(",")
                then = self.parse_expr()
                self.expect(",")
                other = self.parse_expr()
                self.expect(")")
                return Ite(cond, then, other)
            if val in self.labels:
                return Const(self.labels[val])
            return Reg(_name(val, self.lineno, col + 1))
        raise ParseError(f"unexpected token {val!r}", self.lineno, col + 1)


def parse_program(text: str) -> Program:
    """Parse program text into a well-formed Program.

    One instruction per line; ``LBL:`` prefixes define labels, ``#`` starts
    a comment, ``end`` denotes the undefined branch target and nothing else.
    """
    # first pass: record labels against instruction addresses
    lines = []
    labels = {}
    addr = 0
    for lineno, line in text_lines(text):
        while True:
            head, sep, rest = line.partition(":")
            if sep and head.strip() and all(c.isalnum() or c == "_" for c in head.strip()) \
                    and not head.strip()[0].isdigit():
                label = _name(head.strip(), lineno, 1)
                if label in labels:
                    raise ParseError(f"duplicate label {label!r}", lineno)
                labels[label] = addr
                line = rest.strip()
                if not line:
                    break
            else:
                break
        if line:
            lines.append((lineno, line))
            addr += 1

    program = Program(tuple(_parse_instr(line, lineno, labels) for lineno, line in lines))
    problems = check_well_formed(program)
    if problems:
        addr, msg = problems[0]
        raise ParseError(f"ill-formed program: {msg}", 0)
    return program


def _parse_instr(line: str, lineno: int, labels: dict) -> Instr:
    tokens = _tokenize(line, lineno)
    if not tokens:
        raise ParseError("empty instruction", lineno)
    kind, head, _ = tokens[0]

    def expr_from(toks) -> Expr:
        parser = _ExprParser(toks, lineno, labels)
        e = parser.parse_expr()
        if parser.peek() is not None:
            tok = parser.peek()
            raise ParseError(f"trailing tokens starting at {tok[1]!r}", lineno, tok[2] + 1)
        return e

    if kind == "ident" and head == "skip" and len(tokens) == 1:
        return Skip()
    if kind == "ident" and head == "spbarr" and len(tokens) == 1:
        return Barrier()
    if kind == "ident" and head == "jmp":
        return Jmp(expr_from(tokens[1:]))
    if kind == "ident" and head == "beqz":
        if len(tokens) < 4 or tokens[1][0] != "ident" or tokens[2][1] != ",":
            raise ParseError("expected: beqz x, LBL|end", lineno)
        guard = _name(tokens[1][1], lineno, tokens[1][2] + 1)
        target_toks = tokens[3:]
        if len(target_toks) != 1:
            raise ParseError("branch target must be a label, number, or end", lineno)
        tk, tv, tc = target_toks[0]
        if tk == "ident" and tv in labels:
            target = labels[tv]
        elif tk == "ident" and tv != END:
            raise ParseError(f"unknown label {tv!r}", lineno, tc + 1)
        elif tk == "punct":
            raise ParseError("branch target must be a label, number, or end", lineno, tc + 1)
        else:
            target = parse_value(str(tv))
        return Beqz(guard, target)
    if kind == "ident" and head in ("load", "store"):
        if len(tokens) < 4 or tokens[1][0] != "ident" or tokens[2][1] != ",":
            raise ParseError(f"expected: {head} x, e", lineno)
        reg = _name(tokens[1][1], lineno, tokens[1][2] + 1)
        addr_expr = expr_from(tokens[3:])
        return Load(reg, addr_expr) if head == "load" else Store(reg, addr_expr)
    if kind == "ident" and len(tokens) >= 2 and tokens[1][1] == "<-":
        target = _name(head, lineno, tokens[0][2] + 1)
        rhs = tokens[2:]
        qmarks = [i for i, t in enumerate(rhs) if t[0] == "punct" and t[1] == "?" and _at_top_level(rhs, i)]
        if qmarks:
            guard = expr_from(rhs[: qmarks[0]])
            expr = expr_from(rhs[qmarks[0] + 1:])
            return CondAssign(target, expr, guard)
        return Assign(target, expr_from(rhs))
    raise ParseError(f"unrecognized instruction {line!r}", lineno)


def _at_top_level(tokens, index) -> bool:
    depth = 0
    for i, (kind, val, _) in enumerate(tokens):
        if i == index:
            return depth == 0
        if kind == "punct" and val == "(":
            depth += 1
        elif kind == "punct" and val == ")":
            depth -= 1
    return False


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
