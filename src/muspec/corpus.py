"""The shipped program corpus and its desk-scale memory layout.

Layout for the P-family (modulus 16): array A at 4 with 2 in-bounds cells
(4, 5), overflow index 3 so the out-of-bounds cell is 7, array B at 8 with
stride 2 so dependent accesses land on 8/10/12/14.  The bounds check fails
architecturally, making every leak purely speculative.  ex1 keeps the
classic large-stride layout (A at 8, B at 12, in-bounds index 1).
"""
from __future__ import annotations

from .isa import Program, parse_program

# if (y < size_A) { z = A[y]; w = B[z * stride]; }  -- bounds check first
P1 = """\
x <- 3 < 2          # y < size_A
beqz x, end
load z, 4 + 3       # A[y], out of bounds
z <- z * 2
load w, 8 + z       # B[z]
"""

# fenced: speculation barrier after the branch
P1_F = """\
x <- 3 < 2
beqz x, end
spbarr
load z, 4 + 3
z <- z * 2
load w, 8 + z
"""

# control-flow variant: branch on the speculatively loaded value
P1_PRIME = """\
x <- 3 < 2
beqz x, end
load z, 4 + 3
beqz z, end
load w, 8 + 0
"""

P1_PRIME_F = """\
x <- 3 < 2
beqz x, end
spbarr
load z, 4 + 3
beqz z, end
spbarr
load w, 8 + 0
"""

# access before the bounds check, leak after it
P2 = """\
load z, 4 + 3       # A[y] read non-speculatively
x <- 3 < 2
beqz x, end
z <- z * 2
load w, 8 + z
"""

P2_F = """\
load z, 4 + 3
x <- 3 < 2
beqz x, end
spbarr
z <- z * 2
load w, 8 + z
"""

P2_PRIME = """\
load z, 4 + 3
x <- 3 < 2
beqz x, end
beqz z, end
load w, 8 + 0
"""

P2_PRIME_F = """\
load z, 4 + 3
x <- 3 < 2
beqz x, end
spbarr
beqz z, end
spbarr
load w, 8 + 0
"""

# the in-bounds run: terminates with w = B[A[1] * 64]
EX1 = """\
x <- 1 < 2          # y < size_A with y = 1
beqz x, end
load z, 8 + 1       # A[y]
z <- z * 64
load w, 12 + z      # B[z]
"""

# instruction-cache leak under eager load delay: the nested branch reads a
# value that was loaded well before any speculation started
EX2 = """\
load x, 10
load y, 11
y <- !(y | 1)       # always 0
beqz y, end         # never falls through architecturally
beqz x, end         # reached speculatively only
skip
"""

TRIVIA_SKIP = "skip\n"

TRIVIA_LOOP = "L: jmp L\n"

# low addresses for the P-family policy: in-bounds A plus all of B's range
TABLE_POLICY_LOW = ((4, 5), (8, 15))

# name -> (listing, default enumeration ranges ((addr, lo, hi), ...))
_CORPUS = {
    "P1": (P1, ((7, 0, 3),)),
    "P1f": (P1_F, ((7, 0, 3),)),
    "P1'": (P1_PRIME, ((7, 0, 3),)),
    "P1'f": (P1_PRIME_F, ((7, 0, 3),)),
    "P2": (P2, ((7, 0, 3),)),
    "P2f": (P2_F, ((7, 0, 3),)),
    "P2'": (P2_PRIME, ((7, 0, 3),)),
    "P2'f": (P2_PRIME_F, ((7, 0, 3),)),
    "ex1": (EX1, ((9, 0, 3), (12, 0, 3))),
    "ex2": (EX2, ((10, 0, 1), (11, 0, 1))),
    "ex3": (P2, ((7, 0, 3),)),  # the taint-tracking counterexample runs on the P2 listing
    "skip": (TRIVIA_SKIP, ((0, 0, 3),)),
    "loop": (TRIVIA_LOOP, ((0, 0, 1),)),
}


def names() -> tuple:
    return tuple(_CORPUS)

def program_names() -> tuple:
    """Corpus members that terminate (everything but the fuel-test loop)."""
    return tuple(n for n in _CORPUS if n != "loop")


def load(name: str) -> Program:
    return parse_program(_CORPUS[name][0])


def default_vary(name: str) -> tuple:
    return _CORPUS[name][1]
