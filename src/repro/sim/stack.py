"""Per-warp reconvergence stack (stack-based divergence handling).

The paper (Section III-C1): "To achieve this serialization and keep track
of the thread IDs that have to execute certain branch outcomes, the
hardware uses a stack memory called the reconvergence stack.  For each
individual in-flight warp, the hardware maintains a separate stack.  In
our model, a stack consists of tokens, each of which contains an
execution PC, a reconvergence PC, and an active mask for that warp and
code block."

This is that structure.  The warp always executes the top token's PC in
the top token's active lanes; a divergent branch converts the top token
into the reconvergence token and pushes one token per branch side; when
execution reaches a token's reconvergence PC the token is popped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..isa.cfg import EXIT_PC_SENTINEL


@dataclass
class Token:
    """One stack entry: execution PC, reconvergence PC, active mask."""

    pc: int
    reconv_pc: int
    mask: np.ndarray  # bool lane vector


class ReconvergenceStack:
    """Divergence stack for one warp.

    Activity accounting: ``pushes``/``pops``/``reads`` count the stack
    memory operations for the power model.
    """

    def __init__(self, warp_size: int,
                 initial_mask: Optional[np.ndarray] = None) -> None:
        self.warp_size = warp_size
        if initial_mask is None:
            initial_mask = np.ones(warp_size, dtype=bool)
        self._tokens: List[Token] = [Token(0, EXIT_PC_SENTINEL,
                                           initial_mask.copy())]
        self.pushes = 0
        self.pops = 0
        self.reads = 0
        self.max_depth = 1

    # -- observers ------------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not self._tokens

    @property
    def depth(self) -> int:
        return len(self._tokens)

    def top(self) -> Token:
        """Current execution token (counts one stack read)."""
        self.reads += 1
        return self._tokens[-1]

    def current(self) -> Tuple[int, np.ndarray]:
        """(pc, active mask) of the executing token; empty stack -> done."""
        if not self._tokens:
            return EXIT_PC_SENTINEL, np.zeros(self.warp_size, dtype=bool)
        t = self._tokens[-1]
        return t.pc, t.mask

    # -- mutations ------------------------------------------------------------

    def advance(self, new_pc: int) -> None:
        """Sequential or uniform-branch PC update of the top token.

        Pops tokens whose reconvergence point has been reached.
        """
        if not self._tokens:
            raise RuntimeError("advance on an empty reconvergence stack")
        self._tokens[-1].pc = new_pc
        self.pop_reconverged()

    def diverge(self, taken_mask: np.ndarray, target: int,
                fallthrough: int, reconv_pc: Optional[int]) -> bool:
        """Apply a conditional branch outcome.

        Returns True if the branch actually diverged (both sides
        non-empty), which costs two pushes; uniform outcomes are plain PC
        updates.
        """
        if not self._tokens:
            raise RuntimeError("branch on an empty reconvergence stack")
        top = self._tokens[-1]
        active = top.mask
        taken = taken_mask & active
        not_taken = active & ~taken
        if not taken.any():
            self.advance(fallthrough)
            return False
        if not not_taken.any():
            self.advance(target)
            return False
        rpc = EXIT_PC_SENTINEL if reconv_pc is None else reconv_pc
        # Top token becomes the reconvergence token.  A side whose entry
        # PC already *is* the reconvergence point needs no token of its
        # own -- those lanes simply wait, reconverged (this happens for
        # forward branches straight to the join point, and for the
        # fall-through side of backward loop branches).
        top.pc = rpc
        for side_pc, side_mask in ((fallthrough, not_taken), (target, taken)):
            if side_pc != rpc:
                self._tokens.append(Token(side_pc, rpc, side_mask))
                self.pushes += 1
        self.max_depth = max(self.max_depth, len(self._tokens))
        return True

    def exit_lanes(self, mask: np.ndarray) -> None:
        """Remove exiting lanes from every token; pop emptied tokens."""
        for token in self._tokens:
            token.mask = token.mask & ~mask
        while self._tokens and not self._tokens[-1].mask.any():
            self._tokens.pop()
            self.pops += 1

    def pop_reconverged(self) -> None:
        """Pop the tokens whose reconvergence point execution reached.

        A token is complete when execution reaches its reconvergence
        point; control continues in the token below (which the diverge
        operation left parked at the same PC).
        """
        while (len(self._tokens) > 1
               and self._tokens[-1].pc == self._tokens[-1].reconv_pc
               and self._tokens[-1].reconv_pc != EXIT_PC_SENTINEL):
            self._tokens.pop()
            self.pops += 1
