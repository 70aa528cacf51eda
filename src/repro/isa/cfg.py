"""Control-flow analysis for reconvergence points.

The stack-based divergence mechanism of the paper (after the Coon &
Lindholm patent) needs every potentially divergent branch to know its
*reconvergence PC* -- the point where the serialized sides of the branch
rejoin.  Real GPUs get this from the compiler (SSY instructions); our
assembler computes it as the immediate post-dominator of the branch
instruction over the kernel's control-flow graph.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from .instructions import Instruction

#: Sentinel PC used as reconvergence point for branches whose sides only
#: rejoin at kernel exit.  One past the last instruction.
EXIT_PC_SENTINEL = -1


def basic_block_leaders(instructions: Sequence[Instruction]) -> List[int]:
    """Return sorted PCs that start a basic block.

    Raises:
        ValueError: On an unresolved branch (``target is None``) or a
            branch target outside ``[0, len(instructions))``.  An
            out-of-range target is always an assembler bug; clamping it
            to the exit sentinel (the old behaviour) silently turned a
            wild jump into a normal kernel exit.
    """
    leaders: Set[int] = {0} if instructions else set()
    for pc, inst in enumerate(instructions):
        if inst.is_branch:
            if inst.target is None:
                raise ValueError(f"unresolved branch target at pc {pc}")
            if not 0 <= inst.target < len(instructions):
                raise ValueError(
                    f"branch target {inst.target} at pc {pc} is outside "
                    f"the program (valid range 0..{len(instructions) - 1})"
                )
            leaders.add(inst.target)
            if pc + 1 < len(instructions):
                leaders.add(pc + 1)
        elif inst.op == "EXIT" and pc + 1 < len(instructions):
            leaders.add(pc + 1)
    return sorted(leaders)


def build_cfg(instructions: Sequence[Instruction]) -> Dict[int, List[int]]:
    """Build a block-level CFG: leader PC -> successor leader PCs.

    A virtual exit node :data:`EXIT_PC_SENTINEL` collects all terminating
    paths so post-dominance is well defined even with multiple EXITs.
    """
    leaders = basic_block_leaders(instructions)
    leader_set = set(leaders)
    cfg: Dict[int, List[int]] = {EXIT_PC_SENTINEL: []}
    for i, leader in enumerate(leaders):
        end = leaders[i + 1] if i + 1 < len(leaders) else len(instructions)
        last = instructions[end - 1]
        succs: List[int] = []
        if last.op == "EXIT":
            succs.append(EXIT_PC_SENTINEL)
        elif last.op == "JMP":
            succs.append(last.target if last.target in leader_set
                         else EXIT_PC_SENTINEL)
        elif last.op == "BRA":
            succs.append(last.target if last.target in leader_set
                         else EXIT_PC_SENTINEL)
            succs.append(end if end in leader_set else EXIT_PC_SENTINEL)
        else:
            succs.append(end if end in leader_set else EXIT_PC_SENTINEL)
        # Deduplicate while keeping order.
        cfg[leader] = list(dict.fromkeys(succs))
    return cfg


def predecessors(cfg: Dict[int, List[int]]) -> Dict[int, List[int]]:
    """Invert the successor map: node -> predecessor nodes (sorted)."""
    preds: Dict[int, List[int]] = {n: [] for n in cfg}
    for node, succs in cfg.items():
        for succ in succs:
            preds.setdefault(succ, []).append(node)
    return {n: sorted(ps) for n, ps in preds.items()}


def _reaches_exit(cfg: Dict[int, List[int]]) -> Set[int]:
    """Nodes with at least one path to the virtual exit node."""
    preds = predecessors(cfg)
    seen: Set[int] = {EXIT_PC_SENTINEL}
    stack = [EXIT_PC_SENTINEL]
    while stack:
        for pred in preds.get(stack.pop(), ()):
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return seen


def post_dominators(cfg: Dict[int, List[int]]) -> Dict[int, Set[int]]:
    """Iterative post-dominator sets over the block CFG.

    Nodes with no path to the virtual exit (infinite loops, and
    unreachable blocks that only feed such loops) get the degenerate
    ``{node}``: the greatest-fixpoint iteration would otherwise leave
    their sets saturated with every node, which downstream consumers
    (reconvergence, the static analyzer) would misread as real
    post-dominance.
    """
    nodes = list(cfg)
    exiting = _reaches_exit(cfg)
    pdom: Dict[int, Set[int]] = {}
    for n in nodes:
        pdom[n] = set(nodes) if n in exiting else {n}
    pdom[EXIT_PC_SENTINEL] = {EXIT_PC_SENTINEL}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            if node == EXIT_PC_SENTINEL or node not in exiting:
                continue
            # Only successors on exit-reaching paths constrain the set;
            # a side edge into an infinite loop is not a path to exit.
            succs = [s for s in cfg[node] if s in exiting]
            if succs:
                new = set.intersection(*(pdom[s] for s in succs))
            else:
                new = set()
            new = new | {node}
            if new != pdom[node]:
                pdom[node] = new
                changed = True
    return pdom


def immediate_post_dominators(cfg: Dict[int, List[int]]) -> Dict[int, int]:
    """Immediate post-dominator of each block leader.

    The ipdom of ``n`` is the post-dominator (other than ``n``) that is
    post-dominated by every other strict post-dominator of ``n`` -- i.e.
    the *closest* one on every path to exit.
    """
    pdom = post_dominators(cfg)
    ipdom: Dict[int, int] = {}
    for node in cfg:
        if node == EXIT_PC_SENTINEL:
            continue
        strict = pdom[node] - {node}
        best = EXIT_PC_SENTINEL
        for cand in sorted(strict):
            # cand is the immediate pdom if every other strict pdom
            # post-dominates cand.
            if all(other == cand or other in pdom[cand] for other in strict):
                best = cand
                break
        ipdom[node] = best
    return ipdom


def dominators(cfg: Dict[int, List[int]],
               entry: int = 0) -> Dict[int, Set[int]]:
    """Forward dominator sets over the block CFG.

    ``d`` dominates ``n`` when every path from ``entry`` to ``n`` passes
    through ``d``.  Blocks unreachable from ``entry`` get the degenerate
    ``{node}`` (nothing on a nonexistent path dominates anything).
    """
    nodes = list(cfg)
    preds = predecessors(cfg)
    # Reachability from entry.
    reachable: Set[int] = set()
    stack = [entry] if entry in cfg else []
    while stack:
        node = stack.pop()
        if node in reachable:
            continue
        reachable.add(node)
        stack.extend(cfg[node])
    dom: Dict[int, Set[int]] = {}
    for n in nodes:
        if n == entry:
            dom[n] = {n}
        elif n in reachable:
            dom[n] = set(nodes)
        else:
            dom[n] = {n}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            if node == entry or node not in reachable:
                continue
            ps = [p for p in preds.get(node, ()) if p in reachable]
            if ps:
                new = set.intersection(*(dom[p] for p in ps))
            else:
                new = set()
            new = new | {node}
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom


def attach_reconvergence_pcs(instructions: Sequence[Instruction]) -> None:
    """Annotate every conditional branch with its reconvergence PC.

    Mutates ``inst.reconv_pc`` in place.  Unconditional JMPs never
    diverge and get no reconvergence point.
    """
    if not instructions:
        return
    leaders = basic_block_leaders(instructions)
    cfg = build_cfg(instructions)
    ipdom = immediate_post_dominators(cfg)

    # Map each pc to its block leader.
    block_of: Dict[int, int] = {}
    for i, leader in enumerate(leaders):
        end = leaders[i + 1] if i + 1 < len(leaders) else len(instructions)
        for pc in range(leader, end):
            block_of[pc] = leader

    for pc, inst in enumerate(instructions):
        if inst.op == "BRA":
            inst.reconv_pc = ipdom[block_of[pc]]
