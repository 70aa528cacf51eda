"""Unit tests for control-flow analysis (post-dominator reconvergence)."""

from repro.isa.cfg import (EXIT_PC_SENTINEL, basic_block_leaders, build_cfg,
                           immediate_post_dominators, post_dominators)
from repro.isa.instructions import Instruction, Pred


def straightline(n):
    return [Instruction("NOP") for _ in range(n - 1)] + [Instruction("EXIT")]


def diamond():
    """0:BRA->3  1:NOP 2:JMP->4  3:NOP  4:EXIT"""
    return [
        Instruction("BRA", guard=(Pred(0), True), target=3),
        Instruction("NOP"),
        Instruction("JMP", target=4),
        Instruction("NOP"),
        Instruction("EXIT"),
    ]


class TestLeaders:
    def test_straightline_single_block(self):
        assert basic_block_leaders(straightline(4)) == [0]

    def test_branch_splits_blocks(self):
        assert basic_block_leaders(diamond()) == [0, 1, 3, 4]

    def test_empty_program(self):
        assert basic_block_leaders([]) == []


class TestCFG:
    def test_diamond_edges(self):
        cfg = build_cfg(diamond())
        assert set(cfg[0]) == {3, 1}
        assert cfg[1] == [4]
        assert cfg[3] == [4]
        assert cfg[4] == [EXIT_PC_SENTINEL]

    def test_straightline_flows_to_exit(self):
        cfg = build_cfg(straightline(3))
        assert cfg[0] == [EXIT_PC_SENTINEL]


class TestPostDominators:
    def test_diamond_join_postdominates_all(self):
        cfg = build_cfg(diamond())
        pdom = post_dominators(cfg)
        for node in (0, 1, 3):
            assert 4 in pdom[node]

    def test_branch_sides_do_not_postdominate_entry(self):
        cfg = build_cfg(diamond())
        pdom = post_dominators(cfg)
        assert 1 not in pdom[0] or 1 == 0
        assert 3 not in pdom[0]

    def test_ipdom_of_diamond_entry_is_join(self):
        cfg = build_cfg(diamond())
        ipdom = immediate_post_dominators(cfg)
        assert ipdom[0] == 4

    def test_ipdom_nested(self):
        # 0:BRA->5 1:NOP 2:BRA->4 3:NOP 4:JMP->5 5:EXIT
        prog = [
            Instruction("BRA", guard=(Pred(0), True), target=5),
            Instruction("NOP"),
            Instruction("BRA", guard=(Pred(1), True), target=4),
            Instruction("NOP"),
            Instruction("JMP", target=5),
            Instruction("EXIT"),
        ]
        cfg = build_cfg(prog)
        ipdom = immediate_post_dominators(cfg)
        assert ipdom[0] == 5     # outer reconverges at exit block
        assert ipdom[3] == 4     # inner at the inner join

    def test_multiple_exits_use_sentinel(self):
        # 0:BRA->2 1:EXIT 2:EXIT -- no common postdominator but sentinel
        prog = [
            Instruction("BRA", guard=(Pred(0), True), target=2),
            Instruction("EXIT"),
            Instruction("EXIT"),
        ]
        cfg = build_cfg(prog)
        ipdom = immediate_post_dominators(cfg)
        assert ipdom[0] == EXIT_PC_SENTINEL


class TestEdgeCases:
    def test_leaders_reject_out_of_range_target(self):
        import pytest
        prog = [Instruction("BRA", guard=(Pred(0), True), target=7),
                Instruction("EXIT")]
        with pytest.raises(ValueError, match="target"):
            basic_block_leaders(prog)

    def test_unreachable_block_keeps_post_dominators_sound(self):
        # 0:JMP->2  1:NOP (unreachable)  2:EXIT
        prog = [Instruction("JMP", target=2),
                Instruction("NOP"),
                Instruction("EXIT")]
        cfg = build_cfg(prog)
        pdom = post_dominators(cfg)
        assert 2 in pdom[0]
        ipdom = immediate_post_dominators(cfg)
        assert ipdom[0] == 2
