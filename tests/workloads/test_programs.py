"""The real OPS5 programs: correctness of the domain behaviour."""

import pytest

from repro.kernel import CompiledMatcher
from repro.naive import NaiveMatcher
from repro.oflazer import CombinationMatcher
from repro.rete import ReteNetwork
from repro.treat import TreatMatcher
from repro.workloads.programs import blocks, closure, eight_puzzle, hanoi, monkey


class TestHanoi:
    @pytest.mark.parametrize("disks", [1, 2, 3, 4, 5])
    def test_optimal_move_count(self, disks):
        result = hanoi.run(disks)
        moves = [line for line in result.output if line.startswith("move")]
        assert len(moves) == hanoi.expected_moves(disks)
        assert result.halted and result.halt_reason == "halt action"

    def test_moves_are_legal(self):
        """Replay the move log: never place a disk on a smaller one."""
        result = hanoi.run(4)
        pegs = {1: [4, 3, 2, 1], 2: [], 3: []}
        for line in result.output:
            if not line.startswith("move"):
                continue
            _, size, source, target = line.split()
            size, source, target = int(size), int(source), int(target)
            assert pegs[source] and pegs[source][-1] == size
            assert not pegs[target] or pegs[target][-1] > size
            pegs[target].append(pegs[source].pop())
        assert pegs[3] == [4, 3, 2, 1]

    def test_goals_cleaned_up(self):
        system = hanoi.build(3)
        system.run()
        assert system.memory.of_class("goal") == []


class TestBlocks:
    def test_default_scenario_reaches_goal(self):
        system = blocks.build()
        result = system.run(max_cycles=200)
        assert result.halted
        on = {
            (wme.get("top"), wme.get("bottom")) for wme in system.memory.of_class("on")
        }
        assert ("e", "b") in on
        assert ("c", "e") in on
        assert ("d", "c") in on

    def test_clearing_rule_used(self):
        result = blocks.run()
        assert any(line.startswith("cleared") for line in result.output)

    def test_custom_goals(self):
        system = blocks.build()
        assert system.run(max_cycles=200).halted


class TestMonkey:
    def test_story_order(self):
        result = monkey.run()
        assert result.output == [
            "monkey walks to window",
            "monkey pushes ladder to center",
            "monkey climbs",
            "monkey grabs bananas",
            "burp",
        ]
        assert result.fired == 5


class TestEightPuzzle:
    def test_easy_instance_solves(self):
        result = eight_puzzle.run(eight_puzzle.EASY)
        assert result.output[-1] == "solved"
        assert result.fired == 3

    def test_medium_instance_solves(self):
        result = eight_puzzle.run(eight_puzzle.MEDIUM)
        assert result.output[-1] == "solved"

    def test_solved_board_halts_immediately(self):
        solved = (1, 2, 3, 4, 5, 6, 7, 8, 0)
        result = eight_puzzle.run(solved)
        assert result.fired == 1
        assert result.output == ["solved"]

    def test_board_validated(self):
        with pytest.raises(ValueError):
            eight_puzzle.setup((1, 1, 2, 3, 4, 5, 6, 7, 8))

    def test_exploratory_variant_runs_bounded(self):
        system = eight_puzzle.build((2, 1, 3, 4, 5, 6, 7, 8, 0), exploratory=True)
        result = system.run(max_cycles=20)
        assert result.fired <= 20


class TestClosure:
    @pytest.mark.parametrize("length", [1, 3, 6])
    def test_chain_fact_count(self, length):
        system = closure.build(closure.chain(length))
        system.run(5000)
        assert closure.derived_facts(system) == closure.expected_chain_facts(length)

    def test_tree_fact_count(self):
        system = closure.build(closure.tree(3, 2))
        system.run(5000)
        # ancestors = sum over levels of nodes * depth: 2*1 + 4*2 + 8*3.
        assert closure.derived_facts(system) == 34

    def test_halts_at_fixpoint(self):
        system = closure.build(closure.chain(4))
        result = system.run(5000)
        assert result.halted
        assert result.halt_reason == "no satisfied production"


MATCHERS = [ReteNetwork, TreatMatcher, NaiveMatcher, CombinationMatcher, CompiledMatcher]


class TestMatcherAgreementOnPrograms:
    """Every program behaves identically under every matcher."""

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_hanoi(self, matcher_cls):
        result = hanoi.run(3, matcher=matcher_cls())
        moves = [line for line in result.output if line.startswith("move")]
        assert len(moves) == 7

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_monkey(self, matcher_cls):
        assert monkey.run(matcher=matcher_cls()).fired == 5

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_blocks(self, matcher_cls):
        reference = blocks.run().output
        assert blocks.build(matcher=matcher_cls()).run(200).output == reference

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_closure(self, matcher_cls):
        system = closure.build(closure.chain(4), matcher=matcher_cls())
        system.run(5000)
        assert closure.derived_facts(system) == 10
